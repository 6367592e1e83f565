"""Certified complex root isolation for squarefree integer polynomials.

Aberth-Ehrlich iteration (the MPSolve design of Bini and Fiorentino)
approximates all roots at once in fixed-point Gaussian-integer arithmetic,
starting from an off-axis circle that encloses them, at 64 fractional bits
and then at doubling precision until the estimates are proved.  The proof
is a Krawczyk test, in exact Fraction arithmetic, on a small box around
each estimate (Rump, "Verification methods", Acta Numerica 2010): a
certified box holds exactly one root, and one symmetric about the real
axis holds a real root.  deg(f) pairwise disjoint certified boxes, counting
each box above the axis with its mirror image, prove that none is missing.

Refinement shrinks a box inside itself (interval Newton or bisection on
the real line, Krawczyk contraction off it), so the boxes stay disjoint;
outward dyadic snapping between steps keeps denominators small.  Real roots
come back as flat boxes, nonreal ones in exactly mirrored conjugate pairs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .intervals import (
    Box,
    Interval,
    cinv,
    cmul,
    csub,
    poly_eval_box,
    poly_eval_interval,
    poly_eval_point,
)
from .polynomial import Poly, poly_gcd


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _bits(x: Fraction) -> int:
    """Rough ceil(log2 |x|) for guard sizing, 0 for x == 0."""
    if x == 0:
        return 0
    return max(0, abs(x.numerator).bit_length() - x.denominator.bit_length() + 1)


def _require_squarefree(f: Poly) -> None:
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    if poly_gcd(f, f.derivative()).degree() != 0:
        raise ValueError("polynomial must be squarefree")


# ---------------------------------------------------------------------------
# refinement of isolating enclosures


def _snap(x, precision: int, outer):
    """x (an Interval or a Box inside outer) with its ends moved outward to
    the 2**-(precision + 16) grid, but not past outer."""
    s = x.outward(precision + 16).intersect(outer)
    return s if s is not None else x


def refine_real_root(f: Poly, iv: Interval, precision: int) -> Interval:
    """Shrink an isolating interval until its radius is at most
    2**-precision * max(1, |mid|).  The root never leaves the interval."""
    df = f.derivative()
    tol = Fraction(1, 1 << precision)

    def done(j: Interval) -> bool:
        return j.width() <= 2 * tol * max(Fraction(1), abs(j.mid()))

    limit = 128 + 4 * (precision + _bits(iv.width()) + 64)
    steps = 0
    while not done(iv):
        steps += 1
        if steps > limit:
            raise RuntimeError("real root refinement stalled")
        m = iv.mid()
        fm = poly_eval_point(f.coeffs, (m, 0))[0]
        if fm == 0:
            return Interval(m, m)
        dfi = poly_eval_interval(df.coeffs, iv)
        if not dfi.contains_zero():
            cand = (Interval(m) - Interval(fm) / dfi).intersect(iv)
            if cand is None:
                raise RuntimeError("interval Newton lost the root")
            if 4 * cand.width() <= 3 * iv.width():
                iv = _snap(cand, precision, iv)
                continue
        fl = poly_eval_point(f.coeffs, (iv.lo, 0))[0]
        if fl == 0:
            return Interval(iv.lo, iv.lo)
        iv = Interval(iv.lo, m) if _sign(fm) != _sign(fl) else Interval(m, iv.hi)
    return iv


# ---------------------------------------------------------------------------
# Krawczyk operator


def _krawczyk_image(f: Poly, df: Poly, B: Box) -> Box | None:
    """K(B) = m - Y f(m) + (1 - Y F'(B)) (B - m) with Y = 1/f'(m).

    Any root of f in B lies in K(B); if K(B) is interior to B then B holds
    exactly one root.  The mean value enclosure is valid for a holomorphic f
    because the rectangle F'(B) is convex.
    """
    m = B.mid()
    dfm = poly_eval_point(df.coeffs, m)
    if dfm[0] == 0 and dfm[1] == 0:
        return None
    Y = cinv(dfm)
    fm = poly_eval_point(f.coeffs, m)
    center = csub(m, cmul(Y, fm))
    slope = Box.point(1) - Box.point(*Y) * poly_eval_box(df.coeffs, B)
    return Box.point(*center) + slope * (B - m)


def krawczyk_test(f: Poly, box: Box, df: Poly | None = None) -> Box | None:
    """Return a contracted box certified to hold the unique root of f in
    box, or None when certification fails."""
    if df is None:
        df = f.derivative()
    K = _krawczyk_image(f, df, box)
    if K is not None and K.is_interior_subset(box):
        return K
    return None


def _excludes_root(f: Poly, df: Poly, B: Box) -> bool:
    """True when f provably has no root in B."""
    if not poly_eval_box(f.coeffs, B).contains_zero():
        return True
    # centered form f(m) + F'(B)(B - m), usually tighter on small boxes
    m = B.mid()
    fm = poly_eval_point(f.coeffs, m)
    cf = Box.point(*fm) + poly_eval_box(df.coeffs, B) * (B - m)
    return not cf.contains_zero()


def _contract_once(f: Poly, df: Poly, b: Box) -> Box:
    """One shrink step for a box known to contain at least one root."""
    K = _krawczyk_image(f, df, b)
    if K is not None:
        nb = K.intersect(b)
        if nb is not None and nb.rad() < b.rad():
            return nb
    kids = [k for k in b.split4() if not _excludes_root(f, df, k)]
    if not kids:
        raise RuntimeError("contraction lost the root")
    return functools.reduce(Box.hull, kids)


def _box_small_enough(box: Box, precision: int) -> bool:
    r = box.rad()
    m = box.mid()
    t = Fraction(1, 1 << precision)
    return r * r <= t * t * max(Fraction(1), m[0] * m[0] + m[1] * m[1])


def refine_complex_root(f: Poly, box: Box, precision: int, df: Poly | None = None) -> Box:
    """Contract a box certified to hold exactly one root until its radius is
    at most 2**-precision * max(1, |mid|)."""
    if df is None:
        df = f.derivative()
    limit = 128 + 8 * (precision + _bits(box.rad()) + 64)
    steps = 0
    while not _box_small_enough(box, precision):
        steps += 1
        if steps > limit:
            raise RuntimeError("complex root refinement stalled")
        box = _snap(_contract_once(f, df, box), precision, box)
    return box


# ---------------------------------------------------------------------------
# full isolation: Aberth estimates, Krawczyk certificates

# Fixed-point complex numbers are int pairs (a, b) meaning (a + b*i) / 2**w.
_START_BITS = 64
_MAX_BITS = 1 << 14


def _start_exponent(c: list[int]) -> int:
    """Least k >= -32 with |c_n| 2^(kn) > sum |c_i| 2^(ki) over i < n: then
    2^k exceeds the Cauchy radius, so every root has modulus below 2^k."""
    n = len(c) - 1
    k = -32
    while True:
        low = min(0, k) * n  # scales both sides to integers
        lower = sum(abs(ci) << (k * i - low) for i, ci in enumerate(c[:n]))
        if abs(c[n]) << (k * n - low) > lower:
            return k
        k += 1


def _start_points(c: list[int], w: int) -> list[tuple[int, int]]:
    """n points on the circle of radius 2^k, turned off the real axis so
    that none is real and no two are conjugate.  Only their spread
    matters, so cosines and sines rounded to 30 bits will do."""
    n = len(c) - 1
    k = _start_exponent(c)
    pts = []
    for j in range(n):
        t = 2 * math.pi * j / n + 0.7
        a, b = round(math.cos(t) * (1 << 30)), round(math.sin(t) * (1 << 30))
        pts.append(((a << (k + w)) >> 30, (b << (k + w)) >> 30))
    return pts


def _aberth(c: list[int], z: list[tuple[int, int]], w: int) -> list[tuple[int, int]]:
    """Gauss-Seidel Aberth-Ehrlich sweeps at w fractional bits.

    An estimate stops moving once |f(z)| is within the rounding noise of
    fixed-point Horner evaluation, about sqrt(2) units of 2^-w per step
    carried by |z|^j, or once its correction rounds to zero.  The sweep
    cap only bounds this call: isolate_roots resumes from its estimates.
    """
    n = len(c) - 1
    one = 1 << w
    cw = [ci << w for ci in c]
    lower = cw[n - 1::-1]
    z = list(z)
    moving = [True] * n
    for _ in range(64 + 4 * n):
        if not any(moving):
            break
        for k in range(n):
            if not moving[k]:
                continue
            a, b = z[k]
            pa, pb, da, db = cw[n], 0, 0, 0
            for ci in lower:
                da, db = ((da * a - db * b) >> w) + pa, ((da * b + db * a) >> w) + pb
                pa, pb = ((pa * a - pb * b) >> w) + ci, (pa * b + pb * a) >> w
            m = max(one, math.isqrt(a * a + b * b))
            noise = 0
            for _ in range(n):
                noise = ((noise * m) >> w) + one
            if abs(pa) + abs(pb) <= 4 * ((noise >> w) + 1):
                moving[k] = False
                continue
            # s = sum over j != k of 1 / (z_k - z_j)
            sa = sb = 0
            for j, (aj, bj) in enumerate(z):
                xa, xb = a - aj, b - bj
                q = xa * xa + xb * xb
                if j != k and q:
                    sa += (xa << 2 * w) // q
                    sb -= (xb << 2 * w) // q
            # correction f / (f' - f s)
            ya = da - ((pa * sa - pb * sb) >> w)
            yb = db - ((pa * sb + pb * sa) >> w)
            q = ya * ya + yb * yb
            ea = ((pa * ya + pb * yb) << w) // q if q else 0
            eb = ((pb * ya - pa * yb) << w) // q if q else 0
            moving[k] = bool(ea or eb)
            z[k] = (a - ea, b - eb)
    return z


def _certify(f: Poly, df: Poly, z: list[tuple[int, int]], w: int):
    """Certified (real, upper) boxes of radius 2^(-w/2) max(1, |z|) around
    the estimates, or None unless #real + 2 #upper == deg(f) and they are
    pairwise disjoint.  An estimate that close to the real axis gets a box
    symmetric about it; those below it are left to the mirror images."""
    s = 1 << w
    real, upper = [], []
    for a, b in z:
        r = max(1 << (w // 2), max(abs(a), abs(b)) >> (w // 2))
        if abs(b) <= r:
            b = 0
        elif b < 0:
            continue
        box = Box(
            Interval(Fraction(a - r, s), Fraction(a + r, s)),
            Interval(Fraction(b - r, s), Fraction(b + r, s)),
        )
        K = krawczyk_test(f, box, df)
        if K is None:
            return None
        # box corners lie on the 2^-w grid, so the snapped K stays inside
        (real if b == 0 else upper).append(K.outward(w))
    found = real + upper
    if len(real) + 2 * len(upper) != f.degree() or any(
        found[i].intersects(found[j])
        for i in range(len(found))
        for j in range(i + 1, len(found))
    ):
        return None
    return real, upper


def isolate_roots(f: Poly, precision: int = 32) -> list[Box]:
    """Disjoint certified boxes for all deg(f) roots of a squarefree f.

    Real roots come back as flat boxes (point imaginary part zero), nonreal
    ones in exact conjugate pairs.  Each box has radius at most
    2**-precision * max(1, |mid|) and contains exactly one root.
    """
    _require_squarefree(f)
    df = f.derivative()
    c = list(f.coeffs)
    w = _START_BITS
    z = _start_points(c, w)
    while True:
        z = _aberth(c, z, w)
        found = _certify(f, df, z, w)
        if found is not None:
            break
        if w >= _MAX_BITS:
            raise RuntimeError("root isolation did not certify at the precision cap")
        z = [(a << w, b << w) for a, b in z]
        w *= 2
    # refinement keeps each box inside the certified one, so they stay disjoint
    real, upper = found
    boxes = [Box(refine_real_root(f, K.re, precision), Interval(0)) for K in real]
    upper = [refine_complex_root(f, K, precision, df) for K in upper]
    boxes.extend(upper)
    boxes.extend(b.conjugate() for b in upper)
    boxes.sort(key=lambda b: (b.re.lo, b.re.hi, b.im.lo, b.im.hi))
    return boxes


def refine_root_box(f: Poly, box: Box, precision: int) -> Box:
    """Sharpen any box produced by isolate_roots to a new radius target."""
    if box.im.is_point() and box.im.lo == 0:
        return Box(refine_real_root(f, box.re, precision), Interval(0))
    if box.im.hi < 0:
        return refine_complex_root(f, box.conjugate(), precision).conjugate()
    return refine_complex_root(f, box, precision)
