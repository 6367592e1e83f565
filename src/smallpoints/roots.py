"""Certified complex root isolation for squarefree integer polynomials.

Aberth-Ehrlich iteration (the MPSolve design of Bini and Fiorentino)
approximates all roots at once in fixed-point Gaussian-integer arithmetic,
starting from an off-axis circle that encloses them, at 64 fractional bits
and then at doubling precision w until the estimates are proved.  The
proof is a Krawczyk test on a box around each estimate (Rump,
"Verification methods", Acta Numerica 19, 2010): with Y = 1/f'(m) rounded
to a dyadic point, any root in B lies in K(B) = m - Y f(m) +
(1 - Y F'(B))(B - m), and K(B) inside B proves exactly one.  Any Y keeps
that true, so rounding Y costs nothing.  A certified box holds exactly one
root, and one symmetric about the real axis holds a real root.  deg(f)
pairwise disjoint certified boxes, counting each box above the axis with
its mirror image, prove that none is missing.

Every box is a fixed-point box of intervals.py, four ints over 2**w, and
every step rounds outward.  Rounding puts a noise floor of about
2**-W (n + 1) (|x| + |y|)**n under an evaluation of f at z = x + yi at W
bits, which 1/|f'| carries to the root's position, so evaluations run at
guard bits above the box grid sized from those (_guard_bits): the floor
stays far below the grid and below any box a refinement aims at.

Refinement shrinks a box inside itself (interval Newton, with outward
rounded division, or bisection on the real line; Krawczyk contraction or
a split into quarters off it), so the boxes stay disjoint; each step snaps
outward to the 2**-(precision + 16) grid.  Boxes come back on one grid
for all roots of f, 2**-w with w = max(certification bits,
precision + 16): real roots as flat boxes, nonreal ones in exactly
mirrored conjugate pairs.
"""

from __future__ import annotations

import functools
import math

from .intervals import (
    fx_abs_sq,
    fx_add,
    fx_contains_zero,
    fx_hull,
    fx_intersect,
    fx_intersects,
    fx_mul,
    fx_regrid,
    fx_sub,
    poly_eval_box,
)
from .polynomial import Poly, is_squarefree


def grid_bits(precision: int) -> int:
    """The fewest fractional bits of a box that isolate_roots or
    refine_root_box returns at this precision: the 2**-(precision + 16)
    grid refinement snaps to, or the 64 bits isolation starts from.  A box
    has more only when its roots needed more to certify."""
    return max(precision + 16, _START_BITS)


def _require_squarefree(f: Poly) -> None:
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    if not is_squarefree(f):
        raise ValueError("polynomial must be squarefree")


def _guard_bits(c, dc, box, w: int) -> int:
    """Guard bits for evaluations of f near box (at w bits): the rounding
    noise of Horner at a point z = x + yi, 2 (n + 1) (|x| + |y|)**n units
    at most, over a lower bound on |f'| at the box's centre, plus 16."""
    a, b, u, v = box
    n = len(c) - 1
    r_bits = ((max(-a, b) + max(-u, v)) >> w).bit_length()
    d_lo = fx_abs_sq(poly_eval_box(dc, _mid(box), w))[0]
    d_bits = (d_lo.bit_length() - 1) // 2 - w if d_lo else -w
    return 16 + max(0, (2 * n + 2).bit_length() + n * r_bits - d_bits)


def _mid(x) -> tuple[int, int, int, int]:
    """The centre of a box as a point box, exact when its ends have even
    sums and rounded down otherwise."""
    m, n = (x[0] + x[1]) >> 1, (x[2] + x[3]) >> 1
    return m, m, n, n


def _snap(x, g: int, outer) -> tuple[int, int, int, int]:
    """x (a box inside outer) with its ends moved outward to multiples of
    2**g, but not past outer."""
    return (
        max(outer[0], (x[0] >> g) << g),
        min(outer[1], -((-x[1] >> g) << g)),
        max(outer[2], (x[2] >> g) << g),
        min(outer[3], -((-x[3] >> g) << g)),
    )


# ---------------------------------------------------------------------------
# Krawczyk operator


def _krawczyk_image(c, dc, B, w: int):
    """K(B) = m - Y f(m) + (1 - Y F'(B)) (B - m) at w bits, for B with an
    exact centre m and Y a dyadic point next to 1/f'(m); None when f'(m)
    rounds to 0.

    Any root of f in B lies in K(B); if K(B) is interior to B then B holds
    exactly one root.  The mean value enclosure is valid for a holomorphic f
    because the rectangle F'(B) is convex.  Y is kept at w + e bits, e the
    bits of |f'(m)|, so that it has w significant bits however large f'
    is; a product of Y with a box at w bits, rounded at w + e, is again at
    w bits.
    """
    m = _mid(B)
    da, _, du, _ = poly_eval_box(dc, m, w)
    q = da * da + du * du
    if q == 0:
        return None
    e = max(0, (q.bit_length() >> 1) - w + 1)
    s = 2 * w + e
    ya, yu = (da << s) // q, (-du << s) // q
    Y = (ya, ya, yu, yu)
    center = fx_sub(m, fx_mul(Y, poly_eval_box(c, m, w), w + e))
    one = (1 << w, 1 << w, 0, 0)
    slope = fx_sub(one, fx_mul(Y, poly_eval_box(dc, B, w), w + e))
    return fx_add(center, fx_mul(slope, fx_sub(B, m), w))


def _interior(x, y) -> bool:
    return y[0] < x[0] and x[1] < y[1] and y[2] < x[2] and x[3] < y[3]


def krawczyk_test(f: Poly, box, w: int, df: Poly):
    """A box at w bits, inside box (also at w bits), certified to hold the
    unique root of f in box, or None when certification fails; df is f'."""
    c, dc = f.coeffs, df.coeffs
    W = w + _guard_bits(c, dc, box, w)
    B = fx_regrid(box, w, W)
    K = _krawczyk_image(c, dc, B, W)
    if K is None or not _interior(K, B):
        return None
    # box corners lie on the 2^-w grid, so the snapped K stays inside
    return fx_regrid(K, W, w)


def _excludes_root(c, dc, B, w: int) -> bool:
    """True when f provably has no root in B, a box with an exact centre."""
    if not fx_contains_zero(poly_eval_box(c, B, w)):
        return True
    # centered form f(m) + F'(B)(B - m), usually tighter on small boxes
    m = _mid(B)
    cf = fx_add(poly_eval_box(c, m, w), fx_mul(poly_eval_box(dc, B, w), fx_sub(B, m), w))
    return not fx_contains_zero(cf)


# ---------------------------------------------------------------------------
# refinement of isolating boxes
#
# The loops below hold a box at W = w_out + guard bits whose ends are
# multiples of 2**t, t = W - w_out, so it lies on the output grid 2**-w_out
# and every centre is exact at W.  Snapping goes to multiples of 2**g,
# g = W - (precision + 16), a coarser grid.


def _refine_real(c, dc, lo: int, hi: int, precision: int, W: int, t: int):
    """Shrink an isolating interval until its width is at most
    2 * 2**-precision * max(1, |mid|).  The root never leaves it."""
    g = W - (precision + 16)
    limit = 128 + 4 * (precision + max(0, (hi - lo).bit_length() - W) + 64)
    steps = 0
    while (hi - lo) << precision > max(2 << W, abs(lo + hi)):
        steps += 1
        if steps > limit:
            raise RuntimeError("real root refinement stalled")
        m = ((lo + hi) >> (t + 1)) << t
        f1, f2, _, _ = poly_eval_box(c, (m, m, 0, 0), W)
        if f1 == f2 == 0:
            return m, m
        d1, d2, _, _ = poly_eval_box(dc, (lo, hi, 0, 0), W)
        if d1 > 0 or d2 < 0:
            # m - [f1, f2] / [d1, d2], each quotient rounded outward
            qs = [(e << W, d) for e in (f1, f2) for d in (d1, d2)]
            q_lo = min(n // d for n, d in qs)
            q_hi = max(-(-n // d) for n, d in qs)
            a, b = max(lo, m - q_hi), min(hi, m - q_lo)
            if a > b:
                raise RuntimeError("interval Newton lost the root")
            if 4 * (b - a) <= 3 * (hi - lo):
                lo, hi, _, _ = _snap((a, b, 0, 0), g, (lo, hi, 0, 0))
                continue
        e1, e2, _, _ = poly_eval_box(c, (lo, lo, 0, 0), W)
        if e1 == e2 == 0:
            return lo, lo
        if f1 <= 0 <= f2 or e1 <= 0 <= e2:
            raise RuntimeError("real root refinement stalled")
        if (f1 > 0) != (e1 > 0):
            hi = m
        else:
            lo = m
    return lo, hi


def _split4(b, t: int) -> list[tuple[int, int, int, int]]:
    """The four quarters of b about its centre rounded down to a multiple
    of 2**t."""
    m = ((b[0] + b[1]) >> (t + 1)) << t
    n = ((b[2] + b[3]) >> (t + 1)) << t
    return [(b[0], m, b[2], n), (b[0], m, n, b[3]), (m, b[1], b[2], n), (m, b[1], n, b[3])]


def _contract_once(c, dc, b, W: int, t: int):
    """One shrink step for a box known to contain at least one root."""
    K = _krawczyk_image(c, dc, b, W)
    if K is not None:
        nb = fx_intersect(K, b)
        if nb is not None and max(nb[1] - nb[0], nb[3] - nb[2]) < max(b[1] - b[0], b[3] - b[2]):
            return nb
    kids = [k for k in _split4(b, t) if not _excludes_root(c, dc, k, W)]
    if not kids:
        raise RuntimeError("contraction lost the root")
    return functools.reduce(fx_hull, kids)


def _refine_complex(c, dc, box, precision: int, W: int, t: int):
    """Contract a box certified to hold exactly one root until its radius is
    at most 2**-precision * max(1, |mid|)."""
    g = W - (precision + 16)
    width = max(box[1] - box[0], box[3] - box[2])
    limit = 128 + 8 * (precision + max(0, width.bit_length() - W) + 64)
    steps = 0
    while True:
        a, b, u, v = box
        if max(b - a, v - u) ** 2 << 2 * precision <= max(4 << 2 * W, (a + b) ** 2 + (u + v) ** 2):
            return box
        steps += 1
        if steps > limit:
            raise RuntimeError("complex root refinement stalled")
        box = _snap(_contract_once(c, dc, box, W, t), g, box)


def _refine(f: Poly, df: Poly, box, w: int, precision: int):
    """A box at w bits, from isolate_roots, refined to precision: at
    max(w, grid_bits(precision)) bits, inside box and holding its root.
    A box below the real axis is refined as the mirror of its conjugate."""
    c, dc = f.coeffs, df.coeffs
    w_out = max(w, grid_bits(precision))
    t = _guard_bits(c, dc, box, w)
    W = w_out + t
    a, b, u, v = fx_regrid(box, w, W)
    if u == v == 0:
        out = (*_refine_real(c, dc, a, b, precision, W, t), 0, 0)
    elif v < 0:
        a, b, u, v = _refine_complex(c, dc, (a, b, -v, -u), precision, W, t)
        out = (a, b, -v, -u)
    else:
        out = _refine_complex(c, dc, (a, b, u, v), precision, W, t)
    return fx_regrid(out, W, w_out)


def refine_root_box(f: Poly, box, w: int, precision: int):
    """Sharpen any box produced by isolate_roots, at w bits, to a new
    radius target: (w_out, the refined box at w_out bits)."""
    return max(w, grid_bits(precision)), _refine(f, f.derivative(), box, w, precision)


# ---------------------------------------------------------------------------
# full isolation: Aberth estimates, Krawczyk certificates

# Fixed-point complex numbers are int pairs (a, b) meaning (a + b*i) / 2**w.
_START_BITS = 64
_MAX_BITS = 1 << 14


def _start_exponent(c: list[int]) -> int:
    """Least k with |c_n| 2^(kn) > sum |c_i| 2^(ki) over i < n: then 2^k
    exceeds the Cauchy radius, so every root has modulus below 2^k.  The
    test holds at every k above its least one, and it holds at

        k0 = max over c_i != 0, i < n, of ceil((b_i - b_n + 1 + b(n)) / (n - i)),

    b the bit length: there each term |c_i| 2^(ki) < 2^(b_i + ki) is at
    most 2^(kn + b_n - 1 - b(n)), and n < 2^b(n) of them sum below
    2^(b_n - 1) 2^(kn) <= |c_n| 2^(kn).  So k steps down from k0 while the
    test holds one lower.  For c_n x^n it holds at every k, and -32 is kept."""
    n = len(c) - 1
    if not any(c[:n]):
        return -32

    def holds(k: int) -> bool:
        low = min(0, k) * n  # scales both sides to integers
        lower = sum(abs(ci) << (k * i - low) for i, ci in enumerate(c[:n]))
        return abs(c[n]) << (k * n - low) > lower

    top = abs(c[n]).bit_length() - 1 - n.bit_length()
    k = max(-((top - abs(ci).bit_length()) // (n - i)) for i, ci in enumerate(c[:n]) if ci)
    while holds(k - 1):
        k -= 1
    return k


def _start_points(c: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """(w, n points at w bits on the circle of radius 2^k), k from
    _start_exponent, turned off the real axis so that none is real and no
    two are conjugate.  w doubles from _START_BITS until w + k >= 32, so
    the circle lies well inside the 2^-w grid.  Only the points' spread
    matters, so cosines and sines rounded to 30 bits will do."""
    n = len(c) - 1
    k = _start_exponent(c)
    w = _START_BITS
    while w + k < 32:
        w *= 2
    pts = []
    for j in range(n):
        t = 2 * math.pi * j / n + 0.7
        a, b = round(math.cos(t) * (1 << 30)), round(math.sin(t) * (1 << 30))
        pts.append(((a << (k + w)) >> 30, (b << (k + w)) >> 30))
    return w, pts


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
    """Certified (real, upper) boxes at w bits inside boxes of radius
    2^(-w/2) max(1, |z|) around the estimates, or None unless
    #real + 2 #upper == deg(f) and they are pairwise disjoint.  An estimate
    that close to the real axis gets a box symmetric about it; those below
    it are left to the mirror images."""
    real, upper = [], []
    for a, b in z:
        r = max(1 << (w // 2), max(abs(a), abs(b)) >> (w // 2))
        if abs(b) <= r:
            b = 0
        elif b < 0:
            continue
        K = krawczyk_test(f, (a - r, a + r, b - r, b + r), w, df)
        if K is None:
            return None
        (real if b == 0 else upper).append(K)
    found = real + upper
    if len(real) + 2 * len(upper) != f.degree() or any(
        fx_intersects(found[i], found[j])
        for i in range(len(found))
        for j in range(i + 1, len(found))
    ):
        return None
    return real, upper


def isolate_roots(f: Poly, precision: int = 32):
    """Disjoint certified boxes for all deg(f) roots of a squarefree f, as
    (w, boxes) with every box at w bits, sorted.

    Real roots come back as flat boxes (imaginary part [0, 0]), nonreal
    ones in exact conjugate pairs.  Each box has radius at most
    2**-precision * max(1, |mid|) and contains exactly one root.
    """
    _require_squarefree(f)
    df = f.derivative()
    c = list(f.coeffs)
    w, z = _start_points(c)
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
    boxes = [_refine(f, df, (K[0], K[1], 0, 0), w, precision) for K in real]
    upper = [_refine(f, df, K, w, precision) for K in upper]
    boxes.extend(upper)
    boxes.extend((a, b, -v, -u) for a, b, u, v in upper)
    boxes.sort()
    return max(w, grid_bits(precision)), boxes
