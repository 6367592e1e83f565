"""Certified complex root isolation for squarefree rational polynomials.

Real roots are isolated by Sturm bisection and sharpened with interval
Newton steps.  Nonreal roots are found by quadtree subdivision of the upper
half plane: boxes that provably contain no root are discarded (interval
Horner, then a centered form), surviving boxes are grouped into connected
clusters, and a Krawczyk operator applied to the cluster hull certifies
existence and uniqueness.  Clustering matters because a root sitting exactly
on a subdivision grid line is interior to no single cell, only to the union
of its neighbours.

Everything runs in exact Fraction arithmetic, so certificates carry no
rounding error; outward dyadic snapping between refinement steps keeps
denominators from exploding.  Conjugate roots are mirrored exactly, real
roots come back as flat boxes with a point imaginary part, and the returned
boxes are pairwise disjoint.
"""

from __future__ import annotations

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


def cauchy_root_bound(f: Poly) -> Fraction:
    """A strict bound: every complex root z of f satisfies |z| < the result."""
    n = f.degree()
    if n < 1:
        raise ValueError("need a nonconstant polynomial")
    an = abs(f.lc())
    m = max((abs(c) for c in f.coeffs[:-1]), default=Fraction(0))
    return 1 + m / an


def _require_squarefree(f: Poly) -> None:
    if f.degree() < 1:
        raise ValueError("need a nonconstant polynomial")
    if poly_gcd(f, f.derivative()).degree() != 0:
        raise ValueError("polynomial must be squarefree")


# ---------------------------------------------------------------------------
# real roots: Sturm counting, bisection isolation, interval Newton refinement


def sturm_chain(f: Poly) -> list[Poly]:
    """Sturm sequence of a squarefree f.  Remainders are rescaled only by
    positive rationals, which keeps the sign pattern intact."""
    chain = [f, f.derivative()]
    while chain[-1].degree() > 0:
        r = -(chain[-2] % chain[-1])
        if r.is_zero():
            break
        c, prim = r.primitive()
        chain.append(prim if c > 0 else -prim)
    return chain


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain, x: Fraction) -> int:
    return _variations([_sign(p.eval(x)) for p in chain])


def isolate_real_roots(f: Poly) -> list[Interval]:
    """Closed intervals, each containing exactly one real root of the
    squarefree f, in increasing order.  Endpoints are never roots, though
    adjacent intervals may share one."""
    _require_squarefree(f)
    M = cauchy_root_bound(f)
    chain = sturm_chain(f)
    out = []
    va0 = _variations_at(chain, -M)
    vb0 = _variations_at(chain, M)
    stack = [(-M, M, va0, vb0)]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append(Interval(a, b))
            continue
        c = (a + b) / 2
        k = 4
        while f.eval(c) == 0:
            # an off-center cut with a fresh denominator; f has finitely
            # many roots so this terminates
            c = a + (b - a) * Fraction((1 << k) - 1, (1 << k) + 1)
            k += 1
        vc = _variations_at(chain, c)
        stack.append((a, c, va, vc))
        stack.append((c, b, vc, vb))
    out.sort(key=lambda j: (j.lo, j.hi))
    return out


def _snap_real(j: Interval, precision: int, outer: Interval) -> Interval:
    s = j.outward(precision + 16).intersect(outer)
    return s if s is not None else j


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
        dfi = poly_eval_interval(df.coeffs, iv)
        if not dfi.contains_zero():
            m = iv.mid()
            fm = f.eval(m)
            if fm == 0:
                return Interval(m, m)
            cand = (Interval(m) - Interval(fm) / dfi).intersect(iv)
            if cand is None:
                raise RuntimeError("interval Newton lost the root")
            if 4 * cand.width() <= 3 * iv.width():
                iv = _snap_real(cand, precision, iv)
                continue
        m = iv.mid()
        fm = f.eval(m)
        if fm == 0:
            return Interval(m, m)
        fl = f.eval(iv.lo)
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
    h = kids[0]
    for k in kids[1:]:
        h = h.hull(k)
    return h


def _box_small_enough(box: Box, precision: int) -> bool:
    r = box.rad()
    m = box.mid()
    t = Fraction(1, 1 << precision)
    return r * r <= t * t * max(Fraction(1), m[0] * m[0] + m[1] * m[1])


def _snap_box(nb: Box, precision: int, outer: Box) -> Box:
    s = nb.outward(precision + 16).intersect(outer)
    return s if s is not None else nb


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
        box = _snap_box(_contract_once(f, df, box), precision, box)
    return box


# ---------------------------------------------------------------------------
# full isolation


def _connected_components(boxes: list[Box]) -> list[list[Box]]:
    n = len(boxes)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if boxes[i].intersects(boxes[j]):
                parent[find(i)] = find(j)
    groups: dict[int, list[Box]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(boxes[i])
    return list(groups.values())


def _accept_new_root(f: Poly, df: Poly, results: list[Box], cand: Box) -> bool:
    """Append a certified box unless its root is already represented.
    Overlapping certified boxes are contracted until they separate; if a
    Krawczyk test on their joint hull ever certifies a single root, the two
    boxes hold the same root and the candidate is dropped."""
    for i in range(len(results)):
        r = results[i]
        steps = 0
        while cand.intersects(r):
            if krawczyk_test(f, cand.hull(r), df) is not None:
                return False
            cand = _contract_once(f, df, cand)
            r = _contract_once(f, df, r)
            results[i] = r
            steps += 1
            if steps > 4096:
                raise RuntimeError("could not separate certified root boxes")
    results.append(cand)
    return True


def _certify_upper_roots(f: Poly, M: Fraction, target: int) -> list[Box]:
    """Certified boxes for the `target` roots with positive imaginary part.

    A real root always sits on the bottom edge of any hull that contains it,
    so the interiority requirement of the Krawczyk test can never certify
    one here; clusters hugging a real root just keep splitting and are
    abandoned once every nonreal root has been found.  That count driven
    stop is what makes the search terminate.
    """
    df = f.derivative()
    results: list[Box] = []
    level = [Box(Interval(-M, M), Interval(0, M))]
    rounds = 0
    while len(results) < target:
        rounds += 1
        if rounds > 4096 or not level:
            raise RuntimeError("upper half plane search failed to converge")
        survivors = [B for B in level if not _excludes_root(f, df, B)]
        level = []
        for cluster in _connected_components(survivors):
            if len(results) == target:
                break
            H = cluster[0]
            for b in cluster[1:]:
                H = H.hull(b)
            K = krawczyk_test(f, H, df)
            if K is not None:
                # interiority forces K.im.lo > H.im.lo >= 0: the root is
                # strictly above the axis, hence nonreal
                _accept_new_root(f, df, results, K)
                continue
            for b in cluster:
                level.extend(b.split4())
    return results


def isolate_roots(f: Poly, precision: int = 32) -> list[Box]:
    """Disjoint certified boxes for all deg(f) roots of a squarefree f.

    Real roots come back as flat boxes (point imaginary part zero), nonreal
    ones in exact conjugate pairs.  Each box has radius at most
    2**-precision * max(1, |mid|) and contains exactly one root.
    """
    _require_squarefree(f)
    M = cauchy_root_bound(f)
    real_ivs = [refine_real_root(f, iv, precision) for iv in isolate_real_roots(f)]
    n = f.degree()
    target = n - len(real_ivs)
    if target % 2 != 0:
        raise RuntimeError("nonreal roots of a real polynomial must pair up")
    target //= 2
    upper = _certify_upper_roots(f, M, target) if target else []
    upper = [refine_complex_root(f, b, precision) for b in upper]

    # separate any touching enclosures; the roots are distinct so deeper
    # refinement always succeeds
    p = precision
    while True:
        real_ivs.sort(key=lambda j: (j.lo, j.hi))
        touching = [
            i
            for i in range(len(real_ivs) - 1)
            if real_ivs[i].intersects(real_ivs[i + 1])
        ]
        if not touching:
            break
        p += 16
        for i in touching:
            real_ivs[i] = refine_real_root(f, real_ivs[i], p)
            real_ivs[i + 1] = refine_real_root(f, real_ivs[i + 1], p)
    while True:
        pairs = [
            (i, j)
            for i in range(len(upper))
            for j in range(i + 1, len(upper))
            if upper[i].intersects(upper[j])
        ]
        if not pairs:
            break
        p += 16
        for i, j in pairs:
            upper[i] = refine_complex_root(f, upper[i], p)
            upper[j] = refine_complex_root(f, upper[j], p)

    boxes = [Box(Interval(j.lo, j.hi), Interval(0)) for j in real_ivs]
    boxes.extend(upper)
    boxes.extend(b.conjugate() for b in upper)
    boxes.sort(key=lambda b: (b.re.lo, b.re.hi, b.im.lo, b.im.hi))
    return boxes


def refine_root_box(f: Poly, box: Box, precision: int) -> Box:
    """Sharpen any box produced by isolate_roots to a new radius target."""
    if box.im.is_point() and box.im.lo == 0:
        iv = refine_real_root(f, Interval(box.re.lo, box.re.hi), precision)
        return Box(iv, Interval(0))
    if box.im.hi < 0:
        return refine_complex_root(f, box.conjugate(), precision).conjugate()
    return refine_complex_root(f, box, precision)
