"""Tests for certified root isolation.

Locations are pinned against 50+ digit decimal oracles; the structural
invariants (disjointness, conjugate pairing, radius targets, one root per
box) are checked on every isolation result.  A box is four ints over
2**w; the tests read it as exact fractions.
"""

import functools
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from smallpoints import roots
from smallpoints.polynomial import Poly, cyclotomic_poly, parse_poly
from smallpoints.roots import isolate_roots, krawczyk_test, refine_root_box

from oracles import DEC_TOL, dec_exp, dec_ln, dec_sqrt

SQRT2 = dec_sqrt(2)
SQRT3 = dec_sqrt(3)
CBRT2 = dec_exp(dec_ln(2) / 3)


def _exact(w: int, box) -> tuple:
    """(re_lo, re_hi, im_lo, im_hi) of a box at w bits, as Fractions."""
    return tuple(Fraction(x, 1 << w) for x in box)


def _isolate(f: Poly, precision: int = 32) -> list[tuple]:
    w, boxes = isolate_roots(f, precision)
    return [_exact(w, b) for b in boxes]


def _near(lo, hi, x: Fraction) -> bool:
    """x is within oracle tolerance of the interval [lo, hi]."""
    return lo - DEC_TOL <= x <= hi + DEC_TOL


def _box_near(b, re: Fraction, im: Fraction) -> bool:
    return _near(b[0], b[1], re) and _near(b[2], b[3], im)


def _hits(b, re, im=0) -> bool:
    """The exact box b holds the point re + im i."""
    return b[0] <= re <= b[1] and b[2] <= im <= b[3]


def _inside(a, b) -> bool:
    """a lies inside b, edges included."""
    return b[0] <= a[0] and a[1] <= b[1] and b[2] <= a[2] and a[3] <= b[3]


def _mid(b):
    return (b[0] + b[1]) / 2, (b[2] + b[3]) / 2


def _rad(b):
    return max(b[1] - b[0], b[3] - b[2]) / 2


def _is_flat(b) -> bool:
    return b[2] == b[3] == 0


def _small_enough(b, precision: int) -> bool:
    m = _mid(b)
    tol = Fraction(1, 1 << precision)
    return _rad(b) ** 2 <= tol * tol * max(Fraction(1), m[0] ** 2 + m[1] ** 2)


def _check_invariants(f: Poly, boxes: list, precision: int):
    assert len(boxes) == f.degree()
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            a, b = boxes[i], boxes[j]
            assert not (a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3])
    # conjugate closure with exact mirroring
    nonreal = [b for b in boxes if not _is_flat(b)]
    for b in nonreal:
        assert (b[0], b[1], -b[3], -b[2]) in nonreal
    for b in boxes:
        assert _small_enough(b, precision)
    assert boxes == sorted(boxes)


def _real_intervals(f: Poly) -> list[tuple]:
    """The flat boxes of isolate_roots as (lo, hi), in increasing order."""
    return [b[:2] for b in _isolate(f) if _is_flat(b)]


def _refine(f: Poly, precision: int, which=lambda b: True) -> list[tuple]:
    """Boxes of isolate_roots that pass which, refined to precision, each
    with the box it came from."""
    w, boxes = isolate_roots(f)
    out = []
    for b in boxes:
        if which(_exact(w, b)):
            v, r = refine_root_box(f, b, w, precision)
            out.append((_exact(v, r), _exact(w, b)))
    return out


def test_isolate_real_sqrt2():
    f = parse_poly("x^2 - 2")[0]
    ivs = _real_intervals(f)
    assert len(ivs) == 2
    for lo, hi in ivs:
        assert (lo**2 - 2) * (hi**2 - 2) < 0
    assert _near(*ivs[0], -SQRT2) and _near(*ivs[1], SQRT2)


def _flat_above(x):
    return lambda b: _is_flat(b) and b[0] > x


def test_refine_real_sqrt2():
    f = parse_poly("x^2 - 2")[0]
    ((r, _),) = _refine(f, 80, _flat_above(0))
    assert _is_flat(r) and r[1] - r[0] <= Fraction(2, 1 << 80) * 2
    assert _near(r[0], r[1], SQRT2)
    assert abs(_mid(r)[0] - SQRT2) <= Fraction(1, 1 << 78)


def test_refine_real_cbrt2():
    f = parse_poly("x^3 - 2")[0]
    ((r, _),) = _refine(f, 100, _is_flat)
    assert _near(r[0], r[1], CBRT2)
    assert abs(_mid(r)[0] - CBRT2) <= Fraction(1, 1 << 98)


def test_refine_rational_root_exact_or_tight():
    f = parse_poly("x^3 - x")[0]
    refined = _refine(f, 60, _is_flat)
    assert len(refined) == 3
    for (r, _), root in zip(refined, (-1, 0, 1)):
        assert r[0] <= root <= r[1]


def test_isolate_x2_plus_1():
    f = parse_poly("x^2 + 1")[0]
    boxes = _isolate(f, 40)
    _check_invariants(f, boxes, 40)
    assert _hits(boxes[0], 0, -1)
    assert _hits(boxes[1], 0, 1)


def test_isolate_x5_minus_x():
    f = parse_poly("x^5 - x")[0]
    boxes = _isolate(f, 40)
    _check_invariants(f, boxes, 40)
    for pt in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]:
        hits = [b for b in boxes if _hits(b, *pt)]
        assert len(hits) == 1
    flats = [b for b in boxes if _is_flat(b)]
    assert len(flats) == 3


def test_isolate_x3_minus_2():
    f = parse_poly("x^3 - 2")[0]
    boxes = _isolate(f, 60)
    _check_invariants(f, boxes, 60)
    re_c = -CBRT2 / 2
    im_c = CBRT2 * SQRT3 / 2
    assert _box_near(boxes[0], re_c, -im_c)
    assert _box_near(boxes[1], re_c, im_c)
    assert _box_near(boxes[2], CBRT2, Fraction(0))


def test_isolate_cyclotomic_8():
    f = cyclotomic_poly(8)
    boxes = _isolate(f, 50)
    _check_invariants(f, boxes, 50)
    h = SQRT2 / 2
    expected = [(-h, -h), (-h, h), (h, -h), (h, h)]
    for b, (re, im) in zip(boxes, expected):
        assert _box_near(b, re, im)


def test_isolate_cyclotomic_12():
    f = cyclotomic_poly(12)
    boxes = _isolate(f, 50)
    _check_invariants(f, boxes, 50)
    h = SQRT3 / 2
    half = Fraction(1, 2)
    expected = [(-h, -half), (-h, half), (h, -half), (h, half)]
    for b, (re, im) in zip(boxes, expected):
        assert _box_near(b, re, im)


def test_isolate_x5_minus_1():
    f = parse_poly("x^5 - 1")[0]
    boxes = _isolate(f, 40)
    _check_invariants(f, boxes, 40)
    flats = [b for b in boxes if _is_flat(b)]
    assert len(flats) == 1 and _hits(flats[0], 1)


def test_close_real_roots_separate():
    f = parse_poly("x - 1")[0] * Poly([-1025, 1024])
    boxes = _isolate(f, 40)
    _check_invariants(f, boxes, 40)
    assert _hits(boxes[0], 1)
    assert _hits(boxes[1], Fraction(1025, 1024))


def test_big_scale_roots():
    f = parse_poly("x^2 + 1000000")[0]
    boxes = _isolate(f, 40)
    _check_invariants(f, boxes, 40)
    assert _hits(boxes[0], 0, -1000)
    assert _hits(boxes[1], 0, 1000)


def test_krawczyk_direct():
    f = parse_poly("x^2 - 2")[0]
    w = 10  # boxes at 2**-10: 13/10 is about 1331 units
    hit = (1331, 1536, -102, 102)
    K = krawczyk_test(f, hit, w, f.derivative())
    assert K is not None and K[0] > hit[0] and K[1] < hit[1]
    assert Fraction(K[0], 1 << w) <= SQRT2 <= Fraction(K[1], 1 << w)
    empty = (3 << w, 4 << w, -102, 102)
    assert krawczyk_test(f, empty, w, f.derivative()) is None
    double = (-2 << w, 2 << w, -102, 102)
    assert krawczyk_test(f, double, w, f.derivative()) is None


def test_refine_complex_tightens():
    f = parse_poly("x^2 + 1")[0]
    ((fine, coarse),) = _refine(f, 90, lambda b: b[2] > 0)
    assert _rad(fine) <= Fraction(1, 1 << 89)
    assert _hits(fine, 0, 1)
    assert _inside(fine, coarse)


def test_refine_root_box_dispatch():
    f = parse_poly("x^3 - 2")[0]
    refined = _refine(f, 70)
    for r, b in refined:
        assert _inside(r, b)
        assert _small_enough(r, 70)
    # the box below the axis stays the exact mirror of the one above
    (lower, _), (upper, _), _ = refined
    assert lower[3] < 0 and lower == (upper[0], upper[1], -upper[3], -upper[2])


def _mp_parts(z) -> tuple[Fraction, Fraction]:
    """(real part, imaginary part) of an mpmath number as exact fractions;
    man_exp gives |mantissa|, so the sign is read separately."""
    out = []
    for v in (mpmath.mpf(mpmath.re(z)), mpmath.mpf(mpmath.im(z))):
        m, e = v.man_exp
        out.append((-1 if v < 0 else 1) * Fraction(m) * Fraction(2) ** e)
    return tuple(out)


def _mp_root(f: Poly, near: complex) -> tuple[Fraction, Fraction]:
    """The 80-digit mpmath root of f nearest to near, as exact fractions
    (real part, imaginary part)."""
    with mpmath.workdps(80):
        coeffs = [mpmath.mpf(c) for c in reversed(f.coeffs)]
        zs = mpmath.polyroots(coeffs, maxsteps=200, extraprec=80)
        return _mp_parts(min(zs, key=lambda z: abs(z - near)))


def test_real_refinement_bisects_where_the_derivative_has_a_zero():
    """On [-1, 5] and then [-1, 2], both holding sqrt 2 alone, f' = 2x
    contains 0, so interval Newton has no step and refinement bisects: the
    first time the sign change lies below the midpoint 2, the second time
    above the midpoint 1/2."""
    f = parse_poly("x^2 - 2")[0]
    w = 64
    box = (-1 << w, 5 << w, 0, 0)
    v, r = refine_root_box(f, box, w, 100)
    fine, coarse = _exact(v, r), _exact(w, box)
    re, im = _mp_root(f, 1.4)
    assert _is_flat(fine) and _near(fine[0], fine[1], re) and im == 0
    assert _inside(fine, coarse)
    assert _small_enough(fine, 100)


def test_complex_contraction_splits_when_krawczyk_has_no_image(monkeypatch):
    """With no Krawczyk image for its first five steps, contraction falls
    back to splitting the box in quarters and keeping the hull of those
    that do not provably exclude the root; the refined box still holds
    the root, lies inside the input box and meets the radius target."""
    f = parse_poly("x^2 + 2")[0]
    w = 64
    box = (-1 << w, 1 << w, 1 << w, 2 << w)  # holds i sqrt 2 alone
    image = roots._krawczyk_image
    refused = []

    def no_image_at_first(*args):
        if len(refused) < 5:
            refused.append(args)
            return None
        return image(*args)

    monkeypatch.setattr(roots, "_krawczyk_image", no_image_at_first)
    v, r = refine_root_box(f, box, w, 100)
    assert len(refused) == 5
    fine, coarse = _exact(v, r), _exact(w, box)
    re, im = _mp_root(f, 1.4j)
    assert _box_near(fine, re, im)
    assert _inside(fine, coarse)
    assert _small_enough(fine, 100)


def test_errors():
    with pytest.raises(ValueError):
        isolate_roots(parse_poly("x^2 + 2x + 1")[0])
    with pytest.raises(ValueError):
        isolate_roots(Poly([5]))


def test_certificate_needs_every_root_once():
    """The count and disjointness checks are what prove no root is missing."""
    f = parse_poly("x^3 - 2x")[0]
    c = [int(x) for x in f.coeffs]
    w, z = roots._start_points(c)
    assert w == 64
    z = roots._aberth(c, z, w)
    assert roots._certify(f, f.derivative(), z, 64) is not None
    # a root left out; a root counted twice in place of another
    assert roots._certify(f, f.derivative(), z[:2], 64) is None
    assert roots._certify(f, f.derivative(), [z[0], z[0], z[1]], 64) is None


# all four roots have modulus about 2^-817: 5 - c1 x + c4 x^4, with c1 of
# 821 bits and c4 of 3273
TINY_ROOTS_QUARTIC = Poly([5, -(2**820 + 3), 0, 0, 2**3272 + 1])


def _least_cauchy_exponent(f: Poly) -> int:
    """The least k with |c_n| 2^(kn) > sum over i < n of |c_i| 2^(ki), by
    exact Fraction arithmetic, searched from a bound on the root moduli."""
    c = f.coeffs
    n = len(c) - 1

    def holds(k):
        two = Fraction(2) ** k
        return abs(c[n]) * two**n > sum(abs(ci) * two**i for i, ci in enumerate(c[:n]))

    k = max(abs(x).bit_length() for x in c) + 1
    while holds(k - 1):
        k -= 1
    assert holds(k)
    return k


@pytest.mark.parametrize("f", [
    Poly([3, -(2**41), 2**80]),  # a conjugate pair of modulus 3^(1/2) 2^-40
    TINY_ROOTS_QUARTIC,
    Poly([-(2**800) * 5, 2**800 - 5, 1]),  # roots 5 and -2^800
    parse_poly("x^3 - 2x")[0],
])
def test_start_exponent_is_the_least_cauchy_exponent(f):
    k = roots._start_exponent(list(f.coeffs))
    assert k == _least_cauchy_exponent(f)
    # the roots of f(2^k X) lie inside the unit circle
    with mpmath.workdps(80):
        scaled = [mpmath.ldexp(c, k * i) for i, c in enumerate(f.coeffs)]
        zs = mpmath.polyroots(scaled[::-1], maxsteps=200, extraprec=80)
        assert max(abs(z) for z in zs) < 1
    # the start circle lies on the start grid; the 64-bit grid is kept
    # wherever k >= -32
    w, _ = roots._start_points(list(f.coeffs))
    assert w + k >= 32 and (w == 64 or w // 2 + k < 32)
    assert (w == 64) == (k >= -32)


def _scanned_start_exponent(c):
    # the least Cauchy exponent by a linear scan: up from -32 while the
    # test fails, then down while it holds one lower; -32 for c_n x^n
    n = len(c) - 1

    def holds(k):
        two = Fraction(2) ** k
        return abs(c[n]) * two**n > sum(abs(ci) * two**i for i, ci in enumerate(c[:n]))

    k = -32
    while not holds(k):
        k += 1
    if any(c[:n]):
        while holds(k - 1):
            k -= 1
    return k


def test_start_exponent_matches_a_linear_scan():
    rng = random.Random(43)
    below = above = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        spread = rng.choice([4, 40, 300])
        c = [0 if i < n and rng.random() < 0.3
             else rng.choice([-1, 1]) * rng.randint(1, 2 ** rng.randint(1, spread))
             for i in range(n + 1)]
        k = roots._start_exponent(c)
        assert k == _scanned_start_exponent(c), c
        below += k < -32
        above += k > 32
    # both tails of the scan are reached
    assert below and above
    for c in ([0, 0, 5], [0, 0, 0, -1], [1], [3, 2**200]):
        assert roots._start_exponent(c) == _scanned_start_exponent(c), c


def test_tiny_roots_certify_in_boxes_holding_the_mpmath_roots():
    """Isolation starts at the Cauchy exponent, about -817, on a grid fine
    enough for it, so it certifies where a start circle of radius 2^-32
    gave up at the precision cap.  The quartic is solved in mpmath after
    x = 2^-817 X, whose coefficients are near 16, 8 and 5."""
    f = TINY_ROOTS_QUARTIC
    boxes = _isolate(f)
    _check_invariants(f, boxes, 32)
    with mpmath.workdps(80):
        scaled = [mpmath.ldexp(f[4], -4 * 817), 0, 0, mpmath.ldexp(f[1], -817), 5]
        zs = [z * mpmath.ldexp(1, -817)
              for z in mpmath.polyroots(scaled, maxsteps=200, extraprec=80)]
        parts = [_mp_parts(z) for z in zs]
    # the boxes are narrower than the mpmath roots' 10^-80 relative error
    tol = Fraction(1, 10**75) * Fraction(2) ** -817
    hits = sorted(i for re, im in parts for i, b in enumerate(boxes)
                  if b[0] - tol <= re <= b[1] + tol and b[2] - tol <= im <= b[3] + tol)
    assert hits == [0, 1, 2, 3]


def test_deterministic():
    f = cyclotomic_poly(5)
    assert isolate_roots(f, 40) == isolate_roots(f, 40)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(1, 6)).map(
            lambda t: Fraction(t[0], t[1])
        ),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
def test_rational_roots_recovered(roots):
    f = Poly([1])
    for r in roots:
        f = f * Poly([-r.numerator, r.denominator])
    boxes = _isolate(f, 24)
    _check_invariants(f, boxes, 24)
    for r in roots:
        hits = [b for b in boxes if _hits(b, r)]
        assert len(hits) == 1
        assert all(_is_flat(b) for b in hits)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 50),
    st.lists(st.integers(-6, 6), min_size=0, max_size=2, unique=True),
)
def test_mixed_real_nonreal(a, rs):
    f = Poly([a, 0, 1])
    for r in rs:
        f = f * Poly([-r, 1])
    boxes = _isolate(f, 20)
    _check_invariants(f, boxes, 20)
    flats = [b for b in boxes if _is_flat(b)]
    assert len(flats) == len(rs)
    for r in rs:
        assert any(_hits(b, r) for b in flats)


# ---------------------------------------------------------------------------
# the fixed-point Krawczyk test never certifies a box that holds no root or
# two roots: polynomials with known rational and Gaussian-rational roots,
# boxes around and between them


_small = st.integers(-12, 12).map(lambda n: Fraction(n, 4))
_point = st.tuples(_small, _small)


@st.composite
def _known_roots(draw):
    """Distinct rational roots and conjugate pairs of Gaussian-rational ones,
    as exact points, with the integer polynomial they make."""
    reals = draw(st.lists(_small, max_size=3, unique=True))
    pairs = draw(st.lists(_point.filter(lambda z: z[1] > 0), max_size=2, unique=True))
    pts = [(r, Fraction(0)) for r in reals]
    for x, y in pairs:
        pts += [(x, y), (x, -y)]
    f = Poly([1])
    for r in reals:
        f = f * Poly([-r.numerator, r.denominator])
    for x, y in pairs:
        # (4x - a)^2 + b^2 with a + bi = 4(x + yi), a Gaussian integer
        a, b = int(4 * x), int(4 * y)
        f = f * Poly([a * a + b * b, -8 * a, 16])
    return pts, f


@settings(max_examples=300, deadline=None)
@given(
    known=_known_roots(),
    centre=_point,
    pick=st.integers(0, 7),
    log_rad=st.integers(-12, 2),
    skew=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    w=st.sampled_from([8, 16, 40, 64]),
)
def test_krawczyk_never_certifies_zero_or_two_roots(known, centre, pick, log_rad, skew, w):
    pts, f = known
    if f.degree() < 1:
        return
    # a box about a known root, or about a point between two of them, or
    # about any point; off-centre by a few units of its radius / 4
    if pick < len(pts):
        c = pts[pick]
    elif pick < 2 * len(pts) - 1:
        i = pick - len(pts)
        c = ((pts[i][0] + pts[i + 1][0]) / 2, (pts[i][1] + pts[i + 1][1]) / 2)
    else:
        c = centre
    r = Fraction(2) ** log_rad
    c = (c[0] + skew[0] * r / 4, c[1] + skew[1] * r / 4)
    scale = 1 << w
    box = (
        (c[0] - r) * scale // 1, -(-(c[0] + r) * scale // 1),
        (c[1] - r) * scale // 1, -(-(c[1] + r) * scale // 1),
    )
    K = krawczyk_test(f, box, w, f.derivative())
    if K is None:
        return
    exact = _exact(w, box)
    inside = [p for p in pts if _hits(exact, *p)]
    assert len(inside) == 1, (f, box, w)
    assert _hits(_exact(w, K), *inside[0])


def _random_poly(seed: int, degree: int, constant=None) -> Poly:
    """Seeded 7-digit integer coefficients, optionally a given constant term."""
    rng = random.Random(seed)
    cs = [rng.choice((-1, 1)) * rng.randint(10**6, 10**7 - 1) for _ in range(degree + 1)]
    if constant is not None:
        cs[0] = constant
    return Poly(cs)


_X = Poly([0, 1])
_ORACLE_INPUTS = (
    # Mignotte x^n - 2(ax - 1)^2: for large a, two real roots near 1/a
    # about sqrt(2) a^(-n/2-1) apart
    [_X ** n - 2 * (a * _X - 1) ** 2 for n in (3, 6, 9, 12) for a in (7, 1000)]
    + [_random_poly(1, 16), _random_poly(2, 27), _random_poly(3, 40)]
    + [_random_poly(4, 20, constant=10**30)]
    + [functools.reduce(lambda p, k: p * (_X - k), range(1, 13), Poly([1]))]
)


@pytest.mark.parametrize("f", _ORACLE_INPUTS, ids=range(len(_ORACLE_INPUTS)))
def test_boxes_hold_the_mpmath_roots(f):
    """Each 60-digit mpmath root lies in exactly one certified box, up to
    the oracle's own 1e-45 relative tolerance."""
    w, boxes = isolate_roots(f, 40)
    _check_invariants(f, [_exact(w, b) for b in boxes], 40)
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(c) for c in reversed(f.coeffs)]
        zs = mpmath.polyroots(coeffs, maxsteps=200, extraprec=60)
        edges = [[mpmath.ldexp(mpmath.mpf(x), -w) for x in b] for b in boxes]
        for z in zs:
            tol = mpmath.mpf(10) ** -45 * max(1, abs(z))
            x, y = mpmath.re(z), mpmath.im(z)
            hits = [
                e for e in edges
                if e[0] - tol <= x <= e[1] + tol and e[2] - tol <= y <= e[3] + tol
            ]
            assert len(hits) == 1, (f, z)


@pytest.mark.parametrize("f", _ORACLE_INPUTS, ids=range(len(_ORACLE_INPUTS)))
def test_refinement_reaches_2048_bits(f):
    """Refinement does not stall at 2048 bits, where the rounding noise of
    large coefficients and close roots would show: every box gets to the
    radius target inside its canonical box."""
    w, boxes = isolate_roots(f)
    for b in boxes:
        v, r = refine_root_box(f, b, w, 2048)
        assert v == 2048 + 16
        assert _small_enough(_exact(v, r), 2048)
        assert _inside(_exact(v, r), _exact(w, b))
