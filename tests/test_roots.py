"""Tests for certified root isolation.

Locations are pinned against 50+ digit decimal oracles; the structural
invariants (disjointness, conjugate pairing, radius targets, one root per
box) are checked on every isolation result.
"""

import functools
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from smallpoints import roots
from smallpoints.intervals import Box, Interval
from smallpoints.polynomial import Poly, cyclotomic_poly, parse_poly
from smallpoints.roots import (
    isolate_roots,
    krawczyk_test,
    refine_complex_root,
    refine_real_root,
    refine_root_box,
)

from oracles import DEC_TOL, dec_exp, dec_ln, dec_sqrt

SQRT2 = dec_sqrt(2)
SQRT3 = dec_sqrt(3)
CBRT2 = dec_exp(dec_ln(2) / 3)


def _near(iv: Interval, x: Fraction) -> bool:
    """x is within oracle tolerance of the interval."""
    return iv.lo - DEC_TOL <= x <= iv.hi + DEC_TOL


def _box_near(b: Box, re: Fraction, im: Fraction) -> bool:
    return _near(b.re, re) and _near(b.im, im)


def _inside(a: Box, b: Box) -> bool:
    """a lies inside b, edges included."""
    return (b.re.lo <= a.re.lo and a.re.hi <= b.re.hi
            and b.im.lo <= a.im.lo and a.im.hi <= b.im.hi)


def _check_invariants(f: Poly, boxes: list[Box], precision: int):
    assert len(boxes) == f.degree()
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            assert not boxes[i].intersects(boxes[j])
    # conjugate closure with exact mirroring
    nonreal = [b for b in boxes if not (b.im.is_point() and b.im.lo == 0)]
    for b in nonreal:
        assert any(c.re == b.re and c.im == -b.im for c in nonreal)
    tol = Fraction(1, 1 << precision)
    for b in boxes:
        m = b.mid()
        assert b.rad() ** 2 <= tol * tol * max(Fraction(1), m[0] ** 2 + m[1] ** 2)
    keys = [(b.re.lo, b.re.hi, b.im.lo, b.im.hi) for b in boxes]
    assert keys == sorted(keys)


def _real_intervals(f: Poly) -> list[Interval]:
    """The flat boxes of isolate_roots as intervals, in increasing order."""
    return [b.re for b in isolate_roots(f) if b.im.is_point() and b.im.lo == 0]


def test_isolate_real_sqrt2():
    f = parse_poly("x^2 - 2")[0]
    ivs = _real_intervals(f)
    assert len(ivs) == 2
    for iv in ivs:
        assert (iv.lo**2 - 2) * (iv.hi**2 - 2) < 0
    assert _near(ivs[0], -SQRT2) and _near(ivs[1], SQRT2)


def test_refine_real_sqrt2():
    f = parse_poly("x^2 - 2")[0]
    iv = _real_intervals(f)[1]
    r = refine_real_root(f, iv, 80)
    assert r.width() <= Fraction(2, 1 << 80) * 2
    assert _near(r, SQRT2)
    assert abs(r.mid() - SQRT2) <= Fraction(1, 1 << 78)


def test_refine_real_cbrt2():
    f = parse_poly("x^3 - 2")[0]
    (iv,) = _real_intervals(f)
    r = refine_real_root(f, iv, 100)
    assert _near(r, CBRT2)
    assert abs(r.mid() - CBRT2) <= Fraction(1, 1 << 98)


def test_refine_rational_root_exact_or_tight():
    f = parse_poly("x^3 - x")[0]
    ivs = _real_intervals(f)
    assert len(ivs) == 3
    refined = [refine_real_root(f, iv, 60) for iv in ivs]
    for r, root in zip(refined, (-1, 0, 1)):
        assert r.lo <= root <= r.hi


def test_isolate_x2_plus_1():
    boxes = isolate_roots(parse_poly("x^2 + 1")[0], 40)
    _check_invariants(parse_poly("x^2 + 1")[0], boxes, 40)
    assert boxes[0].intersects(Box.point(0, -1))
    assert boxes[1].intersects(Box.point(0, 1))


def test_isolate_x5_minus_x():
    f = parse_poly("x^5 - x")[0]
    boxes = isolate_roots(f, 40)
    _check_invariants(f, boxes, 40)
    for pt in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]:
        hits = [b for b in boxes if b.intersects(Box.point(*pt))]
        assert len(hits) == 1
    flats = [b for b in boxes if b.im.is_point() and b.im.lo == 0]
    assert len(flats) == 3


def test_isolate_x3_minus_2():
    f = parse_poly("x^3 - 2")[0]
    boxes = isolate_roots(f, 60)
    _check_invariants(f, boxes, 60)
    re_c = -CBRT2 / 2
    im_c = CBRT2 * SQRT3 / 2
    assert _box_near(boxes[0], re_c, -im_c)
    assert _box_near(boxes[1], re_c, im_c)
    assert _box_near(boxes[2], CBRT2, Fraction(0))


def test_isolate_cyclotomic_8():
    f = cyclotomic_poly(8)
    boxes = isolate_roots(f, 50)
    _check_invariants(f, boxes, 50)
    h = SQRT2 / 2
    expected = [(-h, -h), (-h, h), (h, -h), (h, h)]
    for b, (re, im) in zip(boxes, expected):
        assert _box_near(b, re, im)


def test_isolate_cyclotomic_12():
    f = cyclotomic_poly(12)
    boxes = isolate_roots(f, 50)
    _check_invariants(f, boxes, 50)
    h = SQRT3 / 2
    half = Fraction(1, 2)
    expected = [(-h, -half), (-h, half), (h, -half), (h, half)]
    for b, (re, im) in zip(boxes, expected):
        assert _box_near(b, re, im)


def test_isolate_x5_minus_1():
    f = parse_poly("x^5 - 1")[0]
    boxes = isolate_roots(f, 40)
    _check_invariants(f, boxes, 40)
    flats = [b for b in boxes if b.im.is_point() and b.im.lo == 0]
    assert len(flats) == 1 and flats[0].intersects(Box.point(1, 0))


def test_close_real_roots_separate():
    f = parse_poly("x - 1")[0] * Poly([-1025, 1024])
    boxes = isolate_roots(f, 40)
    _check_invariants(f, boxes, 40)
    assert boxes[0].intersects(Box.point(1, 0))
    assert boxes[1].intersects(Box.point(Fraction(1025, 1024), 0))


def test_big_scale_roots():
    f = parse_poly("x^2 + 1000000")[0]
    boxes = isolate_roots(f, 40)
    _check_invariants(f, boxes, 40)
    assert boxes[0].intersects(Box.point(0, -1000))
    assert boxes[1].intersects(Box.point(0, 1000))


def test_krawczyk_direct():
    f = parse_poly("x^2 - 2")[0]
    hit = Box(Interval(Fraction(13, 10), Fraction(3, 2)), Interval(Fraction(-1, 10), Fraction(1, 10)))
    assert krawczyk_test(f, hit) is not None
    empty = Box(Interval(3, 4), Interval(Fraction(-1, 10), Fraction(1, 10)))
    assert krawczyk_test(f, empty) is None
    double = Box(Interval(-2, 2), Interval(Fraction(-1, 10), Fraction(1, 10)))
    assert krawczyk_test(f, double) is None


def test_refine_complex_tightens():
    f = parse_poly("x^2 + 1")[0]
    coarse = isolate_roots(f, 20)
    fine = refine_complex_root(f, coarse[1], 90)
    assert fine.rad() <= Fraction(1, 1 << 89)
    assert fine.intersects(Box.point(0, 1))
    assert _inside(fine, coarse[1])


def test_refine_root_box_dispatch():
    f = parse_poly("x^3 - 2")[0]
    boxes = isolate_roots(f, 30)
    for b in boxes:
        r = refine_root_box(f, b, 70)
        assert _inside(r, b)
        m = r.mid()
        assert r.rad() ** 2 <= Fraction(1, 1 << 140) * max(
            Fraction(1), m[0] ** 2 + m[1] ** 2
        )
    lower = refine_root_box(f, boxes[0], 70)
    assert lower.im.hi < 0


def test_errors():
    with pytest.raises(ValueError):
        isolate_roots(parse_poly("x^2 + 2x + 1")[0])
    with pytest.raises(ValueError):
        isolate_roots(Poly([5]))


def test_certificate_needs_every_root_once():
    """The count and disjointness checks are what prove no root is missing."""
    f = parse_poly("x^3 - 2x")[0]
    c = [int(x) for x in f.coeffs]
    z = roots._aberth(c, roots._start_points(c, 64), 64)
    assert roots._certify(f, f.derivative(), z, 64) is not None
    # a root left out; a root counted twice in place of another
    assert roots._certify(f, f.derivative(), z[:2], 64) is None
    assert roots._certify(f, f.derivative(), [z[0], z[0], z[1]], 64) is None


def test_deterministic():
    f = cyclotomic_poly(5)
    a = isolate_roots(f, 40)
    b = isolate_roots(f, 40)
    assert all(x.re == y.re and x.im == y.im for x, y in zip(a, b))


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
    boxes = isolate_roots(f, 24)
    _check_invariants(f, boxes, 24)
    for r in roots:
        hits = [b for b in boxes if b.intersects(Box.point(r))]
        assert len(hits) == 1
        assert all(b.im.is_point() and b.im.lo == 0 for b in hits)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 50),
    st.lists(st.integers(-6, 6), min_size=0, max_size=2, unique=True),
)
def test_mixed_real_nonreal(a, rs):
    f = Poly([a, 0, 1])
    for r in rs:
        f = f * Poly([-r, 1])
    boxes = isolate_roots(f, 20)
    _check_invariants(f, boxes, 20)
    flats = [b for b in boxes if b.im.is_point() and b.im.lo == 0]
    assert len(flats) == len(rs)
    for r in rs:
        assert any(b.intersects(Box.point(r)) for b in flats)


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
    boxes = isolate_roots(f, 40)
    _check_invariants(f, boxes, 40)
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(c.numerator) for c in reversed(f.coeffs)]
        zs = mpmath.polyroots(coeffs, maxsteps=200, extraprec=60)
        edges = [
            [mpmath.mpf(x.numerator) / x.denominator for x in (b.re.lo, b.re.hi, b.im.lo, b.im.hi)]
            for b in boxes
        ]
        for z in zs:
            tol = mpmath.mpf(10) ** -45 * max(1, abs(z))
            x, y = mpmath.re(z), mpmath.im(z)
            hits = [
                e for e in edges
                if e[0] - tol <= x <= e[1] + tol and e[2] - tol <= y <= e[3] + tol
            ]
            assert len(hits) == 1, (f, z)
