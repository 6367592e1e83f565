from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallpoints.intervals import (
    Box,
    Interval,
    cabs_sq,
    cinv,
    cmul,
    csub,
    poly_eval_box,
    poly_eval_interval,
    poly_eval_point,
)

_sm = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=1000
)


@st.composite
def _interval_with_point(draw):
    a, b = sorted((draw(_sm), draw(_sm)))
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=64))
    iv = Interval(a, b)
    return iv, a + (b - a) * t


@st.composite
def _box_with_point(draw):
    r, x = draw(_interval_with_point())
    i, y = draw(_interval_with_point())
    return Box(r, i), (x, y)


def test_interval_basics():
    iv = Interval(Fraction(1, 3), Fraction(1, 2))
    assert iv.intersects(Interval(Fraction(2, 5)))
    assert not iv.contains_zero()
    assert iv.mid() == Fraction(5, 12)
    assert iv.width() == Fraction(1, 6)
    assert Interval(3).is_point()
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(TypeError):
        Interval(0.5)


def test_interval_division():
    q = Interval(1, 2) / Interval(Fraction(1, 2), 1)
    assert q.lo == 1 and q.hi == 4
    with pytest.raises(ZeroDivisionError):
        Interval(1, 2) / Interval(-1, 1)
    assert (Interval(2, 4) / -2) == Interval(-2, -1)


def test_interval_sq_tighter_than_mul():
    iv = Interval(-2, 3)
    assert iv.sq() == Interval(0, 9)
    assert (iv * iv) == Interval(-6, 9)


def test_outward_and_split():
    iv = Interval(Fraction(1, 3), Fraction(2, 3))
    out = iv.outward(4)
    assert out.lo <= iv.lo and iv.hi <= out.hi
    assert out.lo.denominator <= 16 and out.hi.denominator <= 16
    a, b = iv.split()
    assert a.hi == b.lo == iv.mid()
    assert a.hull(b) == iv


@settings(max_examples=150)
@given(ap=_interval_with_point(), bp=_interval_with_point())
def test_interval_arithmetic_preserves_membership(ap, bp):
    a, x = ap
    b, y = bp
    assert (a + b).intersects(Interval(x + y))
    assert (a - b).intersects(Interval(x - y))
    assert (a * b).intersects(Interval(x * y))
    assert a.sq().intersects(Interval(x * x))
    assert (-a).intersects(Interval(-x))
    if not b.contains_zero():
        assert (a / b).intersects(Interval(x / y))
    assert a.outward(6).intersects(Interval(x))


def test_complex_point_helpers():
    i = (Fraction(0), Fraction(1))
    assert cmul(i, i) == (-1, 0)
    z = (Fraction(3), Fraction(4))
    assert cabs_sq(z) == 25
    assert cmul(z, cinv(z)) == (1, 0)
    assert csub(z, z) == (0, 0)
    with pytest.raises(ZeroDivisionError):
        cinv((Fraction(0), Fraction(0)))


def test_box_basics():
    b = Box(Interval(-1, 1), Interval(-1, 1))
    assert b.contains_zero()
    assert b.intersects(Box.point(Fraction(1, 2), Fraction(-1, 2)))
    assert b.rad() == 1
    assert b.abs_sq() == Interval(0, 2)
    inner = Box(Interval(Fraction(-1, 2), Fraction(1, 2)), Interval(0, Fraction(1, 4)))
    assert inner.is_interior_subset(b)
    assert not b.is_interior_subset(b)
    parts = b.split4()
    assert len(parts) == 4
    assert all(b.re.lo <= p.re.lo and p.re.hi <= b.re.hi
               and b.im.lo <= p.im.lo and p.im.hi <= b.im.hi for p in parts)


@settings(max_examples=150)
@given(ap=_box_with_point(), bp=_box_with_point())
def test_box_arithmetic_preserves_membership(ap, bp):
    a, u = ap
    b, v = bp
    assert (a + b).intersects(Box.point(u[0] + v[0], u[1] + v[1]))
    assert (a - b).intersects(Box.point(*csub(u, v)))
    assert (a * b).intersects(Box.point(*cmul(u, v)))
    assert a.abs_sq().intersects(Interval(cabs_sq(u)))
    assert a.outward(5).intersects(Box.point(*u))
    assert a.conjugate().intersects(Box.point(u[0], -u[1]))


@settings(max_examples=80)
@given(bp=_box_with_point())
def test_poly_evaluation_memberships(bp):
    b, u = bp
    coeffs = [-1, 0, 2, 1]
    assert poly_eval_box(coeffs, b).intersects(Box.point(*poly_eval_point(coeffs, u)))
    if u[1] == 0:
        assert poly_eval_interval(coeffs, b.re).intersects(
            Interval(poly_eval_point(coeffs, (u[0], Fraction(0)))[0])
        )


# ---------------------------------------------------------------------------
# the Horner evaluators against a plain Fraction Horner loop: exact equality


def _ref_mul(x, y):
    ps = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(ps), max(ps)


def _ref_box(coeffs, re, im):
    """Horner on (lo, hi) Fraction pairs: acc = acc * (re + im i) + c."""
    ar = ai = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        p, q = _ref_mul(ar, re), _ref_mul(ai, im)
        r, s = _ref_mul(ar, im), _ref_mul(ai, re)
        ar, ai = (p[0] - q[1] + c, p[1] - q[0] + c), (r[0] + s[0], r[1] + s[1])
    return ar, ai


def _ref_interval(coeffs, iv):
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        p = _ref_mul(acc, iv)
        acc = (p[0] + c, p[1] + c)
    return acc


def _ref_point(coeffs, z):
    a = b = Fraction(0)
    for c in reversed(coeffs):
        a, b = a * z[0] - b * z[1] + c, a * z[1] + b * z[0]
    return a, b


# thirds, sevenths, dyadics and large coprime denominators
_denominator = st.sampled_from([1, 3, 7, 21, 1 << 20, 999983, 10**9 + 7, 3**40])
_endpoint = st.builds(
    Fraction, st.integers(min_value=-(10**12), max_value=10**12), _denominator
)
_coeff = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**40), max_value=10**40),
)


@st.composite
def _eval_box(draw):
    """A box that is general, flat (on the real line), a point or a real point."""
    re = sorted((draw(_endpoint), draw(_endpoint)))
    im = sorted((draw(_endpoint), draw(_endpoint)))
    shape = draw(st.sampled_from(["box", "flat", "point", "real point"]))
    if shape in ("flat", "real point"):
        im = [Fraction(0), Fraction(0)]
    if shape in ("point", "real point"):
        re, im = [re[0], re[0]], [im[0], im[0]]
    return Box(Interval(*re), Interval(*im))


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.one_of(st.just([]), st.lists(_coeff, min_size=1, max_size=41)),
    b=_eval_box(),
)
@example(coeffs=[], b=Box(Interval(Fraction(1, 3), 2), Interval(-1, Fraction(1, 7))))
@example(
    coeffs=[-5], b=Box(Interval(Fraction(1, 3), 2), Interval(-1, 0))
)
def test_poly_evaluation_is_exact(coeffs, b):
    re, im = _ref_box(coeffs, (b.re.lo, b.re.hi), (b.im.lo, b.im.hi))
    got = poly_eval_box(coeffs, b)
    assert (got.re.lo, got.re.hi, got.im.lo, got.im.hi) == re + im
    a, v = poly_eval_point(coeffs, (b.re.lo, b.im.lo))
    assert (a, v) == _ref_point(coeffs, (b.re.lo, b.im.lo))
    assert type(a) is Fraction and type(v) is Fraction
    iv = poly_eval_interval(coeffs, b.re)
    assert (iv.lo, iv.hi) == _ref_interval(coeffs, (b.re.lo, b.re.hi))
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction


def test_poly_eval_examples():
    # x^2 + 1 at i is 0
    assert poly_eval_point([1, 0, 1], (0, 1)) == (0, 0)
    v = poly_eval_interval([-2, 0, 1], Interval(1, 2))
    assert v.lo <= -1 and 2 <= v.hi


def test_intersect():
    a = Interval(0, 2)
    b = Interval(1, 3)
    assert a.intersect(b) == Interval(1, 2)
    assert a.intersect(Interval(5, 6)) is None
    assert a.intersect(Interval(2, 4)) == Interval(2, 2)
    ba = Box(Interval(0, 2), Interval(0, 2))
    bb = Box(Interval(1, 3), Interval(-1, 1))
    got = ba.intersect(bb)
    assert got.re == Interval(1, 2) and got.im == Interval(0, 1)
    assert ba.intersect(Box(Interval(5, 6), Interval(0, 1))) is None


def test_box_inverse():
    b = Box(Interval(1, 2), Interval(Fraction(-1, 2), Fraction(1, 2)))
    inv = b.inverse()
    for re in (Fraction(1), Fraction(2), Fraction(3, 2)):
        for im in (Fraction(-1, 2), Fraction(0), Fraction(1, 2)):
            d = re * re + im * im
            assert inv.intersects(Box.point(re / d, -im / d))
    with pytest.raises(ZeroDivisionError):
        Box(Interval(-1, 1), Interval(-1, 1)).inverse()
