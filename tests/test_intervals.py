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
    fx_add,
    fx_affine,
    fx_box,
    fx_contains_zero,
    fx_horner,
    fx_intersects,
    fx_inverse,
    fx_mul,
    fx_sub,
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


# ---------------------------------------------------------------------------
# fixed-point boxes


@st.composite
def _fx_side(draw, w):
    """Ends (lo, hi) of one side at w fractional bits, and an exact point
    between them: a wide side, one that straddles zero, or one within a few
    units of 2**-w of zero."""
    kind = draw(st.sampled_from(["wide", "straddle", "tiny"]))
    if kind == "tiny":
        lo = draw(st.integers(-3, 3))
        hi = lo + draw(st.integers(0, 3))
    elif kind == "straddle":
        lo = -draw(st.integers(0, 1 << (w + 4)))
        hi = draw(st.integers(0, 1 << (w + 4)))
    else:
        lo = draw(st.integers(-(1 << (w + 8)), 1 << (w + 8)))
        hi = lo + draw(st.integers(0, 1 << (w + 2)))
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=64))
    return (lo, hi), Fraction(lo, 1 << w) + Fraction(hi - lo, 1 << w) * t


@st.composite
def _fx_boxes(draw, count=2):
    """w and count fixed-point boxes at w fractional bits, each with an
    exact complex point inside it."""
    w = draw(st.integers(0, 80))
    out = []
    for _ in range(count):
        (a, b), x = draw(_fx_side(w))
        (u, v), y = draw(_fx_side(w))
        out.append(((a, b, u, v), (x, y)))
    return w, out


def _holds(box, z, w) -> bool:
    return (Fraction(box[0], 1 << w) <= z[0] <= Fraction(box[1], 1 << w)
            and Fraction(box[2], 1 << w) <= z[1] <= Fraction(box[3], 1 << w))


def _as_box(x, w) -> Box:
    s = 1 << w
    return Box(Interval(Fraction(x[0], s), Fraction(x[1], s)),
               Interval(Fraction(x[2], s), Fraction(x[3], s)))


@settings(max_examples=300, deadline=None)
@given(data=_fx_boxes(), k=st.integers(-50, 50), n=st.integers(-50, 50))
def test_fixed_point_arithmetic_encloses_exact_values(data, k, n):
    w, ((x, u), (y, v)) = data
    assert _holds(x, u, w) and _holds(y, v, w)
    assert _holds(fx_add(x, y), (u[0] + v[0], u[1] + v[1]), w)
    assert _holds(fx_sub(x, y), csub(u, v), w)
    assert _holds(fx_mul(x, y, w), cmul(u, v), w)
    assert _holds(fx_affine(x, k, n, w), (k * u[0] + n, k * u[1]), w)
    inv = fx_inverse(y, w)
    if inv is None:
        assert fx_contains_zero(y)
    else:
        assert not fx_contains_zero(y)
        assert _holds(inv, cinv(v), w)
    assert fx_intersects(x, y) == _as_box(x, w).intersects(_as_box(y, w))


@settings(max_examples=200, deadline=None)
@given(data=_fx_boxes(count=1), coeffs=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12))
def test_fixed_point_horner_encloses_the_exact_value(data, coeffs):
    w, ((x, u),) = data
    value = fx_horner(coeffs, x, w)
    assert _holds(value, poly_eval_point(coeffs, u), w)
    if x[2] == x[3] == 0:
        assert value[2] == value[3] == 0


@settings(max_examples=200, deadline=None)
@given(w=st.integers(0, 200), p=st.integers(0, 200), data=st.data())
def test_fixed_point_conversion(w, p, data):
    # a box on the 2**-w grid converts exactly, any other box to the least
    # fixed-point box that holds it
    ends = sorted(data.draw(st.integers(-(1 << (w + 8)), 1 << (w + 8))) for _ in range(2))
    ims = sorted(data.draw(st.integers(-(1 << (w + 8)), 1 << (w + 8))) for _ in range(2))
    x = (*ends, *ims)
    assert fx_box(_as_box(x, w), w) == x
    b = _as_box(x, p)
    y = [Fraction(e, 1 << w) for e in fx_box(b, w)]
    unit = Fraction(1, 1 << w)
    for lo, hi, iv in ((y[0], y[1], b.re), (y[2], y[3], b.im)):
        assert lo <= iv.lo < lo + unit and hi - unit < iv.hi <= hi


def test_fixed_point_examples():
    w = 8
    one = (1 << w, 1 << w, 0, 0)
    i = (0, 0, 1 << w, 1 << w)
    assert fx_mul(i, i, w) == (-(1 << w), -(1 << w), 0, 0)
    assert fx_inverse(i, w) == (0, 0, -(1 << w), -(1 << w))
    assert fx_inverse((-1, 1, 0, 0), w) is None
    # 1/3 rounds outward to the two neighbouring grid points
    assert fx_inverse((3 << w, 3 << w, 0, 0), w) == (85, 86, 0, 0)
    # x^2 + 1 at i holds 0, at 1 it is 2
    assert fx_contains_zero(fx_horner([1, 0, 1], i, w))
    assert fx_horner([1, 0, 1], one, w) == (2 << w, 2 << w, 0, 0)
