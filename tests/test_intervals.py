from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallpoints.intervals import (
    fx_abs_sq,
    fx_add,
    fx_affine,
    fx_contains_zero,
    fx_hull,
    fx_intersect,
    fx_intersects,
    fx_inverse,
    fx_mul,
    fx_regrid,
    fx_sub,
    poly_eval_box,
)
from smallpoints.roots import _split4

# exact complex rational points (re, im), the reference the boxes must hold


def _csub(u, v):
    return u[0] - v[0], u[1] - v[1]


def _cmul(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _cinv(u):
    d = u[0] * u[0] + u[1] * u[1]
    return u[0] / d, -u[1] / d


def _cpoly(coeffs, z):
    """Exact Horner at the point z."""
    a = b = Fraction(0)
    for c in reversed(coeffs):
        a, b = a * z[0] - b * z[1] + c, a * z[1] + b * z[0]
    return a, b


def _holds(box, z, w) -> bool:
    return (Fraction(box[0], 1 << w) <= z[0] <= Fraction(box[1], 1 << w)
            and Fraction(box[2], 1 << w) <= z[1] <= Fraction(box[3], 1 << w))


def _exact(box, w):
    return tuple(Fraction(x, 1 << w) for x in box)


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
def _fx_boxes(draw, count=2, flat=False):
    """w and count fixed-point boxes at w fractional bits, each with an
    exact complex point inside it; flat boxes lie on the real line."""
    w = draw(st.integers(0, 80))
    out = []
    for _ in range(count):
        (a, b), x = draw(_fx_side(w))
        (u, v), y = ((0, 0), Fraction(0)) if flat else draw(_fx_side(w))
        out.append(((a, b, u, v), (x, y)))
    return w, out


# ---------------------------------------------------------------------------
# real intervals: flat boxes


def test_interval_basics():
    w = 12
    s = 1 << w
    iv = (s // 3, s // 2, 0, 0)  # about [1/3, 1/2]
    assert fx_intersects(iv, (2 * s // 5, 2 * s // 5, 0, 0))
    assert not fx_intersects(iv, (s, 2 * s, 0, 0))
    assert not fx_contains_zero(iv)
    assert fx_contains_zero((-1, 1, 0, 0))
    assert fx_hull(iv, (s, s, 0, 0)) == (s // 3, s, 0, 0)
    # a flat box stays flat under ring operations
    assert fx_mul(iv, iv, w)[2:] == (0, 0)
    assert fx_add(iv, iv)[2:] == fx_sub(iv, iv)[2:] == (0, 0)


def test_interval_division():
    # [1, 2] / [1/2, 1] holds [1, 4]; 1/y is conj(y) / |y|**2 with the two
    # bounded apart, so on a wide real interval it is looser than [1, 2]
    w = 16
    one = 1 << w
    inv = fx_inverse((one // 2, one, 0, 0), w)
    assert inv == (one // 2, 4 * one, 0, 0)
    q = fx_mul((one, 2 * one, 0, 0), inv, w)
    assert q[0] <= one and 4 * one <= q[1]
    assert fx_inverse((-one, one, 0, 0), w) is None
    # [2, 4] / -2 is exactly [-2, -1]
    assert fx_mul((2 * one, 4 * one, 0, 0), fx_inverse((-2 * one, -2 * one, 0, 0), w), w) == (
        -2 * one, -one, 0, 0)


def test_interval_sq_tighter_than_mul():
    iv = (-2, 3, 0, 0)  # at w = 0
    assert fx_abs_sq(iv) == (0, 9)
    assert fx_mul(iv, iv, 0) == (-6, 9, 0, 0)


def test_outward_and_split():
    # about [1/3, 2/3] at 20 bits, rounded outward to 4 bits
    iv = (349525, 699051, 0, 0)
    out = fx_regrid(iv, 20, 4)
    assert out[0] << 16 <= iv[0] and iv[1] <= out[1] << 16
    assert out == (5, 11, 0, 0)
    # the four quarters share the centre and cover the box
    b = (0, 8, -4, 4)
    parts = _split4(b, 0)
    assert {p[1] for p in parts[:2]} == {4} and {p[2] for p in parts[1::2]} == {0}
    assert fx_hull(fx_hull(parts[0], parts[1]), fx_hull(parts[2], parts[3])) == b


@settings(max_examples=150, deadline=None)
@given(data=_fx_boxes(flat=True))
def test_interval_arithmetic_preserves_membership(data):
    w, ((a, x), (b, y)) = data
    assert _holds(fx_add(a, b), (x[0] + y[0], 0), w)
    assert _holds(fx_sub(a, b), (x[0] - y[0], 0), w)
    assert _holds(fx_mul(a, b, w), (x[0] * y[0], 0), w)
    lo, hi = fx_abs_sq(a)
    assert Fraction(lo, 1 << 2 * w) <= x[0] ** 2 <= Fraction(hi, 1 << 2 * w)
    assert _holds(fx_affine(a, -1, 0, w), (-x[0], 0), w)
    inv = fx_inverse(b, w)
    if inv is not None:
        assert _holds(inv, (1 / y[0], 0), w)
    assert _holds(fx_regrid(a, w, max(0, w - 6)), x, max(0, w - 6))


# ---------------------------------------------------------------------------
# complex boxes


def test_complex_point_helpers():
    # point boxes at w bits: exact where the result lies on the grid
    w = 30
    one = 1 << w
    i = (0, 0, one, one)
    assert fx_mul(i, i, w) == (-one, -one, 0, 0)
    z = (3 * one, 3 * one, 4 * one, 4 * one)
    assert fx_abs_sq(z) == (25 << 2 * w, 25 << 2 * w)
    assert fx_sub(z, z) == (0, 0, 0, 0)
    p = fx_mul(z, fx_inverse(z, w), w)
    assert _holds(p, (1, 0), w) and p[1] - p[0] <= 16 and p[3] - p[2] <= 16
    assert fx_inverse((0, 0, 0, 0), w) is None


def test_box_basics():
    b = (-4, 4, -4, 4)  # [-1, 1] + [-1, 1]i at w = 2
    assert fx_contains_zero(b)
    assert fx_intersects(b, (2, 2, -2, -2))
    assert fx_abs_sq(b) == (0, 32)
    assert not fx_intersects(b, (5, 6, 0, 0))
    assert fx_hull(b, (5, 6, 0, 0)) == (-4, 6, -4, 4)
    parts = _split4(b, 0)
    assert len(parts) == 4
    assert all(b[0] <= p[0] <= p[1] <= b[1] and b[2] <= p[2] <= p[3] <= b[3] for p in parts)
    assert all(fx_contains_zero(p) for p in parts)


@settings(max_examples=150, deadline=None)
@given(data=_fx_boxes())
def test_box_arithmetic_preserves_membership(data):
    w, ((a, u), (b, v)) = data
    assert _holds(fx_hull(a, b), u, w) and _holds(fx_hull(a, b), v, w)
    both = fx_intersect(a, b)
    if both is None:
        assert not fx_intersects(a, b)
    else:
        assert both[0] <= both[1] and both[2] <= both[3]
        if _holds(b, u, w):
            assert _holds(both, u, w)
    lo, hi = fx_abs_sq(a)
    assert Fraction(lo, 1 << 2 * w) <= u[0] ** 2 + u[1] ** 2 <= Fraction(hi, 1 << 2 * w)
    for k in (0, 3, 40):
        assert _holds(fx_regrid(a, w, w + k), u, w + k)
        assert _holds(fx_regrid(a, w, max(0, w - k)), u, max(0, w - k))
    assert _holds((a[0], a[1], -a[3], -a[2]), (u[0], -u[1]), w)


@settings(max_examples=80, deadline=None)
@given(data=_fx_boxes(count=1))
def test_poly_evaluation_memberships(data):
    w, ((b, u),) = data
    coeffs = [-1, 0, 2, 1]
    assert _holds(poly_eval_box(coeffs, b, w), _cpoly(coeffs, u), w)
    if b[2] == b[3] == 0:
        assert _holds(poly_eval_box(coeffs, (b[0], b[1], 0, 0), w), _cpoly(coeffs, (u[0], 0)), w)


# ---------------------------------------------------------------------------
# Horner on integer boxes, where no step rounds, against a plain Fraction
# interval Horner loop: exact equality


def _ref_mul(x, y):
    ps = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(ps), max(ps)


def _ref_box(coeffs, re, im):
    """Horner on (lo, hi) pairs: acc = acc * (re + im i) + c."""
    ar = ai = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        p, q = _ref_mul(ar, re), _ref_mul(ai, im)
        r, s = _ref_mul(ar, im), _ref_mul(ai, re)
        ar, ai = (p[0] - q[1] + c, p[1] - q[0] + c), (r[0] + s[0], r[1] + s[1])
    return ar, ai


_end = st.integers(min_value=-(10**6), max_value=10**6)
_coeff = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**40), max_value=10**40),
)


@st.composite
def _int_box(draw):
    """A box with integer ends that is general, flat, a point or a real point."""
    re = sorted((draw(_end), draw(_end)))
    im = sorted((draw(_end), draw(_end)))
    shape = draw(st.sampled_from(["box", "flat", "point", "real point"]))
    if shape in ("flat", "real point"):
        im = [0, 0]
    if shape in ("point", "real point"):
        re, im = [re[0], re[0]], [im[0], im[0]]
    return (*re, *im)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(_coeff, min_size=1, max_size=41),
    b=_int_box(),
    w=st.integers(0, 64),
)
@example(coeffs=[-5], b=(1, 2, -1, 0), w=3)
def test_poly_evaluation_is_exact(coeffs, b, w):
    # integer ends at w bits: every product is a multiple of 2**(2w), so
    # Horner rounds nothing and gives the exact interval Horner
    re, im = _ref_box(coeffs, b[:2], b[2:])
    got = poly_eval_box(coeffs, tuple(x << w for x in b), w)
    assert _exact(got, w) == re + im
    if b[2] == b[3] == 0:
        assert got[2] == got[3] == 0


def test_poly_eval_examples():
    w = 20
    one = 1 << w
    # x^2 + 1 at i is 0
    assert poly_eval_box([1, 0, 1], (0, 0, one, one), w) == (0, 0, 0, 0)
    # x^2 - 2 on [1, 2]
    v = poly_eval_box([-2, 0, 1], (one, 2 * one, 0, 0), w)
    assert v[0] <= -one and 2 * one <= v[1]


def test_intersect():
    a, b = (0, 2, 0, 0), (1, 3, 0, 0)
    assert fx_intersect(a, b) == (1, 2, 0, 0)
    assert fx_intersect(a, (5, 6, 0, 0)) is None
    assert fx_intersect(a, (2, 4, 0, 0)) == (2, 2, 0, 0)
    assert fx_intersect((0, 2, 0, 2), (1, 3, -1, 1)) == (1, 2, 0, 1)
    assert fx_intersect((0, 2, 0, 2), (5, 6, 0, 1)) is None


# ---------------------------------------------------------------------------
# fixed-point rounding


@settings(max_examples=300, deadline=None)
@given(data=_fx_boxes(), k=st.integers(-50, 50), n=st.integers(-50, 50))
def test_fixed_point_arithmetic_encloses_exact_values(data, k, n):
    w, ((x, u), (y, v)) = data
    assert _holds(x, u, w) and _holds(y, v, w)
    assert _holds(fx_add(x, y), (u[0] + v[0], u[1] + v[1]), w)
    assert _holds(fx_sub(x, y), _csub(u, v), w)
    assert _holds(fx_mul(x, y, w), _cmul(u, v), w)
    assert _holds(fx_affine(x, k, n, w), (k * u[0] + n, k * u[1]), w)
    inv = fx_inverse(y, w)
    if inv is None:
        assert fx_contains_zero(y)
    else:
        assert not fx_contains_zero(y)
        assert _holds(inv, _cinv(v), w)
    ex, ey = _exact(x, w), _exact(y, w)
    assert fx_intersects(x, y) == (ex[0] <= ey[1] and ey[0] <= ex[1]
                                   and ex[2] <= ey[3] and ey[2] <= ex[3])


@settings(max_examples=200, deadline=None)
@given(data=_fx_boxes(count=1), coeffs=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12))
def test_fixed_point_horner_encloses_the_exact_value(data, coeffs):
    w, ((x, u),) = data
    value = poly_eval_box(coeffs, x, w)
    assert _holds(value, _cpoly(coeffs, u), w)
    if x[2] == x[3] == 0:
        assert value[2] == value[3] == 0


@settings(max_examples=200, deadline=None)
@given(w=st.integers(0, 200), p=st.integers(0, 200), data=st.data())
def test_fixed_point_conversion(w, p, data):
    # a box at p bits converts exactly to any finer grid, and to a coarser
    # one as the least box there that holds it
    ends = sorted(data.draw(st.integers(-(1 << (p + 8)), 1 << (p + 8))) for _ in range(2))
    ims = sorted(data.draw(st.integers(-(1 << (p + 8)), 1 << (p + 8))) for _ in range(2))
    x = (*ends, *ims)
    b = _exact(x, p)
    y = _exact(fx_regrid(x, p, w), w)
    if w >= p:
        assert y == b
        assert fx_regrid(fx_regrid(x, p, w), w, p) == x
    unit = Fraction(1, 1 << w)
    for lo, hi, blo, bhi in ((y[0], y[1], b[0], b[1]), (y[2], y[3], b[2], b[3])):
        assert lo <= blo < lo + unit and hi - unit < bhi <= hi


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
    assert fx_contains_zero(poly_eval_box([1, 0, 1], i, w))
    assert poly_eval_box([1, 0, 1], one, w) == (2 << w, 2 << w, 0, 0)
