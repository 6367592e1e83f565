"""Tests for exact algebraic number arithmetic, cross-ratios and heights."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import smallpoints.algebraic as alg
from smallpoints.algebraic import (
    INFINITY,
    AlgebraicNumber,
    DegreeCapExceeded,
    algebraic_roots,
    anharmonic_heights,
    anharmonic_orbit,
    cross_ratio,
    is_s_unit,
    weil_height,
)
from smallpoints.numeric import LogMag
from smallpoints.polynomial import Poly, parse_poly

from oracles import DEC_TOL, dec_ln, dec_sqrt


def _root_where(f, pred):
    hits = [r for r in algebraic_roots(f) if pred(r)]
    assert len(hits) == 1
    return hits[0]


def sqrt2():
    return _root_where(parse_poly("x^2 - 2"), lambda r: r.box.re.lo > 0)


def sqrt3():
    return _root_where(parse_poly("x^2 - 3"), lambda r: r.box.re.lo > 0)


def golden():
    return _root_where(parse_poly("x^2 - x - 1"), lambda r: r.box.re.lo > 0)


def imag_unit():
    return _root_where(parse_poly("x^2 + 1"), lambda r: r.box.im.lo > 0)


def _frac(lm: LogMag) -> Fraction:
    return lm.to_fraction()


def test_rational_canonical_form():
    a = AlgebraicNumber.from_rational(Fraction(-6, 4))
    assert a.minpoly == Poly([3, 2])
    assert a.as_fraction() == Fraction(-3, 2)
    assert a == Fraction(-3, 2)
    assert a != Fraction(3, 2)
    assert hash(a) == hash(AlgebraicNumber.from_rational(Fraction(-3, 2)))


def test_algebraic_roots_structure():
    rts = algebraic_roots(parse_poly("x^2 - 2") * parse_poly("x - 3"))
    assert len(rts) == 3
    assert rts[0] == 3
    assert rts[1].degree == 2 and rts[2].degree == 2
    assert rts[1] != rts[2]


def test_add_sqrt2_sqrt3():
    v = sqrt2() + sqrt3()
    assert v.minpoly == parse_poly("x^4 - 10x^2 + 2") + Poly([-1])
    assert v.minpoly == Poly([1, 0, -10, 0, 1])
    assert v.box.re.lo > 3


def test_mul_sqrt2_sqrt3():
    v = sqrt2() * sqrt3()
    assert v.minpoly == Poly([-6, 0, 1])
    assert v.box.re.lo > 2


def test_cancellation():
    s2 = sqrt2()
    assert (s2 - s2).is_zero()
    assert s2 / s2 == 1
    assert s2 + s2.mobius(-1, 0, 0, 1) == 0


def test_golden_conjugate_identities():
    phi = golden()
    bar = _root_where(parse_poly("x^2 - x - 1"), lambda r: r.box.re.hi < 0)
    assert phi + bar == 1
    assert phi * bar == -1


def test_mobius_and_inverse():
    s2 = sqrt2()
    inv = 1 / s2
    assert inv.minpoly == Poly([-1, 0, 2])
    phi = golden()
    one_minus = 1 - phi
    assert one_minus.minpoly == phi.minpoly
    assert one_minus.index != phi.index
    # Mobius transforms compose like their matrices
    v = s2.mobius(1, 2, 3, 4).mobius(5, 6, 7, 8)
    w = s2.mobius(5 * 1 + 6 * 3, 5 * 2 + 6 * 4, 7 * 1 + 8 * 3, 7 * 2 + 8 * 4)
    assert v == w


def test_rational_fast_paths():
    a = AlgebraicNumber.from_rational(Fraction(2, 3))
    assert (a + Fraction(1, 3)) == 1
    assert (a * 3) == 2
    assert (1 / a) == Fraction(3, 2)
    assert (a - 1) == Fraction(-1, 3)
    s2 = sqrt2()
    assert (s2 + 0) == s2
    assert (s2 * 1) == s2
    assert s2.mobius(3, 0, 0, 3) is s2
    half = s2 / 2
    assert half.minpoly == Poly([-1, 0, 2])


def _operand_zoo():
    s2, s3, phi, i = sqrt2(), sqrt3(), golden(), imag_unit()
    s2_bar = _root_where(parse_poly("x^2 - 2"), lambda r: r.box.re.hi < 0)
    phi_bar = _root_where(parse_poly("x^2 - x - 1"), lambda r: r.box.re.hi < 0)
    i_bar = _root_where(parse_poly("x^2 + 1"), lambda r: r.box.im.hi < 0)
    cbrt2 = _root_where(parse_poly("x^3 - 2"), lambda r: r.box.im.is_point())
    cbrt2_c = _root_where(parse_poly("x^3 - 2"), lambda r: r.box.im.lo > 0)
    return {
        "sqrt2": s2,
        "-sqrt2": s2_bar,
        "sqrt3": s3,
        "phi": phi,
        "phi_bar": phi_bar,
        "i": i,
        "-i": i_bar,
        "cbrt2": cbrt2,
        "cbrt2_c": cbrt2_c,
    }


_IRRATIONAL_PAIRS = [
    ("sqrt2", "sqrt3"),
    ("sqrt3", "sqrt2"),
    ("sqrt2", "-sqrt2"),
    ("phi", "phi_bar"),
    ("i", "-i"),
    ("i", "sqrt2"),
    ("phi", "i"),
    ("cbrt2", "sqrt2"),
    ("cbrt2", "cbrt2_c"),
    ("cbrt2_c", "phi"),
]


def test_difference_and_quotient_match_composed_forms():
    zoo = _operand_zoo()
    for x, y in _IRRATIONAL_PAIRS:
        a, b = zoo[x], zoo[y]
        assert a - b == a + b.mobius(-1, 0, 0, 1), (x, y)
        assert a / b == a * (1 / b), (x, y)
    for a in zoo.values():
        assert a - a == 0 and (a - a).is_rational
        assert a / a == 1 and (a / a).is_rational
        for r in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 7)):
            assert r - a == r + a.mobius(-1, 0, 0, 1), (a, r)
            assert r / a == r * (1 / a), (a, r)
            assert a - r == a + (-r), (a, r)
            if r:
                assert a / r == a * (1 / r), (a, r)


def test_difference_and_quotient_share_resultant_keys():
    # cbrt2 has odd degree, so g(-x) and reversed g need their sign fixed
    zoo = _operand_zoo()
    b = zoo["cbrt2"]
    for a in (zoo["sqrt2"], zoo["phi"]):
        for composed, direct in ((lambda: a + b.mobius(-1, 0, 0, 1), lambda: a - b),
                                 (lambda: a * (1 / b), lambda: a / b)):
            composed()
            hits = alg._op_factors.cache_info().hits
            direct()
            assert alg._op_factors.cache_info().hits == hits + 1


def _sympy_coeffs(expr, x) -> tuple:
    """Low-to-high coefficients of the primitive, positive-leading integer
    multiple of a rational polynomial expression in x."""
    cs = [Fraction(int(v.p), int(v.q)) for v in reversed(sympy.Poly(expr, x).all_coeffs())]
    den = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return tuple(Fraction(v // g) for v in ints)


def _sympy_op_factors(f: Poly, g: Poly, kind: str) -> set:
    """Irreducible factors of res_y(f(y), g(x - y)) for add, and of
    res_y(f(y), y^n g(x/y)) for mul, from sympy."""
    x, y = sympy.symbols("x y")
    fy = sum(int(c) * y**i for i, c in enumerate(f.coeffs))
    if kind == "add":
        gy = sum(int(c) * (x - y) ** i for i, c in enumerate(g.coeffs))
    else:
        n = g.degree()
        gy = sum(int(c) * x**i * y ** (n - i) for i, c in enumerate(g.coeffs))
    res = sympy.resultant(sympy.expand(fy), sympy.expand(gy), y)
    _, factors = sympy.factor_list(res, x)
    return {_sympy_coeffs(h, x) for h, _ in factors if sympy.degree(h, x) > 0}


def test_op_factors_match_sympy_resultants():
    ops = [
        (parse_poly("3x^2 - 2"), parse_poly("2x^2 + x + 3"), "add"),
        (parse_poly("3x^2 - 2"), parse_poly("2x^2 + x + 3"), "mul"),
        (parse_poly("2x^3 + 3x - 1"), parse_poly("3x^2 - 2"), "add"),
        (parse_poly("2x^3 + 3x - 1"), parse_poly("5x^2 - x + 2"), "mul"),
        (parse_poly("x^3 - 2"), parse_poly("x^3 - 2"), "mul"),
        (parse_poly("x^2 - x - 1"), parse_poly("7x^3 - 4x^2 + 1"), "add"),
    ]
    for f, g, kind in ops:
        got = {h.coeffs for h in alg._op_factors.__wrapped__(f.coeffs, g.coeffs, kind)}
        assert got == _sympy_op_factors(f, g, kind), (f, g, kind)
    # a repeated root: the sums of conjugates of sqrt2 are +-2 sqrt2 and 0 twice
    s2 = parse_poly("x^2 - 2").coeffs
    got = {h.coeffs for h in alg._op_factors.__wrapped__(s2, s2, "add")}
    assert got == {(0, 1), (-8, 0, 1)}


def test_mobius_image_matches_sympy():
    x = sympy.Symbol("x")
    matrices = [
        (1, 2, 3, 4),
        (-1, 0, 0, 1),
        (0, 1, 1, 0),
        (Fraction(1, 2), -3, 2, Fraction(5, 3)),
        (2, Fraction(-1, 7), 0, 3),
    ]
    for text in ("x^2 - 2", "3x^3 - x + 5", "2x^5 + x^4 - 3x^2 + 7"):
        f = parse_poly(text)
        n = f.degree()
        for m in matrices:
            a, b, c, d = (sympy.Rational(t) for t in m)
            inner = (d * x - b) / (a - c * x)
            expr = sum(int(fi) * inner**i for i, fi in enumerate(f.coeffs)) * (a - c * x) ** n
            want = _sympy_coeffs(sympy.expand(sympy.cancel(expr)), x)
            assert alg._mobius_image(f.coeffs, *m).coeffs == want, (text, m)


def test_each_operation_resolves_once(monkeypatch):
    s2, s3 = sqrt2(), sqrt3()
    calls = []
    resolve = alg._resolve_among

    def counting(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(alg, "_resolve_among", counting)
    cases = {
        "sqrt2 - sqrt3": lambda: s2 - s3,
        "sqrt2 / sqrt3": lambda: s2 / s3,
        "1 - sqrt2": lambda: 1 - s2,
        "2 / sqrt2": lambda: 2 / s2,
    }
    for name, op in cases.items():
        calls.clear()
        op()
        assert len(calls) == 1, name


def test_linear_minpolys_bypass_the_root_table(monkeypatch):
    degrees = []
    roots_of = alg._roots_of

    def recording(coeffs, precision):
        degrees.append(len(coeffs) - 1)
        return roots_of(coeffs, precision)

    monkeypatch.setattr(alg, "_roots_of", recording)
    s2 = sqrt2()
    assert s2 * s2 == 2 and s2 / s2 == 1 and s2 - s2 == 0
    r = AlgebraicNumber.from_rational(Fraction(-3, 5))
    box = r.refined_box(200)
    assert box.is_point() and box.contains_point((Fraction(-3, 5), 0))
    weil_height(Fraction(22, 7), 80)
    assert degrees and min(degrees) >= 2


def test_degree_cap():
    r = algebraic_roots(parse_poly("x^9 - 2"))
    a = [x for x in r if x.degree == 9][0]
    with pytest.raises(DegreeCapExceeded):
        a * a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        sqrt2() / 0
    with pytest.raises(ZeroDivisionError):
        1 / AlgebraicNumber.from_rational(0)


def test_cross_ratio_normalized_triple():
    for t in (Fraction(-1), Fraction(2, 7), Fraction(5)):
        v = cross_ratio(INFINITY, 0, 1, t)
        assert v == t
    s2 = sqrt2()
    assert cross_ratio(INFINITY, 0, 1, s2) == s2


def test_cross_ratio_infinity_positions():
    i = imag_unit()
    v = cross_ratio(0, 1, INFINITY, i)
    assert v.minpoly == Poly([2, -2, 1])
    w = cross_ratio(Fraction(0), Fraction(1), Fraction(3), INFINITY)
    assert w == Fraction(3, 2)
    u = cross_ratio(1, INFINITY, 4, 7)
    assert u == Fraction(3, 6) * 1
    assert u == Fraction(1, 2)


def test_cross_ratio_all_finite():
    # (p3-p1)(z-p2) / ((p3-p2)(z-p1))
    v = cross_ratio(Fraction(0), Fraction(1), Fraction(2), Fraction(5))
    assert v == Fraction(2 * 4, 1 * 5)


def test_cross_ratio_distinctness():
    with pytest.raises(ValueError):
        cross_ratio(0, 0, 1, 2)
    with pytest.raises(ValueError):
        cross_ratio(INFINITY, INFINITY, 1, 2)
    with pytest.raises(ValueError):
        cross_ratio(sqrt2(), 0, 1, sqrt2())
    # one rational written two ways, and once more as a product of irrationals
    with pytest.raises(ValueError):
        cross_ratio(Fraction(1, 2), 0, Fraction(2, 4), 3)
    with pytest.raises(ValueError):
        cross_ratio(2, 0, 1, sqrt2() * sqrt2())
    with pytest.raises(ValueError):
        cross_ratio(INFINITY, 1, AlgebraicNumber.from_rational(Fraction(3, 3)), 5)


def test_anharmonic_orbit_rational():
    vals = {v.as_fraction() for v in anharmonic_orbit(Fraction(2))}
    assert vals == {Fraction(2), Fraction(-1), Fraction(1, 2)}
    with pytest.raises(ValueError):
        anharmonic_orbit(Fraction(1))
    with pytest.raises(ValueError):
        anharmonic_orbit(Fraction(0))


def test_anharmonic_orbit_irrational():
    phi = golden()
    orb = anharmonic_orbit(phi)
    assert orb[0] == phi
    assert len(orb) == 6
    # 1 - phi is the conjugate of phi; 1/phi is a root of the reverse
    assert orb[1].minpoly == phi.minpoly and orb[1].index != phi.index
    assert orb[2].minpoly == Poly([-1, 1, 1])
    # heights are invariant under inversion
    lo1, hi1 = weil_height(phi)
    lo2, hi2 = weil_height(orb[2])
    assert _frac(lo2) <= _frac(hi1) and _frac(lo1) <= _frac(hi2)


def test_anharmonic_heights_read_the_orbit_minpolys():
    cubic = _root_where(parse_poly("x^3 - 2"), lambda r: r.box.im.lo > 0)
    values = [
        Fraction(2),
        Fraction(-3, 7),
        golden(),
        cubic,
        cross_ratio(sqrt2(), 0, sqrt3(), 1),
    ]
    for lam in values:
        orbit = anharmonic_orbit(lam)
        got = anharmonic_heights(lam, 64)
        assert len(got) == 6
        # x, 1-x and (x-1)/x read their own minimal polynomials
        for pos in (0, 1, 5):
            assert got[pos] == weil_height(orbit[pos], 64), (lam, pos)
        # 1/x, 1/(1-x) and x/(x-1) share the enclosure of their inverse
        for pos, partner in ((2, 0), (3, 1), (4, 5)):
            assert got[pos] == got[partner], (lam, pos)
    with pytest.raises(ValueError):
        anharmonic_heights(Fraction(1), 64)


GOLDEN_HEIGHT = dec_ln((1 + dec_sqrt(5)) / 2) / 2


def test_height_golden():
    lo, hi = weil_height(golden())
    assert _frac(lo) <= GOLDEN_HEIGHT + DEC_TOL
    assert GOLDEN_HEIGHT - DEC_TOL <= _frac(hi)
    assert _frac(hi) - _frac(lo) <= Fraction(1, 1 << 64)
    assert abs(_frac(hi) - GOLDEN_HEIGHT) <= Fraction(1, 10**10)


def test_height_roots_of_unity_exact():
    i = imag_unit()
    lo, hi = weil_height(i)
    assert lo.is_zero() and hi.is_zero()
    z6 = _root_where(parse_poly("x^2 - x + 1"), lambda r: r.box.im.lo > 0)
    lo, hi = weil_height(z6)
    assert lo.is_zero() and hi.is_zero()
    for r in (Fraction(1), Fraction(-1), Fraction(0)):
        lo, hi = weil_height(AlgebraicNumber.from_rational(r))
        assert lo.is_zero() and hi.is_zero()


def test_height_cbrt2():
    v = _root_where(parse_poly("x^3 - 2"), lambda r: r.box.im.is_point())
    lo, hi = weil_height(v)
    want = dec_ln(2) / 3
    assert _frac(lo) <= want + DEC_TOL and want - DEC_TOL <= _frac(hi)
    assert _frac(hi) - _frac(lo) <= Fraction(1, 1 << 64)


def test_height_rational_formula():
    lo, hi = weil_height(AlgebraicNumber.from_rational(Fraction(22, 7)))
    want = dec_ln(22)
    assert _frac(lo) <= want + DEC_TOL and want - DEC_TOL <= _frac(hi)
    lo, hi = weil_height(AlgebraicNumber.from_rational(Fraction(-3, 10)))
    want = dec_ln(10)
    assert _frac(lo) <= want + DEC_TOL and want - DEC_TOL <= _frac(hi)


def test_height_conjugates_agree():
    rs = algebraic_roots(parse_poly("x^2 - 2"))
    h1 = weil_height(rs[0])
    h2 = weil_height(rs[1])
    assert _frac(h1[0]) == _frac(h2[0]) and _frac(h1[1]) == _frac(h2[1])


def test_s_units():
    assert is_s_unit(Fraction(8, 9), [2, 3])
    assert not is_s_unit(Fraction(10), [2, 3])
    assert is_s_unit(Fraction(1), [])
    assert is_s_unit(Fraction(-1), [])
    assert not is_s_unit(Fraction(0), [2, 3, 5])
    assert is_s_unit(golden(), [])
    v = sqrt2() / 2  # minpoly 2x^2 - 1
    assert is_s_unit(v, [2])
    assert not is_s_unit(v, [3])


def test_infinity_singleton():
    from smallpoints.algebraic import _Infinity

    assert _Infinity() is INFINITY
    assert repr(INFINITY) == "INFINITY"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-50, 50),
    st.integers(1, 50),
)
def test_height_rational_oracle(p, q):
    v = Fraction(p, q)
    lo, hi = weil_height(AlgebraicNumber.from_rational(v))
    want = dec_ln(max(abs(v.numerator), v.denominator))
    assert _frac(lo) <= want + DEC_TOL
    assert want - DEC_TOL <= _frac(hi)
    assert _frac(hi) - _frac(lo) <= Fraction(1, 1 << 50)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.tuples(
        st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)
    ).filter(lambda t: t[0] * t[3] - t[1] * t[2] != 0),
)
def test_mobius_group_properties(d, abcd):
    base = _root_where(Poly([-d, 0, 1]), lambda r: r.box.re.lo > 0)
    a, b, c, dd = abcd
    v = base.mobius(a, b, c, dd)
    # applying the inverse matrix undoes the transform
    back = v.mobius(dd, -b, -c, a)
    assert back == base
    assert 1 / (1 / v) == v
