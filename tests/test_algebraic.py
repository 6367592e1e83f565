"""Tests for exact algebraic number arithmetic, cross-ratios and heights."""

import itertools
import math
import operator
import random
from fractions import Fraction
from functools import reduce

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import smallpoints.algebraic as alg
from smallpoints.algebraic import (
    INFINITY,
    AlgebraicNumber,
    DegreeCapExceeded,
    algebraic_roots,
    anharmonic_minpolys,
    anharmonic_orbit,
    coefficient_limits,
    cross_ratio,
    ensure_algebraic,
    height_exceeds,
    is_s_unit,
    mobius_minpoly,
    weil_height,
)
import smallpoints.curve as curve_mod
from smallpoints.cli import main
from smallpoints.numeric import DOWN, UP, LogMag, lm_div, lm_exp, lm_log, lm_mul
from smallpoints.polynomial import Poly, factor_over_z, parse_poly

from oracles import DEC_TOL, dec_ln, dec_sqrt
from test_golden import EXACT_TIES, SIX, X5X


def _box(r):
    """The canonical root box of r as exact (re_lo, re_hi, im_lo, im_hi)."""
    w, box = r.refined_box(32)
    return tuple(Fraction(x, 1 << w) for x in box)


def _root_where(f, pred):
    hits = [r for r in algebraic_roots(f) if pred(r)]
    assert len(hits) == 1
    return hits[0]


def sqrt2():
    return _root_where(parse_poly("x^2 - 2")[0], lambda r: _box(r)[0] > 0)


def sqrt3():
    return _root_where(parse_poly("x^2 - 3")[0], lambda r: _box(r)[0] > 0)


def golden():
    return _root_where(parse_poly("x^2 - x - 1")[0], lambda r: _box(r)[0] > 0)


def imag_unit():
    return _root_where(parse_poly("x^2 + 1")[0], lambda r: _box(r)[2] > 0)


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
    rts = algebraic_roots(parse_poly("x^2 - 2")[0] * parse_poly("x - 3")[0])
    assert len(rts) == 3
    assert rts[0] == 3
    assert rts[1].degree == 2 and rts[2].degree == 2
    assert rts[1] != rts[2]


def test_add_sqrt2_sqrt3():
    v = sqrt2() + sqrt3()
    assert v.minpoly == parse_poly("x^4 - 10x^2 + 2")[0] + Poly([-1])
    assert v.minpoly == Poly([1, 0, -10, 0, 1])
    assert _box(v)[0] > 3


def test_mul_sqrt2_sqrt3():
    v = sqrt2() * sqrt3()
    assert v.minpoly == Poly([-6, 0, 1])
    assert _box(v)[0] > 2


def test_cancellation():
    s2 = sqrt2()
    assert (s2 - s2).is_zero()
    assert s2 / s2 == 1
    assert s2 + s2.mobius(-1, 0, 0, 1) == 0


def test_golden_conjugate_identities():
    phi = golden()
    bar = _root_where(parse_poly("x^2 - x - 1")[0], lambda r: _box(r)[1] < 0)
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
    s2_bar = _root_where(parse_poly("x^2 - 2")[0], lambda r: _box(r)[1] < 0)
    phi_bar = _root_where(parse_poly("x^2 - x - 1")[0], lambda r: _box(r)[1] < 0)
    i_bar = _root_where(parse_poly("x^2 + 1")[0], lambda r: _box(r)[3] < 0)
    cbrt2 = _root_where(parse_poly("x^3 - 2")[0], lambda r: _box(r)[2] == _box(r)[3] == 0)
    cbrt2_c = _root_where(parse_poly("x^3 - 2")[0], lambda r: _box(r)[2] > 0)
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


def test_sums_and_products_share_one_key_in_either_order():
    # all sums (products) of the conjugates of a and of b are one set
    # whichever operand comes first, so the swapped call is a cache hit
    zoo = _operand_zoo()
    for x, y in (("sqrt2", "cbrt2"), ("cbrt2_c", "phi"), ("i", "sqrt3")):
        a, b = zoo[x], zoo[y]
        for op in (operator.add, operator.mul):
            want = op(a, b)
            hits = alg._op_factors.cache_info().hits
            assert op(b, a) == want, (x, y, op)
            assert alg._op_factors.cache_info().hits == hits + 1, (x, y, op)


def _sympy_coeffs(expr, x) -> tuple:
    """Low-to-high coefficients of the primitive, positive-leading integer
    multiple of a rational polynomial expression in x."""
    cs = [Fraction(int(v.p), int(v.q)) for v in reversed(sympy.Poly(expr, x).all_coeffs())]
    den = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return tuple(v // g for v in ints)


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
        (parse_poly("3x^2 - 2")[0], parse_poly("2x^2 + x + 3")[0], "add"),
        (parse_poly("3x^2 - 2")[0], parse_poly("2x^2 + x + 3")[0], "mul"),
        (parse_poly("2x^3 + 3x - 1")[0], parse_poly("3x^2 - 2")[0], "add"),
        (parse_poly("2x^3 + 3x - 1")[0], parse_poly("5x^2 - x + 2")[0], "mul"),
        (parse_poly("x^3 - 2")[0], parse_poly("x^3 - 2")[0], "mul"),
        (parse_poly("x^2 - x - 1")[0], parse_poly("7x^3 - 4x^2 + 1")[0], "add"),
    ]
    for f, g, kind in ops:
        got = {h.coeffs for h in alg._op_factors.__wrapped__(f.coeffs, g.coeffs, kind)}
        assert got == _sympy_op_factors(f, g, kind), (f, g, kind)
    # a repeated root: the sums of conjugates of sqrt2 are +-2 sqrt2 and 0 twice
    s2 = parse_poly("x^2 - 2")[0].coeffs
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
        f = parse_poly(text)[0]
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
    # a rational's box is the least one at grid_bits(200) = 216 bits
    w, (a, b, u, v) = r.refined_box(200)
    assert w == 216 and u == v == 0 and b - a == 1
    assert Fraction(a, 1 << w) < Fraction(-3, 5) < Fraction(b, 1 << w)
    weil_height(Fraction(22, 7), 80)
    assert degrees and min(degrees) >= 2


_TABLES = (alg._roots_of, alg._op_factors, alg._height, alg._rational_height, alg._difference,
           alg.set_orbit)


def test_tables_are_bounded():
    for table in _TABLES:
        assert table.cache_info().maxsize == alg._TABLE_CACHE_SIZE
    # a stream of more distinct keys than a table holds; linear minimal
    # polynomials and rational heights keep each entry cheap
    for k in range(1, alg._TABLE_CACHE_SIZE + 9):
        alg._op_factors((-k, 1), (-1, 1), "add")
        alg._rational_height(k, 16)
    try:
        for table in (alg._op_factors, alg._rational_height):
            info = table.cache_info()
            assert 0 < info.currsize <= info.maxsize
    finally:
        for table in _TABLES:
            table.cache_clear()


def test_analyze_output_survives_clearing_every_table(capsys):
    """The golden all-rational curves, those with a quadratic factor and
    one with no real branch point print the same bytes warm, after every
    lru table of the algebraic and curve modules is cleared, and in
    reversed order."""
    def reports(curves):
        out = []
        for curve in curves:
            assert main(["analyze", "--curve", curve]) == 0
            out.append(capsys.readouterr().out)
        return out

    curves = [SIX, *EXACT_TIES, X5X, "y^2 = x^5 - 4*x^3 + 3*x", "y^2 = x^6 + 1"]
    warm = reports(curves)
    tables = {f for m in (alg, curve_mod) for f in vars(m).values() if hasattr(f, "cache_clear")}
    assert tables >= set(_TABLES)
    for table in tables:
        table.cache_clear()
    assert reports(curves) == warm
    assert reports(curves[::-1]) == warm[::-1]
    assert all(table.cache_info().currsize for table in _TABLES)


def _fields(enclosure):
    """Every field of both LogMags: LogMag equality ignores the rounding
    mode, and bit-identical output needs it too."""
    return [(m.sign, m.man, m.exp, m.prec, m.mode) for m in enclosure]


def test_rational_heights_take_one_entry_per_h():
    # p/q, -p/q, q/p and -q/p all have height ln max(|p|, |q|); so do the
    # other values sharing that H, at one entry per (H, precision)
    alg._rational_height.cache_clear()
    entries = 0
    for p, q, others in [(3, 7, [Fraction(7, 5), -7]), (22, 7, [22, Fraction(-13, 22)]),
                         (1, 1, [0]), (2**70 + 1, 3, [2**70 + 1])]:
        for precision in (64, 128, 2048):
            values = [Fraction(s * a, b) for s in (1, -1) for a, b in ((p, q), (q, p))]
            got = [_fields(weil_height(v, precision)) for v in values + others]
            entries += 1
            assert alg._rational_height.cache_info().currsize == entries
            assert all(g == got[0] for g in got), (p, q, precision)
            H = max(p, q)
            assert got[0] == _fields((lm_log(H, precision, DOWN), lm_log(H, precision, UP)))
    # H = 1 (0, 1 and -1) is the exact zero of the roots of unity
    assert _fields(weil_height(1, 64)) == _fields((LogMag.zero(64, DOWN), LogMag.zero(64, UP)))


def test_heights_take_each_log_once(monkeypatch):
    """A rational height takes ln H in one run of the ln kernel, both ends
    from it, unless H has more bits than the precision and rounds two ways;
    a height of higher degree takes ln of the leading coefficient once,
    whatever box precisions its roots need.  Both roots of 3x^2 - 2 lie
    inside the unit circle, so that log is its only one."""
    import smallpoints.numeric as numeric

    calls = []
    kernel = numeric._ln_of_dyadic

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(numeric, "_ln_of_dyadic", counting)
    alg._rational_height.cache_clear()
    alg._height.cache_clear()
    for H, precision, runs in ((7, 64, 1), (999983, 128, 1), (2**70 + 1, 2048, 1),
                               (2**70 + 1, 64, 2)):
        calls.clear()
        lo, hi = alg._rational_height(H, precision)
        assert len(calls) == runs, (H, precision)
        assert lo.to_fraction() <= dec_ln(H) + DEC_TOL and hi.to_fraction() >= dec_ln(H) - DEC_TOL
        assert _fields((lo, hi)) == _fields((lm_log(H, precision, DOWN), lm_log(H, precision, UP)))
    calls.clear()
    lo, hi = alg._height((-2, 0, 3), 128)
    assert len(calls) == 1
    assert lo.to_fraction() <= dec_ln(3) / 2 + DEC_TOL and hi.to_fraction() >= dec_ln(3) / 2 - DEC_TOL
    alg._rational_height.cache_clear()
    alg._height.cache_clear()


def test_degree_cap():
    r = algebraic_roots(parse_poly("x^9 - 2")[0])
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


def _cubic_root():
    return _root_where(parse_poly("x^3 - 2")[0], lambda r: _box(r)[2] > 0)


def test_anharmonic_minpolys_are_the_orbit_minpolys(monkeypatch):
    values = [
        Fraction(2),
        Fraction(-3, 7),
        golden(),
        _cubic_root(),
        cross_ratio(sqrt2(), 0, sqrt3(), 1),
    ]
    images_made = []
    mobius_image = alg._mobius_image

    def counting(*args):
        images_made.append(args)
        return mobius_image(*args)

    for lam in values:
        lam = ensure_algebraic(lam)
        orbit = anharmonic_orbit(lam)
        monkeypatch.setattr(alg, "_mobius_image", counting)
        images = anharmonic_minpolys(lam.minpoly)
        monkeypatch.setattr(alg, "_mobius_image", mobius_image)
        assert sorted(images) == [0, 1, 5]
        # x keeps its own minimal polynomial: only 1-x and (x-1)/x are images
        assert images[0] is lam.minpoly
        assert len(images_made) == 2
        images_made.clear()
        for pos in (0, 1, 5):
            assert images[pos] == orbit[pos].minpoly, (lam, pos)
        # the orbit resolves only the positions asked for, in that order
        assert anharmonic_orbit(lam, (5, 1)) == [orbit[5], orbit[1]]
    for value in (0, 1):
        with pytest.raises(ValueError):
            anharmonic_minpolys(AlgebraicNumber.from_rational(value).minpoly)


def test_mobius_minpoly_is_the_resolved_image_minpoly():
    matrices = [(1, 0, 0, 1), (-1, 1, 0, 1), (1, -1, 1, 0), (2, Fraction(-1, 3), 5, 7)]
    for lam in (sqrt2(), golden(), _cubic_root(), AlgebraicNumber.from_rational(Fraction(-4, 9))):
        for m in matrices:
            assert mobius_minpoly(lam, *m) == lam.mobius(*m).minpoly, (lam, m)
    with pytest.raises(ZeroDivisionError):
        mobius_minpoly(Fraction(3), 1, 0, 1, -3)


def _chain_cross_ratio(p1, p2, p3, z):
    """The cross-ratio from its four differences, a difference with
    INFINITY left out, by the operators alone."""
    def differences(*pairs):
        return [ensure_algebraic(u) - ensure_algebraic(v)
                for u, v in pairs if u is not INFINITY and v is not INFINITY]

    def product(xs):
        return reduce(operator.mul, xs, AlgebraicNumber.from_rational(1))

    return product(differences((p3, p1), (z, p2))) / product(differences((p3, p2), (z, p1)))


def _point(p):
    return p if p is INFINITY else ensure_algebraic(p)


def test_rational_triple_cross_ratio_is_one_mobius_image(monkeypatch):
    rationals = [INFINITY, Fraction(0), Fraction(-3, 2), Fraction(5), Fraction(1, 7)]
    zs = [sqrt2(), golden(), _cubic_root(), Fraction(2, 3), Fraction(-1), INFINITY]
    resolves = []
    resolve = alg._resolve_among

    def counting(*args):
        resolves.append(args)
        return resolve(*args)

    for triple in itertools.permutations(rationals, 3):
        for z in zs:
            if z in triple:
                continue
            want = _chain_cross_ratio(*triple, z)
            monkeypatch.setattr(alg, "_resolve_among", counting)
            got = cross_ratio(*triple, z)
            monkeypatch.setattr(alg, "_resolve_among", resolve)
            assert got == want, (triple, z)
            rational_z = z is INFINITY or ensure_algebraic(z).is_rational
            assert len(resolves) == (0 if rational_z else 1), (triple, z)
            resolves.clear()
            # the integer matrix gives the minimal polynomial with no resolve
            a, b, c, d = alg._cross_ratio_matrix(*map(_point, triple))
            if z is INFINITY:
                assert want == Fraction(a, c), (triple, z)
            else:
                assert mobius_minpoly(z, a, b, c, d) == want.minpoly, (triple, z)
    assert alg._cross_ratio_matrix(sqrt2(), _point(0), _point(1)) is None
    # the matrix sends the first point to infinity
    with pytest.raises(ZeroDivisionError):
        mobius_minpoly(5, *alg._cross_ratio_matrix(_point(5), _point(0), _point(1)))


def test_rational_cross_ratio_is_read_on_integers(monkeypatch):
    # a rational or infinite z of a rational or infinite triple: every
    # ordering of each set, so INFINITY takes each of the four positions,
    # equals the Fraction oracle with no Mobius resolve
    mobius_calls = []
    mobius = AlgebraicNumber.mobius

    def counting(self, *matrix):
        mobius_calls.append(matrix)
        return mobius(self, *matrix)

    monkeypatch.setattr(AlgebraicNumber, "mobius", counting)
    infinity_at = set()
    for points in _rational_four_sets(20):
        for s in itertools.permutations(points):
            got = cross_ratio(*(_point(p) for p in s))
            assert got.as_fraction() == _fraction_cross_ratio(*s), s
            infinity_at.update(i for i, p in enumerate(s) if p is INFINITY)
    assert mobius_calls == []
    assert infinity_at == {0, 1, 2, 3}


def _approx(p) -> complex:
    """The centre of p's 60-bit root box."""
    w, (a, b, u, v) = p.refined_box(60)
    return complex((a + b) / (2 << w), (u + v) / (2 << w))


def _numeric_cross_ratio(p1, p2, p3, z) -> complex:
    """(p3-p1)(z-p2) / ((p3-p2)(z-p1)) on the points' root box centres,
    each difference with INFINITY left out."""
    def product(*pairs):
        return math.prod(_approx(u) - _approx(v) for u, v in pairs
                         if u is not INFINITY and v is not INFINITY)

    return product((p3, p1), (z, p2)) / product((p3, p2), (z, p1))


def _numeric_match(values, target: complex) -> AlgebraicNumber:
    """The one value among these whose root box centre is the target,
    up to rounding."""
    close = {v for v in values if abs(_approx(v) - target) <= 1e-9 * max(1, abs(target))}
    assert len(close) == 1, (values, target)
    return close.pop()


def _fraction_cross_ratio(p1, p2, p3, z) -> Fraction:
    """(p3-p1)(z-p2) / ((p3-p2)(z-p1)) in Fractions, each difference with
    INFINITY left out."""
    def product(*pairs):
        return math.prod(u - v for u, v in pairs if u is not INFINITY and v is not INFINITY)

    return Fraction(product((p3, p1), (z, p2))) / product((p3, p2), (z, p1))


def _rational_four_sets(count: int) -> list[list]:
    """Seeded sets of four distinct rational points in index order, every
    other one led by INFINITY, as the branch points of a curve would be."""
    rng = random.Random("four-point-orderings")
    sets = []
    while len(sets) < count:
        finite = 3 if len(sets) % 2 else 4
        values = {Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(finite)}
        if len(values) == finite:
            sets.append(([INFINITY] if finite == 3 else []) + sorted(values))
    return sets


def _anharmonic_image(j: int, x: Fraction) -> Fraction:
    a, b, c, d = alg.ANHARMONIC[j]
    return (a * x + b) / (c * x + d)


def test_permutation_images_match_exact_cross_ratios():
    assert sorted(alg.PERMUTATION_IMAGES) == list(itertools.permutations(range(4)))
    for points in _rational_four_sets(40):
        lam = _fraction_cross_ratio(*points)
        for s, j in alg.PERMUTATION_IMAGES.items():
            want = _fraction_cross_ratio(*(points[i] for i in s))
            assert _anharmonic_image(j, lam) == want, (points, s)


def _irrational_four_sets() -> list[list]:
    """Sets of four points, at least two of them irrational.  The last two
    are INFINITY and three roots of a product of two cubics: with two roots
    of the first cubic and one of the second, A/C is over the degree cap
    and A/B and B/C are under it; with one of the first and two of the
    second, A/B is the capped quotient."""
    s2, s3, phi = sqrt2(), sqrt3(), golden()
    f = parse_poly("x^7 + 13*x^6 + 47*x^5 - 7*x^4 - 214*x^3 + 9*x^2 + 150*x + 25")[0]
    roots = sorted(algebraic_roots(f), key=alg.point_key)
    sets = [
        [INFINITY, Fraction(1, 3), s2, phi],
        [Fraction(-2), Fraction(5), s2, s3],
        [INFINITY, s2, 0 - s2, s3],
        [Fraction(0), s2, s3, phi],
        [INFINITY, roots[1], roots[2], roots[4]],
        [INFINITY, roots[1], roots[4], roots[5]],
    ]
    return [[p if p is INFINITY else ensure_algebraic(p) for p in points] for points in sets]


def test_cross_ratio_on_every_ordering_of_a_set():
    # the chain where it stays under the degree cap, and the numeric
    # cross-ratio of the root boxes where it does not
    capped = 0
    for points in _irrational_four_sets():
        for s in itertools.permutations(points):
            got = cross_ratio(*s)
            try:
                assert got == _chain_cross_ratio(*s), s
            except DegreeCapExceeded:
                capped += 1
                assert _numeric_match([got], _numeric_cross_ratio(*s)) == got
    # a quotient of two pairings is the cross-ratio of 8 of the 24
    # orderings, and the last two sets each cap one quotient
    assert capped == 16


def test_cross_ratio_of_a_fully_capped_set_raises_in_every_ordering():
    roots = [r for r in algebraic_roots(parse_poly("x^9 - 2")[0]) if r.degree == 9]
    for s in itertools.permutations(roots[:4]):
        with pytest.raises(DegreeCapExceeded):
            cross_ratio(*s)


def _seeded_minpolys(seed: str):
    """Irreducible primitive integer polynomials of degree 1 to 12 with
    positive leading coefficient, a few of each degree."""
    rng = random.Random(seed)
    out = []
    for degree in range(1, 13):
        found = 0
        while found < 3:
            cs = [rng.randint(-30, 30) for _ in range(degree)] + [rng.randint(1, 12)]
            f = Poly(cs).primitive()
            if factor_over_z(f) == [f]:
                if degree > 1 or f[0] not in (0, -f[1]):
                    out.append(f)
                    found += 1
    return out


def _mp_height(f: Poly):
    """Weil height of a root of the minimal polynomial f, by mpmath roots."""
    with mpmath.workdps(50):
        cs = [mpmath.mpf(int(c)) for c in reversed(f.coeffs)]
        roots = mpmath.polyroots(cs, maxsteps=200, extraprec=200) if f.degree() > 1 \
            else [-cs[1] / cs[0]]
        logs = [mpmath.log(abs(cs[0]))] + [mpmath.log(max(1, abs(r))) for r in roots]
        return mpmath.fsum(logs) / f.degree()


def test_coefficient_limits_certify_a_height_above_the_bound():
    for f in _seeded_minpolys("mahler-bound"):
        for g in anharmonic_minpolys(f).values():
            d = g.degree()
            h = _mp_height(g)
            m = max(Fraction(abs(int(a)), math.comb(d, k)) for k, a in enumerate(g.coeffs))
            with mpmath.workdps(50):
                floor = (mpmath.log(m.numerator) - mpmath.log(m.denominator)) / d
                assert floor <= h + mpmath.mpf(10) ** -40, g
                if d == 1:
                    assert abs(floor - h) < mpmath.mpf(10) ** -40, g
                near = float(floor)
            for u in (near - 1e-6, near + 1e-6, near / 2, 2 * near + 1, 0.0):
                bound = LogMag.from_fraction(Fraction(u), 64, DOWN if u < near else UP)
                limit = lm_exp(lm_mul(bound, d, 64, UP), 64, UP).to_fraction()
                exceeds = height_exceeds(g.coeffs, coefficient_limits(d, bound))
                # exactly the test m > exp(d * bound) rounded up, which
                # certifies a height above the bound, and prunes below ln(m)/d
                assert exceeds == (m > limit), (g, u)
                b = bound.to_fraction()
                if exceeds:
                    assert h > mpmath.mpf(b.numerator) / b.denominator, (g, u)
                if u < near:
                    assert exceeds, (g, u)
            # each limit is C(d, k) exp(d * bound) rounded down to an integer
            # from above the exponential, never below it
            big = LogMag.from_fraction(Fraction(2 * near + 30), 64, UP)
            b = big.to_fraction()
            with mpmath.workdps(400):
                e = mpmath.exp(d * mpmath.mpf(b.numerator) / b.denominator)
                for k, limit in enumerate(coefficient_limits(d, big)):
                    exact = math.comb(d, k) * e
                    assert exact - 1 < limit <= exact * (1 + mpmath.mpf(2) ** -40), (g, k)
            # at ln(m)/d rounded up nothing is certified, however close
            at = lm_div(lm_log(m, 64, UP), d, 64, UP)
            assert not height_exceeds(g.coeffs, coefficient_limits(d, at)), g


def test_height_and_s_unit_read_a_minimal_polynomial():
    for value in (golden(), _cubic_root(), AlgebraicNumber.from_rational(Fraction(-8, 9))):
        assert weil_height(value.minpoly, 64) == weil_height(value, 64)
        for n_s in (1, 2, 6):
            assert is_s_unit(value.minpoly, n_s) == is_s_unit(value, n_s)


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
    z6 = _root_where(parse_poly("x^2 - x + 1")[0], lambda r: _box(r)[2] > 0)
    lo, hi = weil_height(z6)
    assert lo.is_zero() and hi.is_zero()
    for r in (Fraction(1), Fraction(-1), Fraction(0)):
        lo, hi = weil_height(AlgebraicNumber.from_rational(r))
        assert lo.is_zero() and hi.is_zero()


def test_height_cbrt2():
    v = _root_where(parse_poly("x^3 - 2")[0], lambda r: _box(r)[2] == _box(r)[3] == 0)
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
    rs = algebraic_roots(parse_poly("x^2 - 2")[0])
    h1 = weil_height(rs[0])
    h2 = weil_height(rs[1])
    assert _frac(h1[0]) == _frac(h2[0]) and _frac(h1[1]) == _frac(h2[1])


def test_s_units():
    assert is_s_unit(Fraction(8, 9), 6)
    assert not is_s_unit(Fraction(10), 6)
    assert is_s_unit(Fraction(1), 1)
    assert is_s_unit(Fraction(-1), 1)
    assert not is_s_unit(Fraction(0), 30)
    assert is_s_unit(golden(), 1)
    v = sqrt2() / 2  # minpoly 2x^2 - 1
    assert is_s_unit(v, 2)
    assert not is_s_unit(v, 3)


def _s_unit_by_primes(x: Fraction, primes: set) -> bool:
    """x is nonzero and every prime of its numerator and denominator, read
    off sympy's factorint, is in primes."""
    return x != 0 and (set(sympy.factorint(abs(x.numerator)))
                       | set(sympy.factorint(x.denominator))) <= primes


def test_s_unit_by_gcd_with_n_s_matches_the_prime_rule():
    """is_s_unit reads S only through N_S = prod S.  On seeded prime sets
    and seeded rationals (0, +-1, S-units, near misses one off an S-unit or
    one prime outside S away from it, and plain integers) it agrees with
    the rule on the primes themselves."""
    rng = random.Random(39)
    pool = list(sympy.primerange(2, 50)) + [1000003, 2**31 - 1]
    true_seen = false_seen = 0
    for _ in range(60):
        primes = set(rng.sample(pool, rng.randint(0, 5)))
        n_s = math.prod(primes)
        outside = [q for q in pool if q not in primes]

        def s_part() -> int:
            return math.prod(q ** rng.randint(0, 3) for q in primes)

        values = [Fraction(0), Fraction(1), Fraction(-1)]
        for _ in range(12):
            u = rng.choice((-1, 1)) * s_part()
            values += [Fraction(u, s_part()), Fraction(u + rng.choice((-1, 1)), s_part()),
                       Fraction(u * rng.choice(outside), s_part()),
                       Fraction(u, s_part() * rng.choice(outside)),
                       Fraction(rng.randint(-10**6, 10**6))]
        for x in values:
            want = _s_unit_by_primes(x, primes)
            assert is_s_unit(x, n_s) == want, (x, sorted(primes))
            true_seen += want
            false_seen += not want
    assert true_seen > 500 and false_seen > 500


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
    base = _root_where(Poly([-d, 0, 1]), lambda r: _box(r)[0] > 0)
    a, b, c, dd = abcd
    v = base.mobius(a, b, c, dd)
    # applying the inverse matrix undoes the transform
    back = v.mobius(dd, -b, -c, a)
    assert back == base
    assert 1 / (1 / v) == v
