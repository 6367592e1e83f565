import itertools
import math
import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sylvester_resultant
from smallpoints.numeric import is_prime
from smallpoints.polynomial import (
    MAX_PARSE_BITS,
    MAX_PARSE_DEGREE,
    Poly,
    _RECOMBINATION_BOUND,
    _ROOTS_BY_EVALUATION_MAX_P,
    _choose_prime,
    _distinct_degree,
    _equal_degree_split,
    _factor_mod_p,
    _mignotte_bound,
    _next_prime,
    _pm_gcd,
    _pm_monic,
    _pm_mul,
    _pm_trim,
    cyclotomic_index,
    cyclotomic_poly,
    discriminant,
    euler_phi,
    factor_over_z,
    is_squarefree,
    parse_poly,
    poly_gcd,
    render_poly,
    resultant,
)

X = Poly([0, 1])


def P(*coeffs):
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# ring basics


def test_construction_and_degree():
    assert P(1, 2, 0).coeffs == (1, 2)
    assert Poly.zero().degree() == -1
    assert P(0, 0, 3).degree() == 2
    assert P(5).lc() == 5
    with pytest.raises(ValueError):
        Poly.zero().lc()
    with pytest.raises(AttributeError):
        X.coeffs = ()
    assert type(P(3, 4).lc()) is int and type(P(3, 4)[7]) is int
    # coefficients and ring operands are ints: no Fraction reaches a Poly
    for bad in (Fraction(1, 2), Fraction(3), 0.5, 2.0):
        with pytest.raises(TypeError):
            P(1, bad)
        for op in (lambda f: f + bad, lambda f: bad + f, lambda f: f - bad,
                   lambda f: bad - f, lambda f: f * bad, lambda f: bad * f):
            with pytest.raises(TypeError):
                op(X + 1)
    assert X + 1 == P(1, 1) and 1 - X == P(1, -1) and 3 * X == P(0, 3)


def test_arithmetic():
    f = (X + 1) ** 2
    assert f == P(1, 2, 1)
    assert f - P(1, 2, 1) == Poly.zero()
    assert (X - 1) * (X + 1) == P(-1, 0, 1)
    assert 2 * X + 1 == P(1, 2)
    assert P(1, 0, 0, 2).derivative() == P(0, 0, 6)


def test_quo():
    f = P(-1, 0, 0, 0, 0, 1)  # x^5 - 1
    assert f.quo(X - 1) == P(1, 1, 1, 1, 1)
    assert P(1, 1, 1).quo(P(0, 1)) is None  # remainder 1
    assert P(2, 2).quo(P(2)) == P(1, 1)
    assert P(1, 2).quo(P(2)) is None  # quotient 1/2 + x
    assert (2 * X + 2).quo(2 * X) is None  # quotient 1, remainder 2
    assert (X**2 - 1).quo(2 * X + 2) is None  # quotient (x - 1)/2
    assert Poly.zero().quo(X) == Poly.zero()
    assert X.quo(X**2) is None
    with pytest.raises(ZeroDivisionError):
        f.quo(Poly.zero())


def _sympy_div(f: Poly, g: Poly):
    """sympy's quotient and remainder over Q, each as Fraction lists."""
    x = sympy.Symbol("x")
    fs, gs = (sympy.Poly(list(reversed(p.coeffs)), x, domain="QQ") for p in (f, g))
    q, r = sympy.div(fs, gs)
    return ([Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())],
            [c for c in r.all_coeffs() if c != 0])


def test_quo_matches_sympy_div():
    rng = random.Random(17)
    for _ in range(200):
        g = Poly([rng.randint(-6, 6) for _ in range(rng.randint(0, 3))] + [rng.choice([1, -1, 2, 3, -4])])
        h = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.randint(1, 5)])
        f = g * h if rng.randrange(2) else h
        if rng.randrange(3) == 0:
            f = f + Poly([rng.randint(-2, 2)])
        q, rem = _sympy_div(f, g)
        ours = f.quo(g)
        if rem or any(c.denominator != 1 for c in q):
            assert ours is None, (f, g)
        else:
            assert ours == Poly([int(c) for c in q]), (f, g)


def test_primitive():
    assert P(2, 4).primitive() == P(1, 2)
    assert P(-2, 0, -4).primitive() == P(1, 0, 2)
    assert P(-3).primitive() == P(1)
    assert Poly.zero().primitive() == Poly.zero()


# ---------------------------------------------------------------------------
# gcd


def test_gcd():
    f = (X - 1) * (X**2 + 1)
    g = (X - 1) * (X + 2)
    assert poly_gcd(f, g) == P(-1, 1)
    assert poly_gcd(f, X + 5) == Poly.one()
    assert poly_gcd(Poly.zero(), 2 * X) == P(0, 1)
    assert poly_gcd(-4 * X + 6, Poly.zero()) == P(-3, 2)
    assert poly_gcd(3 * f, -7 * f) == f
    assert poly_gcd(6 * X - 4, 9 * X**2 - 4) == P(-2, 3)


# ---------------------------------------------------------------------------
# resultant and discriminant


def test_resultant_frozen_values():
    assert resultant(X - 2, X - 3) == -1
    f = P(0, -1, 0, 0, 0, 1)
    assert resultant(f, f.derivative()) == -256
    assert resultant(X**2 + 1, X**2 - 2) == 9
    assert resultant(P(1, 1), P(1, 0, 1)) == 2  # res(x+1, x^2+1)
    assert resultant(2 * X + 1, 3 * X + 1) == -1
    assert resultant((X - 1) * (X + 1), X - 1) == 0


def test_discriminant_frozen_values():
    assert discriminant(P(-1, 0, 1)) == 4  # x^2 - 1
    assert discriminant(P(-1, 0, 0, 0, 0, 1)) == 3125  # x^5 - 1
    assert discriminant(P(0, -1, 0, 0, 0, 1)) == -256  # x^5 - x
    assert discriminant(P(0, -1, 0, 1)) == 4  # x^3 - x
    assert discriminant(P(1, 1, 1)) == -3  # x^2 + x + 1
    assert discriminant(P(7, 3)) == 1
    a, b, c = 6, 15, -2
    assert discriminant(P(c, b, a)) == b * b - 4 * a * c
    assert type(discriminant(P(c, b, a))) is int


_coef = st.integers(-20, 20)


@st.composite
def _int_poly(draw, max_deg=6, nonzero=True):
    deg = draw(st.integers(0, max_deg))
    cs = [draw(_coef) for _ in range(deg)]
    lead = draw(st.integers(1, 20)) * draw(st.sampled_from([1, -1]))
    p = Poly(cs + [lead])
    if nonzero and p.is_zero():
        return Poly.one()
    return p


def _primitive_of_rationals(cs: list[Fraction]) -> Poly:
    """The primitive part, positive leading coefficient, of a polynomial
    with these rational coefficients."""
    den = math.lcm(*(c.denominator for c in cs))
    return Poly([int(c * den) for c in cs]).primitive()


def _sympy_primitive_gcd(f: Poly, g: Poly) -> tuple:
    x = sympy.symbols("x")
    fs, gs = (sympy.Poly(list(reversed(p.coeffs)), x, domain="QQ") for p in (f, g))
    r = fs.gcd(gs).monic()
    return _primitive_of_rationals(
        [Fraction(int(c.p), int(c.q)) for c in reversed(r.all_coeffs())]).coeffs


@settings(max_examples=80, deadline=None)
@given(
    f=_int_poly(max_deg=5),
    g=_int_poly(max_deg=5),
    h=_int_poly(max_deg=4),
    divides=st.booleans(),
)
def test_gcd_matches_sympy(f, g, h, divides):
    if divides:
        g = f * g  # then f * h divides g * h
    a, b = f * h, g * h
    want = _sympy_primitive_gcd(a, b)
    assert poly_gcd(a, b).coeffs == want
    assert poly_gcd(b, a).coeffs == want
    assert poly_gcd(3 * a, -7 * b).coeffs == want


@settings(max_examples=120, deadline=None)
@given(f=_int_poly(), g=_int_poly())
def test_resultant_matches_sylvester(f, g):
    ours = resultant(f, g)
    oracle = sylvester_resultant(list(f.coeffs), list(g.coeffs))
    assert ours == oracle
    assert type(ours) is int


@settings(max_examples=60, deadline=None)
@given(f=_int_poly(max_deg=3), g=_int_poly(max_deg=3), h=_int_poly(max_deg=3))
def test_resultant_multiplicative(f, g, h):
    assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)


# ---------------------------------------------------------------------------
# factorization


def _coeffs(factors):
    return [p.coeffs for p in factors]


def test_factor_frozen():
    assert factor_over_z(P(0, -1, 0, 0, 0, 1)) == [  # x^5 - x
        P(-1, 1),
        P(0, 1),
        P(1, 1),
        P(1, 0, 1),
    ]
    assert _coeffs(factor_over_z(2 * X**2 - 2)) == [(-1, 1), (1, 1)]
    assert _coeffs(factor_over_z(P(-1, 0, 0, 0, 0, 0, 1))) == [  # x^6 - 1
        (-1, 1),
        (1, 1),
        (1, -1, 1),
        (1, 1, 1),
    ]
    assert _coeffs(factor_over_z(P(4, 0, 0, 0, 1))) == [(2, -2, 1), (2, 2, 1)]  # x^4 + 4
    assert _coeffs(factor_over_z(P(-1, 0, 9))) == [(-1, 3), (1, 3)]


def test_factor_multiplicities_and_content():
    # each repeated factor once, whatever its multiplicity; no content
    assert factor_over_z(-6 * (X**2 + 1) ** 3 * (X - 2)) == [P(-2, 1), P(1, 0, 1)]
    f = (X**2 + 1) ** 3 * (X - 2) ** 2 * (X + 5)
    assert factor_over_z(f) == [P(-2, 1), P(5, 1), P(1, 0, 1)]
    assert factor_over_z(-3 * (X - 1) ** 4) == [P(-1, 1)]
    assert factor_over_z(P(2, 2)) == [P(1, 1)]
    assert factor_over_z(P(7)) == []
    assert factor_over_z(P(-2)) == []
    with pytest.raises(ValueError):
        factor_over_z(Poly.zero())


@pytest.mark.parametrize("f, squarefree", [
    (P(0, -1, 0, 0, 0, 1), True),        # x^5 - x: squarefree mod 3
    (P(-3, 0, 1), True),                 # x^2 - 3 = x^2 mod 3: the gcd decides
    (P(-2, 0, 3), True),                 # 3x^2 - 2: 3 divides lc, so mod 5
    (P(1, 0, -2, 0, 1), False),          # (x^2 - 1)^2
    ((X - 1) ** 2 * (X + 2), False),     # (x - 1)^2 (x + 2) = x^3 - 3x + 2
    (9 * X**2 + 6 * X + 1, False),       # (3x + 1)^2, lc 9
    (P(5, 7), True),
])
def test_is_squarefree(f, squarefree):
    x = sympy.Symbol("x")
    assert sympy.Poly(list(reversed(f.coeffs)), x).is_sqf is squarefree
    assert is_squarefree(f) is squarefree


def test_factor_irreducible():
    for f in (P(1, 1, 0, 0, 1), P(-2, 0, 1), P(1, 1, 1, 1, 1), P(7, -3, 0, 0, 0, 2)):
        assert factor_over_z(f) == [f], render_poly(f)
        assert factor_over_z(-3 * f) == [f], render_poly(f)


def _choose_prime_by_full_split(ints):
    """The first usable prime, unless its full modular split has more than
    _RECOMBINATION_BOUND factors; then the first of up to five usable primes
    with the fewest factors, stopping at a count within the bound."""
    best, found, p = None, 0, 2
    while found < 5:
        p = _next_prime(p)
        fp = _pm_trim([v % p for v in ints])
        dfp = _pm_trim([i * v % p for i, v in enumerate(ints)][1:])
        if ints[-1] % p == 0 or not dfp or len(_pm_gcd(fp, dfp, p)) != 1:
            continue
        monic = _pm_monic(fp, p)
        units = _factor_mod_p(monic, p, _distinct_degree(monic, p))
        found += 1
        if best is None or len(units) < len(best[1]):
            best = (p, units)
            if len(units) <= _RECOMBINATION_BOUND:
                break
    return best


def test_linear_blocks_split_as_cantor_zassenhaus_does():
    # below the threshold a block of linear factors is split by evaluation,
    # above it by Cantor-Zassenhaus; both give the same sorted factors,
    # also at the last prime before the threshold and the first past it
    last = max(q for q in range(3, _ROOTS_BY_EVALUATION_MAX_P + 1) if is_prime(q))
    first = _next_prime(_ROOTS_BY_EVALUATION_MAX_P)
    rng = random.Random(32)
    for p in (3, 5, 7, 13, 61, 67, last, first, _next_prime(first)):
        for _ in range(6):
            roots = rng.sample(range(p), rng.randint(1, min(p, 8)))
            if rng.random() < 0.5 and 0 not in roots:
                roots[0] = 0
            f = [1]
            for r in roots:
                f = _pm_mul(f, [-r % p, 1], p)
            # a quadratic factor with no root mod p joins the linear ones
            while True:
                q = [rng.randrange(p), rng.randrange(p), 1]
                if all((q[0] + q[1] * r + r * r) % p for r in range(p)):
                    break
            f = _pm_mul(f, q, p)
            blocks = _distinct_degree(f, p)
            expected = [
                u for block, d in blocks
                for u in _equal_degree_split(block, d, p, random.Random(p))
            ]
            expected.sort(key=lambda u: (len(u), tuple(reversed(u))))
            assert _factor_mod_p(f, p, blocks) == expected, (p, roots, q)
            assert expected[:len(roots)] == sorted(
                ([-r % p, 1] for r in roots), key=lambda u: u[0]
            )


def test_choose_prime_counts_factors_from_the_distinct_degree_split():
    rng = random.Random(12)
    checked = 0
    while checked < 60:
        ints = [rng.randint(-30, 30) for _ in range(rng.randint(3, 11))] + [rng.randint(1, 9)]
        f = Poly(ints)
        if poly_gcd(f, f.derivative()).degree() > 0:
            continue
        assert _choose_prime(ints) == _choose_prime_by_full_split(ints), ints
        checked += 1


def _sympy_factors(f: Poly) -> set:
    """sympy's distinct irreducible factors of f, each primitive with
    positive leading coefficient, as coefficient tuples."""
    x = sympy.Symbol("x")
    expr = sum(c * x**i for i, c in enumerate(f.coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, x, domain="QQ"))
    out = set()
    for poly, _ in factors:
        cs = [Fraction(int(v.p), int(v.q)) for v in reversed(sympy.Poly(poly, x).all_coeffs())]
        out.add(_primitive_of_rationals(cs).coeffs)
    return out


def _assert_sorted_primitive(fs):
    assert fs == sorted(fs, key=lambda h: (h.degree(), h.coeffs))
    assert len(set(fs)) == len(fs)
    for h in fs:
        assert h.degree() >= 1 and h.primitive() == h


@settings(max_examples=40, deadline=None)
@given(f=_int_poly(max_deg=7))
def test_factor_matches_sympy_dense(f):
    fs = factor_over_z(f)
    assert set(_coeffs(fs)) == _sympy_factors(f)
    _assert_sorted_primitive(fs)


@settings(max_examples=25, deadline=None)
@given(
    parts=st.lists(
        st.tuples(_int_poly(max_deg=3), st.integers(1, 3)), min_size=1, max_size=3
    ),
    c=st.integers(-1000, 1000).filter(lambda c: c != 0),
)
def test_factor_matches_sympy_structured(parts, c):
    f = Poly.one()
    for q, m in parts:
        f = f * q**m
    if f.degree() > 14:
        return
    fs = factor_over_z(f)
    assert set(_coeffs(fs)) == _sympy_factors(f)
    _assert_sorted_primitive(fs)
    # a constant multiple and a power of one part leave the factors alone
    (q, k), rest = parts[0], parts[1:]
    g = Poly.one()
    for r, _ in rest:
        g = g * r
    assert factor_over_z(c * q**k * g) == factor_over_z(q * g)


def _sympy_poly(expr) -> Poly:
    x = sympy.Symbol("x")
    return Poly([int(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())])


def test_factor_adversarial_inputs_match_sympy(monkeypatch):
    """Inputs with many factors modulo every prime, against factor_list."""
    from smallpoints import polynomial

    x = sympy.Symbol("x")
    for expr in (
        sympy.swinnerton_dyer_poly(3, x),
        sympy.swinnerton_dyer_poly(4, x),
        x**32 + 1,
        sympy.cyclotomic_poly(105, x) * sympy.cyclotomic_poly(84, x),
    ):
        f = _sympy_poly(sympy.expand(expr))
        fs = factor_over_z(f)
        assert set(_coeffs(fs)) == _sympy_factors(f), expr
        _assert_sorted_primitive(fs)
    # Phi_105 * Phi_84 has 12 factors mod 11, its first usable prime, so
    # more candidate primes are split
    splits = []

    def counting(f, p):
        splits.append(p)
        return _distinct_degree(f, p)

    monkeypatch.setattr(polynomial, "_distinct_degree", counting)
    _, units = _choose_prime(list((cyclotomic_poly(105) * cyclotomic_poly(84)).coeffs))
    assert splits[0] == 11 and len(splits) > 1
    assert len(units) <= _RECOMBINATION_BOUND < 12


def _seeded_irreducible(rng: random.Random, degree: int) -> Poly:
    while True:
        g = Poly([rng.randint(-40, 40) for _ in range(degree)] + [rng.randint(1, 9)])
        if g[0] and factor_over_z(g) == [g.primitive()]:
            return g.primitive()


def test_factor_rational_roots_times_irreducibles_match_sympy():
    """Seeded products of rational roots b/a with |b|, a up to 10**6 (so
    some are too tall to reconstruct before the lift bound) and of
    irreducible factors of degree 2 to 4, against factor_list."""
    rng = random.Random(25)
    for _ in range(40):
        f = Poly([rng.choice([1, -1, 6])])
        for _ in range(rng.randint(1, 5)):
            top = 10 ** rng.randint(0, 6)
            a, b = rng.randint(1, top), rng.randint(-top, top)
            f = f * Poly([-b, a]) ** rng.randint(1, 2)
        for _ in range(rng.randint(0, 2)):
            f = f * _seeded_irreducible(rng, rng.randint(2, 4))
        if f.degree() < 1:
            continue
        fs = factor_over_z(f)
        assert set(_coeffs(fs)) == _sympy_factors(f), render_poly(f)
        _assert_sorted_primitive(fs)
    # a root too tall for reconstruction at the lift bound: the tree finds it
    f = (X - 10**6) * (X**2 + 1)
    assert factor_over_z(f) == [P(-(10**6), 1), P(1, 0, 1)]


def test_factor_accepts_no_false_rational_root(monkeypatch):
    """prod(x - i, i < 8) + 1155 g is congruent to eight distinct linear
    factors mod 11, its first usable prime (1155 = 3*5*7*11, and f is not
    squarefree mod 3, 5 or 7), so every one of its modular roots lifts and
    small reconstructions such as 0, 1 and 2 meet the exact test.  Every
    factor accepted from a root must divide f."""
    from smallpoints import polynomial

    accepted = []
    lift = polynomial._rational_root_factor

    def recording(ints, g, r, p, target):
        h = lift(ints, g, r, p, target)
        if h is not None:
            accepted.append((ints, h))
        return h

    monkeypatch.setattr(polynomial, "_rational_root_factor", recording)
    base = Poly.one()
    for i in range(8):
        base = base * P(-i, 1)
    rng = random.Random(1155)
    for k in range(30):
        # every third keeps the true root 0
        g = Poly([rng.randint(-3, 3) for _ in range(8)])
        if k % 3 == 0:
            g = P(0, rng.randint(-3, 3))
        f = base + 1155 * g
        if poly_gcd(f, f.derivative()).degree() > 0:
            continue
        ints = list(f.coeffs)
        assert _choose_prime(ints)[0] == 11
        fs = factor_over_z(f)
        assert set(_coeffs(fs)) == _sympy_factors(f), render_poly(f)
    for ints, h in accepted:
        assert Poly(ints).quo(h) is not None


def test_rational_roots_need_no_hensel_tree(monkeypatch):
    """An octic whose eight roots are rational, as every branch point of
    the rational-root curves is, factors from its modular roots alone; so
    do the root 0, which reconstructs at the first modulus, and a root
    whose denominator is lc f."""
    from smallpoints import polynomial

    def no_tree(*args):
        raise AssertionError("all-rational input reached the Hensel tree")

    monkeypatch.setattr(polynomial, "_hensel_tree", no_tree)
    roots = [(3, 1), (-7, 2), (11, 5), (-1, 3), (25, 4), (13, 7), (-50, 9), (17, 1)]
    f = Poly.one()
    for b, a in roots:
        f = f * P(-b, a)
    linear = sorted((P(-b, a) for b, a in roots), key=lambda h: h.coeffs)
    assert factor_over_z(f) == linear
    # x^2 + 3 stays irreducible mod the prime chosen, so once the roots are
    # out the cofactor is one factor mod p
    g = f.quo(P(-17, 1)) * P(3, 0, 1)
    assert factor_over_z(g) == [h for h in linear if h != P(-17, 1)] + [P(3, 0, 1)]
    assert factor_over_z(X * (7 * X - 3) * (X + 5)) == [P(-3, 7), P(0, 1), P(5, 1)]
    assert factor_over_z(-X * (7 * X - 3)) == [P(-3, 7), P(0, 1)]


def test_mignotte_bound_covers_every_true_factor():
    """For every factor g of f over Z, h = (lc f / lc g) * g, the candidate
    recombination and the rational-root lift read off symmetric residues,
    has every coefficient within _mignotte_bound(f)."""
    rng = random.Random(2)
    for _ in range(60):
        parts = [
            Poly([rng.randint(-60, 60) for _ in range(d)] + [rng.randint(1, 30)])
            for d in (rng.choice([1, 1, 2, 3]) for _ in range(rng.randint(2, 5)))
        ]
        f = Poly.one()
        for q in parts:
            f = f * q
        bound = _mignotte_bound(list(f.coeffs))
        for k in range(1, len(parts)):
            for combo in itertools.combinations(parts, k):
                g = Poly.one()
                for q in combo:
                    g = g * q
                g = g.primitive()
                h = Poly([c * f.lc() for c in g.coeffs])
                assert all(c % g.lc() == 0 for c in h.coeffs)
                assert max(abs(c) // g.lc() for c in h.coeffs) <= bound


# ---------------------------------------------------------------------------
# cyclotomic recognition


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == P(-1, 1)
    assert cyclotomic_poly(2) == P(1, 1)
    assert cyclotomic_poly(4) == P(1, 0, 1)
    assert cyclotomic_poly(6) == P(1, -1, 1)
    assert cyclotomic_poly(12) == P(1, 0, -1, 0, 1)
    # first index with a coefficient outside {-1, 0, 1}
    assert cyclotomic_poly(105)[7] == -2


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 10, 12, 105)] == [
        1,
        1,
        2,
        2,
        4,
        4,
        48,
    ]


def test_cyclotomic_index():
    for m in (1, 2, 3, 4, 5, 6, 8, 12, 105):
        assert cyclotomic_index(cyclotomic_poly(m)) == m
    assert cyclotomic_index(P(-2, 0, 1)) is None
    assert cyclotomic_index(P(1, 2, 1)) is None
    assert cyclotomic_index(2 * X + 2) is None  # not monic
    assert cyclotomic_index(P(-1, 1)) == 1


# ---------------------------------------------------------------------------
# text format


def _as_fractions(parsed: tuple[Poly, int]) -> list[Fraction]:
    """The coefficients of f/d for a parse_poly result (f, d), after
    checking that d >= 1 is coprime to the content of f."""
    f, d = parsed
    assert d >= 1 and math.gcd(d, *f.coeffs) == 1
    return [Fraction(c, d) for c in f.coeffs]


def test_parse_poly():
    assert parse_poly("x^5 - x") == (P(0, -1, 0, 0, 0, 1), 1)
    assert parse_poly("x**6 - 1") == (P(-1, 0, 0, 0, 0, 0, 1), 1)
    assert parse_poly("2x^3 + 1/2 x - 7") == (P(-14, 1, 0, 4), 2)
    assert parse_poly("-x + 3") == (P(3, -1), 1)
    assert parse_poly("3") == (P(3), 1)
    assert parse_poly("X^2") == (P(0, 0, 1), 1)
    assert parse_poly("x - x") == (Poly.zero(), 1)
    assert parse_poly("1/3 - 1/3") == (Poly.zero(), 1)
    assert parse_poly("5*x^2 + 1") == (P(1, 0, 5), 1)
    assert parse_poly("2/4*x + 6/4") == (P(3, 1), 2)
    assert parse_poly("1/6*x + 1/10") == (P(3, 5), 30)
    assert parse_poly("6/7*x*7/2") == (P(0, 3), 1)


def test_parse_poly_errors():
    for bad in ("", "x + + 3", "y^2", "x^-2", "1.5x", "x 3", "(x-1", "(x-1)^-2",
                "(x-1)^(1/2)", "(x-1)(x+1)", "2^3^2", "x^2^3", "()", "x*", "(x-1)^"):
        with pytest.raises(ValueError):
            parse_poly(bad)


# a literal, a product of two literals over the limit, a product of four
# within it and a sum of 1/p over pairwise coprime 4001-bit p: each has a
# coefficient or denominator over MAX_PARSE_BITS that no power limit sees
OVERSIZED_COEFFICIENTS = [
    pytest.param(f"x^5 - {3 ** 8000}", MAX_PARSE_BITS, id="3^8000 literal"),
    pytest.param(f"{10 ** 4000}*{10 ** 4000}*x^5 - 1", MAX_PARSE_BITS, id="10^4000 product"),
    pytest.param("*".join([str(2 ** 4000)] * 4) + "*x*(x-1)*(x-2)*(x-3)*(x-4)", MAX_PARSE_BITS,
                 id="2^4000 product"),
    pytest.param("x^5 + " + " + ".join(f"1/{2 ** 4000 + k}" for k in (-1, 1, 3)), MAX_PARSE_BITS,
                 id="sum of 1/p"),
]


def forbid_oversized_polys(monkeypatch):
    """Make building any Poly beyond what the parse limits admit fail at
    once: above MAX_PARSE_DEGREE, or with a coefficient of more than
    MAX_PARSE_BITS + MAX_PARSE_DEGREE bits.  A parse that checks its
    limits before expanding never gets there."""
    init = Poly.__init__

    def checked(self, coeffs):
        init(self, coeffs)
        assert self.degree() <= MAX_PARSE_DEGREE, "oversized degree built"
        assert all(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                   <= MAX_PARSE_BITS + MAX_PARSE_DEGREE for c in self.coeffs), "oversized coefficient built"

    monkeypatch.setattr(Poly, "__init__", checked)


@pytest.mark.parametrize("text, limit", [
    ("x^1000000", MAX_PARSE_DEGREE),
    ("x^" + "1" + "0" * 30, MAX_PARSE_DEGREE),
    ("(x+1)^100000", MAX_PARSE_DEGREE),
    ("x^5 - (x^2 + 1)^" + "9" * 40, MAX_PARSE_DEGREE),
    ("(2)^1000000", MAX_PARSE_BITS),
    ("2^4097", MAX_PARSE_BITS),
    ("x^5 - (2^64)^65", MAX_PARSE_BITS),
    ("x^5 - 3^2585", MAX_PARSE_BITS),
    ("x^200 * x^200", MAX_PARSE_DEGREE),
    ("(x^3 - 1)^100", MAX_PARSE_DEGREE),
    ("3*((x^2 + 1)^10)^20", MAX_PARSE_DEGREE),
    ("x^5 - ((((2)^256)^256)^256)^256", MAX_PARSE_BITS),
    ("(x + ((2)^256)^256)^256", MAX_PARSE_BITS),
    ("((1/3)^200)^200", MAX_PARSE_BITS),
    ("(x + 8192)^256", MAX_PARSE_BITS),
    *OVERSIZED_COEFFICIENTS,
])
def test_parse_poly_rejects_oversized_power_before_expanding(monkeypatch, text, limit):
    forbid_oversized_polys(monkeypatch)
    with pytest.raises(ValueError, match=f"exceeds the limit {limit}$"):
        parse_poly(text)


def test_parse_poly_accepts_degree_up_to_the_limit():
    assert parse_poly(f"x^{MAX_PARSE_DEGREE} - 1")[0].degree() == MAX_PARSE_DEGREE
    assert parse_poly(f"x * (x + 1)^{MAX_PARSE_DEGREE - 1}")[0].degree() == MAX_PARSE_DEGREE
    assert parse_poly(f"x^{MAX_PARSE_DEGREE:07d}")[0].degree() == MAX_PARSE_DEGREE
    for text in (f"x^{MAX_PARSE_DEGREE + 1}", f"x * x^{MAX_PARSE_DEGREE}",
                 f"(x^2 - 2)^{MAX_PARSE_DEGREE // 2 + 1}"):
        with pytest.raises(ValueError):
            parse_poly(text)


def test_parse_poly_accepts_power_size_up_to_the_limit():
    # 2^1020 has 1021 bits, so x + 2^1020 has size (1021 + 1) + (1 + 1) bits
    # and its 4th power is at MAX_PARSE_BITS; a constant power is capped by
    # its own bits, so (2^63)^64 = 2^4032 and 3^2560 (4058 bits) parse
    assert MAX_PARSE_BITS == 4096
    c = 2 ** 1020
    assert parse_poly(f"(x + {c})^4") == (Poly([c, 1]) ** 4, 1)
    assert parse_poly("((2)^63)^63") == (Poly([2 ** (63 * 63)]), 1)
    assert parse_poly("((2)^63)^64") == (Poly([2 ** (63 * 64)]), 1)
    assert parse_poly("((1/3)^256)^10") == (Poly([1]), 3 ** 2560)
    # the size is read in lowest terms: 1/6 + 1/6 counts as 1/3
    assert parse_poly("((1/6 + 1/6)^256)^10") == (Poly([1]), 3 ** 2560)
    for text in (f"(x + {2 * c})^4", "((2)^64)^65", "((1/3)^256)^11", "((1/6 + 1/6)^256)^11"):
        with pytest.raises(ValueError, match=f"exceeds the limit {MAX_PARSE_BITS}$"):
            parse_poly(text)


def test_parse_poly_products_and_powers():
    assert parse_poly("(x+1)^2") == (P(1, 2, 1), 1)
    assert parse_poly("x*(x-1)*(x-2)*(x-3)*(x-5)") == (P(0, 30, -61, 41, -11, 1), 1)
    assert parse_poly("-2*(x - 1/2)**3 + x^0") == (P(5, -6, 12, -8), 4)
    assert parse_poly("(2/3*x + 1/3)^2") == (P(1, 4, 4), 9)
    assert parse_poly("(x^2 + 1)^0 * 7") == (P(7), 1)
    assert parse_poly("((x))^2*3x") == (P(0, 0, 0, 3), 1)


def test_parse_poly_integer_literals_take_a_power():
    assert parse_poly("2^10") == parse_poly("(2)^10") == (P(1024), 1)
    assert parse_poly("10**3") == (P(1000), 1)
    assert parse_poly("2^3x^5 - 1") == (P(-1, 0, 0, 0, 0, 8), 1)
    assert parse_poly("x^5 - 2^10") == parse_poly("x^5 - 1024")
    assert parse_poly("(2^63)^2") == parse_poly("((2)^63)^2") == (P(2 ** 126), 1)
    # the same limits, with the same messages, as the parenthesized form
    for bare, parenthesized in (("2^4097", "(2)^4097"), ("(2^64)^65", "((2)^64)^65"),
                                ("2^1000000", "(2)^1000000")):
        with pytest.raises(ValueError) as want:
            parse_poly(parenthesized)
        with pytest.raises(ValueError) as got:
            parse_poly(bare)
        assert str(got.value) == str(want.value), bare
    # the tokenizer holds 3/2 as one literal, which ordinary notation would
    # read as 3/(2^2): the message asks for parentheses
    with pytest.raises(ValueError, match=re.escape("write (3/2)^2")):
        parse_poly("3/2^2")
    with pytest.raises(ValueError, match=re.escape("write (4/2)^3")):
        parse_poly("4/2^3")
    assert parse_poly("(3/2)^2") == (P(9), 4)


def test_parse_poly_caps_constant_powers_by_size():
    # a power of a constant is checked against MAX_PARSE_BITS, like the
    # literal it equals, not against MAX_PARSE_DEGREE
    assert parse_poly("x^5 - 2^4000") == parse_poly(f"x^5 - {2 ** 4000}")
    assert parse_poly("2^4095") == (P(2 ** 4095), 1)
    assert parse_poly("3^2584") == (P(3 ** 2584), 1)  # 4096 bits
    assert parse_poly("(2/3)^300*x") == (P(0, 2 ** 300), 3 ** 300)
    assert parse_poly("(x - x + 1)^4096") == parse_poly("1^4096") == (P(1), 1)
    # at least (bits - 1) e + 1 bits, or the exact bits of the power
    for text, message in (("2^4096", "power of at least 4097 coefficient bits"),
                          ("(2^64)^65", "power of at least 4161 coefficient bits"),
                          ("3^2585", "coefficient of 4098 bits"),
                          ("2^4097", "exponent 4097"),
                          ("(1/2)^4096", "power of at least 4097 coefficient bits")):
        with pytest.raises(ValueError, match=re.escape(f"{message} exceeds the limit {MAX_PARSE_BITS}")):
            parse_poly(text)
    # powers of x and of a nonconstant polynomial keep the degree cap
    for text in ("x^257", "(x + 1)^257", "(x - x + x)^257"):
        with pytest.raises(ValueError, match=f"exponent 257 exceeds the limit {MAX_PARSE_DEGREE}$"):
            parse_poly(text)


def _sympy_coeffs(text: str) -> list:
    """sympy's expansion of the text, coefficients low to high with
    trailing zeros dropped."""
    x = sympy.Symbol("x")
    expr = sympy.expand(sympy.sympify(text.replace("^", "**"), locals={"x": x}))
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, x).all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _seeded_coefficient(rng: random.Random, lo: int, hi: int):
    """An integer in [lo, hi], or one time in three that integer over 2,
    3, 4 or 9."""
    c = rng.randint(lo, hi)
    return Fraction(c, rng.choice([2, 3, 4, 9])) if rng.randrange(3) == 0 else c


def _seeded_product(rng: random.Random) -> str:
    factors = [str(rng.choice([1, 3, 12, "5/7"]))]
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(1, 3)
        cs = [_seeded_coefficient(rng, -20, 20) for _ in range(deg)] + [_seeded_coefficient(rng, 1, 5)]
        body = f"{cs[0]}" + "".join(
            f" {'-' if c < 0 else '+'} {abs(c)}*x^{i}" for i, c in enumerate(cs) if i
        )
        power = rng.choice(["", "^2", "**3", "^0", " ^ 1"])
        factors.append(f"({body}){power}")
    return "*".join(factors)


def test_parse_poly_products_match_sympy_expand():
    rng = random.Random(7)
    reduced = 0
    for _ in range(60):
        text = rng.choice(["", "-"]) + _seeded_product(rng)
        if rng.randrange(3) == 0:
            text += rng.choice([" - ", " + "]) + _seeded_product(rng)
        assert _as_fractions(parse_poly(text)) == _sympy_coeffs(text), text
        reduced += parse_poly(text)[1] > 1
    # most texts keep a denominator after the reduction
    assert reduced >= 30


_OLD_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+(?:/\d+)?)\s*\*?\s*[xX](?:\s*(?:\^|\*\*)\s*(?P<exp1>\d+))?
          | [xX](?:\s*(?:\^|\*\*)\s*(?P<exp2>\d+))?
          | (?P<const>\d+(?:/\d+)?)
        )\s*""",
    re.VERBOSE,
)


def _term_by_term_parse(s: str) -> list[Fraction]:
    """The sum-of-terms parser that products and powers extend, kept as the
    reference that every form it accepts still parses to the same
    polynomial: its coefficients low to high, trailing zeros dropped."""
    pos = 0
    terms: dict[int, Fraction] = {}
    while pos < len(s):
        mt = _OLD_TERM_RE.match(s, pos)
        assert mt and mt.end() > pos and (mt.group("sign") or pos == 0)
        sgn = -1 if mt.group("sign") == "-" else 1
        if mt.group("const") is not None:
            ctext, e = mt.group("const"), 0
        elif mt.group("coeff") is not None:
            ctext, e = mt.group("coeff"), int(mt.group("exp1") or 1)
        else:
            ctext, e = "1", int(mt.group("exp2") or 1)
        terms[e] = terms.get(e, Fraction(0)) + sgn * Fraction(ctext)
        pos = mt.end()
    cs = [terms.get(i, Fraction(0)) for i in range(max(terms) + 1)]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


_SPACE = st.sampled_from(["", " ", "  "])


@st.composite
def _term_texts(draw):
    """Sums in the term-by-term format: signs, rational coefficients written
    before x with or without '*', and powers with '^' or '**'."""
    out = []
    for i in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["+", "-"] if i else ["", "+", "-"]))
        coeff = draw(st.one_of(
            st.none(),
            st.integers(0, 999).map(str),
            st.tuples(st.integers(0, 99), st.integers(1, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
        ))
        body = coeff
        if coeff is None or draw(st.booleans()):
            xs = draw(st.sampled_from(["x", "X"]))
            power = draw(st.one_of(st.none(), st.integers(0, 12)))
            if power is not None:
                xs += draw(_SPACE) + draw(st.sampled_from(["^", "**"])) + draw(_SPACE) + str(power)
            if coeff is not None:
                xs = coeff + draw(_SPACE) + draw(st.sampled_from(["", "*"])) + draw(_SPACE) + xs
            body = xs
        out.append(sign + draw(_SPACE) + body)
    return draw(_SPACE).join(out).strip()


@settings(max_examples=200, deadline=None)
@given(text=_term_texts())
def test_parse_poly_keeps_every_term_by_term_form(text):
    assert _as_fractions(parse_poly(text)) == _term_by_term_parse(text)


def test_render_poly():
    assert render_poly(P(0, -1, 0, 0, 0, 1)) == "x^5 - x"
    assert render_poly(P(-14, 1, 0, 4)) == "4 x^3 + x - 14"
    assert render_poly(Poly.zero()) == "0"
    assert render_poly(P(3)) == "3"
    assert render_poly(P(0, -1)) == "-x"


@settings(max_examples=80, deadline=None)
@given(f=_int_poly(max_deg=5, nonzero=False))
def test_render_parse_roundtrip(f):
    assert parse_poly(render_poly(f)) == (f, 1)
