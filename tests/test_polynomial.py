import random
import re
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sylvester_resultant
from smallpoints.polynomial import (
    MAX_PARSE_BITS,
    MAX_PARSE_DEGREE,
    Poly,
    _choose_prime,
    _factor_mod_p,
    _next_prime,
    _pm_gcd,
    _pm_monic,
    _pm_trim,
    cyclotomic_index,
    cyclotomic_poly,
    discriminant,
    euler_phi,
    factor_over_z,
    parse_poly,
    poly_gcd,
    render_poly,
    resultant,
)

X = Poly.x()


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
    with pytest.raises(TypeError):
        P(0.5)
    with pytest.raises(AttributeError):
        X.coeffs = ()


def test_arithmetic():
    f = (X + 1) ** 2
    assert f == P(1, 2, 1)
    assert f - P(1, 2, 1) == Poly.zero()
    assert (X - 1) * (X + 1) == P(-1, 0, 1)
    assert 2 * X + 1 == P(1, 2)
    assert P(2, 0, 4).monic() == P(Fraction(1, 2), 0, 1)
    assert P(1, 0, 0, 2).derivative() == P(0, 0, 6)


def test_divmod():
    f = P(-1, 0, 0, 0, 0, 1)  # x^5 - 1
    q, r = f.divmod(X - 1)
    assert r.is_zero()
    assert q == P(1, 1, 1, 1, 1)
    q, r = P(1, 1, 1).divmod(P(0, 1))
    assert q == P(1, 1) and r == P(1)
    with pytest.raises(ZeroDivisionError):
        f.divmod(Poly.zero())


def test_primitive():
    assert P(Fraction(2, 3), Fraction(4, 3)).primitive() == P(1, 2)
    p = P(-2, 0, -4).primitive()
    assert p == P(1, 0, 2)
    assert p.to_int_coeffs() == [1, 0, 2]
    assert P(Fraction(-3, 5)).primitive() == P(1)
    assert Poly.zero().primitive() == Poly.zero()
    with pytest.raises(ValueError):
        P(Fraction(1, 2)).to_int_coeffs()


# ---------------------------------------------------------------------------
# gcd


def test_gcd():
    f = (X - 1) * (X**2 + 1)
    g = (X - 1) * (X + 2)
    assert poly_gcd(f, g) == P(-1, 1)
    assert poly_gcd(f, X + 5) == Poly.one()
    assert poly_gcd(Poly.zero(), 2 * X) == P(0, 1)
    assert poly_gcd(3 * f, Fraction(1, 7) * f) == f.monic()


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
    b, c = Fraction(5, 2), Fraction(-1, 3)
    assert discriminant(P(c, b, 1)) == b * b - 4 * c


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


def _sympy_monic_gcd(f: Poly, g: Poly) -> tuple:
    x = sympy.symbols("x")
    fs, gs = (sympy.Poly([int(c) for c in reversed(p.coeffs)], x, domain="QQ") for p in (f, g))
    r = fs.gcd(gs).monic()
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(r.all_coeffs()))


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
    want = _sympy_monic_gcd(a, b)
    assert poly_gcd(a, b).coeffs == want
    assert poly_gcd(b, a).coeffs == want
    assert poly_gcd(Fraction(3, 7) * a, -b).coeffs == want


@settings(max_examples=120, deadline=None)
@given(f=_int_poly(), g=_int_poly())
def test_resultant_matches_sylvester(f, g):
    ours = resultant(f, g)
    oracle = sylvester_resultant(list(f.coeffs), list(g.coeffs))
    assert ours == oracle


@settings(max_examples=60, deadline=None)
@given(f=_int_poly(max_deg=4), g=_int_poly(max_deg=4), d1=st.integers(1, 9), d2=st.integers(1, 9))
def test_resultant_rational_scaling(f, g, d1, d2):
    fr = f * Fraction(1, d1)
    gr = g * Fraction(1, d2)
    oracle = sylvester_resultant(list(fr.coeffs), list(gr.coeffs))
    assert resultant(fr, gr) == oracle


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
    assert factor_over_z(Fraction(-1, 3) * (X - 1) ** 4) == [P(-1, 1)]
    assert factor_over_z(P(Fraction(1, 2), Fraction(1, 2))) == [P(1, 1)]
    assert factor_over_z(P(7)) == []
    assert factor_over_z(P(Fraction(-2, 3))) == []
    with pytest.raises(ValueError):
        factor_over_z(Poly.zero())


def test_factor_irreducible():
    for f in (P(1, 1, 0, 0, 1), P(-2, 0, 1), P(1, 1, 1, 1, 1), P(7, -3, 0, 0, 0, 2)):
        assert factor_over_z(f) == [f], render_poly(f)
        assert factor_over_z(-3 * f) == [f], render_poly(f)


def _choose_prime_by_full_split(ints):
    """The first of five usable primes whose full modular split has the
    fewest factors, stopping early at an irreducible reduction."""
    best, found, p = None, 0, 2
    while found < 5:
        p = _next_prime(p)
        fp = _pm_trim([v % p for v in ints])
        dfp = _pm_trim([i * v % p for i, v in enumerate(ints)][1:])
        if ints[-1] % p == 0 or not dfp or len(_pm_gcd(fp, dfp, p)) != 1:
            continue
        units = _factor_mod_p(_pm_monic(fp, p), p)
        found += 1
        if best is None or len(units) < len(best[1]):
            best = (p, units)
            if len(units) == 1:
                break
    return best


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
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(f.coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, x, domain="QQ"))
    out = set()
    for poly, _ in factors:
        cs = [Fraction(int(v.p), int(v.q)) for v in reversed(sympy.Poly(poly, x).all_coeffs())]
        out.add(Poly(cs).primitive().coeffs)
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
    c=st.fractions(max_denominator=1000).filter(lambda c: c != 0),
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
    # a rational multiple and a power of one part leave the factors alone
    (q, k), rest = parts[0], parts[1:]
    g = Poly.one()
    for r, _ in rest:
        g = g * r
    assert factor_over_z(c * q**k * g) == factor_over_z(q * g)


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


def test_parse_poly():
    assert parse_poly("x^5 - x") == P(0, -1, 0, 0, 0, 1)
    assert parse_poly("x**6 - 1") == P(-1, 0, 0, 0, 0, 0, 1)
    assert parse_poly("2x^3 + 1/2 x - 7") == P(-7, Fraction(1, 2), 0, 2)
    assert parse_poly("-x + 3") == P(3, -1)
    assert parse_poly("3") == P(3)
    assert parse_poly("X^2") == P(0, 0, 1)
    assert parse_poly("x - x") == Poly.zero()
    assert parse_poly("5*x^2 + 1") == P(1, 0, 5)


def test_parse_poly_errors():
    for bad in ("", "x + + 3", "y^2", "x^-2", "1.5x", "x 3", "(x-1", "(x-1)^-2",
                "(x-1)^(1/2)", "(x-1)(x+1)", "2^3", "x^2^3", "()", "x*", "(x-1)^"):
        with pytest.raises(ValueError):
            parse_poly(bad)


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
    ("(2)^1000000", MAX_PARSE_DEGREE),
    ("x^200 * x^200", MAX_PARSE_DEGREE),
    ("(x^3 - 1)^100", MAX_PARSE_DEGREE),
    ("3*((x^2 + 1)^10)^20", MAX_PARSE_DEGREE),
    ("x^5 - ((((2)^256)^256)^256)^256", MAX_PARSE_BITS),
    ("(x + ((2)^256)^256)^256", MAX_PARSE_BITS),
    ("((1/3)^200)^200", MAX_PARSE_BITS),
    ("(x + 8192)^256", MAX_PARSE_BITS),
])
def test_parse_poly_rejects_oversized_power_before_expanding(monkeypatch, text, limit):
    forbid_oversized_polys(monkeypatch)
    with pytest.raises(ValueError, match=f"exceeds the limit {limit}$"):
        parse_poly(text)


def test_parse_poly_accepts_degree_up_to_the_limit():
    assert parse_poly(f"x^{MAX_PARSE_DEGREE} - 1").degree() == MAX_PARSE_DEGREE
    assert parse_poly(f"x * (x + 1)^{MAX_PARSE_DEGREE - 1}").degree() == MAX_PARSE_DEGREE
    assert parse_poly(f"x^{MAX_PARSE_DEGREE:07d}").degree() == MAX_PARSE_DEGREE
    for text in (f"x^{MAX_PARSE_DEGREE + 1}", f"x * x^{MAX_PARSE_DEGREE}",
                 f"(x^2 - 2)^{MAX_PARSE_DEGREE // 2 + 1}"):
        with pytest.raises(ValueError):
            parse_poly(text)


def test_parse_poly_accepts_power_size_up_to_the_limit():
    # 2^1020 has 1021 bits, so x + 2^1020 has size (1021 + 1) + (1 + 1) bits
    # and its 4th power is at MAX_PARSE_BITS; 2^63 has size 64 + 1 bits
    assert MAX_PARSE_BITS == 4096
    c = 2 ** 1020
    assert parse_poly(f"(x + {c})^4") == Poly([c, 1]) ** 4
    assert parse_poly("((2)^63)^63") == Poly([2 ** (63 * 63)])
    assert parse_poly("((1/3)^256)^10") == Poly([Fraction(1, 3 ** 2560)])
    for text in (f"(x + {2 * c})^4", "((2)^63)^64", "((1/3)^256)^11"):
        with pytest.raises(ValueError, match=f"exceeds the limit {MAX_PARSE_BITS}$"):
            parse_poly(text)


def test_parse_poly_products_and_powers():
    assert parse_poly("(x+1)^2") == P(1, 2, 1)
    assert parse_poly("x*(x-1)*(x-2)*(x-3)*(x-5)") == P(0, 30, -61, 41, -11, 1)
    assert parse_poly("-2*(x - 1/2)**3 + x^0") == P(Fraction(5, 4), Fraction(-3, 2), 3, -2)
    assert parse_poly("(x^2 + 1)^0 * 7") == P(7)
    assert parse_poly("((x))^2*3x") == P(0, 0, 0, 3)


def _sympy_coeffs(text: str) -> list:
    x = sympy.Symbol("x")
    expr = sympy.expand(sympy.sympify(text.replace("^", "**"), locals={"x": x}))
    return [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, x).all_coeffs())]


def _seeded_product(rng: random.Random) -> str:
    factors = [str(rng.choice([1, 3, 12, "5/7"]))]
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(1, 3)
        cs = [rng.randint(-20, 20) for _ in range(deg)] + [rng.randint(1, 5)]
        body = f"{cs[0]}" + "".join(
            f" {'-' if c < 0 else '+'} {abs(c)}*x^{i}" for i, c in enumerate(cs) if i
        )
        power = rng.choice(["", "^2", "**3", "^0", " ^ 1"])
        factors.append(f"({body}){power}")
    return "*".join(factors)


def test_parse_poly_products_match_sympy_expand():
    rng = random.Random(7)
    for _ in range(60):
        text = rng.choice(["", "-"]) + _seeded_product(rng)
        if rng.randrange(3) == 0:
            text += rng.choice([" - ", " + "]) + _seeded_product(rng)
        assert parse_poly(text) == Poly(_sympy_coeffs(text)), text


_OLD_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+(?:/\d+)?)\s*\*?\s*[xX](?:\s*(?:\^|\*\*)\s*(?P<exp1>\d+))?
          | [xX](?:\s*(?:\^|\*\*)\s*(?P<exp2>\d+))?
          | (?P<const>\d+(?:/\d+)?)
        )\s*""",
    re.VERBOSE,
)


def _term_by_term_parse(s: str) -> Poly:
    """The sum-of-terms parser that products and powers extend, kept as the
    reference that every form it accepts still parses to the same Poly."""
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
    return Poly([terms.get(i, Fraction(0)) for i in range(max(terms) + 1)])


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
    assert parse_poly(text) == _term_by_term_parse(text)


def test_render_poly():
    assert render_poly(P(0, -1, 0, 0, 0, 1)) == "x^5 - x"
    assert render_poly(P(-7, Fraction(1, 2), 0, 2)) == "2 x^3 + 1/2 x - 7"
    assert render_poly(Poly.zero()) == "0"
    assert render_poly(P(3)) == "3"
    assert render_poly(P(0, -1)) == "-x"


@settings(max_examples=80, deadline=None)
@given(f=_int_poly(max_deg=5, nonzero=False))
def test_render_parse_roundtrip(f):
    assert parse_poly(render_poly(f)) == f
