import itertools
import json
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy

from oracles import DEC_TOL, dec_ln
import smallpoints.algebraic as algebraic_mod
import smallpoints.curve as curve_mod
import smallpoints.numeric as numeric_mod
from smallpoints.algebraic import (
    INFINITY,
    AlgebraicNumber,
    DegreeCapExceeded,
    anharmonic_orbit,
    cross_ratio,
    weil_height,
)
from smallpoints.curve import (
    _SEARCH_PRECISION,
    _normalization_search,
    _rational_rank_bits,
    analyze_curve,
    bad_prime_superset,
    branch_point_list,
    parse_curve,
)
from smallpoints.cli import _curve_document, dumps_compact
from smallpoints.numeric import MR_DETERMINISTIC_LIMIT, factor, is_prime
from smallpoints.polynomial import (
    Poly,
    discriminant,
    factor_over_z,
    parse_poly,
    render_poly,
    resultant,
)
from test_algebraic import (
    _anharmonic_image,
    _chain_cross_ratio,
    _fraction_cross_ratio,
    _numeric_cross_ratio,
    _numeric_match,
    _rational_four_sets,
)
from test_golden import EXACT_TIES, PARTIAL_CAP, TIED_IRRATIONAL, fresh_interpreter


def test_parse_rejects_low_degree():
    for rhs in ("x^2 + 1", "x^3 - 2", "x^4 - 1"):
        with pytest.raises(ValueError, match="genus < 2"):
            parse_curve(f"y^2 = {rhs}")


def test_parse_rejects_singular_model():
    with pytest.raises(ValueError, match="singular model") as exc:
        parse_curve("y^2 = x^5 - 2*x^4 + x^3")
    assert "x - 1" in str(exc.value)
    # each repeated factor once, in (degree, coefficients) order
    with pytest.raises(ValueError) as exc:
        parse_curve("y^2 = (x^2+1)^3*(x-2)^2*(x+5)")
    assert str(exc.value) == "singular model: repeated factor x - 2, x^2 + 1"


def test_squarefree_model_takes_one_discriminant_and_no_gcd(monkeypatch):
    # squarefreeness is read off disc f, which analyze_curve reuses; the
    # gcd with f' runs only on a singular model, to name its factors
    discs = []
    real_gcd = curve_mod.poly_gcd

    def counting_discriminant(f):
        discs.append(f)
        return discriminant(f)

    def no_gcd(*args):
        raise AssertionError("poly_gcd on a squarefree model")

    monkeypatch.setattr(curve_mod, "discriminant", counting_discriminant)
    monkeypatch.setattr(curve_mod, "poly_gcd", no_gcd)
    a = analyze_curve("y^2 = x^5 - x")
    # bad_prime_superset takes the discriminants of the factors of f
    assert discs.count(a.f) == 1 and a.disc == -256
    monkeypatch.setattr(curve_mod, "poly_gcd", real_gcd)
    with pytest.raises(ValueError, match="singular model: repeated factor x - 1"):
        parse_curve("y^2 = x^5 - 2*x^4 + x^3")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_curve("y^2 = not a polynomial")


def test_parse_accepts_equation_and_bare_forms():
    a = parse_curve("y^2 = x^5 - x")
    b = parse_curve("y**2 = x^5 - x")
    c = parse_curve("x^5 - x")
    # disc(x^5 - x) = -256 (sympy.discriminant)
    assert a == b == c == (Poly([0, -1, 0, 0, 0, 1]), -256)


def test_parse_clears_denominators():
    assert parse_curve("y^2 = 1/4*x^5 - 1/4*x")[0] == Poly([0, -4, 0, 0, 0, 4])
    assert parse_curve("y^2 = 1/6*x^5 - 7/4*x + 1/3")[0] == Poly([48, -252, 0, 0, 0, 24])
    # the model is d^2 times the text polynomial f/d: y -> y/d
    for text in ("1/4*x^5 - 1/4*x", "1/6*x^5 - 7/4*x + 1/3", "(2/3*x + 1)^5 + 1/9",
                 "3/5*x^6 - 2/7*x + 1/35", "(1/2*x - 1/3)^2*(x^3 + 1) + 1/5", "2*x^5 - 6"):
        f, d = parse_poly(text)
        model, _ = parse_curve(f"y^2 = {text}")
        assert [Fraction(c) for c in model.coeffs] == [d * d * Fraction(c, d) for c in f.coeffs]


def test_invariants_x5_minus_x():
    a = analyze_curve("y^2 = x^5 - x")
    assert a.genus == 2
    assert a.leading_coefficient == 1
    assert a.disc == -256
    assert a.s_primes == (2,)
    assert a.n_s == 2
    assert a.caveats == ()


def test_invariants_x5_minus_1():
    a = analyze_curve("y^2 = x^5 - 1")
    assert a.genus == 2
    assert a.disc == 3125
    assert a.s_primes == (2, 5)
    assert a.n_s == 10


def test_invariants_x6_minus_1():
    a = analyze_curve("y^2 = x^6 - 1")
    assert a.genus == 2
    assert a.s_primes == (2, 3)
    assert a.n_s == 6


def test_genus_three_curve():
    a = analyze_curve("y^2 = x^7 - x")
    assert a.genus == 3
    assert len(a.branch_points) == 8
    assert a.parshin_exceptions == ()


def test_branch_points_odd_degree():
    f, _ = parse_curve("y^2 = x^5 - x")
    pts = branch_point_list(f, 2)
    assert len(pts) == 6
    assert pts[0] is INFINITY
    rational = [p.as_fraction() for p in pts[1:4]]
    assert rational == [Fraction(-1), Fraction(0), Fraction(1)]
    assert render_poly(pts[4].minpoly) == "x^2 + 1"
    assert (pts[4].index, pts[5].index) == (0, 1)


def test_branch_points_even_degree():
    f, _ = parse_curve("y^2 = x^6 - 1")
    pts = branch_point_list(f, 2)
    assert len(pts) == 6
    assert INFINITY not in pts
    assert [p.as_fraction() for p in pts[:2]] == [Fraction(-1), Fraction(1)]
    assert all(not p.is_rational for p in pts[2:])


def _factors(f: Poly) -> list[Poly]:
    return factor_over_z(f)


def test_bad_prime_superset_includes_two():
    f = Poly([3, 0, 0, 0, 0, 5])
    s, n_s, caveats = bad_prime_superset(f, _factors(f), discriminant(f))
    assert 2 in s
    assert 3 in s and 5 in s
    assert n_s % 2 == 0
    assert caveats == []


def _whole_number_rule(lc: int, disc: int) -> tuple[list[int], int, list[str]]:
    """S, N_S and caveats from factoring |lc| and |disc| each as one integer:
    the rule the factorization pieces replace, kept as their reference.  A
    prime of S is flagged once, in S order, when it is at or above
    MR_DETERMINISTIC_LIMIT, where is_prime is only probabilistic."""
    primes = {2}
    for m in (abs(lc), abs(disc)):
        primes.update(p for p, _ in factor(m))
    s = sorted(primes)
    caveats = [f"primality of {p} in S is probabilistic"
               for p in s if p >= MR_DETERMINISTIC_LIMIT]
    return s, math.prod(s), caveats


def _seeded_curve(rng: random.Random) -> str:
    """A curve of degree 5..8 with integer content, rational roots, an
    optional quadratic or cubic factor and, one time in three, a
    denominator that parse_curve clears."""
    n = rng.randint(5, 8)
    content = rng.choice([1, -1, 6, -35, 12])
    f = Poly([content])
    extra = rng.choice([0, 2, 3])
    if extra:
        f = f * Poly([rng.randint(-9999, 9999) for _ in range(extra)] + [1])
    while f.degree() < n:
        f = f * Poly([rng.randint(-30, 30), rng.randint(1, 12)])
    if rng.randrange(3) == 0:
        return "y^2 = " + _render_over(f, rng.choice([2, 6, 35]))
    return "y^2 = " + render_poly(f)


def _render_over(f: Poly, k: int) -> str:
    """The text of the rational polynomial f/k, in render_poly's format."""
    parts = []
    for e in range(f.degree(), -1, -1):
        c = Fraction(f[e], k)
        if c:
            xs = "" if e == 0 else "x" if e == 1 else f"x^{e}"
            body = str(abs(c)) if not xs else xs if abs(c) == 1 else f"{abs(c)} {xs}"
            parts.append(("-" if c < 0 else "") + body if not parts
                         else ("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def _seeded_curves(count: int) -> list[str]:
    rng = random.Random(14)
    out = []
    while len(out) < count:
        text = _seeded_curve(rng)
        try:
            parse_curve(text)
        except ValueError:  # a repeated root
            continue
        out.append(text)
    return out


S_CURVES = _seeded_curves(24) + [
    "y^2 = 6*x^5 + 12*x^4 + 6*x - 18",  # content 6: c^(2n-2) is a piece
    "y^2 = -10*x^6 + 15*x^2 - 5",  # negative content, even degree
    "y^2 = 1/6*x^5 - 7/4*x + 1/3",  # denominators cleared
    "y^2 = x^5 - 3*x + 1",  # irreducible, odd degree
    "y^2 = x^6 + x + 1",  # irreducible, even degree
    "y^2 = 3*x^5 + x^4 + 1",  # 3 divides lc but not disc = 253381
    "y^2 = (2*x - 3)*(5*x + 1)*(x^2 + 1)*(x^2 - 2)",  # even degree, lcs 2 and 5
]


@pytest.mark.parametrize("curve", S_CURVES)
def test_bad_primes_match_whole_number_rule_and_sympy(curve):
    f, _ = parse_curve(curve)
    lc, disc = f.lc(), discriminant(f)
    got = bad_prime_superset(f, _factors(f), disc)
    assert got == _whole_number_rule(lc, disc)
    x = sympy.Symbol("x")
    fx = sympy.Poly(list(reversed(f.coeffs)), x)
    assert sympy.discriminant(fx) == disc
    want = sorted({2} | set(sympy.primefactors(lc)) | set(sympy.primefactors(disc)))
    assert got[0] == want
    assert got[1] == math.prod(want)


def test_lc_prime_outside_disc_is_in_s():
    f, _ = parse_curve("y^2 = 3*x^5 + x^4 + 1")
    disc = discriminant(f)
    assert disc % 3 != 0
    assert 3 in bad_prime_superset(f, _factors(f), disc)[0]


def test_probabilistic_prime_of_a_linear_factor_keeps_its_caveat():
    p = 2**64 + 13  # above the deterministic Miller-Rabin range
    # roots 0, p, ..., 4p: disc is p^20 times 2s and 3s, which the whole
    # number rule splits as a perfect power
    a = analyze_curve(f"y^2 = x*(x - {p})*(x - {2 * p})*(x - {3 * p})*(x - {4 * p})")
    want = _whole_number_rule(a.leading_coefficient, a.disc)
    assert (list(a.s_primes), a.n_s) == want[:2] == ([2, 3, p], 6 * p)
    assert want[2] == [f"primality of {p} in S is probabilistic"]
    assert list(a.caveats[:1]) == want[2]


def test_resultant_primes_are_factored_piece_by_piece(monkeypatch):
    p = 2**64 + 13
    # disc is p^2 (p-1)^2 (p-2)^2 (p-3)^2 times small primes; the primes
    # above 10^6 of the p - k are 2977518503 < 1345790039666561 <
    # 658812288346769701 < p, which rho could only split from their product
    # in about sqrt(1345790039666561) steps, but each p - k is a piece with
    # one such prime
    rho_calls = []
    monkeypatch.setattr(numeric_mod, "_pollard_rho", rho_calls.append)
    f, _ = parse_curve(f"y^2 = x*(x-1)*(x-2)*(x-3)*(x-{p})")
    s, n_s, caveats = bad_prime_superset(f, _factors(f), discriminant(f))
    want = {2, 3, p}
    for k in (1, 2, 3):
        want |= set(sympy.primefactors(p - k))
    assert (s, n_s) == (sorted(want), math.prod(want))
    assert caveats == [f"primality of {p} in S is probabilistic"]
    assert rho_calls == []


@pytest.mark.parametrize("curve", [
    S_CURVES[0],
    "y^2 = 6*x^5 + 12*x^4 + 6*x - 18",  # |c| = 6 is an lc piece and a disc piece
    "y^2 = (2*x - 3)*(5*x + 1)*(x^2 + 1)*(x^2 - 2)",
    f"y^2 = {2**64 + 13}*x^5 - 1",  # a probabilistic prime in lc and disc
    f"y^2 = x*(x-1)*(x-2)*(x-3)*(x-{2**64 + 13})",
])
def test_bad_primes_factor_each_piece_once_and_test_no_prime_again(monkeypatch, curve):
    """Every primality test bad_prime_superset runs is one that factor makes
    on the distinct |pieces|, each factored once: no prime that factor
    returns is tested again to decide its caveat."""
    f, _ = parse_curve(curve)
    factors, disc = _factors(f), discriminant(f)
    c = f.lc() // math.prod(h.lc() for h in factors)
    pieces = {abs(m) for m in (
        c, *(h.lc() for h in factors),
        *(discriminant(h) for h in factors if h.degree() >= 2),
        *(resultant(g, h) for g, h in itertools.combinations(factors, 2)))} - {1}
    real_test, real_factor = is_prime, numeric_mod.factor
    tests, factored = [], []

    def counting_test(n):
        tests.append(n)
        return real_test(n)

    def recording_factor(m):
        factored.append(m)
        return real_factor(m)

    # wherever the package holds numeric's primality test, calls are counted
    for mod in (numeric_mod, curve_mod):
        for name, value in list(vars(mod).items()):
            if value is real_test:
                monkeypatch.setattr(mod, name, counting_test)
    monkeypatch.setattr(curve_mod, "factor", recording_factor)
    s, _, caveats = bad_prime_superset(f, factors, disc)
    in_superset = len(tests)
    assert sorted(factored) == sorted(pieces)
    for m in pieces:
        real_factor(m)
    assert in_superset == len(tests) - in_superset
    assert caveats == [f"primality of {p} in S is probabilistic"
                       for p in s if p >= numeric_mod.MR_DETERMINISTIC_LIMIT]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda fs: fs[:-1],  # a factor missing
        lambda fs: fs + [Poly([-7, 1])],  # a factor too many
        lambda fs: fs[:-1] + [Poly([2, 0, 1])],  # x^2 + 2 for x^2 + 1
        lambda fs: [fs[0] * 2] + fs[1:],  # lc f not divisible by the lcs
    ],
)
def test_bad_primes_reject_factors_that_miss_the_discriminant(corrupt):
    f, _ = parse_curve("y^2 = 3*x^5 - 3*x")
    with pytest.raises(RuntimeError, match="discriminant"):
        bad_prime_superset(f, corrupt(_factors(f)), discriminant(f))


# rational_batch seed 1: three rational roots and x^2 - 9643574129 x - 949730420,
# whose resultant primes appear squared in disc f
QUADRATIC_FACTOR_CURVE = (
    "y^2 = 8930*x^5 - 86117117001107*x^4 + 272503726760196*x^3"
    " - 108523902159227*x^2 - 178318160327560*x - 16240390182000"
)


def test_bad_primes_need_no_pollard_rho_and_one_factorization(monkeypatch):
    f, _ = parse_curve(QUADRATIC_FACTOR_CURVE)
    rho_calls = []
    factored = []

    def counting_rho(n):
        rho_calls.append(n)
        return real_rho(n)

    def counting_factor_over_z(g):
        factored.append(g)
        return factor_over_z(g)

    real_rho = numeric_mod._pollard_rho
    monkeypatch.setattr(numeric_mod, "_pollard_rho", counting_rho)
    monkeypatch.setattr(curve_mod, "factor_over_z", counting_factor_over_z)
    monkeypatch.setattr(algebraic_mod, "factor_over_z", counting_factor_over_z)
    a = analyze_curve(QUADRATIC_FACTOR_CURVE)
    assert rho_calls == []
    assert factored.count(f) == 1
    assert (list(a.s_primes), a.n_s) == _whole_number_rule(a.leading_coefficient, a.disc)[:2]


def test_normalization_x5_minus_x_is_exactly_trivial():
    a = analyze_curve("y^2 = x^5 - x")
    nz = a.normalization
    assert nz is not None
    assert nz.triple == (0, 2, 1)
    assert nz.h_max[1].sign == 0
    lo, hi = nz.height_multiplicative
    assert lo.to_fraction() == 1 and hi.to_fraction() == 1
    assert a.parshin_exceptions == ()
    assert all(r.lambda_s_unit and r.one_minus_s_unit for r in nz.records)


def test_normalization_x5_minus_1():
    a = analyze_curve("y^2 = x^5 - 1")
    nz = a.normalization
    # best achievable maximum is the height of the golden ratio
    phi_h = dec_ln((Fraction(1) + _dec_sqrt5()) / 2) / 2
    assert nz.h_max[0].to_fraction() <= phi_h + DEC_TOL
    assert nz.h_max[1].to_fraction() >= phi_h - DEC_TOL
    assert abs(nz.h_max[1].to_fraction() - phi_h) < Fraction(1, 10**20)
    assert a.parshin_exceptions == ()


def _dec_sqrt5():
    from oracles import dec_sqrt

    return dec_sqrt(Fraction(5))


def _with_roots(*roots):
    f = Poly([1])
    for r in roots:
        f = f * Poly([-r, 1])
    return render_poly(f)


def test_rational_branch_curves_have_no_parshin_exceptions():
    for rhs in (
        _with_roots(0, 1, 2, 3, 4),
        _with_roots(0, 1, -1, 2, -2),
        _with_roots(1, -1, 2, -2, 3, -3),
        "3*x^5 - 3*x",
    ):
        a = analyze_curve(f"y^2 = {rhs}")
        assert a.parshin_exceptions == (), rhs
        assert a.normalization is not None


def test_mu_hat_matches_largest_branch_height():
    a = analyze_curve("y^2 = " + _with_roots(0, 2, -2, 3, -3))
    lo, hi = a.mu_hat
    ln3 = dec_ln(Fraction(3))
    assert lo.to_fraction() <= ln3 + DEC_TOL <= hi.to_fraction() + 2 * DEC_TOL
    assert abs(hi.to_fraction() - ln3) < Fraction(1, 10**20)


def test_mu_hat_zero_for_unit_branch_points():
    a = analyze_curve("y^2 = x^5 - x")
    assert a.mu_hat[0].sign == 0 and a.mu_hat[1].sign == 0


def _printed(a) -> str:
    """The compact JSON text of the analysis a, as `batch` prints it."""
    return dumps_compact(_curve_document(a))


def _cold_analysis(curve: str) -> str:
    """JSON of the curve's analysis in a fresh interpreter."""
    code = (
        "import sys\n"
        "from smallpoints import cli\n"
        "print(cli.dumps_compact(cli._curve_document(cli.analyze_curve(sys.argv[1]))))"
    )
    proc = fresh_interpreter(["-c", code, curve], timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_analysis_is_deterministic():
    # three states: cold, warm on what the first analysis left, and after a
    # different curve
    curves = [
        "y^2 = x^6 - 1",
        "y^2 = x^5 - 1",
        "y^2 = x^6 - x",
        "y^2 = x^5 - 4*x^3 + 3*x",
    ]
    for curve, other in zip(curves, curves[1:] + curves[:1]):
        cold = _cold_analysis(curve)
        first = _printed(analyze_curve(curve))
        warm = _printed(analyze_curve(curve))
        analyze_curve(other)
        after_other = _printed(analyze_curve(curve))
        assert first == warm == after_other == cold, curve


def test_curve_document_is_json_serializable():
    a = analyze_curve("y^2 = x^5 - x")
    back = json.loads(_printed(a))
    assert back["genus"] == 2
    assert back["s_primes"] == [2]
    assert back["discriminant"] == "-256"
    assert back["normalization"]["triple"] == [0, 2, 1]
    assert back["branch_points"][0] == {"kind": "infinity"}
    assert back["mu_hat"]["upper"]["decimal"] == "0"


def test_equation_normalized_form():
    a = analyze_curve("x^5-x")
    assert a.equation == "y^2 = x^5 - x"


# orbit position of cr(p_sigma(1), p_sigma(2), p_sigma(3), z) relative to the
# orbit of cr(p1, p2, p3, z), for the orderings sigma of a sorted triple
# that keep the first two points in index order
_ORBIT_POSITION = {(0, 1, 2): 0, (0, 2, 1): 1, (1, 2, 0): 5}


def _rank(lams, rational_pool: bool):
    """The upper bound a triple with these values ranks on.  Outside a
    rational pool, the largest 64-bit weil_height upper bound of its values.
    In a rational pool, the largest of those of its irrational values and of
    one upper bound on ln H, read off H alone at _rational_rank_bits(H),
    where ln H is the largest height of its rational values: equal heights
    of rational values so rank equal, whatever the shapes of their
    numerators and denominators."""
    lams = list(lams)
    rational = [lam.as_fraction() for lam in lams if rational_pool and lam.is_rational]
    uppers = [weil_height(lam, _SEARCH_PRECISION)[1] for lam in lams
              if not (rational_pool and lam.is_rational)]
    if rational:
        H = max(max(abs(r.numerator), r.denominator) for r in rational)
        uppers.append(weil_height(Poly([-1, H]), _rational_rank_bits(H))[1])
    return max(uppers)


def _set_orbit(branch: list, quad: tuple):
    """The anharmonic orbit of the four-difference chain's cross-ratio on
    the first ordering of this set of four branch points, z = point t for
    t = 0..3 and the triple in index order, that the degree cap lets
    through; None when it stops every ordering."""
    for t in range(4):
        triple = [branch[i] for k, i in enumerate(quad) if k != t]
        try:
            return anharmonic_orbit(_chain_cross_ratio(*triple, branch[quad[t]]))
        except DegreeCapExceeded:
            continue
    return None


def _resolving_search(branch: list):
    """The normalization search ranked on resolved values: every member of
    every anharmonic orbit is resolved, and a triple's rank is _rank of its
    2g-1 cross-ratios.  Outside a rational pool, each set of four branch
    points runs the four-difference chain on its first ordering under the
    degree cap, so this search shares no pairing with the one it checks,
    and cr(triple, z) is the member of that chain value's orbit whose
    numeric value, from the points' root boxes, it is.  A triple is skipped
    when the cap stops every ordering of one of its sets.  Only the
    orderings with triple[0] < triple[1] are ranked: swapping the points
    sent to infinity and 0 inverts every cross-ratio and keeps its height.
    Returns the triple, its values, the skipped count and how many ranked
    triples tie the winner's upper bound."""
    n = len(branch)
    rational_idx = [i for i, p in enumerate(branch) if p is INFINITY or p.is_rational]
    rational_pool = len(rational_idx) >= 3
    pool = rational_idx if rational_pool else list(range(n))
    sets = {}
    orbits = {}
    best = None
    skipped = 0
    ranks = []
    for triple in itertools.permutations(pool, 3):
        if triple[0] > triple[1]:
            continue
        combo = tuple(sorted(triple))
        pos = _ORBIT_POSITION[tuple(combo.index(t) for t in triple)]
        lams = []
        for z in (z for z in range(n) if z not in triple):
            if (combo, z) not in orbits:
                points = [branch[i] for i in (*combo, z)]
                if rational_pool:
                    orbits[combo, z] = anharmonic_orbit(cross_ratio(*points))
                else:
                    quad = tuple(sorted((*combo, z)))
                    if quad not in sets:
                        sets[quad] = _set_orbit(branch, quad)
                    orbits[combo, z] = sets[quad] and anharmonic_orbit(
                        _numeric_match(sets[quad], _numeric_cross_ratio(*points)))
            if orbits[combo, z] is None:
                break
            lams.append((z, orbits[combo, z][pos]))
        if len(lams) < n - 3:
            skipped += 1
            continue
        h_up = _rank((lam for _, lam in lams), rational_pool)
        ranks.append(h_up)
        if best is None or h_up < best[0]:
            best = (h_up, triple, lams)
    if best is None:
        return None, [], skipped, 0
    return best[1], best[2], skipped, ranks.count(best[0])


MIXED_CAPS = "y^2 = x^7 + 13*x^6 + 47*x^5 - 7*x^4 - 214*x^3 + 9*x^2 + 150*x + 25"

SEARCH_CURVES = [
    "y^2 = x^5 - 4*x^3 + 3*x",
    "y^2 = x^6 - 7*x^4 + 6*x^2 - 1",
    "y^2 = x^6 - 1",
    "y^2 = x^6 - 6*x^4 + 11*x^2 - 6",
    "y^2 = x^6 + 1",
    "y^2 = x^5 - 1",
    "y^2 = x^6 - x",
    "y^2 = x^5 - x",
    "y^2 = x^7 - x",
    # three and four rational roots times an irreducible quadratic with
    # 10-digit coefficients
    "y^2 = 8930*x^5 - 86117117001107*x^4 + 272503726760196*x^3"
    " - 108523902159227*x^2 - 178318160327560*x - 16240390182000",
    "y^2 = 133770*x^6 - 515599195933283*x^5 - 43842484064771*x^4"
    " + 4621247902133796*x^3 + 3256846668168204*x^2 - 5538004986411616*x"
    " - 2779168795594240",
    # sets of INFINITY, two roots of one cubic and one of the other have
    # some orderings over the degree cap and others under it
    MIXED_CAPS,
] + PARTIAL_CAP


@pytest.mark.parametrize("curve", SEARCH_CURVES)
def test_search_matches_ranking_on_resolved_values(curve):
    f, _ = parse_curve(curve)
    branch = branch_point_list(f, (f.degree() - 1) // 2)
    _check_search_against_resolving(branch)


def _check_search_against_resolving(branch: list) -> int:
    """Assert that the search picks what the resolving search picks; returns
    how many triples tie the winner's upper bound."""
    triple, lams, caveats = _normalization_search(branch)
    want_triple, want_lams, want_skipped, ties = _resolving_search(branch)
    assert triple == want_triple
    assert triple is None or triple[0] < triple[1]
    assert lams == want_lams
    assert all(lam.minpoly == want.minpoly for (_, lam), (_, want) in zip(lams, want_lams))
    skip_caveats = [c for c in caveats if "skipped" in c]
    assert skip_caveats == ([f"{want_skipped} candidate triples skipped by the degree cap"]
                            if want_skipped else [])
    return ties


def _large_height_pools(count: int) -> list[Poly]:
    """Seeded all-rational f of degree 6 or 8 with 8- to 10-digit
    numerators, so that the H of their triples, the largest max(|u|, |v|)
    of a normalization's cross-ratios, lies on both sides of 2^48, where
    _rational_rank_bits switches."""
    rng = random.Random("rational-pool-large-heights")
    curves = []
    for i in range(count):
        digits = 8 + i % 3
        roots: set = set()
        while len(roots) < 6 + 2 * (i % 2):
            roots.add(Fraction(rng.choice((1, -1)) * rng.randint(1, 10 ** digits),
                               rng.randint(1, 3)))
        curves.append(math.prod((Poly([-r.numerator, r.denominator]) for r in roots),
                                start=Poly([1])))
    return curves


def _two_class_pools(count: int) -> list[Poly]:
    """Seeded f with two to four rational roots times an irreducible
    quadratic and an irreducible cubic (sympy decides irreducibility), with
    infinity among the branch points at odd degree: a rational triple's
    other points then hold two classes of conjugates."""
    rng = random.Random("rational-pool-two-classes")
    x = sympy.Symbol("x")
    curves = []
    while len(curves) < count:
        k = 2 + len(curves) % 3
        quadratic = [rng.randint(-9, 9), rng.randint(-5, 5), 1]
        cubic = [rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-3, 3), rng.choice((1, 2))]
        if not all(sympy.Poly(list(reversed(c)), x).is_irreducible for c in (quadratic, cubic)):
            continue
        roots = rng.sample(range(-6, 7), k)
        f = math.prod((Poly([-r, 1]) for r in roots), start=Poly(quadratic) * Poly(cubic))
        curves.append(f)
    return curves


def _rational_pool_curves(count: int) -> list[Poly]:
    """Seeded squarefree integer f of degree 5 to 8 with at least three
    rational roots, built to force exact ties between triples: roots come
    as +-a pairs, reciprocal pairs a, 1/a (0 pairs with infinity), or
    alone; every third curve carries an irreducible quadratic factor, and
    odd degree puts infinity among the branch points.  Then come six
    all-rational _large_height_pools and four _two_class_pools."""
    rng = random.Random("rational-pool-search")
    curves = []
    while len(curves) < count:
        degree = 5 + len(curves) % 4
        quadratic = len(curves) % 3 == 2
        k = degree - 2 if quadratic else degree
        roots: set = set()
        while len(roots) < k:
            a = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            style = rng.choice(("pm", "reciprocal", "alone", "zero"))
            new = {"pm": {a, -a}, "reciprocal": {a, 1 / a}, "alone": {-a},
                   "zero": {Fraction(0)}}[style]
            if len(roots | new) <= k:
                roots |= new
        f = Poly([1])
        for r in sorted(roots):
            f = f * Poly([-r.numerator, r.denominator])
        if quadratic:
            b, c = rng.randint(-5, 5), rng.randint(1, 9)
            disc = b * b - 4 * c
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                continue
            f = f * Poly([c, b, 1])
        curves.append(f)
    return curves + _large_height_pools(6) + _two_class_pools(4)


RATIONAL_POOL_CURVES = _rational_pool_curves(24)


def test_pruned_search_matches_resolving_search_on_rational_pools():
    tied = 0
    for f in RATIONAL_POOL_CURVES:
        branch = branch_point_list(f, (f.degree() - 1) // 2)
        assert sum(p is INFINITY or p.is_rational for p in branch) >= 3
        if _check_search_against_resolving(branch) > 1:
            tied += 1
    # the corpus reaches the tie-break, not only the height ranking
    assert tied >= 5
    assert any(f.degree() % 2 for f in RATIONAL_POOL_CURVES)
    assert any(f.degree() % 2 == 0 for f in RATIONAL_POOL_CURVES)
    # pools whose triples' H, and whose least H, lie on both sides of 2^48,
    # and pools with two classes of conjugates
    heights = [_exact_max_heights([INFINITY if p is INFINITY else p.as_fraction()
                                   for p in branch_point_list(f, (f.degree() - 1) // 2)])
               for f in _large_height_pools(6)]
    assert any(min(h.values()) < 2**48 < max(h.values()) for h in heights)
    assert any(min(h.values()) > 2**48 for h in heights)
    for f in _two_class_pools(4):
        assert sorted(h.degree() for h in factor_over_z(f) if h.degree() > 1) == [2, 3]


def test_rational_triple_ignores_the_resultant_degree_cap():
    """A rational triple's cross-ratio is one Mobius image of z, with no
    resultant, so the degree cap no longer skips it when z has degree 9.
    The four-difference chain still hits the cap on those values; where
    it stays under the cap it agrees exactly, and elsewhere the values are
    checked against the cross-ratio of the branch points' numeric roots."""
    f, _ = parse_curve("y^2 = x*(x-1)*(x-2)*(x^9-2)*(x^2-3)")
    branch = branch_point_list(f, (f.degree() - 1) // 2)
    triple, lams, caveats = _normalization_search(branch)
    assert triple is not None and len(lams) == len(branch) - 3
    assert not [c for c in caveats if "degree cap" in c]

    def point(p):
        w, (a, b, u, v) = p.refined_box(60)
        return complex((a + b) / (2 << w), (u + v) / (2 << w))

    p1, p2, p3 = (point(branch[i]) for i in triple)
    for z, lam in lams:
        if branch[z].degree <= 2:
            assert lam == _chain_cross_ratio(*(branch[i] for i in triple), branch[z])
            continue
        assert lam.degree == 9
        with pytest.raises(DegreeCapExceeded):
            _chain_cross_ratio(*(branch[i] for i in triple), branch[z])
        w = point(branch[z])
        assert abs(point(lam) - (p3 - p1) * (w - p2) / ((p3 - p2) * (w - p1))) < 1e-9


def _exact_max_heights(points: list) -> dict:
    """exp of the largest exact height of the cross-ratios, for every
    ordered triple of these rational or infinite points: a rational u/v in
    lowest terms has height ln max(|u|, |v|)."""
    n = len(points)
    out = {}
    for triple in itertools.permutations(range(n), 3):
        lams = [_fraction_cross_ratio(*(points[i] for i in triple), points[z])
                for z in range(n) if z not in triple]
        out[triple] = max(max(abs(lam.numerator), lam.denominator) for lam in lams)
    return out


def _rational_branch_sets(count: int) -> list[list]:
    """Seeded all-rational branch sets of 6 to 9 points, INFINITY first when
    the count is odd, then the roots ascending (branch_point_list's order).
    Roots come as +-a pairs, reciprocal pairs a, 1/a (0 pairs with
    infinity) or alone, to force exact ties; every third set draws its
    numerators with 20 to 22 digits, so heights pass 2^64."""
    rng = random.Random("exact-rational-heights")
    sets = []
    while len(sets) < count:
        degree = 5 + len(sets) % 4
        digits = 22 if len(sets) % 3 == 2 else 1
        roots: set = set()
        while len(roots) < degree:
            a = Fraction(rng.randint(1, 6 * 10 ** (digits - 1)), rng.randint(1, 3))
            style = rng.choice(("pm", "reciprocal", "alone", "zero"))
            new = {"pm": {a, -a}, "reciprocal": {a, 1 / a}, "alone": {-a},
                   "zero": {Fraction(0)}}[style]
            if len(roots | new) <= degree:
                roots |= new
        infinity = [INFINITY] if degree % 2 else []
        sets.append(infinity + [AlgebraicNumber.from_rational(r) for r in sorted(roots)])
    return sets


def _check_search_against_exact_heights(branch: list) -> tuple[int, int]:
    """Assert that the search's triple attains the least exact largest
    height over all ordered triples, and that it is the lexicographically
    first to do so, also where H passes 2^64 and a 64-bit bound would tie
    H with H + 1; returns the least H and how many ordered triples attain
    it."""
    points = [p if p is INFINITY else p.as_fraction() for p in branch]
    heights = _exact_max_heights(points)
    least = min(heights.values())
    winners = [t for t in sorted(heights) if heights[t] == least]
    triple, lams, _ = _normalization_search(branch)
    assert heights[triple] == least
    assert triple == winners[0]
    assert [(z, lam.as_fraction()) for z, lam in lams] == [
        (z, _fraction_cross_ratio(*(points[i] for i in triple), points[z]))
        for z in range(len(points)) if z not in triple
    ]
    return least, len(winners)


def test_search_attains_the_least_exact_height_on_rational_sets():
    results = [_check_search_against_exact_heights(branch)
               for branch in _rational_branch_sets(24)]
    # swapping the points sent to infinity and 0 gives every least height
    # twice; a tie between triples gives it more often
    assert sum(count > 2 for _, count in results) >= 5
    assert any(least > 2**64 for least, _ in results)
    assert any(least < 2**53 for least, _ in results)


# the normalization and the least H of the golden file's exact-tie curves,
# where a ranking on each value's own enclosure broke the tie by rounding
EXACT_TIE_CURVES = list(zip(EXACT_TIES, [(0, 5, 7), (3, 6, 7)], [1975, 55]))


@pytest.mark.parametrize("curve, triple, least", EXACT_TIE_CURVES)
def test_exact_ties_go_to_the_first_triple(curve, triple, least):
    f, _ = parse_curve(curve)
    branch = branch_point_list(f, (f.degree() - 1) // 2)
    assert _check_search_against_exact_heights(branch)[0] == least
    assert analyze_curve(curve).normalization.triple == triple


@pytest.mark.parametrize("curve", TIED_IRRATIONAL)
def test_tied_irrational_curves_go_to_the_first_triple(curve):
    # several triples attain the least largest height exactly, and the
    # search's 64-bit upper bounds tie with no rounding noise to break it
    nz = analyze_curve(curve).normalization
    assert nz.triple == (0, 1, 2)
    assert [h.to_decimal_string() for h in nz.h_max] == ["2.40605912529801723748879e-1"] * 2


def test_rational_rank_separates_consecutive_heights():
    # at 64 bits H and H + 1 first share an upper bound near 2^59; the
    # rank switches to H's bit length plus 16 bits at 2^48
    def upper(H):
        return weil_height(Poly([-1, H]), _rational_rank_bits(H))[1]

    for e in [*range(40, 71), 100, 200]:
        for H in (2**e - 1, 2**e, 2**e + 1):
            assert upper(H) < upper(H + 1), H


def test_search_prunes_exact_heights(monkeypatch):
    f, _ = parse_curve("y^2 = x*(x - 1)*(x + 2)*(x - 3)*(x + 4)*(x^2 + x + 7)")
    branch = branch_point_list(f, (f.degree() - 1) // 2)
    n = len(branch)
    k = sum(p is INFINITY or p.is_rational for p in branch)
    calls = []

    def counting_height(alpha, precision=128):
        calls.append(alpha)
        return weil_height(alpha, precision)

    monkeypatch.setattr(curve_mod, "weil_height", counting_height)
    triple, _, _ = _normalization_search(branch)
    monkeypatch.undo()
    assert triple == _resolving_search(branch)[0]
    # fewer than an exhaustive ranking needs, and fewer than one per
    # normalization: some are dropped on their coefficients alone
    assert 0 < len(calls) < 3 * math.comb(k, 3) * (n - 3)
    assert len(calls) < 3 * math.comb(k, 3)


def test_search_builds_images_once_per_conjugate_class(monkeypatch):
    # per rational triple, one Mobius image per distinct minimal polynomial
    # among the other irrational points, not one per point: conjugates
    # share it
    calls = []

    def counting(alpha, *matrix):
        calls.append(alpha)
        return algebraic_mod.mobius_minpoly(alpha, *matrix)

    for f in _two_class_pools(4):
        branch = branch_point_list(f, (f.degree() - 1) // 2)
        rational = sum(p is INFINITY or p.is_rational for p in branch)
        classes = {p.minpoly for p in branch if p is not INFINITY and not p.is_rational}
        monkeypatch.setattr(curve_mod, "mobius_minpoly", counting)
        triple, _, _ = _normalization_search(branch)
        monkeypatch.undo()
        assert triple is not None
        assert len(classes) == 2 and len(branch) - rational == 5
        assert len(calls) == math.comb(rational, 3) * len(classes)
        calls.clear()


def test_all_rational_search_takes_no_height(monkeypatch):
    # the least H is found on integers: no height enclosure at all
    calls = []

    def counting_height(alpha, precision=128):
        calls.append(alpha)
        return weil_height(alpha, precision)

    monkeypatch.setattr(curve_mod, "weil_height", counting_height)
    for f in RATIONAL_POOL_CURVES:
        branch = branch_point_list(f, (f.degree() - 1) // 2)
        if all(p is INFINITY or p.is_rational for p in branch):
            assert _normalization_search(branch)[0] is not None
    assert calls == []


def test_search_resolves_only_the_winning_values(monkeypatch):
    # a rational pool: each winning value of an irrational z is one resolve,
    # and nothing else in the search resolves a root
    resolves = []
    resolve = algebraic_mod._resolve_among

    def counting(*args):
        resolves.append(args)
        return resolve(*args)

    for text in ("y^2 = x*(x - 1)*(x + 2)*(x - 3)*(x + 4)*(x^2 + x + 7)",
                 "y^2 = (x^2 - 2)*(x^3 - 3*x + 1)*(x - 5)*(x + 1)*(x - 2)"):
        f, _ = parse_curve(text)
        branch = branch_point_list(f, (f.degree() - 1) // 2)
        monkeypatch.setattr(algebraic_mod, "_resolve_among", counting)
        triple, lams, _ = _normalization_search(branch)
        monkeypatch.undo()
        assert len(resolves) == sum(not lam.is_rational for _, lam in lams) > 0
        resolves.clear()


def test_search_resolves_only_the_winning_orbits(monkeypatch, fresh_tables):
    # fewer than three rational points: every winning value is one
    # cross_ratio call, and the records hold exactly those values, in a
    # fresh analysis, not one from the model table
    values = []

    def counting_cross_ratio(*points):
        out = cross_ratio(*points)
        values.append(out)
        return out

    monkeypatch.setattr(curve_mod, "cross_ratio", counting_cross_ratio)
    a = analyze_curve("y^2 = x^6 - x")
    assert len(values) == 2 * a.genus - 1
    assert a.normalization is not None
    assert [r.value for r in a.normalization.records] == values


def test_set_images_match_exact_cross_ratios():
    # cr of ordering t's triple in each normalization order, with z the
    # point at position t, is ANHARMONIC[j] of cr of the sorted set
    order_of = {pos: order for order, pos in curve_mod._NORMALIZATIONS}
    assert [pos for _, pos in curve_mod._NORMALIZATIONS] == [0, 1, 5]
    for points in _rational_four_sets(40):
        lam = _fraction_cross_ratio(*points)
        for (t, pos), j in curve_mod._SET_IMAGES.items():
            *triple, z = [p for i, p in enumerate(points) if i != t] + [points[t]]
            want = _fraction_cross_ratio(*(triple[i] for i in order_of[pos]), z)
            assert _anharmonic_image(j, lam) == want, (points, t, pos)
    assert len(curve_mod._SET_IMAGES) == 4 * 3


def test_search_takes_one_quotient_per_set_of_four_points(monkeypatch, fresh_tables):
    # y^2 = x^5 - 1 has six branch points, two of them rational: 20 triples
    # with 3 values each, but only C(6, 4) = 15 sets of four points, from
    # cold model and set tables
    quotients = []
    binary = algebraic_mod._binary

    def counting(a, b, kind):
        if kind == "div":
            quotients.append((a, b))
        return binary(a, b, kind)

    monkeypatch.setattr(algebraic_mod, "_binary", counting)
    assert analyze_curve("y^2 = x^5 - 1").normalization is not None
    assert 0 < len(quotients) <= math.comb(6, 4)


def test_repeated_analysis_reads_every_set_from_its_table(monkeypatch):
    # a set's cross-ratio and orbit are a pure function of its four points,
    # so a second analysis of the same curve takes no difference, product
    # or quotient, and reports the same normalization
    first = analyze_curve("y^2 = x^6 - x")
    calls = []
    binary = algebraic_mod._binary

    def counting(a, b, kind):
        calls.append(kind)
        return binary(a, b, kind)

    monkeypatch.setattr(algebraic_mod, "_binary", counting)
    second = analyze_curve("y^2 = x^6 - x")
    assert calls == []
    assert _printed(second) == _printed(first)


# the model table: one precision-independent analysis per integral model

X6X_SPELLINGS = ("y^2 = x^6 - x", "y^2 = (x^6 - x)")
MODEL_PRECISIONS = (64, 128, 512)


def _counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records each call's arguments
    in the returned list."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_one_model_is_searched_once(monkeypatch, fresh_tables):
    # two spellings of one model at three precisions: one search
    searches = _counting(monkeypatch, curve_mod, "_normalization_search")
    reports = {}
    for precision in MODEL_PRECISIONS:
        for text in X6X_SPELLINGS:
            reports.setdefault(precision, set()).add(
                _printed(analyze_curve(text, precision)))
    assert len(searches) == 1
    assert all(len(texts) == 1 for texts in reports.values())


def _cli_report(capsys, text: str, precision: int) -> str:
    from smallpoints.cli import main

    assert main(["analyze", "--curve", text, "--precision", str(precision)]) == 0
    return capsys.readouterr().out


def test_reports_in_either_precision_order_match_fresh_processes(capsys):
    fresh = {}
    for precision in MODEL_PRECISIONS:
        proc = fresh_interpreter(["-m", "smallpoints.cli", "analyze", "--curve", X6X_SPELLINGS[0],
                                  "--precision", str(precision)], timeout=120)
        assert proc.returncode == 0, proc.stderr
        fresh[precision] = proc.stdout
    for order in (MODEL_PRECISIONS, MODEL_PRECISIONS[::-1]):
        numeric_mod.clear_tables()
        for precision in order:
            for text in X6X_SPELLINGS:
                assert _cli_report(capsys, text, precision) == fresh[precision], (order, text)


def test_evicted_model_is_recomputed_with_the_same_bytes(monkeypatch):
    # a table of two models: the third evicts the first, which is then
    # analyzed again from scratch
    small = lru_cache(maxsize=2)(curve_mod._analyze_model.__wrapped__)
    monkeypatch.setattr(curve_mod, "_analyze_model", small)
    searches = _counting(monkeypatch, curve_mod, "_normalization_search")
    curves = ["y^2 = x^6 - x", "y^2 = x^5 - x", "y^2 = x^5 - 1"]
    first = [_printed(analyze_curve(text)) for text in curves]
    assert len(searches) == 3 and small.cache_info().currsize == 2
    assert _printed(analyze_curve(curves[0])) == first[0]
    assert len(searches) == 4
    # the model it evicted in turn, x^5 - x, is recomputed too
    assert _printed(analyze_curve(curves[1])) == first[1]
    assert len(searches) == 5


def test_model_that_raises_raises_again(monkeypatch):
    # an analysis that raises leaves no entry: the next call recomputes it,
    # raises again, and once the cause is gone it succeeds
    curve_mod._analyze_model.cache_clear()
    calls = []

    def giving_up(*args):
        calls.append(args)
        raise RuntimeError("gave up")

    monkeypatch.setattr(curve_mod, "bad_prime_superset", giving_up)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="gave up"):
            analyze_curve("y^2 = x^5 - x")
    assert len(calls) == 2 and curve_mod._analyze_model.cache_info().currsize == 0
    monkeypatch.undo()
    assert analyze_curve("y^2 = x^5 - x").n_s == 2


def test_analyses_share_no_mutable_state():
    # an analysis holds immutable values all the way down, so it hashes by
    # value and no caller can change a field in place, nor through it the
    # next report
    first = analyze_curve("y^2 = x^6 - x")
    text = _printed(first)
    assert first.caveats and first.normalization.records
    assert hash(first) == hash(analyze_curve("y^2 = x^6 - x"))
    for mutate in (lambda: first.caveats.append("changed"), lambda: first.s_primes.clear(),
                   lambda: first.branch_points.pop(), lambda: first.normalization.records.pop(),
                   lambda: first.parshin_exceptions.append(0)):
        with pytest.raises(AttributeError):
            mutate()
    assert _printed(first) == text
    assert _printed(analyze_curve("y^2 = x^6 - x")) == text


def test_analyses_are_immutable_and_replace_copies():
    first = analyze_curve("y^2 = x^6 - x")
    text = _printed(first)
    for name in ("n_s", "caveats", "normalization"):
        with pytest.raises(AttributeError):
            setattr(first, name, None)
    with pytest.raises(AttributeError):
        first.extra = 1
    with pytest.raises(AttributeError):
        first.normalization.records[0].lambda_s_unit = False
    changed = first._replace(n_s=7, caveats=["changed"], normalization=None)
    assert (changed.n_s, changed.caveats, changed.normalization) == (7, ["changed"], None)
    assert _printed(first) == text
    assert _printed(analyze_curve("y^2 = x^6 - x")) == text


@pytest.mark.parametrize("text", ["y^2 = x^5 - x", "y^2 = x^5 - 2", "y^2 = x^6 - x"])
def test_analysis_takes_no_squarefree_gcd_of_the_model(monkeypatch, fresh_tables, text):
    # parse_curve proves the model squarefree (disc f != 0), so neither
    # factoring it nor isolating its roots takes gcd(f, f')
    import smallpoints.polynomial as polynomial_mod

    f, _ = parse_curve(text)
    gcds = _counting(monkeypatch, polynomial_mod, "poly_gcd")
    analyze_curve(text)
    assert [args for args in gcds if args[0] == f] == []
