"""Acceptance gate: one test per criterion, each with its time budget.

Run with -v to get one pass/fail line per criterion.
"""

import math
import random
import time
from fractions import Fraction

import sympy

from smallpoints.algebraic import algebraic_roots, is_s_unit, weil_height
from smallpoints.bounds import (
    BoundParams,
    degB_from_mu,
    ex_from_degB,
    full_report,
    genus2_intro_bound,
    hF_from_u_mu,
    khadjavi_degB_bound,
    khadjavi_u,
    mu_upper,
    noether_ex_bound,
    nt_from_h,
    nu,
    thm_cyclic_bound,
    thm_genus2_bound,
    thm_hyper_bound,
    u_g,
    weierstrass_sum_bound,
    zhang_height_bound,
    zograf_degB_bound,
)
from smallpoints.curve import analyze_curve
from smallpoints.numeric import UP, lm_log
from smallpoints.polynomial import Poly, render_poly

from oracles import dec_ln, dec_sqrt, newton_polygon_valuations, v_p


def test_criterion_1_genus2_bound_dominated_by_packaged_form():
    start = time.monotonic()
    ns_values = [2, 6, 10, 14, 22, 26, 30, 34, 38, 42,
                 46, 58, 62, 66, 70, 78, 102, 110, 130, 210]
    assert len(ns_values) == 20
    for n_s in ns_values:
        p = BoundParams(d=1, g=2, n_s=n_s, d_k=1)
        assert thm_genus2_bound(p) <= genus2_intro_bound(n_s)
    assert time.monotonic() - start < 1.0


def test_criterion_2_noether_packaging_within_linear_envelope():
    start = time.monotonic()
    for hF in (0, 1, 10, 10**3, 10**6):
        value = noether_ex_bound(Fraction(hF), 2, None)
        assert value.to_fraction() <= 12 * hF + 201
    assert time.monotonic() - start < 1.0


def _random_rational_root_curve(rng, deg):
    roots = set()
    while len(roots) < deg:
        p, q = rng.randint(-50, 50), rng.randint(1, 50)
        r = Fraction(p, q)
        if max(abs(r.numerator), r.denominator) <= 50:
            roots.add(r)
    f = Poly([1])
    for r in sorted(roots):
        f = f * Poly([-r.numerator, r.denominator])
    return "y^2 = " + render_poly(f)


def test_criterion_3_corpus_has_no_parshin_exceptions():
    start = time.monotonic()
    corpus = ["y^2 = x^5 - x", "y^2 = x^5 - 1", "y^2 = x^6 - 1"]
    rng = random.Random(311)
    for k in range(22):
        corpus.append(_random_rational_root_curve(rng, 5 + k % 2))
    assert len(corpus) >= 25
    failures = 0
    for eq in corpus:
        analysis = analyze_curve(eq)
        if analysis.normalization is None or analysis.parshin_exceptions:
            failures += 1
            continue
        for rec in analysis.normalization.records:
            if not (rec.lambda_s_unit and rec.one_minus_s_unit):
                failures += 1
    assert failures == 0
    assert time.monotonic() - start < 60.0


def test_criterion_4_mahler_heights_match_oracles():
    start = time.monotonic()
    rng = random.Random(41)
    tol = Fraction(1, 2**50)
    for _ in range(10**3):
        p = rng.randint(-10**6, 10**6) or 1
        q = rng.randint(1, 10**6)
        x = Fraction(p, q)
        exact = dec_ln(max(abs(x.numerator), x.denominator))
        lo, hi = weil_height(x)
        assert abs(hi.to_fraction() - exact) <= tol
        assert abs(lo.to_fraction() - exact) <= tol

    # h(i) is exactly zero: i is a root of unity
    i_unit = algebraic_roots(Poly([1, 0, 1]))[0]
    lo, hi = weil_height(i_unit)
    assert lo.sign == 0 and hi.sign == 0

    # h((1+sqrt 5)/2) = (ln phi)/2 = 0.2406059...
    phi_target = dec_ln((1 + dec_sqrt(5)) / 2) / 2
    assert abs(float(phi_target) - 0.24060591252) < 1e-9
    golden = algebraic_roots(Poly([-1, -1, 1]))[0]
    lo, hi = weil_height(golden)
    assert abs(hi.to_fraction() - phi_target) < Fraction(1, 10**10)
    assert abs(lo.to_fraction() - phi_target) < Fraction(1, 10**10)
    assert time.monotonic() - start < 30.0


def _factored_s_unit(n, primes):
    if n < 0:
        n = -n
    return set(sympy.factorint(n)) <= set(primes)


def test_criterion_5_s_unit_predicate_vs_brute_force():
    start = time.monotonic()
    rng = random.Random(53)
    s_sets = [(2,), (2, 3), (2, 3, 5), (2, 3, 5, 7), (3, 5), (2, 7)]

    true_seen = false_seen = 0
    for k in range(10**3):
        if k % 2 == 0:
            p = rng.randint(-9999, 9999) or 1
            q = rng.randint(1, 9999)
        else:
            # products of small primes so the true branch is well exercised
            p = rng.choice((-1, 1)) * 2 ** rng.randint(0, 8) * 3 ** rng.randint(0, 5) \
                * 5 ** rng.randint(0, 3) * rng.choice((1, 1, 7, 11))
            q = 2 ** rng.randint(0, 8) * 3 ** rng.randint(0, 5)
        s = rng.choice(s_sets)
        x = Fraction(p, q)
        expected = _factored_s_unit(x.numerator, s) and _factored_s_unit(x.denominator, s)
        assert is_s_unit(x, s) == expected
        true_seen += expected
        false_seen += not expected
    assert true_seen > 50 and false_seen > 50

    # quadratic corpus against the Newton polygon valuation oracle
    cases = []
    while len(cases) < 25:
        a = 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2)
        c = rng.choice((-1, 1)) * 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2)
        b = rng.randint(-30, 30)
        cases.append((a, b, c, rng.choice(((2, 3), (2, 3, 5)))))
    while len(cases) < 50:
        a, b, c = rng.randint(1, 30), rng.randint(-30, 30), rng.randint(-30, 30)
        if c != 0:
            cases.append((a, b, c, rng.choice(s_sets)))

    checked = true_seen = false_seen = 0
    for a, b, c, s in cases:
        g = math.gcd(math.gcd(a, b), c)
        a, b, c = a // g, b // g, c // g
        disc = b * b - 4 * a * c
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            continue  # reducible; the predicate under test is about degree 2
        roots = algebraic_roots(Poly([c, b, a]))
        verdicts = {is_s_unit(r, s) for r in roots}
        assert len(verdicts) == 1  # conjugates share the minimal polynomial
        got = verdicts.pop()

        expected = True
        for p in sorted(set(sympy.factorint(abs(a * c)))):
            if p in s:
                continue
            vals = newton_polygon_valuations(
                [v_p(c, p), v_p(b, p) if b else None, v_p(a, p)]
            )
            if any(v != 0 for v in vals):
                expected = False
        assert got == expected
        checked += 1
        true_seen += expected
        false_seen += not expected
    assert checked >= 40 and true_seen > 5 and false_seen > 5
    assert time.monotonic() - start < 30.0


def test_criterion_6_constant_spot_checks():
    start = time.monotonic()
    assert nu(BoundParams(d=1, g=2, n_s=1, d_k=1)) == 100000
    man, exp = u_g(2).dyadic()
    assert man == 1 << 127
    assert 127 + exp == 3 * 681472  # u(2) = 8^681472
    assert khadjavi_u(1, 2, 2) == 36
    assert weierstrass_sum_bound(Fraction(0), 2).to_fraction() == 9376
    assert time.monotonic() - start < 1.0


def test_criterion_7_precision_and_parameter_monotonicity():
    start = time.monotonic()
    rng = random.Random(71)
    for _ in range(10**2):
        d = rng.randint(1, 3)
        g = rng.randint(2, 4)
        n_s = rng.randint(1, 10**6)
        d_k = rng.randint(1, 10**10)
        c_delta = None if g == 2 else Fraction(-500)
        p = BoundParams(d=d, g=g, n_s=n_s, d_k=d_k, c_delta=c_delta)
        H = 1 + Fraction(rng.randint(0, 10**6), rng.randint(1, 1000))
        hF = Fraction(rng.randint(0, 10**4), rng.randint(1, 100))
        h = Fraction(rng.randint(0, 10**4), rng.randint(1, 100))
        e = Fraction(rng.randint(1, 10**4), rng.randint(1, 100))
        degB = rng.randint(1, 10**6)
        mu = Fraction(rng.randint(0, 5000), rng.randint(1, 100))

        formulas = [
            lambda prec: thm_cyclic_bound(p, prec),
            lambda prec: thm_hyper_bound(p, prec),
            lambda prec: u_g(g, prec),
            lambda prec: mu_upper(p, prec),
            lambda prec: khadjavi_degB_bound(d, g, 2, H, prec),
            lambda prec: zograf_degB_bound(g, prec),
            lambda prec: ex_from_degB(degB, g, prec),
            lambda prec: zhang_height_bound(e, g, Fraction(1), prec),
            lambda prec: nt_from_h(h, g, prec),
            lambda prec: noether_ex_bound(hF, g, c_delta, prec),
            lambda prec: weierstrass_sum_bound(hF, g, prec),
            lambda prec: degB_from_mu(p, mu, prec),
            lambda prec: hF_from_u_mu(g, mu, prec),
        ]
        if g == 2:
            formulas.append(lambda prec: thm_genus2_bound(p, prec))
            formulas.append(lambda prec: genus2_intro_bound(n_s, prec))
        for fn in formulas:
            assert fn(64) >= fn(256)

        # monotone in N_S, D_K and H_Lambda at fixed precision
        p_ns = BoundParams(d=d, g=g, n_s=3 * n_s, d_k=d_k, c_delta=c_delta)
        p_dk = BoundParams(d=d, g=g, n_s=n_s, d_k=7 * d_k, c_delta=c_delta)
        for bumped in (p_ns, p_dk):
            assert thm_cyclic_bound(p, 64) <= thm_cyclic_bound(bumped, 64)
            assert thm_hyper_bound(p, 64) <= thm_hyper_bound(bumped, 64)
            assert mu_upper(p, 64) <= mu_upper(bumped, 64)
            if g == 2:
                assert thm_genus2_bound(p, 64) <= thm_genus2_bound(bumped, 64)
        if g == 2:
            assert genus2_intro_bound(n_s, 64) <= genus2_intro_bound(3 * n_s, 64)
        assert khadjavi_degB_bound(d, g, 2, H, 64) <= khadjavi_degB_bound(d, g, 2, 2 * H, 64)
    assert time.monotonic() - start < 60.0


def test_criterion_8_x5x_empirical_belyi_degree_end_to_end():
    start = time.monotonic()
    analysis = analyze_curve("y^2 = x^5 - x")
    assert analysis.s_primes == [2]
    assert analysis.n_s == 2
    assert analysis.disc == -256
    assert analysis.parshin_exceptions == []
    H_lo, H_hi = analysis.normalization.height_multiplicative
    assert H_lo._cmp(1) == 0 and H_hi._cmp(1) == 0

    p = BoundParams(d=1, g=analysis.genus, n_s=analysis.n_s, d_k=1)
    rep = full_report(p, H_Lambda=H_hi)
    degB_entry = rep.entry("lem_4_2", "deg_B")
    ln_pkg = lm_log(degB_entry.value, 256, UP).to_fraction()

    # independent big-integer recomputation: with u = 36 and H = 1 the
    # bound is 2 * 144^N for N = 9 u^3 2^(u-2) u!
    u = 36
    N = 9 * u**3 * 2 ** (u - 2) * math.factorial(u)
    assert abs(N / 2.6835e57 - 1) < 1e-3
    oracle = N * dec_ln(144) + dec_ln(2)
    assert abs(ln_pkg - oracle) / oracle < Fraction(1, 10**20)
    assert time.monotonic() - start < 10.0
