import decimal
import json
import math
import random
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dec_ln
from smallpoints import bounds, numeric
from smallpoints.bounds import (
    BoundEntry,
    BoundParams,
    CONDITIONS,
    FORMULAS,
    TARGETS,
    degB_from_mu,
    ex_from_degB,
    formula_conditions,
    full_report,
    genus2_intro_bound,
    hF_from_u_mu,
    khadjavi_degB_bound,
    ln_factorial_upper,
    mu_upper,
    noether_ex_bound,
    nt_from_h,
    nu,
    pipeline_apriori,
    pipeline_empirical,
    thm_cyclic_bound,
    thm_genus2_bound,
    thm_hyper_bound,
    u_g,
    weierstrass_sum_bound,
    zhang_height_bound,
    zograf_degB_bound,
)
from smallpoints.cli import main
from smallpoints.numeric import DOWN, UP, LogMag, decimal_str, lm_log, lm_pow

P2 = BoundParams(d=1, g=2, n_s=2, d_k=1)

# the tables that keep bound-chain values across reports; numeric's constant
# table also keeps ln(2 pi), but it is keyed by width, not bounded by a size
_REPORT_TABLES = (bounds._pow_up, bounds._nd_power)


def _every_table():
    """Every lru table of the bounds and numeric modules."""
    return {f for m in (bounds, numeric) for f in vars(m).values() if hasattr(f, "cache_clear")}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["inputs", "entries", "caveats"],
    "properties": {
        "inputs": {"type": "object"},
        "caveats": {"type": "array", "items": {"type": "string"}},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["formula_id", "target", "bounds_log_of_target", "value"],
                "properties": {
                    "formula_id": {"type": "string"},
                    "target": {
                        "enum": [
                            "h",
                            "h_NT",
                            "e_X",
                            "h_F",
                            "delta_X",
                            "Delta_X",
                            "deg_B",
                            "mu_X",
                            "weierstrass_sum",
                        ]
                    },
                    "bounds_log_of_target": {"type": "boolean"},
                    "value": {
                        "type": "object",
                        "required": ["decimal", "mantissa_hex", "exponent"],
                    },
                    "note": {"type": "string"},
                },
            },
        },
        "comparison": {"type": "object"},
    },
}


def test_params_validation():
    with pytest.raises(ValueError):
        BoundParams(0, 2, 1, 1)
    with pytest.raises(ValueError):
        BoundParams(1, 1, 1, 1)
    with pytest.raises(ValueError):
        BoundParams(1, 2, 0, 1)
    with pytest.raises(ValueError):
        BoundParams(1, 2, 1, 0)
    assert BoundParams(1, 2, 1, 1).c_delta == Fraction(-186)
    assert BoundParams(1, 3, 1, 1).c_delta is None
    assert BoundParams(1, 3, 1, 1, c_delta=-50).c_delta == Fraction(-50)


def test_params_are_immutable_values():
    p = BoundParams(1, 2, 30, 1)
    assert p == BoundParams(d=1, g=2, n_s=30, d_k=1, c_delta=-186)
    assert hash(p) == hash(BoundParams(1, 2, 30, 1))
    assert p != BoundParams(1, 2, 30, 5)
    assert repr(p) == "BoundParams(d=1, g=2, n_s=30, d_k=1, c_delta=Fraction(-186, 1))"
    for name in ("d", "c_delta"):
        with pytest.raises(AttributeError):
            setattr(p, name, 7)
        with pytest.raises(AttributeError):
            delattr(p, name)
    with pytest.raises(AttributeError):
        p.extra = 1
    assert p == BoundParams(1, 2, 30, 1)


def test_nu_values():
    assert nu(P2) == 100000
    assert nu(BoundParams(2, 2, 1, 1)) == 200000
    assert nu(BoundParams(2, 3, 1, 1)) == 1518750


def test_u_g_exact_power_of_two():
    m2, e2 = u_g(2).dyadic()
    assert m2 == 1 << 127 and 127 + e2 == 2044416
    m3, e3 = u_g(3).dyadic()
    assert m3 == 1 << 127 and 127 + e3 == 3 * 33**3 * 512
    assert abs(u_g(2).log10_float() - 615430.54) < 0.1
    assert u_g(3) > u_g(2)


def test_thm_cyclic():
    assert abs(thm_cyclic_bound(P2).log10_float() - 530102.9996) < 0.01
    p1 = BoundParams(1, 2, 1, 1)
    assert thm_cyclic_bound(p1) == lm_pow(100000, 100000, 128, UP)
    assert thm_cyclic_bound(BoundParams(1, 2, 4, 1)) >= thm_cyclic_bound(P2)


def test_general_equals_cyclic():
    rep = pipeline_apriori(P2)
    for target in ("e_X", "delta_X", "h_F", "Delta_X"):
        assert rep.entry("eq_general", target).value == thm_cyclic_bound(P2)


def test_thm_hyper():
    assert abs(thm_hyper_bound(P2).log10_float() - 32030102.9996) < 0.01
    p31 = BoundParams(1, 3, 2, 1)
    assert thm_hyper_bound(p31) > thm_hyper_bound(P2)
    p1 = BoundParams(1, 2, 1, 1)
    assert thm_hyper_bound(p1) == lm_pow(100000, 64 * 100000, 128, UP)


def test_thm_genus2():
    assert thm_genus2_bound(BoundParams(1, 2, 10, 1)).log10_float() == pytest.approx(
        1100000.0, abs=0.01
    )
    assert abs(thm_genus2_bound(P2).log10_float() - 1030102.9996) < 0.01
    with pytest.raises(ValueError):
        thm_genus2_bound(BoundParams(1, 3, 2, 1))


def test_genus2_intro_dominates():
    assert genus2_intro_bound(10).log10_float() == pytest.approx(2000000.0, abs=0.01)
    for n_s in (2, 10, 30, 210, 1000):
        p = BoundParams(1, 2, n_s, 1)
        assert thm_genus2_bound(p) <= genus2_intro_bound(n_s)
    # at N_S = 1 the two formulas coincide at exactly 10^(10^6)
    p1 = BoundParams(1, 2, 1, 1)
    assert thm_genus2_bound(p1).log10_float() == pytest.approx(
        genus2_intro_bound(1).log10_float()
    )


def test_khadjavi_frozen_value():
    kb = khadjavi_degB_bound(1, 2, 2, 1)
    N = 9 * 36**3 * 2**34 * math.factorial(36)
    oracle = N * dec_ln(Fraction(144)) + dec_ln(Fraction(2))
    mine = lm_log(kb, 128, UP).to_fraction()
    assert abs(mine - oracle) / oracle < Fraction(1, 10**20)


def test_khadjavi_monotone_in_height():
    a = khadjavi_degB_bound(1, 2, 2, 1)
    b = khadjavi_degB_bound(1, 2, 2, 2)
    assert b > a


def test_khadjavi_domain_errors():
    with pytest.raises(ValueError):
        khadjavi_degB_bound(1, 2, 1, 1)
    with pytest.raises(ValueError):
        khadjavi_degB_bound(1, 2, 2, Fraction(1, 2))


def test_khadjavi_stirling_branch():
    # d = 56 gives u = 2016, just past the exact-factorial threshold
    kb = khadjavi_degB_bound(56, 2, 2, 1)
    mine = lm_log(kb, 128, UP).to_fraction()
    N = 9 * 2016**3 * 2**2014 * math.factorial(2016)
    oracle = N * dec_ln(Fraction(4 * 2016)) + dec_ln(Fraction(2))
    assert mine >= oracle
    assert (mine - oracle) / oracle < Fraction(1, 10**3)


def test_ln_factorial_upper():
    for n in (0, 1, 5, 36, 2000):
        exact = math.factorial(n)
        up = ln_factorial_upper(n).to_fraction()
        lo = lm_log(LogMag.from_int(exact, 192, DOWN), 192, DOWN).to_fraction()
        assert lo <= up
    n = 2001
    exact = math.factorial(n)
    up = ln_factorial_upper(n).to_fraction()
    lo = lm_log(LogMag.from_int(exact, 256, DOWN), 256, DOWN).to_fraction()
    assert lo <= up <= lo * (1 + Fraction(1, 10**6))


def test_ex_from_degB():
    assert ex_from_degB(3, 2).to_fraction() == 48600000000
    assert ex_from_degB(1, 2).to_fraction() == 2 * 10**8
    with pytest.raises(ValueError):
        ex_from_degB(Fraction(1, 2), 2)


def test_zograf_chain_exact():
    assert zograf_degB_bound(2).to_fraction() == 384
    v = ex_from_degB(zograf_degB_bound(2), 2)
    assert v.to_fraction() == 1669883284684800000000


def test_zhang():
    assert zhang_height_bound(10, 2, 1).to_fraction() == Fraction(11, 2)
    assert zhang_height_bound(0, 3, 4).to_fraction() == 1
    with pytest.raises(ValueError):
        zhang_height_bound(10, 2, 0)


def test_nt_from_h():
    assert nt_from_h(1, 2).to_fraction() == 4
    assert nt_from_h(0, 2).to_fraction() == 0
    assert nt_from_h(Fraction(5, 2), 3).to_fraction() == 30


def test_noether_genus2():
    v = noether_ex_bound(0, 2, None)
    assert Fraction(2007, 10) < v.to_fraction() < Fraction(20071, 100)
    v1 = noether_ex_bound(1, 2, None)
    assert abs(float(v1.to_fraction()) - 212.703) < 0.001
    v0 = noether_ex_bound(0, 2, 0)
    assert abs(float(v0.to_fraction()) - 14.703) < 0.001


def test_noether_packaging_inequality():
    # the packaged form 12 h_F + 201 dominates at every scale
    for hf in (0, 1, 10, 1000, 10**6):
        v = noether_ex_bound(hf, 2, None)
        assert v.to_fraction() <= 12 * hf + 201


def test_noether_needs_constant_beyond_genus_two():
    with pytest.raises(ValueError, match="ineffective constant required"):
        noether_ex_bound(0, 3, None)
    assert noether_ex_bound(0, 3, -1000).to_fraction() > 1000


def test_mu_upper():
    assert abs(mu_upper(P2).log10_float() - 92602.9996) < 0.01
    p1 = BoundParams(1, 2, 1, 1)
    assert mu_upper(p1) == lm_pow(100000, Fraction(100000, 8), 128, UP)
    assert mu_upper(BoundParams(1, 2, 2, 3)) > mu_upper(P2)


def test_degB_from_mu():
    v = degB_from_mu(P2, 1)
    assert v.log10_float() == pytest.approx(250000.0, abs=1e-6)
    assert degB_from_mu(P2, 0).to_fraction() == 0
    v2 = degB_from_mu(P2, 2)
    assert v2.man == v.man and v2.exp == v.exp + 1


def test_hF_from_mu():
    assert hF_from_u_mu(2, 0, 128).to_fraction() == 0
    v = hF_from_u_mu(2, 1, 128)
    assert abs(v.log10_float() - 615430.54) < 0.1
    v2 = hF_from_u_mu(2, 2, 128)
    assert v2.man == v.man and v2.exp == v.exp + 1


def test_weierstrass_sum():
    assert weierstrass_sum_bound(0, 2).to_fraction() == 9376
    assert weierstrass_sum_bound(1, 2).to_fraction() == 9476
    assert weierstrass_sum_bound(0, 3).to_fraction() == 71199


def test_prop_cyclic():
    assert pipeline_apriori(P2).entry("prop_5_3_i", "h").value >= thm_hyper_bound(P2)
    rep3 = pipeline_apriori(BoundParams(1, 3, 2, 1))
    assert "prop_5_3_i" not in {e.formula_id for e in rep3.entries}
    assert "delta-invariant" in rep3.caveats[0]


def test_pipeline_apriori_genus2():
    rep = pipeline_apriori(P2)
    ids = {(e.formula_id, e.target) for e in rep.entries}
    assert ("thm_1_1", "h") in ids and ("thm_1_1", "h_NT") in ids
    for t in ("e_X", "delta_X", "h_F", "Delta_X"):
        assert ("eq_general", t) in ids
    assert ("thm_1_2", "weierstrass_sum") in ids
    assert ("thm_1_3", "h") in ids
    assert ("intro_genus2", "h") in ids
    assert ("lem_5_2_i", "mu_X") in ids
    assert ("lem_5_1", "deg_B") in ids
    assert ("eq_fhux", "h_F") in ids
    assert ("lem_6_2", "weierstrass_sum") in ids
    assert ("lem_4_4_ii", "e_X") in ids
    assert ("lem_4_3", "h") in ids
    assert ("lem_4_4_i", "h_NT") in ids
    assert ("prop_5_3_i", "h") in ids
    assert not any(e.formula_id.startswith("prop_3_4") for e in rep.entries)
    assert rep.caveats == []
    for e in rep.entries:
        assert e.value.to_json_value()["rounding"] == "up"
        assert e.value.sign >= 0
    # the log-of-deg_B entry is flagged as such
    assert rep.entry("lem_5_1").bounds_log_of_target is True
    assert rep.entry("thm_1_1", "h").bounds_log_of_target is True
    assert rep.entry("thm_1_3", "h").bounds_log_of_target is False


def test_pipeline_apriori_genus3_degrades():
    rep = pipeline_apriori(BoundParams(1, 3, 6, 1))
    ids = {e.formula_id for e in rep.entries}
    assert "thm_1_3" not in ids and "intro_genus2" not in ids
    assert "lem_4_3" not in ids and "lem_4_4_ii" not in ids
    assert any("delta-invariant" in c for c in rep.caveats)


def test_pipeline_empirical():
    rep = pipeline_empirical(P2, H_Lambda=1)
    ids = [e.formula_id for e in rep.entries]
    assert ids == ["lem_4_2", "lem_4_1", "lem_4_3", "lem_4_4_i"]
    for e in rep.entries:
        assert e.value.to_json_value()["rounding"] == "up"


def test_pipeline_empirical_zograf():
    rep = pipeline_empirical(P2, H_Lambda=None, use_zograf=True)
    ids = [e.formula_id for e in rep.entries]
    assert ids == ["zograf", "lem_4_1", "lem_4_3", "lem_4_4_i"]
    assert rep.entry("lem_4_1").value.to_fraction() == 1669883284684800000000


def test_full_report_comparison():
    rep = full_report(P2, H_Lambda=1)
    cmp = rep.comparison
    assert cmp["sharper_chain"] == "apriori"
    assert cmp["empirical"]["log10_of_bound"] == pytest.approx(2.896e58, rel=1e-3)
    assert cmp["apriori"]["log10_of_bound"] < 1.1e6
    jsonschema.validate(instance=rep.to_dict(), schema=REPORT_SCHEMA)
    text = json.dumps(rep.to_dict())
    assert json.loads(text)["comparison"]["sharper_chain"] == "apriori"


def test_full_report_genus3_comparison_undetermined():
    rep = full_report(BoundParams(1, 3, 6, 1), H_Lambda=1)
    assert rep.comparison["sharper_chain"] == "undetermined"
    jsonschema.validate(instance=rep.to_dict(), schema=REPORT_SCHEMA)


def test_full_report_log10_is_null_past_float_range():
    # from genus 6 on the empirical bound's exponent is thousands of bits long
    rep = full_report(BoundParams(d=1, g=6, n_s=30, d_k=1), H_Lambda=12)
    empirical = rep.comparison["empirical"]
    assert empirical["formula_id"] == "lem_4_3"
    assert empirical["log10_of_bound"] is None
    assert empirical["ln_of_bound"]["rounding"] == "up"
    json.dumps(rep.to_dict(), allow_nan=False)
    rep5 = full_report(BoundParams(d=1, g=5, n_s=30, d_k=1), H_Lambda=12)
    assert math.isfinite(rep5.comparison["empirical"]["log10_of_bound"])


def test_formula_table_rows_read_only_what_exists():
    # every input is a value the chain was given or an earlier row: no row
    # reads a constant that nobody supplies
    given_names = {"p", "d", "g", "n_s", "d_k", "c_delta", "eps", "H_Lambda", "deg_phi", "use_zograf"}
    for chain, rows in FORMULAS.items():
        # conditions every row producing a name is gated on
        gated: dict[str, set] = {}
        for f in rows:
            when = set(f.when)
            assert set(f.targets) <= set(TARGETS), f
            assert when <= set(CONDITIONS), f
            for name in f.inputs:
                if name in gated:
                    # a row never reads a value that may have been skipped
                    assert gated[name] <= when, (chain, f.formula_id, name)
                else:
                    assert name in given_names, (chain, f.formula_id, name)
            key = f.name or f.formula_id
            # _walk keeps the given values and the rows' values in one dict
            assert key not in given_names, (chain, key)
            gated[key] = gated[key] & when if key in gated else when


def test_formula_conditions_name_the_c_delta_formulas():
    ids = {f.formula_id for rows in FORMULAS.values() for f in rows}
    assert {fid for fid in ids if "c_delta" in formula_conditions(fid)} == {
        "lem_4_4_ii", "lem_4_3", "lem_4_4_i", "prop_5_3_i"
    }
    assert formula_conditions("thm_1_3") == {"g=2"}
    assert formula_conditions("intro_genus2") == {"g=2", "d=1"}
    assert formula_conditions("thm_9_9") == frozenset()


def _count_logs(monkeypatch) -> list:
    calls = []
    ln_of_dyadic = numeric._ln_of_dyadic

    def counting(*args):
        calls.append(args)
        return ln_of_dyadic(*args)

    monkeypatch.setattr(numeric, "_ln_of_dyadic", counting)
    return calls


# each id ends in the count of a report that also took ln N_S and ln D_K;
# the ids are kept so that the test names stay stable
@pytest.mark.parametrize(
    "g, d, zograf, h_lambda, logs",
    [
        pytest.param(5, 3, True, None, 5, id="5-3-True-7"),
        pytest.param(2, 1, False, None, 1, id="2-1-False-3"),
        pytest.param(2, 1, False, Fraction(7, 3), 3, id="2-1-False-H-5"),
        pytest.param(5, 3, True, Fraction(7, 3), 5, id="5-3-True-H-7"),
    ],
)
def test_full_report_takes_each_log_once(monkeypatch, g, d, zograf, h_lambda, logs):
    # the count is that of cold tables; earlier tests may have filled them
    for table in (*_REPORT_TABLES, numeric._constant_table):
        table.cache_clear()
    calls = _count_logs(monkeypatch)
    p = BoundParams(d=d, g=g, n_s=30, d_k=7, c_delta=None if g == 2 else -1000)
    full_report(p, H_Lambda=h_lambda, use_zograf=zograf, precision=2048)
    assert len(calls) == len(set(calls)) == logs


def test_parameter_only_powers_are_taken_once_across_reports(monkeypatch):
    # nu^(d nu/8), nu^(nu/2) and ln(2 pi) depend on (g, d, precision) alone:
    # a second report at another N_S takes no log
    for table in (*_REPORT_TABLES, numeric._constant_table):
        table.cache_clear()
    calls = _count_logs(monkeypatch)
    counts = []
    reports = []
    for n_s in (30, 42):
        before = len(calls)
        reports.append(full_report(BoundParams(1, 3, n_s, 1, c_delta=-1000), precision=2048))
        counts.append(len(calls) - before)
    assert counts == [3, 0]
    assert reports[0].entry("lem_5_1").value < reports[1].entry("lem_5_1").value


@pytest.mark.parametrize("g", [2, 3])
def test_full_report_takes_one_n_s_d_k_power(monkeypatch, g):
    # thm_1_1, thm_1_2, lem_5_2_i and, at g = 2, thm_1_3 all multiply by
    # (N_S*D_K)^nu: a report takes that power once and shares it
    for table in _REPORT_TABLES:
        table.cache_clear()
    p = BoundParams(d=1, g=g, n_s=30, d_k=7, c_delta=None if g == 2 else -1000)
    bases = []
    lm_pow_ = bounds.lm_pow

    def counting(base, *args):
        bases.append(base)
        return lm_pow_(base, *args)

    monkeypatch.setattr(bounds, "lm_pow", counting)
    rep = full_report(p, H_Lambda=Fraction(7, 3), precision=2048)
    assert bases.count(p.n_s * p.d_k) == 1
    # the shared value is the one each public function takes by itself
    assert rep.entry("thm_1_1", "h").value == thm_cyclic_bound(p, 2048)
    assert rep.entry("thm_1_2").value == thm_hyper_bound(p, 2048)
    assert rep.entry("lem_5_2_i").value == mu_upper(p, 2048)
    if g == 2:
        assert rep.entry("thm_1_3", "h").value == thm_genus2_bound(p, 2048)


def test_report_tables_are_bounded_and_keep_no_n_s_power():
    for table in _REPORT_TABLES:
        assert table.cache_info().maxsize is not None
    assert bounds._pow_up.cache_info().maxsize == bounds._POW_CACHE_SIZE
    bounds._pow_up.cache_clear()
    full_report(BoundParams(2, 3, 1, 1, c_delta=-7), use_zograf=True, precision=64)
    size = bounds._pow_up.cache_info().currsize
    assert size > 0
    for n_s in range(2, 40):
        full_report(BoundParams(2, 3, n_s, n_s + 1, c_delta=-7), use_zograf=True, precision=64)
    assert bounds._pow_up.cache_info().currsize == size
    # the power of N_S*D_K is kept for the latest report alone
    assert bounds._nd_power.cache_info().maxsize == 1
    assert bounds._nd_power.cache_info().currsize <= 1


def test_bound_reports_do_not_depend_on_table_state(capsys):
    """A seeded grid over g 2-10, d 1-3, precision 64 and 2048, with and
    without --abc, --cdelta and --zograf, prints the same bytes warm, after
    every bounds and numeric table is cleared, and in reversed order."""
    rng = random.Random("bound-tables")
    flag_sets = [(a, c, z) for a in (0, 1) for c in (0, 1) for z in (0, 1)]
    grid = []
    for i in range(2 * 9 * 3):
        g, d, prec = 2 + i % 9, 1 + i // 9 % 3, (64, 2048)[i // 27]
        abc, cdelta, zograf = flag_sets[i % 8]
        argv = ["bound", "--d", str(d), "--g", str(g), "--ns", str(rng.choice((1, 6, 30, 2310))),
                "--dk", str(rng.choice((1, 3, 7))), "--precision", str(prec)]
        if abc:
            argv += ["--abc", rng.choice(("2,2", "3/2,5/4,1"))]
        if cdelta:
            argv += ["--cdelta", str(-rng.randint(1, 5000))]
        if zograf:
            argv.append("--zograf")
        grid.append(argv)

    def reports(argvs):
        out = []
        for argv in argvs:
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    warm = reports(grid)
    for table in _every_table():
        table.cache_clear()
    assert reports(grid) == warm
    assert reports(grid[::-1]) == warm[::-1]


def test_report_renders_each_entry_into_its_own_dict():
    doc = full_report(BoundParams(1, 3, 6, 1)).to_dict()
    values = {e["formula_id"] + "/" + e["target"]: e["value"] for e in doc["entries"]}
    shared = [values["thm_1_1/h"], values["thm_1_1/h_NT"]] + [
        values["eq_general/" + t] for t in ("e_X", "delta_X", "h_F", "Delta_X")
    ]
    assert all(v == shared[0] for v in shared)
    assert len({id(v) for v in values.values()}) == len(doc["entries"])
    shared[0]["decimal"] = "changed"
    assert shared[1]["decimal"] != "changed"


def test_report_prints_exponents_past_the_int_str_limit():
    # u(4800) has a binary exponent of more than 4300 decimal digits
    ug = u_g(4800)
    assert len(decimal_str(ug.exp)) > 4300
    doc = json.loads(json.dumps(full_report(BoundParams(1, 4800, 6, 1)).to_dict()))
    value = next(e["value"] for e in doc["entries"] if e["formula_id"] == "eq_fhux")
    assert decimal.Decimal(value["exponent"]) > ug.exp
    exponent10 = value["decimal"].split("e+")[1]
    assert len(exponent10) > 4300 and decimal.Decimal(exponent10) > 0


def test_entry_rejects_unknown_target():
    with pytest.raises(ValueError):
        BoundEntry("x", "unknown", LogMag.zero(128, UP), False)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(2, 3),
    st.integers(1, 30),
    st.integers(1, 30),
    st.integers(0, 10),
)
def test_monotone_in_ns_dk(d, g, n_s, d_k, bump):
    small = BoundParams(d, g, n_s, d_k)
    large = BoundParams(d, g, n_s + bump, d_k + bump)
    assert thm_cyclic_bound(small, 64) <= thm_cyclic_bound(large, 64)
    assert mu_upper(small, 64) <= mu_upper(large, 64)


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(st.integers(1, 100), st.integers(1, 100)).map(
        lambda t: 1 + Fraction(t[0], t[1])
    ),
    st.tuples(st.integers(0, 100), st.integers(1, 100)).map(
        lambda t: Fraction(t[0], t[1])
    ),
)
def test_monotone_in_height_inputs(h1, bump2):
    h2 = h1 + bump2
    assert khadjavi_degB_bound(1, 2, 2, h1, 64) <= khadjavi_degB_bound(1, 2, 2, h2, 64)
    assert zhang_height_bound(h1, 2, 1, 64) <= zhang_height_bound(h2, 2, 1, 64)
    assert noether_ex_bound(h1, 2, None, 64) <= noether_ex_bound(h2, 2, None, 64)
    assert weierstrass_sum_bound(h1, 2, 64) <= weierstrass_sum_bound(h2, 2, 64)


def test_coarser_precision_rounds_further_up():
    phi_ish = Fraction(1618, 1000)
    cases = [
        lambda prec: thm_cyclic_bound(P2, prec),
        lambda prec: thm_hyper_bound(P2, prec),
        lambda prec: thm_genus2_bound(P2, prec),
        lambda prec: khadjavi_degB_bound(1, 2, 2, phi_ish, prec),
        lambda prec: mu_upper(P2, prec),
        lambda prec: noether_ex_bound(10, 2, None, prec),
        lambda prec: zhang_height_bound(Fraction(1, 3), 2, Fraction(1, 7), prec),
        lambda prec: pipeline_apriori(P2, precision=prec).entry("prop_5_3_i", "h").value,
    ]
    for fn in cases:
        assert fn(64) >= fn(256)
