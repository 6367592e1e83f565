"""Command line interface: exit codes, output shapes, determinism."""

import ast
import contextlib
import dataclasses
import gc
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from oracles import logmag_document, report_document
from smallpoints.bounds import BoundParams, BoundReport, full_report, pipeline_apriori
import smallpoints.algebraic as algebraic
import smallpoints.cli as cli
from smallpoints.cli import TSV_HEADER, _precision, dumps_indented, main
from smallpoints.curve import analyze_curve
import smallpoints.numeric as numeric
from smallpoints.numeric import decimal_str
from test_bounds import REPORT_SCHEMA
from test_golden import ANALYZE, HEIGHTS, OTHER, _bound_commands, fresh_interpreter
from test_history import check_history_free
from test_numeric import digits_past_the_int_str_limit
from test_polynomial import OVERSIZED_COEFFICIENTS, forbid_oversized_polys

X5X = "y^2 = x^5 - x"
# x(x-1)(x+1)(x^2+x-1): squarefree, four rational branch points, disc 20
G2B = "y^2 = x^5 + x^4 - 2*x^3 - x^2 + x"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["bound", "--d", "2", "--g", "5", "--ns", "30030", "--precision", "2048", "--cdelta", "-7",
     "--zograf"],
    ["analyze", "--curve", "y^2 = x^5 - x", "--precision", "512"],
])
def test_output_does_not_depend_on_the_constant_tables(argv):
    """A report printed right after every table, the constant, ln
    reduction and 2**(j/256) tables among them, is emptied is byte for
    byte the one printed again from warm tables, and refills those two."""
    filled = check_history_free([argv], [])
    assert {numeric._reduction_table, numeric._two_power_table} <= filled


# ---------------------------------------------------------------------------
# analyze


def test_analyze_x5x_json(capsys):
    code, out, err = run(capsys, ["analyze", "--curve", X5X])
    assert code == 0
    doc = json.loads(out)
    curve = doc["curve"]
    assert curve["genus"] == 2
    assert curve["s_primes"] == [2]
    assert curve["n_s"] == "2"
    assert curve["parshin_exceptions"] == []
    for rec in curve["normalization"]["records"]:
        assert rec["lambda_s_unit"] is True
        assert rec["one_minus_lambda_s_unit"] is True
    jsonschema.validate(doc["bounds"], REPORT_SCHEMA)
    assert doc["bounds"]["comparison"]["sharper_chain"] == "apriori"


def test_analyze_reports_both_pipelines(capsys):
    code, out, _ = run(capsys, ["analyze", "--curve", X5X])
    assert code == 0
    ids = {e["formula_id"] for e in json.loads(out)["bounds"]["entries"]}
    assert {"thm_1_1", "thm_1_3", "intro_genus2"} <= ids
    assert {"lem_4_2", "lem_4_1", "lem_4_3", "lem_4_4_i"} <= ids


def test_analyze_tsv_shape(capsys):
    code, out, _ = run(capsys, ["analyze", "--curve", X5X, "--format", "tsv"])
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "curve\tg\tN_S\tlog10_thm_bound\tlog10_empirical_bound\tsharper_chain"
    cells = lines[1].split("\t")
    assert len(cells) == 6
    assert cells[0] == "y^2 = x^5 - x"
    assert cells[1] == "2" and cells[2] == "2"
    assert math.isclose(float(cells[3]), 1030102.9996, rel_tol=1e-9)
    assert cells[5] == "apriori"


def altered_analysis(**changes):
    """A copy of the analysis of X5X with these fields replaced."""
    return analyze_curve(X5X)._replace(**changes)


def test_reports_print_ints_past_the_int_str_limit(capsys, monkeypatch):
    digits, big = digits_past_the_int_str_limit()
    monkeypatch.setattr(cli, "analyze_curve",
                        lambda *args, **kwargs: altered_analysis(disc=-big))
    code, out, _ = run(capsys, ["analyze", "--curve", X5X])
    assert code == 0
    assert json.loads(out)["curve"]["discriminant"] == "-" + digits
    monkeypatch.setattr(cli, "analyze_curve",
                        lambda *args, **kwargs: altered_analysis(n_s=big))
    code, out, _ = run(capsys, ["analyze", "--curve", X5X, "--format", "tsv"])
    assert code == 0
    assert out.split("\n")[1].split("\t")[2] == digits
    # the curve report prints N_S as a string, the bound report's echo as a
    # bare number, which json.dumps refuses past 4300 digits
    code, out, _ = run(capsys, ["analyze", "--curve", X5X])
    assert code == 0
    assert f'"n_s": "{digits}",' in out and f'"n_s": {digits},' in out


def test_analyze_genus_too_small_exits_1(capsys):
    code, _, err = run(capsys, ["analyze", "--curve", "y^2 = x^4 - 1"])
    assert code == 1
    assert "genus < 2" in err


def test_analyze_zero_curve_names_the_zero_polynomial(capsys):
    code, out, err = run(capsys, ["analyze", "--curve", "y^2 = 0"])
    assert code == 1 and out == ""
    assert err == "smallpoints: the right hand side is the zero polynomial\n"


def test_analyze_unparseable_curve_exits_1(capsys):
    code, _, err = run(capsys, ["analyze", "--curve", "y^2 = zebra"])
    assert code == 1
    assert err


def test_analyze_integer_power_prints_the_expanded_report(capsys):
    code, out, err = run(capsys, ["analyze", "--curve", "y^2 = x^5 - 2^10"])
    assert (code, err) == (0, "")
    assert out == run(capsys, ["analyze", "--curve", "y^2 = x^5 - 1024"])[1]


def test_analyze_power_of_a_fraction_literal_exits_1(capsys):
    code, out, err = run(capsys, ["analyze", "--curve", "y^2 = x^5 - 3/2^2"])
    assert code == 1 and out == ""
    assert "write (3/2)^2" in err and "Traceback" not in err


@pytest.mark.parametrize("curve", [
    "y^2 = x^1000000 - 1",
    "y^2 = x^5 - ((((2)^256)^256)^256)^256",
    *(pytest.param(f"y^2 = {p.values[0]}", id=p.id) for p in OVERSIZED_COEFFICIENTS),
])
def test_analyze_oversized_curve_exits_1_before_expanding(monkeypatch, capsys, curve):
    forbid_oversized_polys(monkeypatch)
    code, out, err = run(capsys, ["analyze", "--curve", curve])
    assert code == 1
    assert out == ""
    assert "exceeds the limit" in err


ISOLATION_FAILURE = "root isolation did not certify at the precision cap"


def isolation_gives_up(monkeypatch, min_degree: int) -> None:
    """Make root isolation raise, as at its precision cap, on every
    polynomial of at least this degree.  Callers take the fresh_tables
    fixture, so that no earlier analysis holds the boxes it would give."""
    isolate = algebraic.isolate_roots

    def failing(f, *args):
        if f.degree() >= min_degree:
            raise RuntimeError(ISOLATION_FAILURE)
        return isolate(f, *args)

    monkeypatch.setattr(algebraic, "isolate_roots", failing)


def test_analyze_computation_giving_up_exits_2_in_one_line(monkeypatch, fresh_tables, capsys):
    isolation_gives_up(monkeypatch, 5)
    code, out, err = run(capsys, ["analyze", "--curve", "y^2 = x^5 - 2"])
    assert code == 2
    assert out == ""
    assert err == f"smallpoints: internal error: {ISOLATION_FAILURE}\n"


def test_analyze_factored_curve_matches_expanded(capsys):
    code, factored, _ = run(capsys, ["analyze", "--curve", "y^2 = x*(x-1)*(x-2)*(x-3)*(x-5)"])
    assert code == 0
    expanded = "y^2 = x^5 - 11*x^4 + 41*x^3 - 61*x^2 + 30*x"
    assert (code, factored) == run(capsys, ["analyze", "--curve", expanded])[:2]


@pytest.mark.parametrize("rhs", ["x*(x-1", "x^3*(x-1)^-2", "x^5*(x-1)^(1/2)"])
def test_analyze_malformed_product_exits_1(capsys, rhs):
    code, out, err = run(capsys, ["analyze", "--curve", f"y^2 = {rhs}"])
    assert code == 1
    assert out == ""
    assert err.startswith("smallpoints: cannot parse polynomial")


def test_analyze_zero_denominator_exits_1(capsys):
    code, out, err = run(capsys, ["analyze", "--curve", "y^2 = x^5 - 1/0"])
    assert code == 1
    assert out == ""
    assert err.startswith("smallpoints: ") and "zero denominator" in err


# x(x-1)...(x-12) and x(x-1)...(x-10): genus 6 and 5, four rational branch points
FALLING_13 = (
    "y^2 = x^13 - 78*x^12 + 2717*x^11 - 55770*x^10 + 749463*x^9 - 6926634*x^8"
    " + 44990231*x^7 - 206070150*x^6 + 657206836*x^5 - 1414014888*x^4"
    " + 1931559552*x^3 - 1486442880*x^2 + 479001600*x"
)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_analyze_genus6_bound_past_float_range(capsys):
    """The genus-6 empirical bound has an exponent thousands of bits long:
    its log10 is null in strict JSON and inf in the tsv column."""
    code, out, _ = run(capsys, ["analyze", "--curve", FALLING_13])
    assert code == 0
    comparison = json.loads(out, parse_constant=_reject_constant)["bounds"]["comparison"]
    assert comparison["empirical"]["formula_id"] == "lem_4_3"
    assert comparison["empirical"]["log10_of_bound"] is None
    assert comparison["empirical"]["ln_of_bound"]["rounding"] == "up"
    code, out, _ = run(capsys, ["analyze", "--curve", FALLING_13, "--format", "tsv"])
    assert code == 0
    cells = out.rstrip("\n").split("\n")[1].split("\t")
    assert cells[1] == "6" and cells[4] == "inf"


def test_analyze_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["analyze", "--curve", X5X, "--out", str(path)])
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["curve"]["equation"] == "y^2 = x^5 - x"


def test_unwritable_out_path_exits_1(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys, ["bound", "--d", "1", "--g", "2", "--ns", "6", "--out", str(path)]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("smallpoints: ") and str(path) in err


# ---------------------------------------------------------------------------
# bound


def test_bound_genus2_report(capsys):
    code, out, _ = run(capsys, ["bound", "--d", "1", "--g", "2", "--ns", "10", "--dk", "1"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    byid = {(e["formula_id"], e["target"]): e for e in doc["entries"]}
    thm = byid[("thm_1_3", "h")]
    # (5 N_S)^(2 nu) at d=1, g=2, N_S=10 is exactly 10^1100000
    assert thm["value"]["decimal"].endswith("e+1100000")
    assert doc.get("comparison") is None


def test_bound_abc_flag_adds_one_caveat_and_no_entry(capsys):
    base = ["bound", "--d", "1", "--g", "2", "--ns", "30"]
    code, out, _ = run(capsys, base)
    assert code == 0
    plain = json.loads(out)
    for abc in ("2,2", "3/2,5/4,1", "2,3,7"):
        code, out, _ = run(capsys, base + ["--abc", abc])
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == plain["entries"]
        assert doc["caveats"] == plain["caveats"] + [cli.ABC_CAVEAT]
        assert doc["inputs"] == plain["inputs"] and doc["inputs"]["abc"] is None
        assert "defaulted to 0" not in out


@pytest.mark.parametrize("curve, flags", [
    (X5X, ["--zograf"]),
    ("y^2 = x*(x-1)*(x-2)*(x-3)*(x-5)", []),
])
def test_abc_flag_changes_no_bound_and_no_verdict(capsys, curve, flags):
    argv = ["analyze", "--curve", curve] + flags
    code, out, _ = run(capsys, argv)
    assert code == 0
    plain = json.loads(out)["bounds"]
    code, out, _ = run(capsys, argv + ["--abc", "2,2"])
    assert code == 0
    with_abc = json.loads(out)["bounds"]
    assert with_abc["caveats"] == plain["caveats"] + [cli.ABC_CAVEAT]
    assert with_abc["comparison"] == plain["comparison"]
    assert with_abc["entries"] == plain["entries"]
    if flags:
        # the abc row lem_4_6_ii once won this comparison with its constant set to 0
        assert plain["comparison"]["sharper_chain"] == "empirical"


def test_bound_genus3_needs_cdelta_for_delta_formulas(capsys):
    code, out, _ = run(capsys, ["bound", "--d", "1", "--g", "3", "--ns", "2"])
    assert code == 0
    doc = json.loads(out)
    ids = {e["formula_id"] for e in doc["entries"]}
    assert "lem_4_3" not in ids
    assert any("delta-invariant" in c for c in doc["caveats"])


def test_bound_genus3_with_cdelta_passthrough(capsys):
    code, out, _ = run(
        capsys, ["bound", "--d", "1", "--g", "3", "--ns", "2", "--cdelta", "-1000"]
    )
    assert code == 0
    ids = {e["formula_id"] for e in json.loads(out)["entries"]}
    assert "lem_4_3" in ids and "lem_4_4_i" in ids


def test_bound_formula_filter(capsys):
    code, out, _ = run(
        capsys,
        ["bound", "--d", "1", "--g", "2", "--ns", "10", "--formula", "thm_1_3"],
    )
    assert code == 0
    doc = json.loads(out)
    assert {e["formula_id"] for e in doc["entries"]} == {"thm_1_3"}
    assert len(doc["entries"]) == 2  # h_NT and h targets


def test_bound_formula_needs_cdelta_exits_1(capsys):
    code, _, err = run(
        capsys,
        ["bound", "--d", "1", "--g", "3", "--ns", "2", "--formula", "lem_4_3"],
    )
    assert code == 1
    assert "lem_4_3" in err and "c_delta" in err


def test_bound_unknown_formula_exits_1(capsys):
    code, _, err = run(
        capsys,
        ["bound", "--d", "1", "--g", "2", "--ns", "10", "--formula", "thm_9_9"],
    )
    assert code == 1
    assert "thm_9_9" in err


@pytest.mark.parametrize("fid, message", [
    ("thm_9_9", "smallpoints: unknown formula thm_9_9"),
    ("prop_3_4_i", "smallpoints: unknown formula prop_3_4_i"),
    # a known id that these inputs gate off
    ("intro_genus2", "smallpoints: no formula intro_genus2 for these inputs"),
])
def test_bound_formula_error_tells_unknown_from_gated(capsys, fid, message):
    code, out, err = run(
        capsys, ["bound", "--d", "2", "--g", "2", "--ns", "10", "--abc", "2,2", "--formula", fid]
    )
    assert (code, out, err) == (1, "", message + "\n")


@pytest.mark.parametrize("g, thm_id", [(2, "thm_1_3"), (3, "thm_1_1")])
@pytest.mark.parametrize("formula", [[], ["--formula", "thm_1_1"]])
def test_bound_tsv_reads_the_theorem_entry(capsys, g, thm_id, formula):
    code, out, _ = run(
        capsys, ["bound", "--d", "1", "--g", str(g), "--ns", "10", "--format", "tsv", *formula]
    )
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == TSV_HEADER
    cells = lines[1].split("\t")
    expected = pipeline_apriori(BoundParams(1, g, 10, 1)).entry(thm_id, "h").value.log10_float()
    assert cells == ["-", str(g), "10", repr(expected), "-", "-"]


def test_in_process_calls_share_no_state(capsys):
    """main reuses one parser: a flag given in one call is gone in the next."""
    base = ["bound", "--d", "1", "--g", "2", "--ns", "10"]
    code, out, _ = run(capsys, base + ["--formula", "thm_1_1"])
    assert code == 0
    assert {e["formula_id"] for e in json.loads(out)["entries"]} == {"thm_1_1"}
    code, out, _ = run(capsys, base)
    assert code == 0
    plain = json.loads(out)
    assert len({e["formula_id"] for e in plain["entries"]}) > 1
    assert plain["inputs"]["use_zograf"] is False
    code, out, _ = run(capsys, base + ["--zograf"])
    assert code == 0
    assert json.loads(out)["inputs"]["use_zograf"] is True
    code, out, _ = run(capsys, base)
    assert code == 0
    assert json.loads(out) == plain


def test_bound_invalid_genus_exits_1(capsys):
    code, _, err = run(capsys, ["bound", "--d", "1", "--g", "1", "--ns", "2"])
    assert code == 1
    assert err


def test_bound_genus_past_the_limit_exits_1_and_below_it_reports(capsys):
    code, out, err = run(capsys, ["bound", "--d", "1", "--g", str(cli._MAX_GENUS + 1), "--ns", "6"])
    assert code == 1 and not out
    assert err == f"smallpoints: genus must be at most {cli._MAX_GENUS}\n"
    # u(4800) has an exponent of more than 4300 digits, past str's limit
    code, out, err = run(capsys, ["bound", "--d", "1", "--g", "4800", "--ns", "6"])
    assert code == 0 and out and not err


def test_bound_computation_giving_up_exits_2_in_one_line(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise RuntimeError("bound chain gave up")

    monkeypatch.setattr(cli, "full_report", failing)
    code, out, err = run(capsys, ["bound", "--d", "1", "--g", "2", "--ns", "30"])
    assert code == 2
    assert out == ""
    assert err == "smallpoints: internal error: bound chain gave up\n"


def test_bound_zograf_enables_empirical_chain(capsys):
    code, out, _ = run(
        capsys, ["bound", "--d", "1", "--g", "2", "--ns", "2", "--zograf"]
    )
    assert code == 0
    doc = json.loads(out)
    ids = [e["formula_id"] for e in doc["entries"]]
    assert "zograf" in ids and "lem_4_1" in ids
    # the asserted Belyi degree 128(g+1) is polynomial in g, so the
    # empirical chain beats the tower-exponent a-priori route
    assert doc["comparison"]["sharper_chain"] == "empirical"


def test_precision_below_32_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--d", "1", "--g", "2", "--ns", "2", "--precision", "16"])
    assert exc.value.code == 1


def test_precision_above_16384_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--d", "1", "--g", "2", "--ns", "6", "--precision", "16385"])
    assert exc.value.code == 1
    assert "precision must be between 32 and 16384 bits" in capsys.readouterr().err
    assert _precision("16384") == 16384


def test_bad_abc_triple_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--d", "1", "--g", "2", "--ns", "2", "--abc", "2"])
    assert exc.value.code == 1


@pytest.mark.parametrize("eps", ["0", "-1/2"])
def test_nonpositive_epsilon_exits_1(capsys, eps):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--d", "1", "--g", "2", "--ns", "6", f"--epsilon={eps}"])
    assert exc.value.code == 1
    assert "argument --epsilon: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# batch


def corpus_file(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def test_batch_deterministic_bytes(tmp_path, capsys):
    corpus = corpus_file(
        tmp_path, [json.dumps({"curve": X5X}), json.dumps({"curve": G2B})]
    )
    out1, out2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    code1, _, _ = run(capsys, ["batch", corpus, "--out", str(out1)])
    code2, _, _ = run(capsys, ["batch", corpus, "--out", str(out2)])
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().rstrip("\n").split("\n")
    assert len(lines) == 3  # one report per curve plus the summary
    summary = json.loads(lines[-1])["summary"]
    assert summary["parshin_ok"] == "2/2"
    assert summary["failed"] == 0
    assert summary["min_log10_thm_bound"] <= summary["max_log10_thm_bound"]


def test_batch_lines_do_not_depend_on_order(tmp_path, capsys):
    curves = ["y^2 = x^5 - 4*x^3 + 3*x", "y^2 = x^6 - 6*x^4 + 11*x^2 - 6", X5X]
    lines = {}
    for order in (curves, curves[::-1]):
        corpus = corpus_file(tmp_path, [json.dumps({"curve": c}) for c in order])
        code, out, _ = run(capsys, ["batch", corpus])
        assert code == 0
        for curve, line in zip(order, out.rstrip("\n").split("\n")):
            lines.setdefault(curve, []).append(line)
    assert all(first == second for first, second in lines.values())


def test_batch_partial_failure_exits_3(tmp_path, capsys):
    corpus = corpus_file(
        tmp_path,
        [
            json.dumps({"curve": X5X}),
            "not json at all",
            json.dumps({"curve": "y^2 = x^2"}),
            json.dumps({"curve": 5}),
            json.dumps({"curve": None}),
            json.dumps({"curve": X5X}),
        ],
    )
    code, out, _ = run(capsys, ["batch", corpus])
    assert code == 3
    lines = out.rstrip("\n").split("\n")
    docs = [json.loads(l) for l in lines]
    errors = [d for d in docs if "error" in d]
    assert len(errors) == 4
    assert {e["line"] for e in errors} == {2, 3, 4, 5}
    summary = docs[-1]["summary"]
    assert summary["failed"] == 4 and summary["parshin_ok"] == "2/2"


def test_batch_reports_zero_denominator_line(tmp_path, capsys):
    corpus = corpus_file(
        tmp_path, [json.dumps({"curve": "y^2 = x^5 - 1/0"}), json.dumps({"curve": X5X})]
    )
    code, out, _ = run(capsys, ["batch", corpus])
    assert code == 3
    docs = [json.loads(l) for l in out.rstrip("\n").split("\n")]
    assert docs[0] == {"line": 1, "error": "zero denominator in coefficient '1/0'"}
    assert docs[1]["curve"]["equation"] == X5X
    assert docs[2]["summary"]["failed"] == 1 and docs[2]["summary"]["parshin_ok"] == "1/1"


def test_batch_reports_zero_curve_line(tmp_path, capsys):
    corpus = corpus_file(
        tmp_path, [json.dumps({"curve": "y^2 = 0"}), json.dumps({"curve": X5X})]
    )
    code, out, _ = run(capsys, ["batch", corpus])
    assert code == 3
    docs = [json.loads(l) for l in out.rstrip("\n").split("\n")]
    assert docs[0] == {"line": 1, "error": "the right hand side is the zero polynomial"}
    assert docs[1]["curve"]["equation"] == X5X
    assert docs[2]["summary"]["failed"] == 1 and docs[2]["summary"]["parshin_ok"] == "1/1"


def test_batch_keeps_going_past_a_computation_giving_up(monkeypatch, fresh_tables, tmp_path, capsys):
    # only y^2 = x^5 - 2 has a branch point of degree 5 to isolate
    corpus = corpus_file(
        tmp_path, [json.dumps({"curve": c}) for c in (X5X, "y^2 = x^5 - 2", G2B)]
    )
    isolation_gives_up(monkeypatch, 5)
    code, out, _ = run(capsys, ["batch", corpus])
    assert code == 3
    docs = [json.loads(l) for l in out.rstrip("\n").split("\n")]
    assert docs[1] == {"line": 2, "error": f"internal error: {ISOLATION_FAILURE}"}
    assert [docs[i]["curve"]["genus"] for i in (0, 2)] == [2, 2]
    assert docs[3]["summary"]["failed"] == 1 and docs[3]["summary"]["parshin_ok"] == "2/2"


@contextlib.contextmanager
def unlimited_int_digits():
    """A context in which int and str convert any number of digits, so that
    json.loads and json.dumps take a line past the default limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_batch_line_past_the_int_str_limit_prints_every_digit(monkeypatch, tmp_path, capsys):
    # json.dumps refuses the bound report's bare n_s echo past 4300 digits;
    # batch writes that line in the same compact layout, every digit printed
    digits, big = digits_past_the_int_str_limit()
    monkeypatch.setattr(cli, "analyze_curve",
                        lambda *args, **kwargs: altered_analysis(n_s=big))
    corpus = corpus_file(tmp_path, [json.dumps({"curve": X5X}), json.dumps({"curve": X5X})])
    code, out, err = run(capsys, ["batch", corpus])
    assert (code, err) == (0, "")
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 3 and lines[0] == lines[1]
    with unlimited_int_digits():
        record = json.loads(lines[0])
        assert lines[0] == json.dumps(record)
    assert record["bounds"]["inputs"]["n_s"] == big
    assert record["curve"]["n_s"] == digits
    assert json.loads(lines[2])["summary"]["parshin_ok"] == "2/2"


def test_batch_empty_file_exits_0(tmp_path, capsys):
    corpus = corpus_file(tmp_path, [])
    code, out, _ = run(capsys, ["batch", corpus])
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["total"] == 0 and summary["parshin_ok"] == "0/0"


def test_batch_missing_file_exits_1(capsys):
    code, _, err = run(capsys, ["batch", "/nonexistent/corpus.jsonl"])
    assert code == 1
    assert err


def test_batch_tsv(tmp_path, capsys):
    corpus = corpus_file(tmp_path, [json.dumps({"curve": X5X})])
    code, out, err = run(capsys, ["batch", corpus, "--format", "tsv"])
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0].startswith("curve\tg\tN_S")
    assert len(lines) == 2
    assert json.loads(err)["summary"]["parshin_ok"] == "1/1"


# ---------------------------------------------------------------------------
# heights


def test_heights_rational(capsys):
    code, out, _ = run(capsys, ["heights", "3/4"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1
    lo = float(doc[0]["height"]["lower"]["decimal"])
    hi = float(doc[0]["height"]["upper"]["decimal"])
    assert lo <= math.log(4) <= hi
    assert hi - lo < 1e-20


def test_heights_polynomial_all_roots(capsys):
    code, out, _ = run(capsys, ["heights", "x^2-2"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 2
    for d in doc:
        hi = float(d["height"]["upper"]["decimal"])
        assert abs(hi - math.log(2) / 2) < 1e-15


def test_heights_root_index(capsys):
    code, out, _ = run(capsys, ["heights", "x^2-2:1"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1
    assert doc[0]["root_index"] == 1


def test_heights_index_out_of_range_exits_1(capsys):
    code, _, err = run(capsys, ["heights", "x^2-2:7"])
    assert code == 1
    assert "out of range" in err
    # the parser clears denominators, so the message shows 2 x^2 - 1
    code, _, err = run(capsys, ["heights", "x^2 - 1/2:5"])
    assert code == 1
    assert err == "smallpoints: 'x^2 - 1/2:5': root index 5 out of range for 2 x^2 - 1\n"


def test_heights_root_index_not_an_integer_exits_1(capsys):
    code, out, err = run(capsys, ["heights", "x^2-2:a"])
    assert (code, out) == (1, "")
    assert err == "smallpoints: 'x^2-2:a': root index 'a' is not an integer\n"


def test_analyze_flags_a_probabilistic_prime_once(capsys):
    # p = 2^64 + 13 divides lc f and disc f = 5^5 p^4
    p = 18446744073709551629
    code, out, _ = run(capsys, ["analyze", "--curve", f"y^2 = {p}*x^5 - 1"])
    assert code == 0
    caveats = json.loads(out)["curve"]["caveats"]
    assert caveats.count(f"primality of {p} in S is probabilistic") == 1
    assert caveats[0] == f"primality of {p} in S is probabilistic"


def test_heights_computation_giving_up_exits_2_in_one_line(monkeypatch, fresh_tables, capsys):
    # the rational is done before the quadratic's isolation gives up; no
    # partial document is printed
    isolation_gives_up(monkeypatch, 2)
    code, out, err = run(capsys, ["heights", "3/4", "x^2-2"])
    assert code == 2
    assert out == ""
    assert err == f"smallpoints: internal error: {ISOLATION_FAILURE}\n"


def test_heights_tsv(capsys):
    code, out, _ = run(capsys, ["heights", "7", "--format", "tsv"])
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "input\tdegree\theight_lower\theight_upper"
    assert lines[1].startswith("7\t1\t")


def test_heights_accepts_negative_rationals(capsys):
    # argparse's negative-number pattern has no "/", so -3/4 read as an
    # unknown option and the command lacked its values
    code, out, _ = run(capsys, ["heights", "-3/4", "-7"])
    assert code == 0
    doc = json.loads(out)
    assert [(d["input"], d["value"], d["degree"]) for d in doc] == [("-3/4", "-3/4", 1),
                                                                    ("-7", "-7", 1)]
    lo = float(doc[0]["height"]["lower"]["decimal"])
    hi = float(doc[0]["height"]["upper"]["decimal"])
    assert lo <= math.log(4) <= hi
    # the height of -3/4 is that of 3/4, and "--" still ends the options
    assert doc[0]["height"] == json.loads(run(capsys, ["heights", "3/4"])[1])[0]["height"]
    assert run(capsys, ["heights", "--", "-3/4"])[1] == run(capsys, ["heights", "-3/4"])[1]
    code, out, _ = run(capsys, ["heights", "-3/4", "--format", "tsv"])
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "input\tdegree\theight_lower\theight_upper"
    assert lines[1].startswith("-3/4\t1\t1.386294361")


@pytest.mark.parametrize(
    "argv, separated",
    [
        (["heights", "-x^2+2"], ["heights", "--", "-x^2+2"]),
        (["heights", "-(x^2-2)"], ["heights", "--", "-(x^2-2)"]),
        (["heights", "-2x^3+1"], ["heights", "--", "-2x^3+1"]),
        (["analyze", "--curve", "-x^5+3"], ["analyze", "--curve=-x^5+3"]),
    ],
    ids=["heights-x", "heights-paren", "heights-digit", "analyze-curve"],
)
def test_polynomials_with_a_leading_minus_are_values(capsys, argv, separated):
    # argparse read a token like -x^2+2 as an unknown option and exited 1
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert run(capsys, separated) == (0, out, "")


def test_heights_help_is_still_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["heights", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: smallpoints heights")


def test_heights_garbage_exits_1(capsys):
    code, _, err = run(capsys, ["heights", "zebra"])
    assert code == 1
    assert err


# ---------------------------------------------------------------------------
# precision of printed values


def _printed_logmags(doc):
    """Every serialized LogMag (an object with a mantissa_hex) in doc."""
    if isinstance(doc, dict) and "mantissa_hex" in doc:
        yield doc
    elif isinstance(doc, (dict, list)):
        for item in doc.values() if isinstance(doc, dict) else doc:
            yield from _printed_logmags(item)


@pytest.mark.parametrize(
    "argv, precision",
    [(["analyze", "--curve", "y^2 = x^6 - x", "--precision", str(p)], p) for p in (64, 128, 2048)]
    + [
        (["heights", "3/4", "x^2-2", "x^5-x:2"], 128),
        (["batch", str(Path(__file__).parent / "data" / "golden_batch.jsonl")], 128),
    ],
)
def test_every_printed_value_has_the_requested_precision(capsys, argv, precision):
    # the guard bits of the height enclosures stay inside the computation
    code, out, _ = run(capsys, argv)
    assert code in (0, 3)
    docs = [json.loads(line) for line in out.splitlines()] if argv[0] == "batch" else [json.loads(out)]
    values = list(_printed_logmags(docs))
    assert len(values) >= 8
    assert {v["precision"] for v in values} == {precision}


def test_exact_zero_height_is_rounded_both_ways(capsys):
    code, out, _ = run(capsys, ["heights", "x^2+1:0"])
    assert code == 0
    height = json.loads(out)[0]["height"]
    assert height["lower"]["decimal"] == height["upper"]["decimal"] == "0"
    assert (height["lower"]["rounding"], height["upper"]["rounding"]) == ("down", "up")


# ---------------------------------------------------------------------------
# the indented JSON writer


# quotes, backslashes, control characters, non-ASCII and astral characters
_STRING_CHARS = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "a", "Z", " ", "/",
                 "\u00e9", "\u2028", "\u03bb", "\ud7ff", "\ufffd", "\U0001f600", "\U0010ffff"]
_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, 0.1, -2.5,
           1e16, 1e-7, float("nan"), float("inf"), float("-inf")]


def _random_string(rng):
    return "".join(rng.choice(_STRING_CHARS) for _ in range(rng.randrange(8)))


def _random_leaf(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return _random_string(rng)
    if kind == 1:
        # either sign, up to 4,000 digits: under the int/str digit limit
        digits = rng.choice([1, 2, 19, 20, 300, 4000])
        return rng.choice([1, -1]) * rng.randrange(10**digits)
    if kind == 2:
        return rng.choice(_FLOATS)
    if kind == 3:
        # bools next to the ints that compare equal to them
        return rng.choice([True, False, 0, 1])
    if kind == 4:
        return None
    return rng.choice([{}, []])


def _random_document(rng, depth):
    """A dict, list or tuple nested up to depth levels, with empty {} and
    [] possible at every level."""
    kind = rng.randrange(3)
    n = rng.randrange(5)
    items = [
        _random_document(rng, depth - 1) if depth > 1 and rng.random() < 0.4 else _random_leaf(rng)
        for _ in range(n)
    ]
    if kind == 0:
        return {_random_string(rng): v for v in items}
    return items if kind == 1 else tuple(items)


@pytest.mark.parametrize("seed", range(40))
def test_writer_matches_json_dumps_on_random_documents(seed):
    rng = random.Random(seed)
    for depth in range(1, 6):
        doc = _random_document(rng, depth)
        assert dumps_indented(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("seed", range(20))
def test_compact_writer_matches_json_dumps_on_random_documents(seed):
    rng = random.Random(f"compact/{seed}")
    for depth in range(1, 6):
        doc = _random_document(rng, depth)
        parts = []
        cli._write_json(doc, parts.append, "")
        assert "".join(parts) == json.dumps(doc)
        assert cli.dumps_compact(doc) == json.dumps(doc)


def test_dumps_compact_prints_ints_past_the_int_str_limit():
    digits, big = digits_past_the_int_str_limit()
    doc = {"a": [big, -big, {"b": (1.5, None, "\u00e9")}], "c": {}, "d": []}
    with pytest.raises(ValueError):
        json.dumps(doc)
    text = cli.dumps_compact(doc)
    with unlimited_int_digits():
        assert text == json.dumps(doc)
    assert f"[{digits}, -{digits}, " in text


@pytest.mark.parametrize("value", [
    {}, [], (), "", "\"\\\u00e9\U0001f600", 0, -1, 10**4000, True, False, None,
    -0.0, 5e-324, float("nan"), float("inf"), float("-inf"),
    [[], {}, [[]], {"": {}}], {"a": ()}, {"a": (1, "b", [True, 1, False, 0])},
])
def test_writer_matches_json_dumps_at_the_edges(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {1: "int key"}, {1.5: 0}, {True: 0, None: 1}, {"a": {2: [3]}},
    [{"nested": {False: []}}], {"a": dataclasses}, [1, {1, 2}], {(1, 2): 0},
    {"a": float.__new__(type("F", (float,), {}), 1.5)},
])
def test_writer_leaves_other_types_to_json(value):
    # a key that is not a str, or a value of a type that no report holds
    # (a set, a module, a subclass of float), is not the writer's: it raises
    # TypeError, where json.dumps would convert some of them
    with pytest.raises(TypeError):
        dumps_indented(value)
    with pytest.raises(TypeError):
        cli.dumps_compact(value)


def _json_commands():
    commands = [a for a in _bound_commands() + ANALYZE + OTHER
                if a[0] in ("analyze", "bound", "heights") and "tsv" not in a]
    assert HEIGHTS in commands
    return commands


def test_json_commands_print_the_stdlib_indented_json(capsys):
    printed = 0
    for argv in _json_commands():
        code, out, _ = run(capsys, argv)
        if code != 0:
            # an unknown or gated --formula: an error line and no report
            assert (code, out) == (1, ""), argv
            continue
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        printed += 1
    assert printed > 40


def test_writer_prints_a_logmag_as_the_oracle_object():
    # at the top, in a list and in a dict, indented and compact: zero, a
    # negative value rounded down, and exponents of one to over 4300 digits
    values = [numeric.LogMag.zero(64, numeric.UP),
              numeric.LogMag.from_fraction(Fraction(-22, 7), 32, numeric.DOWN),
              numeric.lm_pow(Fraction(3, 7), 41, 128, numeric.DOWN),
              numeric.lm_pow(2, 10**4400, 512, numeric.UP)]
    for x in values:
        doc = [x, {"value": x, "pair": (x, [x])}]
        with unlimited_int_digits():
            oracle = logmag_document(x)
            oracle_doc = [oracle, {"value": oracle, "pair": [oracle, [oracle]]}]
            for obj, want in ((x, oracle), (doc, oracle_doc)):
                assert dumps_indented(obj) == json.dumps(want, indent=2)
                assert cli.dumps_compact(obj) == json.dumps(want)


def test_cli_is_the_one_json_writer():
    # no module calls json.dumps, and only cli imports json at all: for
    # json.loads of batch lines and for the C string escaper
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        names |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        dumps = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                 and n.attr in ("dump", "dumps") and isinstance(n.value, ast.Name)
                 and n.value.id == "json"]
        assert dumps == [], path.name
        assert ("json" in names) == (path.name == "cli.py"), path.name


def test_writer_leaves_no_reference_cycles():
    # a writer that recursed through a nested closure made every report a
    # cycle, freed only by the cyclic collector
    bound = full_report(BoundParams(d=1, g=2, n_s=30, d_k=1))
    analysis = analyze_curve(X5X)
    args = cli.build_parser().parse_args(["analyze", "--curve", X5X])
    curve_doc, rep = cli._analysis_documents(analysis, args)
    analyze_doc = {"curve": curve_doc, "bounds": rep}
    gc.collect()
    gc.disable()
    try:
        assert dumps_indented(bound) and dumps_indented(analyze_doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bound_report_echoes_n_s_past_the_int_str_limit():
    # json.dumps refuses an int of more than 4300 digits
    n_s = 7**6000
    text = dumps_indented(full_report(BoundParams(d=1, g=2, n_s=n_s, d_k=1)))
    assert len(decimal_str(n_s)) == 5071
    assert f'\n    "n_s": {decimal_str(n_s)},\n' in text


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _one_or_prime_product(rng) -> int:
    return 1 if rng.random() < 0.3 else math.prod(rng.sample(_PRIMES, rng.randrange(1, 7)))


def _writer_grid():
    """Seeded reports: g 2-12, d 1-3, N_S and D_K each 1 or a product of
    primes, c_delta asserted or not, zograf on or off, eps != 1, H_Lambda
    echoed or not, precision 32 to 2048, and the caveats and the curve that
    `analyze` adds; last, an N_S past the int/str digit limit."""
    rng = random.Random("report writer")
    for _ in range(60):
        g, d = rng.randrange(2, 13), rng.randrange(1, 4)
        c_delta = rng.choice([None, Fraction(-rng.randrange(1, 1000), rng.randrange(1, 9))])
        h_lambda = rng.choice([None, 1, Fraction(rng.randrange(10**6, 10**9), rng.randrange(1, 999))])
        extras = rng.choice([{}, {"extra_inputs": {"curve": "y^2 = x^5 - x"},
                                  "extra_caveats": [cli.ABC_CAVEAT]}])
        yield full_report(
            BoundParams(d, g, _one_or_prime_product(rng), _one_or_prime_product(rng), c_delta),
            H_Lambda=h_lambda,
            use_zograf=rng.random() < 0.5,
            eps=rng.choice([Fraction(1, 3), Fraction(5, 2), Fraction(1, 10**6)]),
            precision=rng.choice([32, 64, 128, 512, 2048]),
            **extras,
        )
    yield full_report(BoundParams(1, 2, 7**6000 * 11, 3), H_Lambda=12, precision=64)


def _layouts(rep) -> tuple[list[str], list[str]]:
    """The writer's texts of rep at depths 0 and 1 (in a dict and in a
    list), indented and compact, and the texts json.dumps writes for the
    oracle's document in the same places, which the oracle builds and
    json.dumps writes only without the int/str digit limit."""
    written = [dumps_indented(rep), dumps_indented({"curve": {}, "bounds": rep}),
               dumps_indented([rep]), cli.dumps_compact(rep)]
    with unlimited_int_digits():
        doc = report_document(rep)
        expected = [json.dumps(doc, indent=2), json.dumps({"curve": {}, "bounds": doc}, indent=2),
                    json.dumps([doc], indent=2), json.dumps(doc)]
    return written, expected


def test_report_writer_matches_the_oracle_document():
    for rep in _writer_grid():
        written, expected = _layouts(rep)
        assert written == expected, rep.inputs


def test_every_formula_subset_prints_the_oracle_document(capsys):
    argv = ["bound", "--d", "2", "--g", "3", "--ns", "30", "--dk", "7", "--epsilon", "1/5",
            "--precision", "64"]
    rep = full_report(BoundParams(2, 3, 30, 7), eps=Fraction(1, 5), precision=64)
    ids = list(dict.fromkeys(e.formula_id for e in rep.entries))
    assert len(ids) == 7 and any(e.note for e in rep.entries)
    for k in range(len(ids) + 1):
        for chosen in itertools.combinations(ids, k):
            sub = BoundReport(rep.inputs, [e for e in rep.entries if e.formula_id in chosen],
                              rep.caveats, rep.comparison)
            written, expected = _layouts(sub)
            assert written == expected, chosen
            if chosen:
                code, out, _ = run(capsys, argv + [a for f in chosen for a in ("--formula", f)])
                assert (code, out) == (0, expected[0] + "\n"), chosen


_LAZY_IMPORTS = """
import sys
from smallpoints import cli

curve_stack = [f"smallpoints.{m}" for m in ("curve", "algebraic", "polynomial", "roots", "intervals")]
assert cli.main(["bound", "--d", "1", "--g", "2", "--ns", "30"]) == 0
loaded = [m for m in curve_stack + ["dataclasses"] if m in sys.modules]
assert not loaded, loaded
assert cli.main(["heights", "3/4", "x^2-2"]) == 0
assert "smallpoints.curve" not in sys.modules
from smallpoints import BoundParams, analyze_curve, full_report
from smallpoints import *
assert analyze_curve("y^2 = x^5 - x").genus == 2
print("ok")
"""


def test_bound_and_heights_import_no_curve_module():
    proc = fresh_interpreter(["-c", _LAZY_IMPORTS], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
