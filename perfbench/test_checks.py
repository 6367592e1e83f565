"""The output checks accept real reports and reject corrupted ones.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from checks import BOUND_DPS, Checker, CheckError, closed_forms  # noqa: E402
from run import call  # noqa: E402
from smallpoints.cli import main  # noqa: E402


def _report(argv: list[str]) -> dict:
    rc, out = call(main, argv)
    assert rc == 0
    return json.loads(out)


def _check(workload: str, op: dict, doc: dict) -> None:
    Checker(workload).check(op, json.dumps(doc))


def _shift_up(value: dict, bits: int) -> dict:
    """The LogMag value times about 1 + 2^-bits."""
    man = int(value["mantissa_hex"], 16)
    man += man >> bits
    out = dict(value, mantissa_hex=hex(man))
    if man >> value["precision"]:
        out.update(mantissa_hex=hex(man >> 1), exponent=str(int(value["exponent"]) + 1))
    return out


def _rounded_down(value: dict) -> dict:
    """The value cut to 32 bits and lowered by one unit in the last place."""
    shift = value["precision"] - 32
    man = ((int(value["mantissa_hex"], 16) >> shift) - 1) << shift
    return dict(value, mantissa_hex=hex(man))


def _closed_form_rounded_down(log2_value, value: dict) -> dict:
    """2^log2_value rounded down to 64 bits, less one unit in the last
    place, in the shape of the serialized value."""
    with mpmath.workdps(BOUND_DPS):
        e = int(mpmath.floor(log2_value)) + 1
        man = int(mpmath.floor(mpmath.power(2, log2_value - e + 64))) - 1
    return dict(value, mantissa_hex=hex(man << (value["precision"] - 64)), exponent=str(e))


@pytest.fixture(scope="module")
def rational_case():
    op = corpus.rational_curve(random.Random(4), 5, False)
    return op, _report(op["argv"])


@pytest.fixture(scope="module")
def hard_case():
    op = corpus.hard_round(1)[0]  # x^5 - 4x^3 + 3x, with irrational lambdas
    return op, _report(op["argv"])


@pytest.fixture(scope="module")
def bound_group():
    ops = corpus.bound_round(1, 0)[:3]
    return ops, [_report(op["argv"]) for op in ops]


def test_real_reports_pass(rational_case, hard_case, bound_group):
    _check("rational_batch", *rational_case)
    _check("hard_repeat", *hard_case)
    checker = Checker("bound_grid")
    for op, doc in zip(*bound_group):
        checker.check(op, json.dumps(doc))


def test_changed_rational_lambda_is_rejected(rational_case):
    op, doc = rational_case
    bad = copy.deepcopy(doc)
    lam = bad["curve"]["normalization"]["records"][0]["lambda"]
    lam["value"] = str(1 + Fraction(lam["value"]))
    with pytest.raises(CheckError, match="cross-ratio"):
        _check("rational_batch", op, bad)


def test_changed_algebraic_lambda_is_rejected(hard_case):
    op, doc = hard_case
    bad = copy.deepcopy(doc)
    rec = next(r for r in bad["curve"]["normalization"]["records"]
               if r["lambda"]["kind"] == "algebraic")
    rec["lambda"]["approx"][0] += 1e-3
    with pytest.raises(CheckError, match="cross-ratio"):
        _check("hard_repeat", op, bad)


@pytest.mark.parametrize("case", ["rational_case", "hard_case"])
def test_height_moved_off_the_value_is_rejected(case, request):
    op, doc = request.getfixturevalue(case)
    workload = "rational_batch" if case == "rational_case" else "hard_repeat"
    bad = copy.deepcopy(doc)
    rec = next(r for r in bad["curve"]["normalization"]["records"]
               if int(r["height"]["upper"]["mantissa_hex"], 16))
    rec["height"] = {k: _shift_up(v, 24) for k, v in rec["height"].items()}
    with pytest.raises(CheckError, match="misses"):
        _check(workload, op, bad)


def test_missing_bad_prime_is_rejected(rational_case):
    op, doc = rational_case
    bad = copy.deepcopy(doc)
    bad["curve"]["s_primes"] = bad["curve"]["s_primes"][:-1]
    with pytest.raises(CheckError, match="S misses"):
        _check("rational_batch", op, bad)


@pytest.mark.parametrize("fid", ["thm_1_1", "thm_1_2"])
def test_bound_rounded_down_is_rejected(bound_group, fid):
    ops, docs = bound_group
    bad = copy.deepcopy(docs[0])
    entry = next(e for e in bad["entries"] if e["formula_id"] == fid)
    entry["value"] = _closed_form_rounded_down(closed_forms(ops[0]["params"])[fid], entry["value"])
    with pytest.raises(CheckError, match="below the closed form"):
        _check("bound_grid", ops[0], bad)


def test_bound_decreasing_in_n_s_is_rejected(bound_group):
    ops, docs = bound_group
    bad = copy.deepcopy(docs)
    entry = next(e for e in bad[2]["entries"] if e["formula_id"] == "lem_5_2_i")
    entry["value"] = next(e for e in bad[0]["entries"] if e["formula_id"] == "lem_5_2_i")["value"]
    entry["value"] = _rounded_down(entry["value"])
    checker = Checker("bound_grid")
    checker.check(ops[0], json.dumps(bad[0]))
    checker.check(ops[1], json.dumps(bad[1]))
    with pytest.raises(CheckError, match="decreases"):
        checker.check(ops[2], json.dumps(bad[2]))
