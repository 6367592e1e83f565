"""Golden output of the `bound`, `analyze`, `heights` and `batch` commands.

`tests/data/golden_cli.json` stores, for each command below, its exit code
and the sha256 of its stdout.  A refactor of the bound chains must keep
every one of them byte-identical.  Regenerate the file only when a change
to the output is intended, and list that change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --regenerate

It prints each key whose digest changed, was added or was removed.

Every command runs in process.  Output depends on the argv alone, so the
`analyze` commands are checked twice, in list order and then reversed,
and the `bound` commands also in two seeded shuffled orders, each against
the same digests.  A `batch` corpus is named relative to this
directory, so its key is the same in every checkout.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import smallpoints
from smallpoints.cli import main

HERE = Path(__file__).parent
DATA = HERE / "data" / "golden_cli.json"


def _bound_commands() -> list[list[str]]:
    cmds = []
    for g, d, abc, cdelta, zograf, prec in itertools.product(
        (2, 3, 5), (1, 2), (None, "2,2"), (None, "-1000"), (False, True), (64, 2048)
    ):
        argv = ["bound", "--d", str(d), "--g", str(g), "--ns", "30", "--dk", "1" if d == 1 else "5"]
        if abc:
            argv += ["--abc", abc]
        if cdelta:
            argv += ["--cdelta", cdelta]
        if zograf:
            argv.append("--zograf")
        argv += ["--precision", str(prec)]
        cmds.append(argv)
    base = ["bound", "--d", "1", "--ns", "10"]
    for g in ("2", "3"):
        cmds.append(base + ["--g", g, "--format", "tsv"])
        cmds.append(base + ["--g", g, "--format", "tsv", "--formula", "thm_1_1"])
        cmds.append(base + ["--g", g, "--format", "tsv", "--zograf", "--abc", "2,2"])
        cmds.append(base + ["--g", g, "--formula", "lem_4_3", "--formula", "thm_1_1"])
        cmds.append(base + ["--g", g, "--formula", "prop_5_3_ii", "--abc", "3/2,5/4,1"])
        cmds.append(base + ["--g", g, "--formula", "zograf", "--zograf", "--epsilon", "1/3"])
        cmds.append(base + ["--g", g, "--formula", "thm_9_9"])
    # N_S*D_K = 1, where every a-priori power bound is its parameter-only
    # power alone
    cmds.append(["bound", "--d", "1", "--g", "2", "--ns", "1", "--dk", "1"])
    cmds.append(["bound", "--d", "2", "--g", "3", "--ns", "1", "--dk", "1", "--cdelta", "-7",
                 "--zograf", "--precision", "2048"])
    return cmds


X5X = "y^2 = x^5 - x"
# (x^2 - 1)(x^2 - 4)(x^2 - 9): six rational branch points
SIX = "y^2 = x^6 - 14*x^4 + 49*x^2 - 36"
# fewer than three rational branch points, so the normalization search
# runs on certified complex roots of cross-ratio minimal polynomials:
# (x^2 - 1)(x^2 - 2)(x^2 - 3) has two, x^5 - 2 only the one at infinity
IRRATIONAL = ["y^2 = x^6 - 6*x^4 + 11*x^2 - 6", "y^2 = x^5 - 2"]
# an irreducible quintic: every triple of branch points is irrational
QUINTIC = "y^2 = x^5 + 3*x^4 - 7*x^3 + 2*x - 11"

# all-rational curves on which several triples attain the least largest
# height exactly (ln 1975, ln 55): the first of them is the normalization
EXACT_TIES = [
    "y^2 = 175032900*x^8 + 866412855*x^7 - 1560455127*x^6 - 5044690581*x^5"
    " + 11846444159*x^4 - 5323984122*x^3 - 4462946380*x^2 + 4621001400*x - 1115920000",
    "y^2 = 1347570*x^7 - 10083219*x^6 - 433846*x^5 + 40411773*x^4 - 38942274*x^3"
    " + 1145767*x^2 + 9300102*x - 2268945",
]

# fewer than three rational branch points, with exact ties among the
# triples: the 64-bit upper bounds of the search tie, so the first
# triple, (0, 1, 2), is the normalization
TIED_IRRATIONAL = ["y^2 = x^5 - 1", "y^2 = x^6 - x"]

# the other curves of the hard_repeat benchmark workload, so that every one
# of them is pinned here; x^6 + 1 has no real root
HARD = [
    "y^2 = x^5 - 4*x^3 + 3*x",
    "y^2 = x^6 - 7*x^4 + 6*x^2 - 1",
    "y^2 = x^6 - 1",
    "y^2 = x^6 + 1",
]

# fewer than three rational branch points, where the degree cap skips some
# of the triples but not all: 48, 48 and 21 of 60
PARTIAL_CAP = [
    "y^2 = x*(x^4 + x + 1)",
    "y^2 = (x^2 - 3)*(x^3 - 2)*(x - 1)",
    "y^2 = (x^2 - 2)*(x^3 - x - 1)",
]

ANALYZE = [
    ["analyze", "--curve", X5X],
    ["analyze", "--curve", X5X, "--abc", "2,2", "--zograf", "--format", "tsv"],
    ["analyze", "--curve", SIX],
    ["analyze", "--curve", SIX, "--abc", "2,2", "--cdelta", "-1000", "--precision", "2048"],
    ["analyze", "--curve", SIX, "--format", "tsv"],
    ["analyze", "--curve", IRRATIONAL[0], "--format", "tsv"],
] + [["analyze", "--curve", c] for c in IRRATIONAL] + [
    # curves with denominators, which parse_curve clears to an integral model
    ["analyze", "--curve", "y^2 = 1/6*x^5 - 7/4*x + 1/3"],
    ["analyze", "--curve", "y^2 = (2/3*x + 1)^5 + 1/9", "--format", "tsv"],
] + [["analyze", "--curve", c] for c in EXACT_TIES + TIED_IRRATIONAL + HARD + PARTIAL_CAP] + [
    # JSON reports of the zograf chain, which ignores H_Lambda but still
    # echoes it among the inputs
    ["analyze", "--curve", X5X, "--zograf"],
    ["analyze", "--curve", "y^2 = x^6 - 1", "--zograf", "--epsilon", "1/3", "--cdelta", "-7"],
]

# a rational, an irrational, one root of a polynomial, and a polynomial
# that is not squarefree: each distinct root once
HEIGHTS = ["heights", "3/4", "x^2-2", "x^5-x:2", "(x^2+1)^2*(x-3)"]
# the corpus holds a blank line, a line that is not JSON and a singular
# model, so the batch exits 3
OTHER = [
    HEIGHTS,
    HEIGHTS + ["--format", "tsv"],
    ["batch", "data/golden_batch.jsonl"],
    # polynomials with denominators, which the parser clears
    ["heights", "1/2*x^2 - 1/3", "(1/2*x - 1/3)^2*(x + 1)"],
]


def _digest(code: int, out: str) -> dict:
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}


def run_in_process(argv: list[str]) -> dict:
    argv = [str(HERE / a) if a.startswith("data/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return _digest(code, out.getvalue())


def fresh_interpreter(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """`python *args` in a new interpreter that imports this checkout's
    package: a cold process, killed after timeout seconds."""
    env = dict(os.environ)
    src = str(Path(smallpoints.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def _key(argv: list[str]) -> str:
    return " ".join(argv)


def _current() -> dict:
    return {_key(a): run_in_process(a) for a in _bound_commands() + ANALYZE + OTHER}


def _check(commands):
    stored = json.loads(DATA.read_text())
    wrong = []
    for argv in commands:
        key = _key(argv)
        assert key in stored, f"no golden record for {key!r}; regenerate"
        if run_in_process(argv) != stored[key]:
            wrong.append(key)
    assert wrong == []


def test_golden_file_covers_every_command():
    stored = json.loads(DATA.read_text())
    assert set(stored) == {_key(a) for a in _bound_commands() + ANALYZE + OTHER}


def test_bound_output_matches_golden():
    _check(_bound_commands())


def test_bound_output_matches_golden_in_shuffled_orders():
    # one process, two seeded orders: each command runs after a different
    # history of the process-wide tables (powers, N_S*D_K power, constants,
    # the 2**(j/256) entries)
    for seed in (1, 2):
        commands = _bound_commands()
        random.Random(f"golden-bound/{seed}").shuffle(commands)
        _check(commands)


def test_analyze_output_matches_golden():
    # the reversed pass runs each command after the ones that followed it
    _check(ANALYZE)
    _check(ANALYZE[::-1])


def test_heights_and_batch_output_match_golden():
    _check(OTHER)


@pytest.mark.parametrize("curve", ["y^2 = x^5 - 2", QUINTIC])
def test_hard_curves_finish_in_a_minute(curve):
    argv = ["-m", "smallpoints.cli", "analyze", "--curve", curve]
    assert fresh_interpreter(argv, timeout=60).returncode == 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    old = json.loads(DATA.read_text()) if DATA.exists() else {}
    new = _current()
    for label, keys in (
        ("changed", [k for k in new if k in old and new[k] != old[k]]),
        ("added", [k for k in new if k not in old]),
        ("removed", [k for k in old if k not in new]),
    ):
        for key in sorted(keys):
            print(f"{label}: {key}")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
