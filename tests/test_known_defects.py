"""Known defects: one strict xfail per open defect, each asserting the
fixed behaviour (ROADMAP item 21).

strict=True turns a fixed entry into an XPASS failure, so the change that
fixes a defect removes its marker, and the entry becomes a regression
test.  The timed entries (the Pollard rho hang curves, x^5 - <2^4000> and
spread root isolation) each run in a child process.  One module-scoped
fixture starts them all together and kills each one at its timeout, so the
module costs about one timeout of wall time, not their sum.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import smallpoints
from smallpoints.cli import main


def analyze(capsys, curve: str) -> dict:
    """The parsed `analyze` report of this curve, with no flags."""
    assert main(["analyze", "--curve", curve]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20")
def test_unnormalized_curve_gets_an_empirical_chain(capsys):
    # no normalization today, so the empirical pipeline is skipped
    comparison = analyze(capsys, "y^2 = x^5 - 3*x + 1")["bounds"].get("comparison") or {}
    assert "empirical" in comparison


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14")
def test_genus_3_verdict_is_determined(capsys):
    # today the a-priori chain bounds ln h and the empirical one h, and the
    # verdict is undetermined
    comparison = analyze(capsys, "y^2 = x^7 - x")["bounds"]["comparison"]
    assert comparison["sharper_chain"] in ("apriori", "empirical")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
def test_belyi_map_makes_the_empirical_chain_sharper(capsys):
    # x^5 is a Belyi map of y^2 = x^5 - 1; today the verdict is apriori
    comparison = analyze(capsys, "y^2 = x^5 - 1")["bounds"]["comparison"]
    assert comparison["sharper_chain"] == "empirical"


@pytest.mark.xfail(strict=True, reason="ROADMAP items 17, 19")
def test_generic_quintic_gets_a_normalization(capsys):
    # every candidate triple is over the resultant degree cap today
    assert analyze(capsys, "y^2 = x^5 - 2")["curve"]["normalization"] is not None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_n_s_does_not_depend_on_the_model(capsys):
    # x -> 1/x: today 51870 against 10374, since S takes the primes of lc(f)
    curve = analyze(capsys, "y^2 = (7*x-1)*(5*x+2)*x*(x-1)*(x+1)*(x-2)")["curve"]
    image = analyze(capsys, "y^2 = (7-x)*(5+2*x)*(1-x)*(1+x)*(1-2*x)")["curve"]
    assert curve["n_s"] == image["n_s"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 23")
def test_genus_2_empirical_chain_is_the_sharper(capsys):
    # today lem_4_2's deg_B bound makes the empirical bound on h 10^(3.3e58)
    comparison = analyze(capsys, "y^2 = x*(x-1)*(x-2)*(x-3)*(x-5)")["bounds"]["comparison"]
    assert comparison["sharper_chain"] == "empirical"


def _analyze_argv(curve: str) -> list[str]:
    return ["-m", "smallpoints.cli", "analyze", "--curve", curve]


_SPREAD_ROOTS = """
from smallpoints.polynomial import parse_poly
from smallpoints.roots import isolate_roots
isolate_roots(parse_poly("(2^2000*x - 1)*(x^2 - 2)*(x - 2^2000)")[0])
"""

# name -> (interpreter arguments, timeout in seconds)
TIMED = {
    # disc f is 7 times a 62-bit and a 75-bit prime: about 2^31 rho steps
    "rho_hang": (_analyze_argv("y^2 = x^5 + 73695798*x + 46103891"), 8),
    "rho_hang_literal": (_analyze_argv(f"y^2 = (x^2 - {2**400 + 1})*(x-1)*(x-2)*(x-3)"), 8),
    # 14.3 s on a 2-vCPU VM; the same curve as x^5 - 1 under a scaling of x
    "large_constant": (_analyze_argv(f"y^2 = x^5 - {2**4000}"), 5),
    # gives up at the precision cap after about 7 s
    "spread_roots": (["-c", _SPREAD_ROOTS], 8),
}


@pytest.fixture(scope="module")
def timed_runs():
    """name -> (exit code, or None when killed at the timeout; stderr) of
    each TIMED entry, all started together in fresh interpreters that
    import this checkout's package."""
    env = dict(os.environ)
    src = str(Path(smallpoints.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    start = time.monotonic()
    procs = {
        name: subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True, env=env)
        for name, (args, _) in TIMED.items()
    }
    results = {}
    try:
        # in deadline order, so each wait starts before its own deadline
        for name in sorted(procs, key=lambda n: TIMED[n][1]):
            proc = procs[name]
            try:
                proc.wait(timeout=max(0.0, start + TIMED[name][1] - time.monotonic()))
                code = proc.returncode
            except subprocess.TimeoutExpired:
                proc.kill()
                code = None
            results[name] = (code, proc.communicate()[1])
        yield results
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_rho_hang_curve_finishes(timed_runs):
    assert timed_runs["rho_hang"][0] == 0, timed_runs["rho_hang"][1]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_rho_hang_with_a_written_constant_finishes(timed_runs):
    assert timed_runs["rho_hang_literal"][0] == 0, timed_runs["rho_hang_literal"][1]


@pytest.mark.xfail(strict=True, reason="ROADMAP items 15, 17")
def test_large_constant_quintic_finishes(timed_runs):
    assert timed_runs["large_constant"][0] == 0, timed_runs["large_constant"][1]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
def test_spread_root_moduli_certify(timed_runs):
    assert timed_runs["spread_roots"][0] == 0, timed_runs["spread_roots"][1]
