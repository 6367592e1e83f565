"""Known defects: one strict xfail per open defect, each asserting the
fixed behaviour (ROADMAP item 21).

strict=True turns a fixed entry into an XPASS failure, so the change that
fixes a defect removes its marker, and the entry becomes a regression
test.  The timed entries of the ledger (the Pollard rho hang curves,
x^5 - <2^4000> and spread root isolation) need a fixture that runs child
processes in parallel under a timeout, and are not here yet.
"""

import json

import pytest

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
