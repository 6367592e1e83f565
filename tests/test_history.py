"""Output depends on the input alone: a pool of operations runs in one
process in pool order, reversed and in seeded shuffled orders, and each
output must equal that of the operation run right after `clear_tables()`.
`PYTHONPATH=src python tests/test_history.py DIR` writes the first seed's
operations, one argument a line, to DIR/NNN.args and their outputs to
DIR/NNN.out, for a comparison with fresh processes."""

import contextlib
import io
import random
import sys
from pathlib import Path

from smallpoints import numeric
from smallpoints.cli import main
from test_golden import EXACT_TIES, SIX, X5X

SEEDS = (1, 2, 3)
PRECISIONS = ("64", "128", "512")


def _bound_grid() -> list[list[str]]:
    """g 2-10, d 1-3, precision 64 and 2048, --abc, --cdelta and --zograf on and off."""
    rng = random.Random("bound-tables")
    grid = []
    for i in range(54):
        g, d, prec = 2 + i % 9, 1 + i // 9 % 3, (64, 2048)[i // 27]
        argv = ["bound", "--d", str(d), "--g", str(g), "--ns", str(rng.choice((1, 6, 30, 2310))),
                "--dk", str(rng.choice((1, 3, 7))), "--precision", str(prec)]
        if i & 4:
            argv += ["--abc", rng.choice(("2,2", "3/2,5/4,1"))]
        if i & 2:
            argv += ["--cdelta", str(-rng.randint(1, 5000))]
        grid.append(argv + ["--zograf"] * (i & 1))
    return grid


# golden all-rational curves, quadratic factors, no real branch point, two
# that read algebraic.set_orbit, and x^2 - 10007 * 10009, whose composite
# cofactor passes the first trial-division run (numeric._run_product)
CURVES = [SIX, *EXACT_TIES, X5X, "y^2 = x^5 - 4*x^3 + 3*x", "y^2 = x^6 + 1",
          "y^2 = x^6 - x", "y^2 = x^5 - 1", "y^2 = x*(x-1)*(x-2)*(x^2 - 100160063)"]
POOL = (
    _bound_grid()
    + [["bound", "--d", "2", "--g", "5", "--ns", "30030", "--precision", p, "--cdelta", "-7",
        "--zograf"] for p in (*PRECISIONS, "2048")]
    + [["analyze", "--curve", c, "--precision", p] for c in CURVES for p in PRECISIONS]
    + [["heights", "22/7", "-3/4", "2^70+1", "x^2-2", "3*x^2 - 2", "x^3 - 2:1", "--precision", p]
       for p in PRECISIONS]
)


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def _shuffled(seed: int) -> list[list[str]]:
    return random.Random(seed).sample(POOL, len(POOL))


def check_history_free(pool: list[list[str]], orders: list[list[list[str]]]) -> set:
    """Run each operation of the pool right after `clear_tables()`, then,
    from empty tables, each order in one process: every output must equal
    that operation's cold output.  Returns the tables the cold runs filled."""
    cold, filled = {}, set()
    for argv in pool:
        numeric.clear_tables()
        cold[tuple(argv)] = _run(argv)
        filled |= {t for t in numeric._TABLES if t.cache_info().currsize}
    numeric.clear_tables()
    for order in (pool, pool[::-1], *orders):
        for argv in order:
            assert _run(argv) == cold[tuple(argv)], argv
    return filled


def test_outputs_do_not_depend_on_history():
    filled = check_history_free(POOL, [_shuffled(seed) for seed in SEEDS])
    # the cold runs refilled every table they emptied: the pool reaches each
    assert [t.__qualname__ for t in numeric._TABLES if t not in filled] == []


if __name__ == "__main__":
    out_dir = Path(sys.argv[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, argv in enumerate(_shuffled(SEEDS[0])):
        (out_dir / f"{i:03d}.args").write_text("".join(a + "\n" for a in argv))
        (out_dir / f"{i:03d}.out").write_text(_run(argv))
