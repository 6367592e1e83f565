"""Seeded inputs for the three benchmark workloads.

Every generator is a pure function of the seed (and the round number), so
the same seed always yields the same operations.  Each operation is the
argument list of one ``smallpoints`` command line call, plus the facts the
output checks need that the program is never shown (the roots a curve was
built from, the grid point a bound call came from).

Print the operations of one run's first rounds with

    python3 perfbench/corpus.py --workload rational_batch --seed 1 --rounds 2
"""

from __future__ import annotations

import argparse
import json
import math
import random
from fractions import Fraction

# --- rational_batch --------------------------------------------------------

# one round: every degree 5..8 twice with rational roots only, and once
# with an irreducible quadratic factor whose coefficients have 9-10 digits
RATIONAL_ROUND = [(n, False) for n in (5, 6, 7, 8)] * 2 + [(n, True) for n in (5, 6, 7, 8)]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def render(coeffs: list[int]) -> str:
    """'y^2 = ...' for integer coefficients listed low to high."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "x" if k == 1 else f"x^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        terms.append(("-" if c < 0 else "+", body))
    sign, body = terms[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return "y^2 = " + text


def _rational_roots(rng: random.Random, k: int) -> list[Fraction]:
    roots: set[Fraction] = set()
    while len(roots) < k:
        roots.add(Fraction(rng.randint(-50, 50), rng.randint(1, 50)))
    return sorted(roots)


# Pollard rho on a discriminant costs about sqrt(p) steps for every prime
# p > 10^6 it has to split off, and squared primes (those of res(f1, q)) must
# all be split off.  Left uncontrolled, that cost spans two orders of
# magnitude between curves, so quadratic factors are drawn until the
# predicted number of steps lies in RHO_STEPS.
TRIAL_LIMIT = 10**6
RHO_STEPS = (4 * 10**4, 1.2 * 10**5)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)  # exact below 3.3e24
_primorial = None


def _trial_primorial() -> int:
    global _primorial
    if _primorial is None:
        sieve = bytearray([1]) * TRIAL_LIMIT
        sieve[0] = sieve[1] = 0
        for p in range(2, math.isqrt(TRIAL_LIMIT) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        level = [i for i in range(TRIAL_LIMIT) if sieve[i]]
        while len(level) > 1:  # product tree: linear products are quadratic
            level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
        _primorial = level[0]
    return _primorial


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rough_part(m: int) -> int:
    """m stripped of every prime below TRIAL_LIMIT."""
    m = abs(m)
    g = math.gcd(m, _trial_primorial())
    while g > 1:
        while m % g == 0:
            m //= g
        g = math.gcd(m, g)
    return m


def rho_steps(disc_part: int, resultant_parts: list[int]) -> float | None:
    """Predicted Pollard rho steps to factor disc_part * prod(r^2), or None
    when some part has more than one prime above TRIAL_LIMIT (then its
    split is unknown without factoring it)."""
    mult: dict[int, int] = {}
    for m, e in [(disc_part, 1)] + [(r, 2) for r in resultant_parts]:
        c = _rough_part(m)
        if c == 1:
            continue
        if not _is_prime(c):
            return None
        mult[c] = mult.get(c, 0) + e
    big = sorted(mult)
    if big and mult[big[-1]] == 1:
        big.pop()  # the last cofactor is proven prime, not split
    return sum(math.sqrt(p) for p in big)


def _quadratic(rng: random.Random, roots: list[Fraction]) -> tuple[int, int]:
    """x^2 + a x + b, irreducible over Q, with |a|, |b| of 9-10 digits and
    a predicted factoring cost inside RHO_STEPS."""
    while True:
        a = rng.choice((-1, 1)) * rng.randrange(10**8, 10**10)
        b = rng.choice((-1, 1)) * rng.randrange(10**8, 10**10)
        d = a * a - 4 * b
        if d >= 0 and math.isqrt(d) ** 2 == d:
            continue
        res = [r.numerator**2 + a * r.numerator * r.denominator + b * r.denominator**2
               for r in roots]
        steps = rho_steps(d, res)
        if steps is not None and RHO_STEPS[0] <= steps <= RHO_STEPS[1]:
            return a, b


def rational_curve(rng: random.Random, degree: int, quadratic: bool) -> dict:
    roots = _rational_roots(rng, degree - 2 if quadratic else degree)
    coeffs = [1]
    for r in roots:
        coeffs = _poly_mul(coeffs, [-r.numerator, r.denominator])
    quad = None
    if quadratic:
        a, b = _quadratic(rng, roots)
        quad = [b, a, 1]
        coeffs = _poly_mul(coeffs, quad)
    return {
        "argv": ["analyze", "--curve", render(coeffs)],
        "coeffs": coeffs,
        "roots": [str(r) for r in roots],
        "quadratic": quad,
    }


def rational_round(seed: int, rnd: int) -> list[dict]:
    rng = random.Random(f"rational_batch/{seed}/{rnd}")
    ops = [rational_curve(rng, n, q) for n, q in RATIONAL_ROUND]
    rng.shuffle(ops)
    return ops


# --- hard_repeat -----------------------------------------------------------

# Fewer than three rational branch points (or a cheap curve sharing their
# minimal polynomials).  x^5 - 4x^3 + 3x comes first because later curves
# reuse its sqrt(3) minimal polynomials.
HARD_CURVES = [
    [0, 3, 0, -4, 0, 1],           # x^5 - 4x^3 + 3x
    [-1, 0, 6, 0, -7, 0, 1],       # x^6 - 7x^4 + 6x^2 - 1
    [-1, 0, 0, 0, 0, 0, 1],        # x^6 - 1
    [-6, 0, 11, 0, -6, 0, 1],      # x^6 - 6x^4 + 11x^2 - 6
    [1, 0, 0, 0, 0, 0, 1],         # x^6 + 1
    [-1, 0, 0, 0, 0, 1],           # x^5 - 1
    [0, -1, 0, 0, 0, 0, 1],        # x^6 - x
]


# the first pass is cold; the later ones are served from the program's
# caches, and give the run the 40 operations a tail percentile needs
HARD_PASSES = 6


def hard_round(seed: int) -> list[dict]:
    """Every curve HARD_PASSES times: first in the fixed order, then in
    seeded orders."""
    first = [{"argv": ["analyze", "--curve", render(c)], "coeffs": c, "pass": 1}
             for c in HARD_CURVES]
    ops = list(first)
    rng = random.Random(f"hard_repeat/{seed}")
    for k in range(2, HARD_PASSES + 1):
        again = [dict(op, **{"pass": k}) for op in first]
        rng.shuffle(again)
        ops += again
    return ops


# --- bound_grid ------------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
PRECISIONS = (64, 128, 512, 2048)


def _prime_product(rng: random.Random, k: int) -> int:
    return math.prod(rng.sample(SMALL_PRIMES, k)) if k else 1


GENERA = tuple(range(2, 11))
DEGREES = (1, 2, 3)
# (abc, --cdelta, --zograf) on or off
FLAG_SETS = tuple((a, c, z) for a in (0, 1) for c in (0, 1) for z in (0, 1))


def bound_round(seed: int, rnd: int) -> list[dict]:
    """One grid block: for each precision a parameter point and a chain of
    three N_S values, each dividing the next.  At each precision the pair
    (genus, field degree) cycles through a seeded order of GENERA x
    DEGREES, and the flags through one of FLAG_SETS, so every run covers
    the grid evenly."""
    cycle = random.Random(f"bound_grid/{seed}")
    rng = random.Random(f"bound_grid/{seed}/{rnd}")
    ops = []
    for prec in PRECISIONS:
        genera = cycle.sample(GENERA, len(GENERA))
        degrees = cycle.sample(DEGREES, len(DEGREES))
        flag_sets = cycle.sample(FLAG_SETS, len(FLAG_SETS))
        g = genera[rnd % len(genera)]
        d = degrees[rnd // len(genera) % len(degrees)]
        abc, cdelta, zograf = flag_sets[rnd % len(flag_sets)]
        d_k = _prime_product(rng, rng.randint(0, 3))
        flags = []
        if abc:
            flags += ["--abc", rng.choice(("2,2", "3/2,5/4,1", "2,3,7"))]
        if cdelta and g > 2:  # genus 2 has a proven delta constant
            flags += ["--cdelta", str(-rng.randint(1, 5000))]
        if zograf:
            flags.append("--zograf")
        primes = rng.sample(SMALL_PRIMES, 6)
        chain = [math.prod(primes[:k]) for k in (1, 3, 6)]
        group = f"{rnd}/{prec}"
        for n_s in chain:
            ops.append({
                "argv": ["bound", "--d", str(d), "--g", str(g), "--ns", str(n_s),
                         "--dk", str(d_k), "--precision", str(prec)] + flags,
                "params": {"d": d, "g": g, "n_s": n_s, "d_k": d_k, "precision": prec},
                "group": group,
            })
    return ops


# --- warm-up operations, on inputs no workload uses -------------------------

WARMUP = {
    "rational_batch": ["analyze", "--curve", "y^2 = x^5 - 5*x^3 + 4*x"],
    "hard_repeat": ["analyze", "--curve", "y^2 = x^5 - 5*x^3 + 4*x"],
    "bound_grid": ["bound", "--d", "4", "--g", "11", "--ns", "53", "--precision", "256"],
}


ROUND_SIZE = {
    "rational_batch": len(RATIONAL_ROUND),
    "hard_repeat": len(HARD_CURVES) * HARD_PASSES,
    "bound_grid": 3 * len(PRECISIONS),
}


def operations(workload: str, seed: int, rounds: int) -> list[dict]:
    """The first `rounds` rounds; hard_repeat has exactly one."""
    if workload == "hard_repeat":
        return hard_round(seed)
    make = rational_round if workload == "rational_batch" else bound_round
    return [op for rnd in range(rounds) for op in make(seed, rnd)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WARMUP))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args()
    for op in operations(args.workload, args.seed, args.rounds):
        print(json.dumps(op))


if __name__ == "__main__":
    main()
