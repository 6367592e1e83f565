"""Output checks, computed apart from the program with sympy and mpmath.

Every check recomputes what a report claims from the operation's inputs
and raises CheckError on the first disagreement.  Nothing is compared
with a stored copy of earlier output.  Tolerances:

  * heights: an enclosure [lower, upper] must contain the mpmath value
    to within HEIGHT_TOL (absolute, natural log);
  * algebraic values: a reported ``approx`` must lie within APPROX_TOL
    (relative) of the mpmath value, and the value must make its reported
    minimal polynomial vanish to within ROOT_TOL (relative to the sum of
    the absolute terms);
  * bounds: thm_1_1, thm_1_2 and thm_1_3 are compared in log2 at
    BOUND_DPS digits.  A value passes when log2(value) >= log2(closed form)
    * (1 - BOUND_FLOOR) and log2(value) <= log2(closed form) *
    (1 + max(2^(8 - precision), BOUND_FLOOR)).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import mpmath
import sympy

HEIGHT_TOL = mpmath.mpf("1e-40")
APPROX_TOL = 1e-6
ROOT_TOL = mpmath.mpf("1e-30")
ROOT_DPS = 60
BOUND_DPS = 100
BOUND_FLOOR = mpmath.mpf("1e-85")

INF = object()  # the branch point at infinity
NO_TRIPLE = "no feasible normalization triple under the degree cap"
_KEY_BITS = 1 << 16
_X = sympy.Symbol("x")


class CheckError(Exception):
    """A report disagrees with the independent recomputation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --- shared helpers ---------------------------------------------------------


def logmag(value: dict) -> mpmath.mpf:
    """Exact value of a serialized LogMag, rounded to the working dps."""
    man = int(value["mantissa_hex"], 16)
    return mpmath.ldexp(mpmath.mpf(man), int(value["exponent"]) - value["precision"])


def logmag_log2(value: dict) -> mpmath.mpf:
    man = int(value["mantissa_hex"], 16)
    _require(man > 0, "bound is not positive")
    return mpmath.log(man, 2) + int(value["exponent"]) - value["precision"]


def _lm_key(value: dict) -> tuple[int, int, int]:
    """Exact comparison key of a positive or zero LogMag: values in
    [1/2, 1) * 2^exponent, so the exponent orders first."""
    man = int(value["mantissa_hex"], 16)
    _require(man >= 0, "negative bound")
    if man == 0:
        return (0, 0, 0)
    return (1, int(value["exponent"]), man << (_KEY_BITS - value["precision"]))


def _coeffs_of(text: str) -> list[int]:
    """Integer coefficients (low to high) of a polynomial printed as
    '3 x^2 - x + 7'."""
    coeffs: dict[int, int] = {}
    for term in re.split(r"\s+(?=[+-]\s)", text.strip()):
        t = term.replace(" ", "")
        sign = -1 if t.startswith("-") else 1
        t = t.lstrip("+-")
        if "x" in t:
            c, _, power = t.partition("x")
            e = int(power[1:]) if power else 1
        else:
            c, e = t, 0
        coeffs[e] = sign * (int(c) if c else 1)
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]


def _polyroots(coeffs: list[int]) -> list[mpmath.mpc]:
    with mpmath.workdps(ROOT_DPS):
        return mpmath.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=400)


class Heights:
    """Weil heights of minimal polynomials, via the Mahler measure."""

    def __init__(self):
        self._cache: dict[tuple, mpmath.mpf] = {}

    def of_rational(self, q: Fraction) -> mpmath.mpf:
        return mpmath.log(max(abs(q.numerator), q.denominator))

    def of_minpoly(self, coeffs: list[int]) -> mpmath.mpf:
        key = tuple(coeffs)
        if key not in self._cache:
            with mpmath.workdps(ROOT_DPS):
                total = mpmath.log(abs(coeffs[-1]))
                for z in _polyroots(coeffs):
                    total += mpmath.log(max(1, abs(z)))
                self._cache[key] = total / (len(coeffs) - 1)
        return self._cache[key]


def _check_enclosure(enc: dict, value: mpmath.mpf, what: str) -> None:
    lo, hi = logmag(enc["lower"]), logmag(enc["upper"])
    _require(lo - HEIGHT_TOL <= value <= hi + HEIGHT_TOL,
             f"{what}: enclosure [{mpmath.nstr(lo, 25)}, {mpmath.nstr(hi, 25)}] "
             f"misses {mpmath.nstr(value, 25)}")


def _cross_ratio(p1, p2, p3, z):
    """(p3-p1)(z-p2) / ((p3-p2)(z-p1)) with INF limits; works on Fraction
    and on mpmath numbers alike."""
    if p1 is INF:
        return (z - p2) / (p3 - p2)
    if p2 is INF:
        return (p3 - p1) / (z - p1)
    if p3 is INF:
        return (z - p2) / (z - p1)
    if z is INF:
        return (p3 - p1) / (p3 - p2)
    return (p3 - p1) * (z - p2) / ((p3 - p2) * (z - p1))


def _match_approx(approx: list[float], roots: list[mpmath.mpc], what: str) -> mpmath.mpc:
    z = mpmath.mpc(*approx)
    dist = sorted((abs(r - z), i) for i, r in enumerate(roots))
    scale = max(1, abs(z))
    _require(dist[0][0] <= APPROX_TOL * scale,
             f"{what}: approx {approx} is no root of f")
    _require(len(dist) == 1 or dist[1][0] > 10 * APPROX_TOL * scale,
             f"{what}: approx {approx} does not single out one root")
    return roots[dist[0][1]]


def check_s_primes(coeffs: list[int], curve: dict) -> None:
    """S is exactly 2 and the primes of lc * disc(f)."""
    f = sympy.Poly(list(reversed(coeffs)), _X)
    target = abs(int(sympy.discriminant(f)) * coeffs[-1])
    s = curve["s_primes"]
    _require(2 in s, "2 missing from S")
    n_s = 1
    for p in s:
        _require(sympy.isprime(p), f"{p} in S is not prime")
        _require(p == 2 or target % p == 0, f"{p} in S divides neither lc nor disc")
        n_s *= p
        while target % p == 0:
            target //= p
    _require(target == 1, f"S misses a prime of lc*disc: cofactor {target}")
    _require(int(curve["n_s"]) == n_s, "N_S is not the product of S")


def check_curve(curve: dict, coeffs: list[int], rational_roots: list[Fraction],
                algebraic_roots: list[mpmath.mpc], heights: Heights) -> None:
    """Branch points, S, cross-ratios and heights of one analyze report.

    rational_roots are the exact rational roots of f, algebraic_roots the
    mpmath values of the others."""
    deg = len(coeffs) - 1
    genus = (deg - 1) // 2
    _require(curve["genus"] == genus, "wrong genus")
    bps = curve["branch_points"]
    _require(len(bps) == 2 * genus + 2, "wrong number of branch points")
    kinds = [b["kind"] for b in bps]
    _require(kinds.count("infinity") == deg % 2, "infinity is a branch point iff deg f is odd")
    got = [Fraction(b["value"]) for b in bps if b["kind"] == "rational"]
    _require(got == sorted(rational_roots), f"rational branch points {got} != roots of f")

    check_s_primes(coeffs, curve)

    # numeric value of every branch point; INF, Fraction, or mpmath root
    points = []
    for i, b in enumerate(bps):
        if b["kind"] == "infinity":
            points.append(INF)
        elif b["kind"] == "rational":
            points.append(Fraction(b["value"]))
        else:
            points.append(_match_approx(b["approx"], algebraic_roots, f"branch point {i}"))
    _require(len({str(p) for p in points}) == len(points), "branch points repeat")

    finite = []
    for b in bps:
        if b["kind"] == "rational":
            finite.append(heights.of_rational(Fraction(b["value"])))
        elif b["kind"] == "algebraic":
            finite.append(heights.of_minpoly(_coeffs_of(b["minpoly"])))
    _check_enclosure(curve["mu_hat"], max(finite), "mu_hat")

    nz = curve["normalization"]
    if nz is None:
        _require(NO_TRIPLE in curve["caveats"], "no normalization and no caveat saying why")
        return
    triple = nz["triple"]
    _require(len(set(triple)) == 3, "triple repeats a point")
    _require(sorted(r["z_index"] for r in nz["records"])
             == [i for i in range(len(bps)) if i not in triple],
             "records do not cover the other branch points")
    for r in nz["records"]:
        what = f"lambda of z_index {r['z_index']}"
        quad = [points[t] for t in triple] + [points[r["z_index"]]]
        lam = r["lambda"]
        if all(p is INF or isinstance(p, Fraction) for p in quad):
            exact = _cross_ratio(*quad)
            _require(lam["kind"] == "rational" and Fraction(lam["value"]) == exact,
                     f"{what}: {lam} != cross-ratio {exact}")
            h = heights.of_rational(exact)
        else:
            h = _check_irrational_quad(quad, lam, heights, what)
        _check_enclosure(r["height"], h, what)


def _check_irrational_quad(quad: list, lam: dict, heights: Heights, what: str) -> mpmath.mpf:
    """Check lambda against the cross-ratio of mpmath points; returns the
    height lambda should have."""
    value = _cross_ratio(*[p if p is INF else mpmath.mpmathify(p) for p in quad])
    scale = max(1, abs(value))
    if lam["kind"] == "rational":
        q = Fraction(lam["value"])
        _require(abs(value - mpmath.mpmathify(q)) <= ROOT_TOL * scale,
                 f"{what}: {q} != cross-ratio {value}")
        return heights.of_rational(q)
    _require(abs(value - mpmath.mpc(*lam["approx"])) <= APPROX_TOL * scale,
             f"{what}: approx {lam['approx']} != cross-ratio {value}")
    mp = _coeffs_of(lam["minpoly"])
    terms = [c * value**k for k, c in enumerate(mp)]
    _require(abs(mpmath.fsum(terms)) <= ROOT_TOL * mpmath.fsum(abs(t) for t in terms),
             f"{what}: cross-ratio is no root of {lam['minpoly']}")
    return heights.of_minpoly(mp)


# --- per workload -----------------------------------------------------------


def check_rational(op: dict, doc: dict, heights: Heights) -> None:
    roots = [Fraction(r) for r in op["roots"]]
    algebraic = []
    if op["quadratic"] is not None:
        b, a, _ = op["quadratic"]
        s = mpmath.sqrt(a * a - 4 * b)
        algebraic = [(-a + s) / 2, (-a - s) / 2]
        got = [_coeffs_of(p["minpoly"]) for p in doc["curve"]["branch_points"]
               if p["kind"] == "algebraic"]
        _require(got == [op["quadratic"]] * 2, "algebraic branch points are not the quadratic's")
    check_curve(doc["curve"], op["coeffs"], roots, algebraic, heights)


class HardRoots:
    """Exact rational roots and mpmath roots of the hard curves."""

    def __init__(self):
        self._cache: dict[tuple, tuple] = {}

    def __call__(self, coeffs: list[int]) -> tuple[list[Fraction], list[mpmath.mpc]]:
        key = tuple(coeffs)
        if key not in self._cache:
            f = sympy.Poly(list(reversed(coeffs)), _X)
            rational = []
            for fac, _ in f.factor_list()[1]:
                if fac.degree() == 1:
                    c1, c0 = fac.all_coeffs()
                    rational.append(Fraction(-int(c0), int(c1)))
            algebraic = [z for z in _polyroots(coeffs)
                         if all(abs(z - mpmath.mpmathify(q)) > ROOT_TOL for q in rational)]
            self._cache[key] = (rational, algebraic)
        return self._cache[key]


def check_hard(op: dict, doc: dict, heights: Heights, hard_roots: HardRoots) -> None:
    rational, algebraic = hard_roots(op["coeffs"])
    check_curve(doc["curve"], op["coeffs"], rational, algebraic, heights)


# closed forms in log2, with nu = d * (5g)^5
def closed_forms(params: dict) -> dict[str, mpmath.mpf]:
    d, g = params["d"], params["g"]
    nu = d * (5 * g) ** 5
    with mpmath.workdps(BOUND_DPS):
        l2nu = mpmath.log(nu, 2)
        base = nu * mpmath.log(params["n_s"] * params["d_k"], 2)
        out = {
            "thm_1_1": d * nu * l2nu + base,
            "thm_1_2": 8**g * d * nu * l2nu + base,
        }
        if g == 2:
            out["thm_1_3"] = 2 * d * nu * l2nu + base
    return out


def check_bound(op: dict, doc: dict) -> None:
    forms = closed_forms(op["params"])
    seen = set()
    with mpmath.workdps(BOUND_DPS):
        for e in doc["entries"]:
            fid = e["formula_id"]
            if fid not in forms:
                continue
            seen.add(fid)
            v = e["value"]
            got, want = logmag_log2(v), forms[fid]
            slack = max(mpmath.mpf(2) ** (8 - v["precision"]), BOUND_FLOOR)
            _require(got >= want * (1 - BOUND_FLOOR),
                     f"{fid}/{e['target']}: log2 {mpmath.nstr(got, 30)} below the closed "
                     f"form {mpmath.nstr(want, 30)}")
            _require(got <= want * (1 + slack),
                     f"{fid}/{e['target']}: log2 {mpmath.nstr(got, 30)} far above the "
                     f"closed form {mpmath.nstr(want, 30)}")
    _require(seen == set(forms), f"missing entries {sorted(set(forms) - seen)}")


def check_monotone(docs: list[tuple[int, dict]]) -> None:
    """Reports differing only in N_S, in increasing N_S order: every entry
    must be non-decreasing."""
    prev = None
    for n_s, doc in sorted(docs, key=lambda t: t[0]):
        cur = {(e["formula_id"], e["target"]): _lm_key(e["value"]) for e in doc["entries"]}
        if prev is not None:
            _require(set(cur) == set(prev[1]), f"N_S={n_s} changes the entry set")
            for k, v in cur.items():
                _require(v >= prev[1][k], f"{k[0]}/{k[1]} decreases from N_S={prev[0]} to {n_s}")
        prev = (n_s, cur)


class Checker:
    """Checks one workload's operations, in the order they ran."""

    def __init__(self, workload: str):
        self.workload = workload
        self.heights = Heights()
        self.hard_roots = HardRoots()
        self.groups: dict[str, list] = {}

    def check(self, op: dict, out: str) -> None:
        doc = json.loads(out)
        with mpmath.workdps(ROOT_DPS):
            self._check(op, doc)

    def _check(self, op: dict, doc: dict) -> None:
        if self.workload == "rational_batch":
            check_rational(op, doc, self.heights)
        elif self.workload == "hard_repeat":
            check_hard(op, doc, self.heights, self.hard_roots)
        else:
            check_bound(op, doc)
            group = self.groups.setdefault(op["group"], [])
            group.append((op["params"]["n_s"], doc))
            if len(group) == 3:
                check_monotone(self.groups.pop(op["group"]))
