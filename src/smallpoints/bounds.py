"""Explicit height bounds for small points on hyperelliptic curves.

Every published inequality this package evaluates lives here as a pure
function of the parameter tuple (d, g, N_S, D_K) plus optional empirical
inputs.  All results are LogMag values rounded upward, so a reported
number is always a true bound for the quantity it names, and each report
entry says whether the number bounds the quantity itself or its natural
logarithm.

Formula identifiers ("thm_1_1", "lem_4_2", ...) are stable strings fixed
by the report format; consumers match on them, not on the prose notes.

FORMULAS, near the end of this module, is the one list of the bound
chains: each row gives a formula id, its targets, whether it bounds their
logarithm, its note, the function that evaluates it, the inputs it reads
(values the chain was given, or earlier rows) and the conditions it needs
(CONDITIONS: g = 2, d = 1, c_delta known, H_Lambda or zograf).  Two
chains are walked in row order, every row evaluated once:

  * apriori: the three main theorems plus the route through the
    archimedean invariant mu_X,
  * empirical: Belyi degree from the multiplicative height of the
    branch-point cross-ratios (lem_4_2, or the modular-curve bound when
    the caller asserts it), then lem_4_1 -> lem_4_3 -> lem_4_4_i.

No row reads a constant that the literature proves effective but never
states.  The bounds conditional on abc each need one (c1, c2, c3, c*,
kappa or c1'), so none of them is evaluated, and a report's `abc` input
is always null.  The one delta-invariant constant with a published value,
-186 in genus 2, is applied; other genera evaluate the c_delta rows only
when the caller asserts a value.

The costly factors of the a-priori chain are powers whose base and
exponent depend on (g, d) alone: nu^(d*nu), nu^(8^g*d*nu), nu^(2*d*nu),
nu^(d*nu/8), nu^(nu/2) and u(g).  They are kept across reports in one
bounded table, `_pow_up`, keyed by (base, the exponent's numerator and
denominator, precision); a LogMag is immutable, so one value may serve
many reports.  The one other factor, (N_S*D_K)^nu, is shared by thm_1_1,
thm_1_2, thm_1_3 and lem_5_2_i: a one-entry table, `_nd_power`, keeps the
power of the latest N_S*D_K, so a report takes it once and the next report
at another N_S*D_K replaces it.  That entry is the only value depending on
N_S or D_K kept across reports, and no rendered string is kept: a report
renders each of its distinct values once (`BoundReport.to_dict`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .numeric import (
    DEFAULT_PRECISION,
    UP,
    LogMag,
    lm_add,
    lm_div,
    lm_exp,
    lm_log,
    lm_ln_two_pi,
    lm_mul,
    lm_pow,
)

TARGETS = (
    "h",
    "h_NT",
    "e_X",
    "h_F",
    "delta_X",
    "Delta_X",
    "deg_B",
    "mu_X",
    "weierstrass_sum",
)


def c_delta_default(g: int) -> Fraction | None:
    """The lower bound for the minimum of the delta invariant in genus g
    used when the caller asserts none: -186 at g = 2, and None, no default,
    in every other genus."""
    return Fraction(-186) if g == 2 else None


# the degree of the cover x: X -> P^1; y^2 = f(x) is a double cover
DEG_PHI = 2

# exact factorial below this, directed Stirling above
FACTORIAL_EXACT_LIMIT = 2000


def _as_logmag(x, precision: int) -> LogMag:
    if isinstance(x, LogMag):
        return x
    return LogMag.from_fraction(x, precision, UP)


class BoundParams:
    """d = [K:Q], genus g >= 2, N_S = product of the primes in S, and the
    absolute discriminant value D_K >= 1.  c_delta is a lower bound for
    the minimum of the delta invariant in genus g; it defaults to
    c_delta_default(g), -186 for g = 2 and None otherwise, until the
    caller asserts one.  Instances are immutable."""

    __slots__ = ("d", "g", "n_s", "d_k", "c_delta")

    def __init__(self, d: int, g: int, n_s: int, d_k: int, c_delta: Fraction | None = None):
        if d < 1:
            raise ValueError("d must be a positive integer")
        if g < 2:
            raise ValueError("g must be at least 2")
        if n_s < 1:
            raise ValueError("N_S must be a positive integer")
        if d_k < 1:
            raise ValueError("D_K must be a positive integer")
        c_delta = c_delta_default(g) if c_delta is None else Fraction(c_delta)
        for name, value in zip(self.__slots__, (d, g, n_s, d_k, c_delta)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("BoundParams is immutable")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not BoundParams:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"BoundParams({args})"


class BoundEntry:
    """One reported bound: formula_id's value bounds target, or its natural
    logarithm when bounds_log_of_target is set."""

    __slots__ = ("formula_id", "target", "value", "bounds_log_of_target", "note")

    def __init__(self, formula_id: str, target: str, value: LogMag,
                 bounds_log_of_target: bool, note: str | None = None):
        if target not in TARGETS:
            raise ValueError(f"unknown bound target {target!r}")
        self.formula_id = formula_id
        self.target = target
        self.value = value
        self.bounds_log_of_target = bounds_log_of_target
        self.note = note

    def to_dict(self, value: dict | None = None) -> dict:
        """The entry as JSON; value, when given, is its value's rendering."""
        out = {
            "formula_id": self.formula_id,
            "target": self.target,
            "bounds_log_of_target": self.bounds_log_of_target,
            "value": self.value.to_json_value() if value is None else value,
        }
        if self.note is not None:
            out["note"] = self.note
        return out


def _entry(formula_id: str, target: str, value: LogMag, bounds_log_of_target: bool,
           note: str | None, _new=object.__new__) -> BoundEntry:
    """A BoundEntry without the public constructor's check: `_walk` makes
    one for each target of a FORMULAS row, and every such target is in
    TARGETS (tests/test_bounds.py checks the table)."""
    e = _new(BoundEntry)
    e.formula_id = formula_id
    e.target = target
    e.value = value
    e.bounds_log_of_target = bounds_log_of_target
    e.note = note
    return e


class BoundReport:
    """The entries and caveats of one report, its inputs, and the chain
    comparison when the empirical chain ran."""

    __slots__ = ("inputs", "entries", "caveats", "comparison")

    def __init__(self, inputs: dict, entries: list[BoundEntry],
                 caveats: list[str] | None = None, comparison: dict | None = None):
        self.inputs = inputs
        self.entries = entries
        self.caveats = [] if caveats is None else caveats
        self.comparison = comparison

    def to_dict(self) -> dict:
        # eq_general's four entries hold thm_1_1's value: each distinct value
        # is rendered once, and every entry gets its own copy of the dict
        rendered: dict[tuple, dict] = {}
        entries = []
        for e in self.entries:
            v = e.value
            key = (v.sign, v.man, v.exp, v.prec, v.mode)
            if key not in rendered:
                rendered[key] = v.to_json_value()
            entries.append(e.to_dict(dict(rendered[key])))
        out = {
            "inputs": self.inputs,
            "entries": entries,
            "caveats": self.caveats,
        }
        if self.comparison is not None:
            out["comparison"] = self.comparison
        return out

    def entry(self, formula_id: str, target: str | None = None) -> BoundEntry:
        for e in self.entries:
            if e.formula_id == formula_id and (target is None or e.target == target):
                return e
        raise KeyError(f"no entry {formula_id!r} (target {target!r})")


def nu(p: BoundParams) -> int:
    """The main parameter d * (5g)^5."""
    return p.d * (5 * p.g) ** 5


# The parameter-only powers of the chains, shared by every report.  A
# bound_grid run fills a few hundred entries; the N_S-dependent powers stay
# out, since they seldom repeat and would only grow the table.
_POW_CACHE_SIZE = 1024


@lru_cache(maxsize=_POW_CACHE_SIZE)
def _pow_up(base: int, num: int, den: int, precision: int) -> LogMag:
    """base^(num/den) rounded up, for a base and exponent fixed by (g, d).
    The exponent comes as two ints, so a key hashes and compares in C."""
    return lm_pow(base, num if den == 1 else Fraction(num, den), precision, UP)


def u_g(g: int, precision: int = DEFAULT_PRECISION) -> LogMag:
    """8^((11g)^3 * 8^g), exact since it is a power of two."""
    if g < 2:
        raise ValueError("g must be at least 2")
    return _pow_up(2, 3 * (11 * g) ** 3 * 8**g, 1, precision)


# thm_1_1, thm_1_2, thm_1_3 and lem_5_2_i of one report share their
# (N_S*D_K)^nu; the next report at another N_S*D_K replaces it.
@lru_cache(maxsize=1)
def _nd_power(nd: int, e: int, precision: int) -> LogMag:
    """nd^e rounded up, for nd = N_S*D_K and e = nu."""
    return lm_pow(nd, e, precision, UP)


def _power_product(p: BoundParams, num: int, den: int, precision: int) -> LogMag:
    """nu^(num/den) * (N_S*D_K)^nu upward, one rounding of the product.
    The second factor is skipped when N_S*D_K = 1, so that case returns
    nu^(num/den) with no extra rounding.  The first factor depends on
    (g, d) alone and comes from `_pow_up`, the second from `_nd_power`."""
    v = nu(p)
    first = _pow_up(v, num, den, precision)
    nd = p.n_s * p.d_k
    if nd == 1:
        return first
    return lm_mul(first, _nd_power(nd, v, precision), precision, UP)


def thm_cyclic_bound(p: BoundParams, precision: int = DEFAULT_PRECISION) -> LogMag:
    """nu^(d*nu) * (N_S*D_K)^nu; bounds log max(h_NT(x), h(x))."""
    return _power_product(p, p.d * nu(p), 1, precision)


def thm_hyper_bound(p: BoundParams, precision: int = DEFAULT_PRECISION) -> LogMag:
    """nu^(8^g*d*nu) * (N_S*D_K)^nu; bounds the Neron-Tate sum over the
    Weierstrass points."""
    return _power_product(p, 8**p.g * p.d * nu(p), 1, precision)


def thm_genus2_bound(p: BoundParams, precision: int = DEFAULT_PRECISION) -> LogMag:
    """Genus 2 only: nu^(2*d*nu) * (N_S*D_K)^nu with nu = 10^5 d; bounds
    max(h_NT(x), h(x)) itself, not its logarithm."""
    if p.g != 2:
        raise ValueError("this bound is specific to genus 2")
    return _power_product(p, 2 * p.d * nu(p), 1, precision)


def genus2_intro_bound(n_s: int, precision: int = DEFAULT_PRECISION) -> LogMag:
    """(10*N_S)^(10^6), the packaged genus-2 bound over Q; it dominates
    thm_genus2_bound at d = 1."""
    if n_s < 1:
        raise ValueError("N_S must be a positive integer")
    return lm_pow(10 * n_s, 10**6, precision, UP)


def ln_factorial_upper(n: int, precision: int = DEFAULT_PRECISION) -> LogMag:
    """Upper bound for ln n!; exact-integer log below the factorial limit,
    Stirling with the 1/(12n) remainder above it."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    if n <= FACTORIAL_EXACT_LIMIT:
        return lm_log(LogMag.from_int(math.factorial(n), precision, UP), precision, UP)
    wp = precision + 16
    ln_n = lm_log(LogMag.from_int(n, wp, UP), wp, UP)
    t = lm_mul(LogMag.from_fraction(Fraction(2 * n + 1, 2), wp, UP), ln_n, wp, UP)
    t = lm_add(t, LogMag.from_int(-n, wp, UP), wp, UP)
    t = lm_add(
        t,
        lm_mul(LogMag.from_fraction(Fraction(1, 2), wp, UP), lm_ln_two_pi(wp, UP), wp, UP),
        wp,
        UP,
    )
    return lm_add(t, LogMag.from_fraction(Fraction(1, 12 * n), wp, UP), precision, UP)


def khadjavi_u(d: int, g: int, deg_phi: int) -> int:
    """The unit-equation parameter 4d(deg_phi + g - 1)^2."""
    if deg_phi < 2:
        raise ValueError("deg_phi must be at least 2")
    if d < 1 or g < 2:
        raise ValueError("need d >= 1 and g >= 2")
    return 4 * d * (deg_phi + g - 1) ** 2


def khadjavi_degB_bound(
    d: int,
    g: int,
    deg_phi: int,
    H_Lambda,
    precision: int = DEFAULT_PRECISION,
) -> LogMag:
    """(4*u*H_Lambda)^(9 u^3 2^(u-2) u!) * deg_phi with u = 4d(deg_phi+g-1)^2;
    bounds the Belyi degree.  H_Lambda is the multiplicative height of the
    normalized branch-point cross-ratios and must be at least 1."""
    u = khadjavi_u(d, g, deg_phi)
    H = _as_logmag(H_Lambda, precision)
    if H._cmp(1) < 0:
        raise ValueError("H_Lambda must be at least 1")
    if u <= FACTORIAL_EXACT_LIMIT:
        exponent = 9 * u**3 * 2 ** (u - 2) * math.factorial(u)
    else:
        wp = precision + 16
        ln_n = lm_log(LogMag.from_int(9 * u**3, wp, UP), wp, UP)
        ln_n = lm_add(ln_n, lm_mul(LogMag.from_int(u - 2, wp, UP),
                                   lm_log(LogMag.from_int(2, wp, UP), wp, UP), wp, UP), wp, UP)
        ln_n = lm_add(ln_n, ln_factorial_upper(u, wp), wp, UP)
        exponent = lm_exp(ln_n, wp, UP)
    base = lm_mul(LogMag.from_int(4 * u, precision, UP), H, precision, UP)
    power = lm_pow(base, exponent, precision, UP)
    return lm_mul(power, LogMag.from_int(deg_phi, precision, UP), precision, UP)


def zograf_degB_bound(g: int, precision: int = DEFAULT_PRECISION) -> LogMag:
    """128*(g+1), exact; valid when the curve is a classical congruence
    modular curve (caller-asserted)."""
    if g < 2:
        raise ValueError("g must be at least 2")
    return LogMag.from_int(128 * (g + 1), precision, UP)


def ex_from_degB(degB_bound, g: int, precision: int = DEFAULT_PRECISION) -> LogMag:
    """10^8 * degB^5 * g; bounds the self-intersection invariant e(X)."""
    B = _as_logmag(degB_bound, precision)
    if B._cmp(1) < 0:
        raise ValueError("the Belyi degree bound must be at least 1")
    fifth = lm_pow(B, 5, precision, UP)
    return lm_mul(LogMag.from_int(10**8 * g, precision, UP), fifth, precision, UP)


def zhang_height_bound(ex_bound, g: int, eps, precision: int = DEFAULT_PRECISION) -> LogMag:
    """(e(X) + eps) / (2(g-1)); bounds h(x) for all but finitely many
    algebraic points x, for every eps > 0."""
    if type(eps) is not Fraction:
        eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    e = _as_logmag(ex_bound, precision)
    if e.sign < 0:
        raise ValueError("the e(X) bound must be nonnegative")
    total = lm_add(e, LogMag.from_fraction(eps, precision, UP), precision, UP)
    return lm_div(total, LogMag.from_int(2 * (g - 1), precision, UP), precision, UP)


def nt_from_h(h_bound, g: int, precision: int = DEFAULT_PRECISION) -> LogMag:
    """2g(g-1) * h; turns a stable-height bound into a Neron-Tate bound."""
    if g < 2:
        raise ValueError("g must be at least 2")
    h = _as_logmag(h_bound, precision)
    if h.sign < 0:
        raise ValueError("the height bound must be nonnegative")
    return lm_mul(LogMag.from_int(2 * g * (g - 1), precision, UP), h, precision, UP)


def noether_ex_bound(
    hF_bound,
    g: int,
    c_delta: Fraction | None,
    precision: int = DEFAULT_PRECISION,
) -> LogMag:
    """12*h_F + 4g*ln(2*pi) - c_delta; bounds e(X) from the Faltings height.

    c_delta is a lower bound for the minimum of the delta invariant; None
    reads c_delta_default(g), which only genus 2 has (-186), so other
    genera must supply one."""
    if c_delta is None:
        c_delta = c_delta_default(g)
        if c_delta is None:
            raise ValueError(
                "ineffective constant required: no proven lower bound for the "
                f"delta-invariant minimum in genus {g}; supply c_delta"
            )
    if type(c_delta) is not Fraction:
        c_delta = Fraction(c_delta)
    hF = _as_logmag(hF_bound, precision)
    if hF.sign < 0:
        raise ValueError("the Faltings height bound must be nonnegative")
    t = lm_mul(LogMag.from_int(12, precision, UP), hF, precision, UP)
    t = lm_add(
        t,
        lm_mul(LogMag.from_int(4 * g, precision, UP), lm_ln_two_pi(precision, UP), precision, UP),
        precision,
        UP,
    )
    return lm_add(t, LogMag.from_fraction(-c_delta, precision, UP), precision, UP)


def mu_upper(p: BoundParams, precision: int = DEFAULT_PRECISION) -> LogMag:
    """nu^(d*nu/8) * (N_S*D_K)^nu; bounds the archimedean invariant mu_X."""
    return _power_product(p, p.d * nu(p), 8, precision)


def degB_from_mu(p: BoundParams, mu, precision: int = DEFAULT_PRECISION) -> LogMag:
    """nu^(nu/2) * mu_X; bounds the LOGARITHM of the Belyi degree."""
    m = _as_logmag(mu, precision)
    if m.sign < 0:
        raise ValueError("mu must be nonnegative")
    v = nu(p)
    return lm_mul(_pow_up(v, v, 2, precision), m, precision, UP)


def hF_from_u_mu(g: int, mu, precision: int = DEFAULT_PRECISION) -> LogMag:
    """u(g) * mu_X; bounds the Faltings height of the Jacobian."""
    m = _as_logmag(mu, precision)
    if m.sign < 0:
        raise ValueError("mu must be nonnegative")
    return lm_mul(u_g(g, precision), m, precision, UP)


def weierstrass_sum_bound(hF_bound, g: int, precision: int = DEFAULT_PRECISION) -> LogMag:
    """(3g-1)(8g+4)*h_F + 293*g^5; bounds the Neron-Tate sum over the
    Weierstrass points."""
    hF = _as_logmag(hF_bound, precision)
    if hF.sign < 0:
        raise ValueError("the Faltings height bound must be nonnegative")
    t = lm_mul(LogMag.from_int((3 * g - 1) * (8 * g + 4), precision, UP), hF, precision, UP)
    return lm_add(t, LogMag.from_int(293 * g**5, precision, UP), precision, UP)


def prop_cyclic_i(hyper_bound, c_delta, precision: int = DEFAULT_PRECISION) -> LogMag:
    """nu^(8^g*d*nu)*(D_K*N_S)^nu - c_delta, i.e. thm_hyper_bound less
    c_delta; bounds h."""
    return lm_add(hyper_bound, LogMag.from_fraction(-c_delta, precision, UP), precision, UP)


# ---------------------------------------------------------------------------
# the formula table


# One row of a bound chain.  fn receives the values named in inputs, then
# the precision; its value becomes one entry per target.  An input names
# an earlier row or a value the chain was given.  The row is skipped
# unless every condition in `when` holds.  Later rows read the value under
# `name`, which defaults to the formula id.
Formula = namedtuple(
    "Formula", ("formula_id", "targets", "log", "note", "fn", "inputs", "when", "name"),
    defaults=((), None),
)


# condition -> (test on the chain's given values, caveat added once when
# the condition drops a row)
CONDITIONS = {
    "g=2": (lambda x: x["g"] == 2, None),
    "d=1": (lambda x: x["d"] == 1, None),
    "c_delta": (
        lambda x: x["c_delta"] is not None,
        "no delta-invariant constant for genus {g}; the mu-route stops at h_F "
        "and the delta-dependent bounds are omitted",
    ),
    # the Belyi degree comes from H_Lambda unless zograf is asserted
    "H_Lambda": (lambda x: not x["use_zograf"], None),
    "zograf": (lambda x: x["use_zograf"], None),
}

# Each chain is walked in order; the entries and caveats of a report come
# out in row order.
FORMULAS = {
    "apriori": (
        Formula("thm_1_1", ("h_NT", "h"), True, None, thm_cyclic_bound, ("p",)),
        # the same value as thm_1_1, for the four general invariants
        Formula("eq_general", ("e_X", "delta_X", "h_F", "Delta_X"), True, None,
                lambda v, precision: v, ("thm_1_1",)),
        Formula("thm_1_2", ("weierstrass_sum",), False, None, thm_hyper_bound, ("p",)),
        Formula("thm_1_3", ("h_NT", "h"), False, None, thm_genus2_bound, ("p",), ("g=2",)),
        Formula("intro_genus2", ("h_NT", "h"), False, "packaged form",
                genus2_intro_bound, ("n_s",), ("g=2", "d=1")),
        Formula("lem_5_2_i", ("mu_X",), False, None, mu_upper, ("p",)),
        Formula("lem_5_1", ("deg_B",), True, "via lem_5_2_i", degB_from_mu, ("p", "lem_5_2_i")),
        Formula("eq_fhux", ("h_F",), False, "via lem_5_2_i", hF_from_u_mu, ("g", "lem_5_2_i")),
        Formula("lem_6_2", ("weierstrass_sum",), False, "via eq_fhux",
                weierstrass_sum_bound, ("eq_fhux", "g")),
        Formula("lem_4_4_ii", ("e_X",), False, "via eq_fhux",
                noether_ex_bound, ("eq_fhux", "g", "c_delta"), ("c_delta",)),
        Formula("lem_4_3", ("h",), False, "for all but finitely many points; via lem_4_4_ii",
                zhang_height_bound, ("lem_4_4_ii", "g", "eps"), ("c_delta",)),
        Formula("lem_4_4_i", ("h_NT",), False, "via lem_4_3",
                nt_from_h, ("lem_4_3", "g"), ("c_delta",)),
        Formula("prop_5_3_i", ("h",), False, None,
                prop_cyclic_i, ("thm_1_2", "c_delta"), ("c_delta",)),
    ),
    "empirical": (
        Formula("zograf", ("deg_B",), False, "caller asserts a classical congruence modular curve",
                zograf_degB_bound, ("g",), ("zograf",), name="belyi"),
        Formula("lem_4_2", ("deg_B",), False, None, khadjavi_degB_bound,
                ("d", "g", "deg_phi", "H_Lambda"), ("H_Lambda",), name="belyi"),
        Formula("lem_4_1", ("e_X",), False, "via the Belyi degree bound",
                ex_from_degB, ("belyi", "g")),
        Formula("lem_4_3", ("h",), False, "for all but finitely many points; via lem_4_1",
                zhang_height_bound, ("lem_4_1", "g", "eps")),
        Formula("lem_4_4_i", ("h_NT",), False, "via lem_4_3", nt_from_h, ("lem_4_3", "g")),
    ),
}


def formula_conditions(formula_id: str) -> frozenset[str]:
    """Every condition that some row with this formula id is gated on."""
    return frozenset(
        c for rows in FORMULAS.values() for f in rows if f.formula_id == formula_id for c in f.when
    )


def _walk(chain: str, p: BoundParams, precision: int, **given):
    """Evaluate the rows of one chain in order, each at most once.
    Returns (entries, caveats).  One dict holds the chain's given values
    and the rows' values: no row name is a given name, so the conditions
    and caveats read the given values alone."""
    known = dict(p=p, d=p.d, g=p.g, n_s=p.n_s, d_k=p.d_k, c_delta=p.c_delta, **given)
    entries: list[BoundEntry] = []
    caveats: list[str] = []
    for formula_id, targets, log, note, fn, inputs, when, name in FORMULAS[chain]:
        if when:
            unmet = [c for c in when if not CONDITIONS[c][0](known)]
            if unmet:
                for c in unmet:
                    caveat = CONDITIONS[c][1] and CONDITIONS[c][1].format(**known)
                    if caveat and caveat not in caveats:
                        caveats.append(caveat)
                continue
        value = fn(*[known[i] for i in inputs], precision)
        known[name or formula_id] = value
        for t in targets:
            entries.append(_entry(formula_id, t, value, log, note))
    return entries, caveats


def pipeline_apriori(
    p: BoundParams, eps=Fraction(1), precision: int = DEFAULT_PRECISION
) -> BoundReport:
    """Every bound computable from (d, g, N_S, D_K) alone; the report's
    inputs are left to full_report."""
    entries, caveats = _walk("apriori", p, precision, eps=eps)
    return BoundReport(inputs={}, entries=entries, caveats=caveats)


def pipeline_empirical(
    p: BoundParams,
    H_Lambda,
    use_zograf: bool = False,
    eps=Fraction(1),
    precision: int = DEFAULT_PRECISION,
) -> BoundReport:
    """Bound chain driven by the computed cross-ratio height H_Lambda:
    Belyi degree, then e(X), then h, then h_NT.  With use_zograf the
    caller asserts the curve is a classical congruence modular curve and
    the 128(g+1) degree bound replaces the H_Lambda step.  The report's
    inputs are left to full_report."""
    entries, caveats = _walk(
        "empirical", p, precision,
        eps=eps, H_Lambda=H_Lambda, deg_phi=DEG_PHI, use_zograf=use_zograf,
    )
    return BoundReport(inputs={}, entries=entries, caveats=caveats)


def _direct_h_entry(report: BoundReport) -> BoundEntry | None:
    """The sharpest entry bounding h itself (not its log)."""
    direct = [e for e in report.entries if e.target == "h" and not e.bounds_log_of_target]
    return min(direct, key=lambda e: e.value, default=None)


def _log10_or_none(value: LogMag) -> float | None:
    """log10 of a bound as a float, or None once it is past float range (the
    empirical bound of genus 6 and up has an exponent thousands of bits long)."""
    try:
        return value.log10_float()
    except OverflowError:
        return None


def compare_pipelines(
    apriori: BoundReport, empirical: BoundReport, precision: int = DEFAULT_PRECISION
) -> dict:
    """Which chain proves the smaller direct bound on h; magnitudes are
    reported on the natural log scale because the raw values are wild."""
    ea = _direct_h_entry(apriori)
    ee = _direct_h_entry(empirical)
    out: dict = {}
    for chain, e in (("apriori", ea), ("empirical", ee)):
        if e is not None:
            out[chain] = {
                "formula_id": e.formula_id,
                "ln_of_bound": lm_log(e.value, precision, UP).to_json_value(),
                "log10_of_bound": _log10_or_none(e.value),
            }
    if ea is None or ee is None:
        out["sharper_chain"] = "undetermined"
    else:
        out["sharper_chain"] = "apriori" if ea.value <= ee.value else "empirical"
    return out


def full_report(
    p: BoundParams,
    H_Lambda=None,
    use_zograf: bool = False,
    eps=Fraction(1),
    precision: int = DEFAULT_PRECISION,
    extra_inputs: dict | None = None,
    extra_caveats: list[str] | None = None,
) -> BoundReport:
    """Both pipelines merged into a single report with the comparison: the
    a-priori report, extended by the empirical chain when H_Lambda is given
    or zograf asserted.  eps becomes a Fraction here, once per report, as
    c_delta did in BoundParams; the rows read both without converting
    them again."""
    if type(eps) is not Fraction:
        eps = Fraction(eps)
    rep = pipeline_apriori(p, eps, precision)
    if H_Lambda is not None or use_zograf:
        em = pipeline_empirical(p, H_Lambda, use_zograf, eps, precision)
        # compared before the empirical entries join the a-priori report
        rep.comparison = compare_pipelines(rep, em, precision)
        rep.entries += em.entries
        rep.caveats += em.caveats
    rep.caveats += extra_caveats or []
    rep.inputs = {
        "d": p.d,
        "g": p.g,
        "n_s": p.n_s,
        "d_k": p.d_k,
        "c_delta": None if p.c_delta is None else str(p.c_delta),
        "precision": precision,
        "eps": str(eps),
        # the report format keeps this input, always null (module docstring)
        "abc": None,
        "deg_phi": DEG_PHI,
        "use_zograf": use_zograf,
        # echoed also when the zograf chain ignores it
        "H_Lambda": None if H_Lambda is None else _as_logmag(H_Lambda, precision).to_json_value(),
        **(extra_inputs or {}),
    }
    return rep
