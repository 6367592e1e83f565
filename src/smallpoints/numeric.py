"""Exact integer/rational helpers and a directed-rounding big float.

The central type is LogMag: a sign / mantissa / exponent float whose exponent
is an arbitrary-precision integer, so quantities like 10**(10**7) and the
astronomically larger values produced by height-bound formulas stay
representable.  Every operation and constructor takes the precision and the
direction of its result as required arguments, prec and mode, and nothing
else decides them: no operand's precision or mode carries over.  A result
rounded UP is >= the exact value of the operation applied to the operand
values, and one rounded DOWN is <=; the result records its own prec and mode.

Every LogMag is made by one function, `_round(n, d, e, prec, direction)`: the
prec-bit directed rounding of the exact rational (n/d) * 2**e.  `_exact` reads
any operand (LogMag, int, Fraction) as such a triple, so lm_add, lm_sub,
lm_mul and lm_div hand `_round` the exact result and round once; LogMag,
int and Fraction operands take paths chosen by their exact type.  The
prec-bit values form a fixed grid and an exact value has exactly one nearest
grid point on each side, so the bits of a result depend only on the exact
value and the direction, not on how the value was formed.

`_round` and negation build their results through `_logmag`, a private
constructor that sets the five slots without the public constructor's
checks.  Its invariant: the mantissa is normalized to [2**(prec-1),
2**prec), or mantissa and exponent are 0 when the sign is, the precision is
at least MIN_PRECISION and the mode is UP or DOWN.  `_round` checks the
precision and mode it is given and normalizes the mantissa it builds, and
negation copies a value that holds them.  The public constructor keeps
every check.

Transcendental operations (ln, exp, ln 2, ln(2*pi)) are evaluated in integer
fixed point with every intermediate rounded in the requested direction and an
explicit tail bound added on the upper side, so the directed contract holds
unconditionally rather than with high probability.  The constants ln 2,
log2 10, 2*pi and ln(2*pi) come from one series routine, `_arc_inv`, and one
cache, `_constant_table`, keyed by the working precision rounded up to a
multiple of 64 bits; each entry lies within about one ulp (ln(2*pi) within
a few, far inside the 48 guard bits `lm_ln_two_pi` reads it with).
Rounding by a power of two is a shift: floor(a / 2**s) is a >> s and the
ceiling is -((-a) >> s), negative a included.  The ln and exp series shrink
their argument first (Brent & Zimmermann, Modern Computer Arithmetic, 4.4).
At w bits, ln multiplies its mantissa by factors 1 - 2**-j, j = 2, 5, 8, ...
up to r ~ sqrt(w), each step a shift and a subtraction, and adds their logs
from a second cache, `_reduction_table`, also one per 64-bit width class;
the atanh argument is then below 2**(2-r), so the series needs about w / 2r
terms instead of w / 3.  exp divides its argument by 2**k, k ~ sqrt(w), and
squares the result k times, so its series needs about w / k terms.  The
series loops make no helper call per term.  A ln error bound is stated, so
one DOWN run gives both ends of a log (`lm_log_ends`).

A decimal string is the exact |x| truncated toward zero to its significant
digits, so it depends on the value alone and no kernel's rounding can move
it: 1/2 prints as 5.000...e-1, and a DOWN value just below 1157 prints as
1.1569999...e+3, never above the bound it shows.  Moderate exponents are
scaled exactly with integers; huge or tiny values evaluate 2**f, f in
[0, 1), as T[j] exp(r ln 2): j is the top 8 bits of f, T[j] = 2**(j/256)
rounded DOWN comes from a third cache, `_two_power_table`, filled entry by
entry on first use and keyed by width, and the Taylor series of exp at
r ln 2 < 2**-8 needs no squarings.  The stated error of both factors gives
the upper end too, and the working precision is raised until both ends of
the enclosure truncate alike (Ziv, ACM TOMS 17, 1991).

Every process-wide table of the package is a functools.lru_cache made by
`table(maxsize)`, which records it, so `clear_tables()` empties them all
as in a fresh process.  An entry must be a pure function of its key, so
that no output depends on what the process computed before.
"""

from __future__ import annotations

import decimal
import itertools
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache

UP = 1
DOWN = -1

# the precision of the package's entry points (cli, analyze_curve, bounds)
# when none is given; no function in this module defaults to it
DEFAULT_PRECISION = 128
MIN_PRECISION = 8

_MODE_NAMES = {UP: "up", DOWN: "down"}


def mode_name(mode: int) -> str:
    return _MODE_NAMES[mode]


def decimal_str(n: int) -> str:
    """The decimal digits of an int of any size: str(n) refuses one of more
    than sys.get_int_max_str_digits() digits (4300 by default), and
    decimal.Decimal converts it exactly, with no such limit."""
    try:
        return int.__repr__(n)
    except ValueError:
        return str(decimal.Decimal(n))


_TABLES = []


def table(maxsize: int | None):
    """functools.lru_cache(maxsize), recorded for `clear_tables`."""
    def record(f):
        _TABLES.append(lru_cache(maxsize=maxsize)(f))
        return _TABLES[-1]
    return record


def clear_tables() -> None:
    """Empty every table made by `table`, as in a fresh process."""
    for cached in _TABLES:
        cached.cache_clear()


# ---------------------------------------------------------------------------
# primality and factorization


# Trial division covers the primes below _TRIAL_LIMIT in _RUNS runs by
# interval: run 0 holds the primes below _RUN_WIDTH, and run r >= 1 those
# in [r * _RUN_WIDTH, (r + 1) * _RUN_WIDTH), cut off at _TRIAL_LIMIT.  No
# table of all the primes is kept: run r >= 1 is sieved with the primes of
# run 0 (which reach past sqrt(_TRIAL_LIMIT)) the first time a composite
# cofactor reaches it, and only its product is cached.  Above
# _PRIME_TEST_BITS one Miller-Rabin base costs more than the gcds with all
# the run products (3.4 against 3.9 ms at 1024 bits, 6.1 against 4.7 ms at
# 1280 and 22 against 6.8 ms at 2048 on a 2-vCPU VM, Python 3.11.7), so a
# larger cofactor is not tested until the runs have shrunk it.
_TRIAL_LIMIT = 10**6
_RUN_WIDTH = 1 << 13
_RUNS = -(-_TRIAL_LIMIT // _RUN_WIDTH)
_PRIME_TEST_BITS = 1024


@table(1)
def _first_run() -> tuple[int, ...]:
    """The primes below _RUN_WIDTH: run 0, and the base primes of the
    sieves of the later runs."""
    sieve = bytearray([1]) * _RUN_WIDTH
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(_RUN_WIDTH - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, _RUN_WIDTH, p)))
    return tuple(itertools.compress(range(_RUN_WIDTH), sieve))


def _run_primes(run: int) -> list[int]:
    """The primes of run >= 1, ascending, by a sieve over the odd numbers
    of its interval [lo, hi).  Entry i stands for lo + 2i + 1, and an odd
    base prime p < lo crosses out its odd multiples from the one i with
    2i + lo + 1 = 0 mod p, i = -(lo + 1) (p + 1)/2 mod p, copying its zeros
    from one buffer."""
    lo = run * _RUN_WIDTH
    hi = min(lo + _RUN_WIDTH, _TRIAL_LIMIT)
    size = (hi - lo) // 2
    sieve = bytearray([1]) * size
    zeros = memoryview(bytes(size))
    for p in _first_run()[1:]:
        if p * p >= hi:
            break
        i = -(lo + 1) * ((p + 1) // 2) % p
        sieve[i::p] = zeros[: (size - 1 - i) // p + 1]
    return list(itertools.compress(range(lo + 1, hi, 2), sieve))


@table(None)
def _run_product(run: int) -> int:
    """The product of the primes of run >= 1, sieved the first time a
    cofactor reaches that run: math.prod over 64 primes at a time, then a
    binary product tree, since math.prod over a whole run is quadratic in
    its length."""
    xs, k = _run_primes(run), 64
    while len(xs) > 1:
        xs, k = [math.prod(xs[i : i + k]) for i in range(0, len(xs), k)], 2
    return xs[0]


# below this limit the fixed Miller-Rabin bases decide primality; a prime
# at or above it is known only probabilistically, and callers that report
# how a prime was found flag it by this one comparison
MR_DETERMINISTIC_LIMIT = 1 << 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin_witness(n: int, a: int) -> bool:
    """True if a witnesses compositeness of odd n > 2."""
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality of n.

    Below 37**2 trial division by the base primes settles it, and below
    MR_DETERMINISTIC_LIMIT (2**64) the fixed Miller-Rabin base set is
    deterministic.  Above, 64 deterministically seeded pseudo-random bases
    give error probability below 2**-128 for a prime answer.
    """
    if n < 37 * 37:
        # a composite n below 37**2 has a prime factor below 37
        return n > 1 and all(n % p for p in _MR_BASES if p * p <= n)
    if any(n % p == 0 for p in _MR_BASES):
        return False
    if n < MR_DETERMINISTIC_LIMIT:
        return not any(_miller_rabin_witness(n, a) for a in _MR_BASES)
    rng = random.Random(n)
    return not any(_miller_rabin_witness(n, rng.randrange(2, n - 1)) for _ in range(64))


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _int_root(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 1, by Newton's method from above."""
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(r, k) with r**k == m and k >= 2 minimal, or None.  Only for m whose
    prime factors all exceed 10**6: then r > 2**19, so k <= bits / 19."""
    for k in range(2, m.bit_length() // 19 + 1):
        r = _int_root(m, k)
        if r**k == m:
            return r, k
    return None


def _trial_division(n: int, out: dict[int, int]) -> int:
    """Record in out the prime factors of n >= 1 below 10**6, and any prime
    cofactor; return the cofactor left, 1 or a composite whose prime factors
    all exceed 10**6.

    The primes of run 0 divide n one at a time.  Each later run r is entered
    only by a composite cofactor, and one gcd with the run's product skips
    it when none of its primes divides n (Bernstein, J. Algorithms 54,
    2005).  A gcd g > 1 is a product of distinct primes of the run, each at
    least lo = r * _RUN_WIDTH, so below lo**2 it is the one prime of the run
    dividing n; only a g >= lo**2 sieves the run again to name its primes.
    A cofactor entering run r has no prime factor below lo, so it is prime
    when it is below lo**2 or passes the primality test, which runs after
    run 0 and after each run that divides n, on cofactors of at most
    _PRIME_TEST_BITS bits.
    """
    for p in _first_run():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    run = 1
    while n > 1 and run < _RUNS:
        if n < (run * _RUN_WIDTH) ** 2 or (
            n.bit_length() <= _PRIME_TEST_BITS and is_prime(n)
        ):
            out[n] = 1
            return 1
        while run < _RUNS:
            g = math.gcd(n, _run_product(run))
            lo = run * _RUN_WIDTH
            run += 1
            if g > 1:
                for p in (g,) if g < lo * lo else _run_primes(run - 1):
                    if g % p == 0:
                        while n % p == 0:
                            out[p] = out.get(p, 0) + 1
                            n //= p
                        g //= p
                        if g == 1:
                            break
                break
    return n


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a sorted list of (prime, exponent).

    factor(1) is the empty list.  Trial division by every prime below
    10**6, in runs by interval that are sieved when a cofactor first
    reaches them (`_trial_division`), stops at a prime cofactor; Pollard
    rho with Miller-Rabin primality then splits the cofactor left, all of
    whose prime factors exceed 10**6.  A cofactor that is a perfect power
    is split by an integer root first: rho on p**2 needs about sqrt(p)
    steps, because gcd(x - y, p**2) only exposes p after the sequence
    cycles mod p.
    """
    if n < 1:
        raise ValueError("factor requires a positive integer")
    out: dict[int, int] = {}
    n = _trial_division(n, out)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        power = _perfect_power(m)
        if power is not None:
            stack.extend([power[0]] * power[1])
            continue
        d = _pollard_rho(m) if m % 2 else 2
        stack.append(d)
        stack.append(m // d)
    return sorted(out.items())


# ---------------------------------------------------------------------------
# directed fixed-point helpers.  A fixed-point value is an int carrying wp
# fraction bits.  UP always means toward +infinity, DOWN toward -infinity.


def _div_dir(a: int, b: int, direction: int) -> int:
    """a/b rounded toward +inf (UP) or -inf (DOWN); b > 0."""
    if direction == DOWN:
        return a // b
    return -((-a) // b)


def _shift_dir(a: int, shift: int, direction: int) -> int:
    """a / 2**shift rounded in direction; shift may be negative (exact)."""
    if shift <= 0:
        return a << (-shift)
    if direction == DOWN:
        return a >> shift
    return -((-a) >> shift)


def _ln_atanh_series(p: int, q: int, wp: int, direction: int) -> int:
    """ln(p/q) * 2**wp directed, for 1 <= p/q <= 2, via 2*atanh((p-q)/(p+q)).

    It serves `_ln_of_dyadic`, whose reduced argument p/q lies just above 1.
    For any p/q in range z = (p-q)/(p+q) <= 1/3, at most 1/3 + 1 ulp once
    rounded up, so z**2 < 1/9 + 1 ulp and the terms dropped after t <= 2
    sum below t / (1 - z**2) ~ t * 9/8 < 3 ulps: DOWN drops them, UP adds
    3 ulps.  Every quantity is positive, so DOWN floors each one with //
    or >>.  UP runs the same loop on the negated t, terms and total:
    floor(-x) is -ceil(x), so each is the negated ceiling, and negating
    the total gives the sum rounded up.  The factor z**2 stays positive,
    rounded up as -floor(-z**2), so t times it keeps t's sign.
    """
    if p == q:
        return 0
    s = -direction  # 1 for DOWN; UP runs on negated values
    num, den = p - q, p + q
    t = (s * num << wp) // den
    z2 = s * ((s * (t * t)) >> wp)
    total = 0
    k = 1
    while t > 2 or t < -2:
        total += t // k
        t = (t * z2) >> wp
        k += 2
    if direction == UP:
        total -= 3
    return 2 * s * total


def _arc_inv(x: int, s: int, wp: int, direction: int) -> int:
    """sum s**k / ((2k+1) * x**(2k+1)) * 2**wp directed, for an odd integer
    x >= 3 and s = +1 or -1: atanh(1/x) for s = 1, atan(1/x) for s = -1.

    t_k = floor(2**wp / x**(2k+1)) comes from t_(k-1) by one floor division
    by x**2, since floor(floor(a/b)/c) = floor(a/(bc)); an odd x never
    divides 2**wp, so t_k + 1 is the ceiling, and a term rounded up is
    ceil((t_k + 1) / (2k+1)) = t_k // (2k+1) + 1.  An added term is rounded
    in direction and a subtracted one against it, so each errs by under 2
    ulps toward the target.  For s = 1 the sum stops after the first term
    with t_k = 0: every dropped term is positive, so DOWN stays below the
    series, and they sum below 1/8 of an ulp, so UP adds one ulp for them.
    For s = -1 the terms alternate and decrease, so a partial sum ending in
    an added term is above the series and one ending in a subtracted term
    below it: the first term with t_k = 0 that ends on the side of direction
    ends the sum, with no tail."""
    x2 = x * x
    t = (1 << wp) // x
    total = 0
    # +-1 for each term rounded up (a term's sign equals direction, UP = 1
    # and DOWN = -1), and the s = 1 tail
    ups = 1 if s > 0 and direction == UP else 0
    k = 1
    sign = 1
    while True:
        if sign > 0:
            total += t // k
        else:
            total -= t // k
        if sign == direction:
            ups += sign
        if t == 0 and (s > 0 or sign == direction):
            return total + ups
        t //= x2
        k += 2
        sign *= s


@table(None)
def _constant_table(name: str, wp: int, direction: int) -> int:
    """The constant name ("ln2", "log2_10", "two_pi" or "ln_two_pi") * 2**wp,
    directed.  ln 2 = 2 atanh(1/3), ln(5/4) = 2 atanh(1/9) and, by Machin,
    2 pi = 32 atan(1/5) - 8 atan(1/239), all from `_arc_inv`, take 64 guard
    bits, so after the directed shift each end lies within about one ulp:
    the series' errors, under 2 ulps a term over fewer than wp terms, stay
    far below it.  ln(2 pi) is `_ln_of_dyadic` of the 2 pi entry at the same
    width: 2 pi lies in [4, 8), so each end is within 2 * 2 + 2 = 6 ulps of
    the log of its entry, which the entry's one ulp moves by under one; the
    ends measure 3 to 4 ulps apart at every width up to 16,448 bits."""
    if name == "ln2":
        return _shift_dir(2 * _arc_inv(3, 1, wp + 64, direction), 64, direction)
    if name == "log2_10":
        # log2 10 = 3 + ln(5/4) / ln 2, ln 2 rounded against direction
        ln54 = _shift_dir(2 * _arc_inv(9, 1, wp + 64, direction), 64, direction)
        ln2 = _constant_table("ln2", wp, -direction)
        return (3 << wp) + _div_dir(ln54 << wp, ln2, direction)
    if name == "ln_two_pi":
        two_pi = _constant_table("two_pi", wp, direction)
        return _ln_of_dyadic(two_pi, -wp, wp, direction)
    w = wp + 64
    two_pi = 32 * _arc_inv(5, -1, w, direction) - 8 * _arc_inv(239, -1, w, -direction)
    return _shift_dir(two_pi, 64, direction)


def _constant(name: str, wp: int, direction: int) -> int:
    """The constant name * 2**wp directed: taken from the table at wp rounded
    up to a multiple of 64, so nearby precisions share one entry, and shifted
    down in direction."""
    wpb = -(-wp // 64) * 64
    return _shift_dir(_constant_table(name, wpb, direction), wpb - wp, direction)


@table(None)
def _reduction_table(wp: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The steps of `_ln_of_dyadic`'s reduction at wp bits: pairs (j,
    -ln(1 - 2**-j) * 2**wp) for j = 2, 5, 8, ... up to isqrt(wp), as a
    tuple rounded DOWN and one rounded UP, each entry within one ulp.

    -ln(1 - y) = atanh(y) - ln(1 - y**2) / 2, so entry j is atanh(2**-j)
    plus half of entry 2j; the j and their doublings up to W = wp + 64
    form the set ks.  atanh(2**-k) is the sum over odd n of 2**-kn / n,
    whose term at W bits is floor(2**(W-2n) / n) >> (k-2) n, so one
    division per n serves every k.  n runs downward, so each sum grows
    from its smallest term.  One run of floors gives both ends: a term or
    a halving floored errs by under one, the terms with kn > W sum below
    one, and so does half the entry of a k past W/2.  So each lower sum
    plus its count of terms, one for the dropped ones and the ceiling of
    the upper half-entry is an upper bound, and the two lie far less than
    2**64 apart, so after the 64-bit shift, floor and ceiling, each end is
    within one ulp.  Every third j keeps the build short: about 27 ms at
    16,512 bits, against about 38 ms for every j, once per width class."""
    js = range(2, math.isqrt(wp) + 1, 3)
    big = wp + 64
    ks = sorted({j << i for j in js for i in range(big.bit_length()) if j << i <= big})
    sums = dict.fromkeys(ks, 0)
    for n in range((big // 2 - 1) | 1, 0, -2):
        head = (1 << (big - 2 * n)) // n
        for k in ks:
            if k * n > big:
                break
            sums[k] += head >> ((k - 2) * n)
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for k in reversed(ks):
        # (big // k + 1) // 2 odd n have kn <= big
        lo[k] = sums[k] + (lo[2 * k] >> 1 if 2 * k in lo else 0)
        hi[k] = sums[k] + (big // k + 1) // 2 + 1 + (-(-hi[2 * k] >> 1) if 2 * k in hi else 1)
    return (tuple((j, lo[j] >> 64) for j in js),
            tuple((j, -(-hi[j] >> 64)) for j in js))


def _ln_of_dyadic(m: int, e: int, wp: int, direction: int) -> int:
    """ln(m * 2**e) * 2**wp directed, for any positive integer m.  Either
    end lies within 2 |b| + 2 ulps of the exact value, b = e + bits(m) - 1
    the binary exponent, so a DOWN result plus that is an UP one
    (`lm_log_ends`).

    b ln 2 takes ln 2 directed at wp, within two ulps.  The mantissa ratio
    x = m / 2**(b-e) in [1, 2) is reduced at w = wp + bits(wp) + 8 bits,
    rounded up to a multiple of 64, by shift and subtract (Brent &
    Zimmermann, Modern Computer Arithmetic, 4.4): for j = 2, 5, 8, ... up
    to r = isqrt(w), while x (1 - 2**-j) stays at least 1, x takes that
    value and the sum takes -ln(1 - 2**-j) from `_reduction_table`.  After
    the steps at j, x < 1 / (1 - 2**-j), so the next j, three larger,
    takes at most nine steps, and the residual is below 1 + 2**(3-r): the
    atanh argument is below 2**(2-r) and the series needs about w / (2r)
    terms.  DOWN subtracts the ceiling of x / 2**j and UP its floor, so
    the residual errs in direction, as does every table entry: the
    contract carries over.  At w, the first rounding of x and each step
    err by under one ulp, each entry by about one, and the series by under
    4 T + 12 for its T <= w / (2r - 4) + 1 terms, together under
    8 sqrt(w) + 48 ulps, which the final shift by at least bits(wp) + 8
    bits leaves below one ulp at wp.
    """
    bl = m.bit_length()
    binexp = e + bl - 1
    if binexp:
        l2 = _constant("ln2", wp, direction if binexp > 0 else -direction)
        total = binexp * l2
    else:
        total = 0
    if m != 1 << (bl - 1):
        w = -(-(wp + wp.bit_length() + 8) // 64) * 64
        one = 1 << w
        down = direction == DOWN
        x = _shift_dir(m, bl - 1 - w, direction)
        reduced = 0
        for j, entry in _reduction_table(w)[not down]:
            # x (1 - 2**-j) rounded in direction
            y = x + (-x >> j) if down else x - (x >> j)
            while y >= one:
                x = y
                reduced += entry
                y = x + (-x >> j) if down else x - (x >> j)
        series = _ln_atanh_series(x, one, w, direction)
        total += _shift_dir(reduced + series, w - wp, direction)
    return total


def _exp_series(r: int, wp: int, direction: int) -> int:
    """exp(r * 2**-wp) * 2**wp directed, for 0 <= r < 0.74 * 2**wp.

    exp(r) = exp(r / 2**k) ** (2**k), with k = isqrt(wp): a square is
    cheaper than a term.  At w = wp + k + 4 bits r / 2**k is exactly
    r << 4, so the series argument is below 0.74 * 2**-k <= 0.37 and it
    takes T <= w // k + 1 terms.
    Every term is positive, so DOWN floors each one with >> and //.  UP
    runs the same loop on the negated values: floor(-x) is -ceil(x), so
    each negated term is the negated ceiling, and the negated total is the
    sum rounded up.  The series stops at a term t <= 2 ulps and the ratio
    of successive terms is below 0.37, so the dropped terms sum below
    t / (1 - 0.37) <= 4 ulps: DOWN drops them, UP adds 4 ulps.  Squaring
    is increasing on positive values, so each square rounded in direction
    (for UP, the floor of the negated square) keeps the directed contract.
    The squarings scale a relative error by 2**k: the series' roundings,
    under 1.25 ulps a term (a floored term carries 0.37 / i of the error
    of the one before), its 4 ulp tail bound and the rounded squares come
    to a relative error under (1.25 T + 5) * 2**(k-w).  So where exp(r) < 2
    a result errs by under (5 T + 20) / 32 ulps at wp, and one more for the
    final shift.
    """
    s = -direction  # 1 for DOWN; UP runs on negated values
    k = math.isqrt(wp)
    w = wp + k + 4
    r <<= 4
    total = t = s << w
    i = 1
    while t > 2 or t < -2:
        t = ((t * r) >> w) // i
        total += t
        i += 1
    if direction == UP:
        total -= 4
    for _ in range(k):
        total = (s * (total * total)) >> w
    return s * (total >> (w - wp))


# ---------------------------------------------------------------------------
# LogMag


class LogMag:
    """Directed-rounding float: sign * (man / 2**prec) * 2**exp.

    sign is -1, 0 or +1; man is normalized to [2**(prec-1), 2**prec) so the
    mantissa man/2**prec lies in [1/2, 1); exp is an unbounded integer.  mode
    (UP or DOWN) records how this value was rounded; an operation on it
    rounds as its own caller says.  Instances are immutable; comparisons are
    exact on values and ignore mode.
    """

    __slots__ = ("sign", "man", "exp", "prec", "mode")

    def __init__(self, sign: int, man: int, exp: int, prec: int, mode: int):
        if mode not in (UP, DOWN):
            raise ValueError("rounding mode must be UP or DOWN")
        if prec < MIN_PRECISION:
            raise ValueError("precision too small")
        if sign == 0:
            man = 0
            exp = 0
        elif not (1 << (prec - 1)) <= man < (1 << prec):
            raise ValueError("mantissa not normalized")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "man", man)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, *a):
        raise AttributeError("LogMag is immutable")

    # -- constructors (the operations build their results with `_logmag`)

    @staticmethod
    def zero(prec: int, mode: int) -> "LogMag":
        return LogMag(0, 0, 0, prec, mode)

    @staticmethod
    def one(prec: int, mode: int) -> "LogMag":
        return LogMag(1, 1 << (prec - 1), 1, prec, mode)

    @staticmethod
    def from_int(n: int, prec: int, mode: int) -> "LogMag":
        return _round(n, 1, 0, prec, mode)

    @staticmethod
    def from_fraction(value, prec: int, mode: int) -> "LogMag":
        t = type(value)
        if t is int:
            return _round(value, 1, 0, prec, mode)
        fr = value if t is Fraction else Fraction(value)
        return _round(fr.numerator, fr.denominator, 0, prec, mode)

    # -- exact views

    def is_zero(self) -> bool:
        return self.sign == 0

    def to_fraction(self) -> Fraction:
        """Exact value.  Refuses absurd exponents (gigabyte denominators)."""
        if self.sign == 0:
            return Fraction(0)
        shift = self.exp - self.prec
        if abs(shift) > 1 << 24:
            raise OverflowError("exponent too large for exact conversion")
        if shift >= 0:
            return Fraction(self.sign * self.man << shift)
        return Fraction(self.sign * self.man, 1 << -shift)

    def dyadic(self) -> tuple[int, int]:
        """(M, E) with exact value M * 2**E."""
        return self.sign * self.man, self.exp - self.prec

    # -- comparisons

    def _cmp(self, other) -> int:
        """Exact comparison with a LogMag, int or Fraction, safe for huge
        exponents: n/d * 2**e lies in (2**(b-1), 2**(b+1)) for b = bits(n) -
        bits(d) + e, so b values 2 or more apart settle the order at once."""
        if not isinstance(other, (LogMag, int, Fraction)):
            raise TypeError(f"cannot compare LogMag with {type(other).__name__}")
        na, da, ea = _exact(self)
        nb, db, eb = _exact(other)
        if (na > 0) != (nb > 0) or not na or not nb:
            # the signs differ or one side is zero; d > 0, so n decides
            return (na > nb) - (na < nb)
        ba = na.bit_length() - da.bit_length() + ea
        bb = nb.bit_length() - db.bit_length() + eb
        if abs(ba - bb) >= 2:
            return 1 if (ba > bb) == (na > 0) else -1
        e = min(ea, eb)
        lhs = (na * db) << (ea - e)
        rhs = (nb * da) << (eb - e)
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        """Python's numeric hash of the exact value man * 2**(exp - prec), so
        that values equal under __eq__, ints and Fractions included, hash
        alike; the power of two is taken modulo the hash modulus and never
        formed."""
        modulus = sys.hash_info.modulus
        h = self.sign * (self.man * pow(2, self.exp - self.prec, modulus) % modulus)
        return -2 if h == -1 else h

    def __neg__(self):
        """Exact negation; the recorded direction flips with the sign."""
        return _logmag(-self.sign, self.man, self.exp, self.prec, -self.mode)

    # -- rendering

    def to_decimal_string(self, digits: int = 24) -> str:
        return _decimal_string(self, digits)

    def log10_float(self) -> float:
        """log10 of |value| as a plain float, for summary columns only."""
        if self.sign == 0:
            raise ValueError("log10 of zero")
        drop = max(0, self.prec - 64)
        return (self.exp - self.prec + drop) * math.log10(2) + math.log10(
            self.man >> drop
        )

    def __repr__(self):
        if self.sign == 0:
            return f"LogMag(0, prec={self.prec}, {mode_name(self.mode)})"
        return (
            f"LogMag({self.to_decimal_string(12)}, prec={self.prec}, "
            f"{mode_name(self.mode)})"
        )


def _logmag(sign: int, man: int, exp: int, prec: int, mode: int, _new=object.__new__,
            _sign=LogMag.sign.__set__, _man=LogMag.man.__set__, _exp=LogMag.exp.__set__,
            _prec=LogMag.prec.__set__, _mode=LogMag.mode.__set__) -> LogMag:
    """The private constructor of `_round`'s and negation's results: the
    public one without its checks and its object.__setattr__ calls, for
    fields that already hold its invariant (module docstring).  The slot
    setters are bound as defaults, so each is a local lookup."""
    x = _new(LogMag)
    _sign(x, sign)
    _man(x, man)
    _exp(x, exp)
    _prec(x, prec)
    _mode(x, mode)
    return x


def _exact(x) -> tuple[int, int, int]:
    """(n, d, e) with d > 0 and exact value (n/d) * 2**e: a LogMag, an int, or
    anything Fraction accepts."""
    t = type(x)
    if t is LogMag:
        return x.sign * x.man, 1, x.exp - x.prec
    if t is int:
        return x, 1, 0
    fr = x if t is Fraction else Fraction(x)
    return fr.numerator, fr.denominator, 0


def _round(n: int, d: int, e: int, prec: int, direction: int) -> LogMag:
    """The prec-bit LogMag next to (n/d) * 2**e in direction; d > 0.  With
    2**(b-1) <= |n|/d < 2**b the magnitude |n|/d * 2**(prec-b) is rounded by
    a shift and a sticky-bit test when d == 1, else by one directed division.
    It checks prec and direction as the public constructor does; the
    mantissa it builds is normalized, so the result takes `_logmag`."""
    if direction != UP and direction != DOWN:
        raise ValueError("rounding mode must be UP or DOWN")
    if prec < MIN_PRECISION:
        raise ValueError("precision too small")
    if n == 0:
        return _logmag(0, 0, 0, prec, direction)
    sign = 1 if n > 0 else -1
    mag_dir = direction * sign
    a = abs(n)
    if d == 1:
        b = a.bit_length()
        shift = b - prec
        if shift <= 0:
            return _logmag(sign, a << -shift, e + b, prec, direction)
        q = a >> shift
        if mag_dir == UP and a & ((1 << shift) - 1):
            q += 1
    else:
        b = a.bit_length() - d.bit_length()
        if (a << max(0, -b)) >= (d << max(0, b)):
            b += 1
        shift = b - prec
        q = _div_dir(a << max(0, -shift), d << max(0, shift), mag_dir)
    if q >> prec:
        # rounding away from zero carried into a new leading bit: q = 2**prec
        q >>= 1
        b += 1
    return _logmag(sign, q, e + b, prec, direction)


def _coerce(x, prec: int, mode: int) -> LogMag:
    if type(x) is LogMag:
        return x
    if isinstance(x, (int, Fraction)):
        return _round(*_exact(x), prec, mode)
    raise TypeError(f"cannot mix LogMag with {type(x).__name__}")


def lm_add(a, b, prec: int, mode: int) -> LogMag:
    """Directed a + b.  Exact (then rounded once) when exponents are close;
    otherwise the larger operand is nudged one ulp in the direction the
    smaller operand pulls, which preserves the directed contract."""
    a = _coerce(a, prec, mode)
    b = _coerce(b, prec, mode)
    if a.sign == 0:
        return _round(b.sign * b.man, 1, b.exp - b.prec, prec, mode)
    ma, ea = a.sign * a.man, a.exp - a.prec
    if b.sign == 0:
        return _round(ma, 1, ea, prec, mode)
    mb, eb = b.sign * b.man, b.exp - b.prec
    if ea < eb:
        ma, ea, mb, eb = mb, eb, ma, ea
    gap = ea - eb
    if gap <= max(a.prec, b.prec) + prec + 16:
        return _round((ma << gap) + mb, 1, eb, prec, mode)
    ext = 8
    m = ma << ext
    if mode == UP and mb > 0:
        m += 1
    elif mode == DOWN and mb < 0:
        m -= 1
    return _round(m, 1, ea - ext, prec, mode)


def lm_sub(a, b, prec: int, mode: int) -> LogMag:
    return lm_add(a, -b if isinstance(b, LogMag) else -Fraction(b), prec, mode)


def lm_mul(a, b, prec: int, mode: int) -> LogMag:
    """Directed a * b: the exact product of the operand values, rounded once."""
    if type(a) is LogMag and type(b) is LogMag:
        return _round(a.sign * b.sign * a.man * b.man, 1,
                      a.exp - a.prec + b.exp - b.prec, prec, mode)
    na, da, ea = _exact(a)
    nb, db, eb = _exact(b)
    return _round(na * nb, da * db, ea + eb, prec, mode)


def lm_div(a, b, prec: int, mode: int) -> LogMag:
    """Directed a / b: the exact quotient of the operand values, rounded once."""
    if type(a) is LogMag and type(b) is LogMag and b.sign:
        return _round(a.sign * b.sign * a.man, b.man,
                      a.exp - a.prec - b.exp + b.prec, prec, mode)
    na, da, ea = _exact(a)
    nb, db, eb = _exact(b)
    if nb == 0:
        raise ZeroDivisionError("LogMag division by zero")
    if nb < 0:
        na, nb = -na, -nb
    return _round(na * db, da * nb, ea - eb, prec, mode)


def lm_pow(base, e, prec: int, mode: int) -> LogMag:
    """Directed base**e.  e may be an int, a Fraction, or a LogMag (taken at
    its exact dyadic value).  Non-integral exponents require base > 0."""
    if isinstance(e, LogMag):
        me, ee = e.dyadic()
        if ee >= 0:
            e = me << ee
        else:
            if -ee > 1 << 20:
                raise ValueError("exponent too finely dyadic for pow")
            e = Fraction(me, 1 << -ee)
    if isinstance(e, Fraction) and e.denominator == 1:
        e = e.numerator
    if isinstance(e, int):
        if not isinstance(base, LogMag):
            # x**e is not increasing in x everywhere: for x > 0 it decreases
            # when e < 0, for x < 0 the parity of e matters too
            fr = base if type(base) is int else Fraction(base)
            if fr < 0:
                d = mode if (e % 2 == 1) == (e > 0) else -mode
            else:
                d = mode if e >= 0 else -mode
            base = _coerce(fr, prec, d)
        return _pow_int(base, e, prec, mode)
    if not isinstance(e, Fraction):
        raise TypeError("pow exponent must be int, Fraction, or LogMag")
    # the result is decreasing in the base when e < 0: coerce accordingly
    base = _coerce(base, prec, mode if e >= 0 else -mode)
    if base.sign < 0:
        raise ValueError("fractional power of a negative value")
    if base.sign == 0:
        if e > 0:
            return LogMag(0, 0, 0, prec, mode)
        raise ValueError("zero base requires a positive exponent")
    wp = (
        prec
        + 48
        + abs(base.exp).bit_length()
        + abs(e.numerator).bit_length()
    )
    dln = mode if e > 0 else -mode
    lf = _ln_of_dyadic(base.man, base.exp - base.prec, wp, dln)
    y = _div_dir(lf * e.numerator, e.denominator, mode)
    return _exp_of_fixed(y, wp, prec, mode)


def _pow_int(base: LogMag, e: int, prec: int, mode: int) -> LogMag:
    if e == 0:
        if base.sign == 0:
            raise ValueError("0**0 is undefined")
        return LogMag.one(prec, mode)
    if base.sign == 0:
        if e > 0:
            return LogMag(0, 0, 0, prec, mode)
        raise ZeroDivisionError("zero to a negative power")
    if e < 0:
        inv = _pow_int(base, -e, prec, -mode)
        return lm_div(LogMag.one(prec, mode), inv, prec, mode)
    sign = -1 if (base.sign < 0 and e % 2) else 1
    work = prec + 8
    # square-and-multiply on the magnitude from the low bit of e, every
    # product trimmed to work bits toward the magnitude's direction.  cm
    # and am hold t times their magnitudes, t = -1 when these round UP and
    # 1 when DOWN: t times a product of two is t times the product of the
    # magnitudes, and as floor(-x) is -ceil(x) one floor shift trims it
    # either way, with no test of the direction
    t = -1 if (mode if sign > 0 else -mode) == UP else 1
    cm, ce = t * base.man, base.exp - base.prec
    am = ae = 0
    while True:
        if e & 1:
            if am:
                am = t * (am * cm)
                ae += ce
                s = am.bit_length() - work
                if s > 0:
                    am >>= s
                    ae += s
            else:
                am, ae = cm, ce
        e >>= 1
        if not e:
            break
        cm = t * (cm * cm)
        ce *= 2
        s = cm.bit_length() - work
        if s > 0:
            cm >>= s
            ce += s
    return _round(sign * t * am, 1, ae, prec, mode)


def lm_log(x, prec: int, mode: int) -> LogMag:
    """Directed natural log of a positive value.  ln 1 is exactly zero.

    Cost grows with the bit length of the exponent integer, which stays tiny
    (a few dozen bits) even for the largest bound values in this package.
    """
    return lm_log_ends(_coerce(x, prec, mode), prec)[mode == UP]


def lm_log_ends(x, prec: int) -> tuple[LogMag, LogMag]:
    """(ln x rounded DOWN, ln x rounded UP) of a positive value, each end
    what lm_log gives.  x is rounded to prec bits DOWN for the lower end and
    UP for the upper one; when both are x itself, as for a LogMag or an int
    of at most prec bits, one DOWN run of the kernel at wp = prec + 48 +
    bits(exponent) gives both ends, the upper one plus the kernel's stated
    error, 2 |b| + 2 ulps at wp."""
    lo, hi = _coerce(x, prec, DOWN), _coerce(x, prec, UP)
    if lo.sign <= 0:
        raise ValueError("log requires a positive value")
    if lo._cmp(hi) != 0:
        return lm_log_ends(lo, prec)[0], lm_log_ends(hi, prec)[1]
    if lo._cmp(1) == 0:
        return LogMag(0, 0, 0, prec, DOWN), LogMag(0, 0, 0, prec, UP)
    wp = prec + 48 + abs(lo.exp).bit_length()
    total = _ln_of_dyadic(lo.man, lo.exp - lo.prec, wp, DOWN)
    return (_round(total, 1, -wp, prec, DOWN),
            _round(total + 2 * abs(lo.exp - 1) + 2, 1, -wp, prec, UP))


_EXP_ARG_LIMIT = 1 << 16


def lm_exp(x, prec: int, mode: int) -> LogMag:
    """Directed e**x.  exp(0) is exactly one.

    The argument's binary exponent is capped (|x| < 2**65536): beyond that
    the ln 2 precision needed for sound range reduction gets impractical.
    """
    x = _coerce(x, prec, mode)
    if x.sign == 0:
        return LogMag.one(prec, mode)
    if x.exp > _EXP_ARG_LIMIT:
        raise OverflowError("exp argument too large to evaluate soundly")
    wp = prec + 48 + max(0, x.exp)
    m, e = x.dyadic()
    xf = _shift_dir(m, -(wp + e), mode)
    return _exp_of_fixed(xf, wp, prec, mode)


def _exp_of_fixed(xf: int, wp: int, prec: int, direction: int) -> LogMag:
    """exp(xf * 2**-wp) as a directed LogMag."""
    if xf == 0:
        return LogMag.one(prec, direction)
    l2_near = _constant("ln2", wp, DOWN)
    q = (2 * xf + l2_near) // (2 * l2_near)
    if q:
        # r = x - q ln2; an upper bound on r needs ln2 rounded against q's sign
        l2 = _constant("ln2", wp, -direction if q > 0 else direction)
        r = xf - q * l2
    else:
        r = xf
    if r >= 0:
        s = _exp_series(r, wp, direction)
    else:
        # exp(r) = 1 / exp(-r), the fixed-point reciprocal 2**(2*wp) / exp(-r)
        s = _div_dir(1 << (2 * wp), _exp_series(-r, wp, -direction), direction)
    return _round(s, 1, q - wp, prec, direction)


def lm_ln_two_pi(prec: int, mode: int) -> LogMag:
    """Directed ln(2*pi): the table entry at prec + 48 bits, rounded once."""
    wp = prec + 48
    return _round(_constant("ln_two_pi", wp, mode), 1, -wp, prec, mode)


def lm_sum(values, prec: int, mode: int) -> LogMag:
    """Directed sum, each partial sum rounded in mode; the empty sum is 0."""
    total = LogMag.zero(prec, mode)
    for v in values:
        total = lm_add(total, v, prec, mode)
    return total


def _decimal_string(x: LogMag, digits: int) -> str:
    """|x| truncated toward zero to max(digits, 2) significant digits, with
    x's sign, as d.ddd...e+N.

    With X = x.exp, 2**(X-1) <= |x| and floor((X-1) / log2 10), taken with
    log2 10 rounded up (X > 1) or down, is a decimal exponent e10 at most 2
    below the true one.  So n = floor(|x| * 10**k), k = digits - 1 - e10,
    has digits to digits + 2 digits, and cutting its string to digits is
    again an exact truncation.  For |X| <= 2 prec + 4 digits + 128 n comes
    from integers alone.  Beyond that n is never an integer (for X > 0,
    k < 0 and 5**-k > man; for X < 0, n has a factor 2 in its denominator),
    so `_scaled_floor` finds it.
    """
    if x.sign == 0:
        return "0"
    digits = max(digits, 2)
    m, e = x.man, x.exp - x.prec
    a = x.exp - 1
    w = -(-(a.bit_length() + 64) // 64) * 64
    e10 = (a << w) // _constant_table("log2_10", w, UP if a > 0 else DOWN)
    k = digits - 1 - e10
    if abs(x.exp) <= 2 * x.prec + 4 * digits + 128:
        n = (m * 10 ** max(k, 0) << max(e, 0)) // (10 ** max(-k, 0) << max(-e, 0))
    else:
        n = _scaled_floor(m, e, k, 4 * digits + 32)
    s = str(n)
    e10 += len(s) - digits
    sign = "-" if x.sign < 0 else ""
    return f"{sign}{s[0]}.{s[1:digits]}e{'+' if e10 >= 0 else ''}{decimal_str(e10)}"


@table(None)
def _two_power_table(j: int, wp: int) -> int:
    """2**(j/256) * 2**wp rounded DOWN, for 0 <= j < 256 and wp a multiple
    of 64: one entry per (j, width), made the first time `_scaled_floor`
    reads it.  It is a DOWN `_exp_series` at W = wp + 64 bits of
    floor(j ln 2 / 256), ln 2 rounded DOWN, shifted down by 64 bits.  The
    argument is below j ln 2 / 256 by under 3 ulps at W, which lowers the
    value, below 2, by under 6, and the series errs by under (5 T + 20) /
    32 + 1 ulps for its T < 2 sqrt(W) terms: together far below 2**14
    ulps, so the entry is below 2**(j/256) by under one ulp and a 2**-50
    part of one."""
    w = wp + 64
    return _exp_series((j * _constant("ln2", w, DOWN)) >> 8, w, DOWN) >> 64


def _exp_near_zero(r: int, wp: int) -> int:
    """exp(r * 2**-wp) * 2**wp rounded DOWN, for 0 <= r < 2**(wp - 8): the
    Taylor series, every term floored, with no argument reduction.

    The ratio of successive terms is below 2**-8 ln 2 < 0.003, so a term
    floored errs by under one ulp plus 0.003 of the error of the one
    before, under 1.01 ulps in all.  The sum stops after a term <= 2 ulps,
    and the dropped terms sum below 0.01 ulps.  A term t_i is at most
    2**(wp - 8.5 i), so at most wp // 8 + 1 terms follow the leading one,
    and the sum is below the exact value by under 1.01 (wp // 8 + 1) +
    0.01 ulps."""
    total = t = 1 << wp
    i = 1
    while t > 2:
        t = ((t * r) >> wp) // i
        total += t
        i += 1
    return total


def _scaled_floor(m: int, e: int, k: int, wp: int) -> int:
    """floor(m * 2**e * 10**k) for m > 0 and a value that is not an integer.

    Every width is a multiple of 64 bits, wp rounded up first, so each
    pass reads its table entries as they are.  The value is m * 2**(t_int
    + f) for t = e + k log2 10 split at an integer t_int.  With log2 10
    directed at w >= wp + bits(k) bits, t has an enclosure about 2**-wp
    wide; f's ends, rounded outward to wp bits, are f_lo in [0, 1) and
    f_hi, a few ulps above.  2**f_lo = 2**(j/256) * exp(r ln 2), j the top
    8 bits of f_lo and r < 2**-8 the rest.  The first factor is T,
    `_two_power_table`'s entry: T <= 2**(j/256) and below it by under 2
    ulps.  The second is S, `_exp_near_zero` of a = floor(r ln 2), ln 2
    rounded DOWN: with ln 2 within two ulps, r ln 2 - a < 1.01 ulps, and S
    is below exp(a) by under E = 1.01 (wp // 8 + 1) + 0.01 ulps.  So lo =
    floor(T S 2**-wp) <= 2**f_lo, and as T < 2 and S < 1.003 (in units of
    2**wp), (T + 2)(S + E) 2**-wp < lo + 1 + 2.01 + 2 E + 0.01 <= top =
    lo + 3 (wp // 8) + 6.  Then 2**f_hi < top exp((1.01 + 0.7 (f_hi -
    f_lo)) 2**-wp), and as exp(y) <= 1 + 2 y for y <= 1, hi = top (1 + 2
    (f_hi - f_lo + 3) 2**-wp), rounded up, is above it.  If lo and hi
    floor to different integers, wp doubles: the value is not an integer,
    so some wp separates it from both neighbours (Ziv, ACM TOMS 17,
    1991).
    """
    wp = -(-wp // 64) * 64
    while True:
        w = -(-(wp + abs(k).bit_length()) // 64) * 64
        lo_dir = DOWN if k >= 0 else UP
        t_lo = (e << w) + k * _constant_table("log2_10", w, lo_dir)
        t_hi = (e << w) + k * _constant_table("log2_10", w, -lo_dir)
        t_int = t_lo >> w
        f_lo = (t_lo - (t_int << w)) >> (w - wp)
        f_hi = -(((t_int << w) - t_hi) >> (w - wp))
        j = f_lo >> (wp - 8)
        a = ((f_lo - (j << (wp - 8))) * _constant_table("ln2", wp, DOWN)) >> wp
        lo = _two_power_table(j, wp) * _exp_near_zero(a, wp) >> wp
        top = lo + 3 * (wp // 8) + 6
        hi = top + _shift_dir(top * 2 * (f_hi - f_lo + 3), wp, UP)
        n_lo = _shift_dir(m * lo, wp - t_int, DOWN)
        n_hi = _shift_dir(m * hi, wp - t_int, DOWN)
        if n_lo == n_hi:
            return n_lo
        wp *= 2
