import json
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    DEC_TOL,
    dec_exp,
    dec_ln,
    dec_pow,
    dec_sqrt,
    mp_decimal_truncation,
    mp_exp_fixed,
    mp_ln_dyadic_fixed,
    mp_ln_two_pi,
    trial_division_factor,
)
from test_golden import fresh_interpreter
from smallpoints import numeric
from smallpoints.cli import dumps_indented
from smallpoints.numeric import (
    DOWN,
    MR_DETERMINISTIC_LIMIT,
    UP,
    LogMag,
    _constant,
    _constant_table,
    _exp_of_fixed,
    _exp_series,
    _ln_atanh_series,
    _ln_of_dyadic,
    _pow_int,
    _reduction_table,
    _round,
    _scaled_floor,
    _shift_dir,
    decimal_str,
    factor,
    is_prime,
    lm_add,
    lm_div,
    lm_exp,
    lm_ln_two_pi,
    lm_log,
    lm_log_ends,
    lm_mul,
    lm_pow,
    lm_sub,
    lm_sum,
)

# ---------------------------------------------------------------------------
# integer layer


def test_factor_frozen():
    assert factor(1) == []
    assert factor(2) == [(2, 1)]
    assert factor(256) == [(2, 8)]
    assert factor(3125) == [(5, 5)]
    assert factor(10) == [(2, 1), (5, 1)]
    assert factor(2**6 * 3**4 * 101) == [(2, 6), (3, 4), (101, 1)]
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(-6)


def test_factor_matches_trial_division():
    import random

    rng = random.Random(20260823)
    samples = list(range(1, 600)) + [rng.randrange(1, 10**9) for _ in range(60)]
    for n in samples:
        assert factor(n) == trial_division_factor(n), n


def test_factor_large_semiprimes():
    p, q = 1000003, 1000033
    assert factor(p * q) == [(p, 1), (q, 1)]
    m31 = 2**31 - 1
    assert factor(m31 * m31) == [(m31, 2)]
    assert factor(m31 * p) == [(p, 1), (m31, 1)]
    assert factor(2**61 - 1) == [(2**61 - 1, 1)]


def test_factor_splits_prime_powers_without_rho(monkeypatch):
    import sympy

    from smallpoints import numeric

    rho = numeric._pollard_rho

    def rho_on_non_powers(n):
        assert sympy.perfect_power(n) is False, n
        return rho(n)

    monkeypatch.setattr(numeric, "_pollard_rho", rho_on_non_powers)
    p, q = 1000003, sympy.nextprime(10**12)
    for n in (p * q**2, p * q**3, q**2, (p * q) ** 2):
        assert factor(n) == sorted(sympy.factorint(n).items()), n


def _runs():
    # the trial-division runs by interval, from sympy: run 0 below the
    # width, run r in [r * width, (r + 1) * width), cut off at 10**6
    import sympy

    width = numeric._RUN_WIDTH
    bounds = list(range(0, 10**6, width)) + [10**6]
    return [list(sympy.primerange(max(lo, 2), hi)) for lo, hi in zip(bounds, bounds[1:])]


def test_factor_at_trial_division_run_boundaries(monkeypatch):
    import sympy

    rho = numeric._pollard_rho

    def rho_above_trial_limit(m):
        # trial division leaves rho no prime below 10**6
        assert min(sympy.primefactors(m)) > 10**6, m
        return rho(m)

    monkeypatch.setattr(numeric, "_pollard_rho", rho_above_trial_limit)
    runs = _runs()
    assert len(runs) > 3 and runs[-1][-1] == 999983
    composite_rest = 1000003 * 1000033
    cases = [
        999983**2,
        999983 * 1000003,
        999983**3 * 7,
        999999999989,  # the largest prime below 10**12
        10**12 + 39,  # the least prime above 10**12
    ]
    for i in (0, 1, 2, 37, len(runs) - 2, len(runs) - 1):
        first, last = runs[i][0], runs[i][-1]
        cases += [first, last, first * last, first * last * composite_rest, last**2 * 1000003]
        if i + 1 < len(runs):
            # p * q inside one run and across two runs
            cases += [runs[i][1] * runs[i][-2], last * runs[i + 1][0], last * runs[i + 1][-1] * 1000003]
    for n in cases:
        assert factor(n) == sorted(sympy.factorint(n).items()), n
    # a run's full product times a prime above 10**6 (too big for factorint)
    for run, q in ((runs[5], 1000003), (runs[-1], 10**12 + 39)):
        assert factor(math.prod(run) * q) == [(p, 1) for p in run] + [(q, 1)]


def test_factor_prime_cofactor_builds_no_run_product():
    numeric._run_product.cache_clear()
    # after the first run of primes the cofactor 10**9 + 7 is prime
    assert factor(2**5 * 3 * 8161 * (10**9 + 7)) == [(2, 5), (3, 1), (8161, 1), (10**9 + 7, 1)]
    assert numeric._run_product.cache_info().currsize == 0
    # a composite cofactor goes through the run products
    assert factor(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]
    assert numeric._run_product.cache_info().currsize == len(_runs()) - 1


def test_one_prime_in_a_run_is_divided_out_without_a_sieve(monkeypatch):
    import sympy

    runs = _runs()
    for run in range(1, numeric._RUNS):
        numeric._run_product(run)
    sieved = []
    run_primes = numeric._run_primes
    monkeypatch.setattr(numeric, "_run_primes", lambda run: sieved.append(run) or run_primes(run))
    rest = 1000003 * 1000033
    for i in (1, 2, 37, len(runs) - 1):
        for p in (runs[i][0], runs[i][-1]):
            assert factor(p * rest) == [(p, 1), (1000003, 1), (1000033, 1)]
            assert factor(p**3 * 1000003) == [(p, 3), (1000003, 1)]
    assert sieved == []
    # two primes of one run have a product above lo**2: the run is sieved
    for i in (1, 37, len(runs) - 1):
        for n in (runs[i][0] * runs[i][-1], runs[i][1] ** 2 * runs[i][-2] * rest):
            assert factor(n) == sorted(sympy.factorint(n).items()), n
    assert sieved == [1, 1, 37, 37, len(runs) - 1, len(runs) - 1]


def test_run_primes_are_sympys():
    runs = _runs()
    assert len(runs) == numeric._RUNS
    assert list(numeric._first_run()) == runs[0]
    for run in range(1, len(runs)):
        assert numeric._run_primes(run) == runs[run], run


_FACTOR_PEAK = """
import tracemalloc
from smallpoints.numeric import factor

tracemalloc.start()
assert factor(2**5 * 3 * 8161 * (10**9 + 7)) == [(2, 5), (3, 1), (8161, 1), (10**9 + 7, 1)]
print(tracemalloc.get_traced_memory()[1])
"""


def test_factor_in_a_fresh_process_builds_no_prime_table():
    # the first factor call of a process allocates run 0 and no table of
    # every prime below 10**6 (about 3.5 MB)
    proc = fresh_interpreter(["-c", _FACTOR_PEAK], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 256 * 1024


def test_is_prime():
    # 3215031751 is the smallest strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(3215031751)
    assert factor(3215031751) == [(151, 1), (751, 1), (28351, 1)]
    for n in (2, 3, 5, 97, 104729, 2**61 - 1):
        assert is_prime(n)
    for n in (-7, 0, 1, 4, 1000001):
        assert not is_prime(n)


def test_is_prime_matches_sympy_below_20000(monkeypatch):
    import sympy

    assert [n for n in range(20000) if is_prime(n)] == list(sympy.primerange(20000))
    # below 37**2 trial division by the base primes settles it, with no
    # Miller-Rabin round
    monkeypatch.setattr(numeric, "_miller_rabin_witness", None)
    assert [n for n in range(37 * 37) if is_prime(n)] == list(sympy.primerange(37 * 37))


def digits_past_the_int_str_limit() -> tuple[str, int]:
    """A 5,000-digit decimal string and its int, built from 1,000-digit
    chunks, each under the interpreter's int/str conversion limit: str()
    of an int over 4300 digits raises ValueError in CPython >= 3.11."""
    rng = random.Random("digit-limit")
    chunks = [str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(999))
              for _ in range(5)]
    n = 0
    for chunk in chunks:
        n = n * 10**1000 + int(chunk)
    return "".join(chunks), n


def test_decimal_str_passes_the_int_str_limit():
    digits, n = digits_past_the_int_str_limit()
    assert decimal_str(n) == digits
    assert decimal_str(-n) == "-" + digits
    assert [decimal_str(k) for k in (0, 7, -12, 10**20)] == ["0", "7", "-12", "1" + "0" * 20]


def test_primality_certainty_flags():
    # a prime is known only probabilistically exactly at or above the limit
    assert is_prime(2**61 - 1) and 2**61 - 1 < MR_DETERMINISTIC_LIMIT
    assert is_prime(2**89 - 1) and 2**89 - 1 >= MR_DETERMINISTIC_LIMIT
    assert not is_prime((2**61 - 1) ** 2)


# ---------------------------------------------------------------------------
# LogMag representation


def test_from_int_exact_roundtrip():
    for n in (1, -1, 7, -12345, 2**100, -(3**40), 10**30):
        x = LogMag.from_int(n, prec=128, mode=UP)
        assert x.to_fraction() == n
        m, e = x.dyadic()
        assert Fraction(m) * Fraction(2) ** e == n


def test_from_fraction_dyadic_exact():
    x = LogMag.from_fraction(Fraction(3, 8), prec=64, mode=DOWN)
    assert x.to_fraction() == Fraction(3, 8)
    assert LogMag.zero(128, UP).is_zero()
    assert LogMag.one(96, DOWN).to_fraction() == 1


def test_directed_construction_is_strict_for_non_dyadic():
    t = Fraction(1, 3)
    up = LogMag.from_fraction(t, prec=128, mode=UP)
    dn = LogMag.from_fraction(t, prec=128, mode=DOWN)
    assert dn < t < up
    assert up.to_fraction() - dn.to_fraction() <= Fraction(1, 2**127)


def test_immutable():
    x = LogMag.from_int(3, 128, UP)
    with pytest.raises(AttributeError):
        x.man = 5


def _fields(x: LogMag) -> tuple:
    return x.sign, x.man, x.exp, x.prec, x.mode


@given(n=st.integers(-(2**300), 2**300), d=st.integers(1, 2**200),
       e=st.integers(-(10**6), 10**6), prec=st.integers(numeric.MIN_PRECISION, 600),
       direction=st.sampled_from([UP, DOWN]))
@example(n=2**64 - 1, d=1, e=0, prec=8, direction=UP)  # the carry into a new bit
@example(n=-(2**64 - 1), d=3, e=5, prec=8, direction=DOWN)
@example(n=0, d=7, e=9, prec=8, direction=DOWN)
def test_round_results_pass_the_public_constructor_checks(n, d, e, prec, direction):
    """`_round` and negation build LogMags through the private constructor,
    which skips the checks: every result still has a normalized mantissa
    (zero mantissa and exponent at zero), a precision of at least
    MIN_PRECISION and mode UP or DOWN, so the public constructor accepts
    its fields and rebuilds the same value, and it is immutable."""
    for x in (_round(n, d, e, prec, direction), -_round(n, d, e, prec, direction)):
        assert type(x) is LogMag
        assert x.prec == prec >= numeric.MIN_PRECISION and x.mode in (UP, DOWN)
        if n == 0:
            assert (x.sign, x.man, x.exp) == (0, 0, 0)
        else:
            assert 2 ** (prec - 1) <= x.man < 2**prec and x.sign in (1, -1)
        assert _fields(LogMag(*_fields(x))) == _fields(x)
        with pytest.raises(AttributeError):
            x.man = 5
    assert _round(n, d, e, prec, direction).mode == direction


def test_round_checks_what_the_public_constructor_checks():
    for args in ((1, 1, 0, numeric.MIN_PRECISION - 1, UP), (0, 1, 0, 7, DOWN)):
        with pytest.raises(ValueError, match="precision too small"):
            _round(*args)
        with pytest.raises(ValueError, match="precision too small"):
            LogMag(1 if args[0] else 0, 64, 0, args[3], args[4])
    for mode in (0, 2, None):
        with pytest.raises(ValueError, match="rounding mode"):
            _round(3, 1, 0, 64, mode)
        with pytest.raises(ValueError, match="rounding mode"):
            LogMag(1, 1 << 63, 0, 64, mode)


def test_comparisons():
    a = LogMag.from_int(5, 128, UP)
    assert a == 5
    assert a == Fraction(5)
    assert a < 6 and a > 4
    assert a <= Fraction(11, 2)
    big = lm_pow(LogMag.from_int(2, 128, UP), 2000, 128, UP)
    assert big == 2**2000
    assert lm_pow(LogMag.from_int(2, 128, UP), 2001, 128, UP) > big
    with pytest.raises(TypeError):
        a < "5"


def test_negation_flips_sign_and_mode():
    x = LogMag.from_fraction(Fraction(1, 3), prec=64, mode=UP)
    y = -x
    assert y.sign == -1 and y.mode == DOWN
    assert y.to_fraction() == -x.to_fraction()


# ---------------------------------------------------------------------------
# directed contract on rational inputs, checked against exact arithmetic

_fracs = st.fractions(
    min_value=Fraction(-(10**9)), max_value=Fraction(10**9), max_denominator=10**9
)
_modes = st.sampled_from([UP, DOWN])
_precs = st.sampled_from([16, 64, 128, 192])


def _check_directed(
    result: LogMag,
    exact: Fraction,
    mode: int,
    scale: Fraction | None = None,
    slack: int = 8,
):
    got = result.to_fraction()
    if mode == UP:
        assert got >= exact
    else:
        assert got <= exact
    # tightness: within a few ulps of the relevant magnitude.  For add/sub
    # that is the operand scale (cancellation), for pow the exponent
    # multiplies the base's coercion error.
    s = max(abs(exact) if scale is None else scale, Fraction(1))
    assert abs(got - exact) <= s * slack * Fraction(1, 2**result.prec)


@settings(max_examples=200)
@given(a=_fracs, b=_fracs, mode=_modes, prec=_precs)
def test_add_sub_directed(a, b, mode, prec):
    opscale = max(abs(a), abs(b))
    _check_directed(lm_add(a, b, prec=prec, mode=mode), a + b, mode, scale=opscale)
    _check_directed(lm_sub(a, b, prec=prec, mode=mode), a - b, mode, scale=opscale)


@settings(max_examples=200)
@given(a=_fracs, b=_fracs, mode=_modes, prec=_precs)
def test_mul_div_directed(a, b, mode, prec):
    _check_directed(lm_mul(a, b, prec=prec, mode=mode), a * b, mode)
    if b != 0:
        _check_directed(lm_div(a, b, prec=prec, mode=mode), a / b, mode)


@settings(max_examples=200)
@given(a=_fracs, e=st.integers(-6, 8), mode=_modes, prec=_precs)
def test_pow_int_directed(a, e, mode, prec):
    if a == 0 and e <= 0:
        return
    _check_directed(lm_pow(a, e, prec=prec, mode=mode), a**e, mode, slack=8 * (abs(e) + 1))


@settings(max_examples=200)
@given(a=_fracs, b=_fracs, mode=_modes)
def test_ops_directed_on_stored_values(a, b, mode):
    """The contract is on operand values: with LogMag operands the exact
    reference is the stored dyadic value, whatever it was rounded from."""
    x = LogMag.from_fraction(a, prec=64, mode=mode)
    y = LogMag.from_fraction(b, prec=64, mode=-mode)
    xf, yf = x.to_fraction(), y.to_fraction()
    opscale = max(abs(xf), abs(yf))
    _check_directed(lm_add(x, y, 64, mode), xf + yf, mode, scale=opscale)
    _check_directed(lm_sub(x, y, 64, mode), xf - yf, mode, scale=opscale)
    _check_directed(lm_mul(x, y, 64, mode), xf * yf, mode)
    if y.sign != 0:
        _check_directed(lm_div(x, y, 64, mode), xf / yf, mode)
    _check_directed(lm_pow(x, 3, 64, mode), xf**3, mode, slack=32)


# ---------------------------------------------------------------------------
# rounding by powers of two, checked for equality with Fraction floor/ceil


def _floor_or_ceil(x: Fraction, direction: int) -> int:
    return math.floor(x) if direction == DOWN else math.ceil(x)


_shifts = st.integers(-40, 400)
_wide_ints = st.integers(-(2**600), 2**600)


@settings(max_examples=300)
@given(a=_wide_ints, shift=_shifts, direction=_modes)
def test_shift_dir_is_exact_floor_or_ceil(a, shift, direction):
    assert _shift_dir(a, shift, direction) == _floor_or_ceil(
        Fraction(a) / Fraction(2) ** shift, direction
    )


def _grid_round(x: Fraction, prec: int, direction: int) -> Fraction:
    """x rounded in direction to the grid of prec-bit values around it."""
    if x == 0:
        return Fraction(0)
    b = abs(x.numerator).bit_length() - x.denominator.bit_length()
    while abs(x) >= Fraction(2) ** b:
        b += 1
    while abs(x) < Fraction(2) ** (b - 1):
        b -= 1
    # 2**(b-1) <= |x| < 2**b, so prec-bit values near x have spacing ulp
    ulp = Fraction(2) ** (b - prec)
    return _floor_or_ceil(x / ulp, direction) * ulp


@settings(max_examples=300)
@given(
    m=_wide_ints,
    d=st.one_of(st.just(1), st.integers(1, 2**300)),
    e=st.integers(-500, 500),
    prec=_precs,
    direction=_modes,
)
def test_round_is_exact_floor_or_ceil(m, d, e, prec, direction):
    got = _round(m, d, e, prec, direction)
    assert (got.mode, got.prec) == (direction, prec)
    assert got.to_fraction() == _grid_round(Fraction(m, d) * Fraction(2) ** e, prec, direction)


def _logmags(draw_prec):
    return st.builds(
        lambda sign, frac, exp, prec, mode: LogMag(
            sign, (1 << (prec - 1)) + frac % (1 << (prec - 1)), exp, prec, mode
        ),
        st.sampled_from([1, -1]),
        st.integers(0, 2**300),
        st.integers(-80, 80),
        draw_prec,
        _modes,
    )


_operands = st.one_of(
    _logmags(st.sampled_from([8, 16, 53, 64, 128, 300])),
    st.integers(-(2**200), 2**200),
    _fracs,
)


def _exact_value(x) -> Fraction:
    return x.to_fraction() if isinstance(x, LogMag) else Fraction(x)


@settings(max_examples=400)
@given(a=_operands, b=_operands, prec=_precs, mode=_modes)
@example(
    a=LogMag(1, 3 << 14, 0, 16, UP),
    b=LogMag(1, (1 << 299) + 12345, 0, 300, UP),
    prec=16,
    mode=UP,
)
def test_mul_div_round_exact_value_once(a, b, prec, mode):
    """lm_mul and lm_div on any LogMag/int/Fraction pair, LogMags of mixed
    precisions included, equal the exact result rounded once at the
    requested precision."""
    xa, xb = _exact_value(a), _exact_value(b)
    got = lm_mul(a, b, prec=prec, mode=mode)
    assert (got.mode, got.prec) == (mode, prec)
    assert got.to_fraction() == _grid_round(xa * xb, prec, mode)
    if xb == 0:
        with pytest.raises(ZeroDivisionError):
            lm_div(a, b, prec=prec, mode=mode)
        return
    got = lm_div(a, b, prec=prec, mode=mode)
    assert (got.mode, got.prec) == (mode, prec)
    assert got.to_fraction() == _grid_round(xa / xb, prec, mode)


@settings(max_examples=400)
@given(
    a=st.one_of(_logmags(st.sampled_from([8, 16, 53, 64, 128, 300])), st.just(LogMag.zero(128, UP))),
    b=st.one_of(_operands, st.just(LogMag.zero(128, DOWN))),
    prec=_precs,
)
def test_cmp_matches_fraction_reference(a, b, prec):
    """LogMag._cmp against LogMags of other precisions, ints, Fractions and
    zero, including values next to a's own."""
    x = a.to_fraction()
    tie = Fraction(1, 2**400)
    nearby = [_round(x.numerator, x.denominator, 0, prec, d) for d in (UP, DOWN)]
    for other in [b, x, x + tie, x - tie] + nearby:
        y = _exact_value(other)
        assert a._cmp(other) == (x > y) - (x < y)
        if isinstance(other, LogMag):
            assert other._cmp(a) == (y > x) - (y < x)


def test_cmp_exponents_near_2_pow_40():
    # values near 2**(2**40) and 2**(-2**40): comparing them by forming the
    # exact product would need a 2**40-bit integer
    big = LogMag(1, 1 << 63, 2**40, 64, UP)
    same = LogMag(1, 1 << 299, 2**40, 300, DOWN)
    above = LogMag(1, (1 << 299) + 1, 2**40, 300, DOWN)
    twice = LogMag(1, 1 << 63, 2**40 + 1, 64, UP)
    tiny = LogMag(1, 1 << 63, -(2**40), 64, UP)
    assert big > 3 and big > Fraction(10**30, 7) and -big < -(10**30)
    assert 0 < tiny < Fraction(1, 10**30) and -tiny > Fraction(-1, 3)
    assert big == same and big < above < twice and -twice < -above < -big
    assert tiny < big and -big < -tiny and tiny != big


def _pow_int_reference(base: LogMag, e: int, prec: int, mode: int) -> Fraction:
    """Square-and-multiply on (mantissa, exponent) pairs as _pow_int does
    it, each trim of a mantissa to prec + 8 bits taken by Fraction
    floor/ceil."""
    sign = -1 if (base.sign < 0 and e % 2) else 1
    mag_dir = mode if sign > 0 else -mode
    work = prec + 8

    def trim(mm: int, ee: int) -> tuple[int, int]:
        shift = max(0, mm.bit_length() - work)
        return _floor_or_ceil(Fraction(mm, 2**shift), mag_dir), ee + shift

    cur = (base.man, base.exp - base.prec)
    acc = None
    for bit in reversed(bin(e)[2:]):
        if bit == "1":
            acc = cur if acc is None else trim(acc[0] * cur[0], acc[1] + cur[1])
        cur = trim(cur[0] * cur[0], cur[1] * 2)
    ulp = Fraction(2) ** (acc[1] + acc[0].bit_length() - prec)
    value = sign * acc[0] * Fraction(2) ** acc[1]
    return _floor_or_ceil(value / ulp, mode) * ulp


@settings(max_examples=200)
@given(
    negative=st.booleans(),
    frac=st.integers(0, 2**200),
    exp=st.integers(-60, 60),
    e=st.integers(1, 40),
    prec=_precs,
    mode=_modes,
)
def test_pow_int_trims_exactly(negative, frac, exp, e, prec, mode):
    man = (1 << (prec - 1)) + frac % (1 << (prec - 1))
    base = LogMag(-1 if negative else 1, man, exp, prec, mode)
    got = _pow_int(base, e, prec, mode)
    assert got.to_fraction() == _pow_int_reference(base, e, prec, mode)


def test_mixed_sign_regressions():
    # rounding the operands toward the result direction would be unsound here
    r = lm_sub(0, Fraction(1, 3), prec=128, mode=UP)
    assert r.to_fraction() >= Fraction(-1, 3)
    r = lm_mul(LogMag.from_int(-1, 128, UP), Fraction(1, 3), 128, UP)
    assert r.to_fraction() >= Fraction(-1, 3)
    r = lm_div(LogMag.from_int(1, 128, DOWN), Fraction(-3), 128, DOWN)
    assert r.to_fraction() <= Fraction(-1, 3)
    r = lm_pow(Fraction(-3, 7), 2, prec=64, mode=UP)
    assert r.to_fraction() >= Fraction(9, 49)
    r = lm_pow(Fraction(-3, 7), -2, prec=64, mode=DOWN)
    assert r.to_fraction() <= Fraction(49, 9)


def test_add_with_far_apart_exponents():
    big = lm_pow(LogMag.from_int(2, 128, UP), 10**6, 128, UP)
    tiny = Fraction(1, 3)
    up = lm_add(big, tiny, 128, UP)
    assert up >= 2 ** (10**6)  # exact comparison despite the huge exponent
    dn = lm_sub(lm_pow(LogMag.from_int(2, 128, DOWN), 10**6, 128, DOWN), tiny, 128, DOWN)
    assert dn <= 2 ** (10**6)


def test_zero_arithmetic():
    z = LogMag.zero(128, UP)
    x = LogMag.from_int(7, 128, UP)
    assert lm_add(z, x, 128, UP) == 7
    assert lm_mul(z, x, 128, UP).is_zero()
    with pytest.raises(ZeroDivisionError):
        lm_div(x, z, 128, UP)
    with pytest.raises(ZeroDivisionError):
        lm_div(x, 0, 128, UP)
    with pytest.raises(ValueError):
        lm_pow(z, 0, 128, UP)
    with pytest.raises(ZeroDivisionError):
        lm_pow(z, -2, 128, UP)


# ---------------------------------------------------------------------------
# transcendental layer against decimal-module and mpmath oracles


def _assert_brackets(lo: LogMag, hi: LogMag, oracle: Fraction, width: Fraction):
    lof, hif = lo.to_fraction(), hi.to_fraction()
    assert lof <= oracle + DEC_TOL
    assert hif >= oracle - DEC_TOL
    assert hif - lof <= width


def test_log_brackets_oracle():
    for v in (2, 3, 10, 999983, Fraction(3, 7), Fraction(1, 1000), Fraction(22, 7)):
        lo = lm_log(v, prec=192, mode=DOWN)
        hi = lm_log(v, prec=192, mode=UP)
        _assert_brackets(lo, hi, dec_ln(v), Fraction(1, 2**150))


def test_ln_kernel_brackets_mpmath_across_precisions():
    """The fixed-point ln kernel, at working precisions from the smallest
    LogMag ones up to those of 2048-bit bound reports and their decimal
    rendering, brackets the mpmath value within a few ulps per unit of
    binary exponent (ln 2 is the only other inexact input)."""
    bl = 128
    h = 1 << (bl - 1)
    rng = random.Random(2100)
    mantissas = (h, h + (h >> 50), 2 * h - 1, rng.randrange(h, 2 * h))
    for wp in (40, 80, 200, 560, 2100, 8200):
        for m in mantissas:
            for binexp in (-3000, -1, 0, 5, 10**6):
                e = binexp - (bl - 1)
                lo = _ln_of_dyadic(m, e, wp, DOWN)
                hi = _ln_of_dyadic(m, e, wp, UP)
                exact = mp_ln_dyadic_fixed(m, e, wp)
                tol = Fraction(1, 2**64)
                assert lo <= exact + tol and hi >= exact - tol, (wp, m, binexp)
                assert hi - lo <= 4 * (abs(binexp) + 1) + 64, (wp, m, binexp)


def test_ln_kernel_lies_within_its_stated_bound():
    """At the working widths of 64-bit to 16,384-bit reports, each end of
    _ln_of_dyadic brackets the mpmath value within the 2 |b| + 2 ulps its
    docstring states, b the binary exponent: at the mantissa 2**(wp-1) + 1,
    whose ratio to 2**(wp-1) lies below every reduction step, at 2**wp - 1,
    where the steps start next to 2, and at seeded random ones."""
    rng = random.Random(41)
    for wp in (64, 176, 2110, 8256, 16448):
        h = 1 << (wp - 1)
        for m in (h + 1, 2 * h - 1, rng.randrange(h, 2 * h), rng.randrange(h, 2 * h)):
            for binexp in (0, -1, 10**6):
                e = binexp - (wp - 1)
                exact = mp_ln_dyadic_fixed(m, e, wp)
                lo = _ln_of_dyadic(m, e, wp, DOWN)
                hi = _ln_of_dyadic(m, e, wp, UP)
                bound = 2 * abs(binexp) + 2
                assert lo <= exact <= hi, (wp, m, binexp)
                assert exact - lo < bound and hi - exact < bound, (wp, m, binexp)


def test_reduction_table_brackets_mpmath():
    """Every -ln(1 - 2**-j) entry, at the widths the ln kernel runs at for
    the working precisions above, brackets the mpmath value, each pair at
    most two ulps wide, for j = 2, 5, 8, ... up to isqrt(width)."""
    import mpmath

    for w in (64, 192, 2176, 8320, 16512):
        down, up = _reduction_table(w)
        js = list(range(2, math.isqrt(w) + 1, 3))
        assert [j for j, _ in down] == [j for j, _ in up] == js
        with mpmath.workprec(w + 128):
            scale = mpmath.mpf(2) ** w
            for (j, lo), (_, hi) in zip(down, up):
                exact = -mpmath.log1p(-mpmath.mpf(2) ** -j) * scale
                assert lo <= exact <= hi and hi - lo <= 2, (w, j)


def _mp_scaled_floor(m: int, e: int, k: int, digits: int) -> int:
    """floor(m * 2**e * 10**k) from mpmath at four times the digits of the
    floor, for values far from an integer."""
    import mpmath

    with mpmath.workdps(4 * digits):
        return int(mpmath.floor(mpmath.mpf(m) * mpmath.mpf(2) ** e * mpmath.mpf(10) ** k))


def test_scaled_floor_is_exact():
    """_scaled_floor returns floor(m * 2**e * 10**k) exactly, scaled to
    about 26 digits as a 24-digit decimal string asks: against integer
    arithmetic where 2**e * 10**k can be formed, and against mpmath on
    towers such as 10**(3 * 10**8), its inverse and u(g)."""
    from smallpoints.bounds import u_g

    rng = random.Random(4141)
    for e, k in ((-5000, 1400), (6000, -1800), (-300, 60), (1000, -280), (-40000, 12000)):
        for _ in range(5):
            m = rng.randrange(1 << 127, 1 << 128) | 1
            exact = (m * 10 ** max(k, 0) << max(e, 0)) // (10 ** max(-k, 0) << max(-e, 0))
            assert _scaled_floor(m, e, k, 128) == exact, (m, e, k)
    towers = [lm_pow(10, 3 * 10**8, 128, mode) for mode in (UP, DOWN)]
    towers += [lm_pow(10, -3 * 10**8, 128, mode) for mode in (UP, DOWN)]
    towers += [lm_pow(7, 10**5, 128, UP)] + [u_g(g, 128) for g in (2, 3, 5)]
    for x in towers:
        m, e = x.man, x.exp - x.prec
        k = 25 - math.floor(x.log10_float())
        n = _scaled_floor(m, e, k, 4 * 24 + 32)
        assert 10**24 <= n < 10**27
        assert n == _mp_scaled_floor(m, e, k, 27), x


def test_decimal_kernels_meet_their_stated_bounds():
    """Each 2**(j/256) entry at wp bits is floor(2**(wp + j/256)), checked
    exactly as T**256 <= 2**(256 wp + j) < (T + 1)**256, and
    `_exp_near_zero` lies below exp(r 2**-wp) 2**wp by under its stated
    1.01 (wp // 8 + 1) + 0.01 ulps, at the ends of its domain and on
    seeded arguments, against mpmath."""
    for wp in (64, 128, 192, 512):
        for j in (0, 1, 2, 127, 128, 200, 254, 255):
            t = numeric._two_power_table(j, wp)
            assert t**256 <= 2 ** (256 * wp + j) < (t + 1) ** 256, (wp, j)
    rng = random.Random(20261021)
    for wp in (64, 128, 256, 2048):
        bound = Fraction(101, 100) * (wp // 8 + 1) + Fraction(1, 100)
        for r in [0, 1, (1 << (wp - 8)) - 1] + [rng.randrange(1 << (wp - 8)) for _ in range(30)]:
            below = mp_exp_fixed(r, wp) * 2**wp - numeric._exp_near_zero(r, wp)
            assert 0 <= below < bound, (wp, r, float(below))


def test_scaled_floor_doubles_its_precision_next_to_an_integer(monkeypatch):
    """A value 10**-31 (below 2**-100) above or below an integer cannot be
    told from it at 64 bits: Ziv's loop doubles the precision, one exp
    series per pass (`_exp_near_zero`, after the 2**(j/256) table), and
    returns the exact floor."""
    calls = []
    series = numeric._exp_near_zero

    def counting(*args):
        calls.append(args)
        return series(*args)

    monkeypatch.setattr(numeric, "_exp_near_zero", counting)
    for n, d in ((10**6 + 7, 1), (10**6 + 7, -1), (3**40, 1)):
        calls.clear()
        m = n * 10**31 + d
        assert _scaled_floor(m, 0, -31, 64) == (n if d > 0 else n - 1)
        assert [wp for _, wp in calls][:2] == [64, 128], calls


def test_exp_kernel_brackets_mpmath_across_precisions():
    """_exp_of_fixed and lm_exp, at working precisions from the smallest
    LogMag ones up to those of 2048-bit bound reports, bracket the mpmath
    value within a few ulps: at zero and tiny arguments, next to +-ln2/2,
    where the range reduction changes q, and next to 2**-k, which the k
    halvings in _exp_series take to 2**-2k.
    _exp_of_fixed is read at prec = wp, where the reduction by q ln 2,
    |q| <= 1 here, adds up to twice the width of the cached ln 2, one ulp
    at every wp."""
    for wp in (64, 160, 600, 2100):
        k = math.isqrt(wp)
        assert _constant("ln2", wp, UP) - _constant("ln2", wp, DOWN) == 1
        half_ln2 = _constant("ln2", wp, DOWN) // 2
        cut = 1 << (wp - k)
        args = [0, 1, -1, 1 << (wp // 2), cut - 1, cut, cut + 1, -cut]
        args += [s * (half_ln2 + d) for s in (1, -1) for d in (-2, -1, 0, 1, 2)]
        for xf in args:
            exact = mp_exp_fixed(xf, wp)
            tol = exact / 2 ** (wp + 64)
            x = Fraction(xf, 2**wp)
            for lo, hi, ulps in (
                (_exp_of_fixed(xf, wp, wp, DOWN), _exp_of_fixed(xf, wp, wp, UP),
                 6),
                (lm_exp(x, wp, DOWN), lm_exp(x, wp, UP), 2),
            ):
                lof, hif = lo.to_fraction(), hi.to_fraction()
                assert lof <= exact + tol and hif >= exact - tol, (wp, xf)
                ulp = Fraction(2) ** (hi.exp - hi.prec)
                assert hif - lof <= ulps * ulp, (wp, xf, (hif - lof) / ulp)


# Reference forms of the two series kernels: one loop per direction, UP
# with explicit ceilings.


def _ln_atanh_series_two_loops(p: int, q: int, wp: int, direction: int) -> int:
    if p == q:
        return 0
    num, den = p - q, p + q
    total = 0
    k = 1
    if direction == DOWN:
        t = (num << wp) // den
        z2 = (t * t) >> wp
        while t > 2:
            total += t // k
            t = (t * z2) >> wp
            k += 2
    else:
        t = -((-num << wp) // den)
        z2 = -((-t * t) >> wp)
        while t > 2:
            total -= -t // k
            t = -((-t * z2) >> wp)
            k += 2
        total += 3
    return 2 * total


def _exp_series_two_loops(r: int, wp: int, direction: int) -> int:
    k = math.isqrt(wp)
    w = wp + k + 4
    r <<= 4
    total = t = 1 << w
    i = 1
    if direction == DOWN:
        while t > 2:
            t = ((t * r) >> w) // i
            total += t
            i += 1
        for _ in range(k):
            total = (total * total) >> w
        return total >> (w - wp)
    while t > 2:
        t = -((((-t) * r) >> w) // i)
        total += t
        i += 1
    total += 4
    for _ in range(k):
        total = -((-(total * total)) >> w)
    return -((-total) >> (w - wp))


def test_series_kernels_match_their_two_loop_form():
    """Each kernel runs one loop for both directions and returns the
    two-loop form's integer exactly: at the ends of each domain (r = 0,
    r next to 0.74 * 2**wp, p = q, p/q next to 1 and to 2) for wp from 8 to
    4000, and on 10,000 seeded inputs per kernel and direction, one in a
    hundred with wp log-uniform up to 4000 and the others at most 400 bits,
    as a call at thousands of bits takes milliseconds."""

    def check(r, p, q, wp):
        for direction in (DOWN, UP):
            assert _exp_series(r, wp, direction) == _exp_series_two_loops(r, wp, direction), (
                r, wp, direction)
            assert _ln_atanh_series(p, q, wp, direction) == _ln_atanh_series_two_loops(
                p, q, wp, direction), (p, q, wp, direction)

    def r_end(wp):
        return (74 << wp) // 100  # r < 0.74 * 2**wp

    for wp in (8, 9, 31, 64, 65, 127, 1000, 4000):
        for q in (1, 7, 1 << (wp + 8), (1 << (wp + 8)) - 1):
            for r, p in ((0, q), (1, q + 1), (r_end(wp) - 1, 2 * q - 1), (r_end(wp) - 1, 2 * q)):
                check(r, p, q, wp)
    rng = random.Random(20261020)
    for _ in range(10_000):
        wp = int(8 * 500 ** rng.random()) if rng.random() < 0.01 else rng.randint(8, 400)
        r = rng.choice((0, 1, r_end(wp) - 1, rng.randrange(r_end(wp)), rng.randrange(1 << (wp // 2))))
        q = rng.choice((1 << (wp + 8), rng.randint(1, 1 << (wp + 8)), rng.randint(1, 50)))
        p = rng.choice((q, q + 1, 2 * q - 1, 2 * q, rng.randint(q, 2 * q)))
        check(r, p, q, wp)


def test_log_ends_are_lm_logs_from_one_kernel_run(monkeypatch):
    """lm_log_ends gives what lm_log gives DOWN and UP, from one run of the
    ln kernel when the argument is exact at the precision, and from one
    run per end when it rounds two ways."""
    calls = []
    kernel = numeric._ln_of_dyadic

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(numeric, "_ln_of_dyadic", counting)
    cases = [(3, 1), (10**6 + 3, 1), (LogMag.from_fraction(Fraction(22, 7), 64, UP), 1),
             (lm_pow(10, 3 * 10**8, 128, UP), 1), (Fraction(1, 1024), 1),
             (Fraction(22, 7), 2), (2**200 + 1, 2)]
    for x, runs in cases:
        calls.clear()
        lo, hi = lm_log_ends(x, 128)
        assert len(calls) == runs, x
        for end, mode in ((lo, DOWN), (hi, UP)):
            want = lm_log(x, 128, mode)
            assert (end.sign, end.man, end.exp, end.prec, end.mode) == (
                want.sign, want.man, want.exp, want.prec, mode), (x, mode)
        assert lo < hi
    # ln x a tiny step above a grid point g: the DOWN run may fall below
    # g, and only its stated error takes the UP end past g
    for prec in (64, 128, 2048):
        g = LogMag(1, (3 << (prec - 2)) + 1, 1, prec, DOWN)
        lo, hi = lm_log_ends(lm_exp(g, prec + 80, UP), prec)
        assert lo <= g < hi, prec
    assert [v.is_zero() for v in lm_log_ends(1, 64)] == [True, True]
    with pytest.raises(ValueError):
        lm_log_ends(0, 64)


def test_log_of_one_is_exact_zero():
    assert lm_log(1, prec=64, mode=UP).is_zero()
    assert lm_log(LogMag.one(128, DOWN), 128, DOWN).is_zero()
    with pytest.raises(ValueError):
        lm_log(0, prec=64, mode=UP)
    with pytest.raises(ValueError):
        lm_log(Fraction(-2), prec=64, mode=UP)


def test_exp_brackets_oracle():
    for v in (1, -1, Fraction(22, 7), Fraction(-30), Fraction(1, 10**6)):
        lo = lm_exp(v, prec=192, mode=DOWN)
        hi = lm_exp(v, prec=192, mode=UP)
        _assert_brackets(lo, hi, dec_exp(v), abs(dec_exp(v)) * Fraction(1, 2**150))


def test_exp_of_zero_is_exact_one():
    assert lm_exp(0, prec=64, mode=DOWN) == 1
    assert lm_exp(LogMag.zero(128, UP), prec=64, mode=UP) == 1


def test_exp_log_round_trip_encloses():
    for v in (Fraction(17, 5), 3, Fraction(1, 7)):
        lo = lm_exp(lm_log(v, prec=160, mode=DOWN), 160, DOWN)
        hi = lm_exp(lm_log(v, prec=160, mode=UP), 160, UP)
        assert lo.to_fraction() <= v <= hi.to_fraction()


def test_exp_argument_cap():
    with pytest.raises(OverflowError):
        lm_exp(lm_pow(LogMag.from_int(2, 128, UP), 2**17, 128, UP), 128, UP)


def test_constants_bracket_oracles():
    for name, exact in (("ln2", dec_ln(2)), ("log2_10", dec_ln(10) / dec_ln(2))):
        wp = 192
        lo = Fraction(_constant(name, wp, DOWN), 2**wp)
        hi = Fraction(_constant(name, wp, UP), 2**wp)
        assert lo <= exact + DEC_TOL
        assert hi >= exact - DEC_TOL
        assert hi - lo <= Fraction(1, 2**160)
    _assert_brackets(
        lm_ln_two_pi(192, DOWN),
        lm_ln_two_pi(192, UP),
        mp_ln_two_pi(),
        Fraction(1, 2**160),
    )


def test_constant_tables_bracket_mpmath_up_to_the_precision_cap():
    """The table entries at the widths `_constant` asks for, up to 16,448
    bits (the 16,384-bit precision cap plus its guard), bracket the mpmath
    value: ln 2 and 2 pi within one ulp, log2 10 within a few, and ln(2 pi),
    the log of the 2 pi entry, within 32."""
    import mpmath

    for wp in (64, 128, 192, 1024, 4096, 8256, 16384, 16448):
        with mpmath.workprec(wp + 128):
            scale = mpmath.mpf(2) ** wp
            exact = {
                "ln2": mpmath.log(2) * scale,
                "log2_10": mpmath.log(10) / mpmath.log(2) * scale,
                "two_pi": 2 * mpmath.pi * scale,
                "ln_two_pi": mpmath.log(2 * mpmath.pi) * scale,
            }
            for name, width in (("ln2", 1), ("log2_10", 4), ("two_pi", 1), ("ln_two_pi", 32)):
                lo = _constant_table(name, wp, DOWN)
                hi = _constant_table(name, wp, UP)
                assert lo <= exact[name] <= hi, (name, wp)
                assert hi - lo <= width, (name, wp, hi - lo)


def test_ln_two_pi_is_correctly_rounded():
    """lm_ln_two_pi(prec, mode) is the prec-bit grid point next to ln(2 pi)
    in direction mode, at every precision a report may ask for up to 1100
    bits and at a few up to the cap: ln(2 pi) lies in [1, 2), so the grid
    is the multiples of 2**(1 - prec)."""
    import mpmath

    with mpmath.workprec(17000):
        man, exp = mpmath.log(2 * mpmath.pi).man_exp
    for prec in [*range(8, 1101), 2048, 2064, 4096, 8192, 16384]:
        # man * 2**exp is within 2**-16990 of ln(2 pi); floor it at the grid
        shift = -(exp + prec - 1)
        down = man >> shift
        # the oracle's error cannot move the floor across a grid point
        assert 0 < man - (down << shift) < (1 << shift) - 1, prec
        for mode, expected in ((DOWN, down), (UP, down + 1)):
            got = lm_ln_two_pi(prec, mode)
            assert (got.sign, got.man, got.exp, got.prec, got.mode) == (
                1, expected, 1, prec, mode
            ), (prec, mode)


def test_pow_exact_dyadic_cases():
    for mode in (UP, DOWN):
        assert lm_pow(2, 34, prec=64, mode=mode) == 17179869184
        assert lm_pow(LogMag.from_int(3, 128, mode), 5, 128, mode) == 243
        assert lm_pow(Fraction(1, 2), 10, prec=64, mode=mode) == Fraction(1, 1024)


def test_pow_huge_exponent_ordering():
    n = 10**6
    up = lm_pow(10, n, prec=64, mode=UP)
    dn = lm_pow(10, n, prec=64, mode=DOWN)
    exact = 10**n
    assert dn <= exact <= up
    assert abs(up.log10_float() - n) < 1e-9


def test_pow_fractional_brackets_oracle():
    lo = lm_pow(2, Fraction(1, 2), prec=160, mode=DOWN)
    hi = lm_pow(2, Fraction(1, 2), prec=160, mode=UP)
    _assert_brackets(lo, hi, dec_sqrt(2), Fraction(1, 2**120))
    lo = lm_pow(Fraction(1, 2), Fraction(1, 3), prec=160, mode=DOWN)
    hi = lm_pow(Fraction(1, 2), Fraction(1, 3), prec=160, mode=UP)
    _assert_brackets(lo, hi, dec_pow(Fraction(1, 2), Fraction(1, 3)), Fraction(1, 2**120))
    # negative fractional exponent flips the base coercion direction
    lo = lm_pow(Fraction(22, 7), Fraction(-3, 2), prec=160, mode=DOWN)
    hi = lm_pow(Fraction(22, 7), Fraction(-3, 2), prec=160, mode=UP)
    _assert_brackets(lo, hi, dec_pow(Fraction(22, 7), Fraction(-3, 2)), Fraction(1, 2**120))


def test_pow_domain_errors():
    with pytest.raises(ValueError):
        lm_pow(Fraction(-2), Fraction(1, 2), prec=64, mode=UP)
    with pytest.raises(TypeError):
        lm_pow(2, 1.5, prec=64, mode=UP)


def test_coarse_up_dominates_fine_up():
    cases = [
        lambda p: lm_log(Fraction(22, 7), prec=p, mode=UP),
        lambda p: lm_exp(Fraction(-7, 3), prec=p, mode=UP),
        lambda p: lm_pow(Fraction(31, 7), Fraction(5, 3), prec=p, mode=UP),
        lambda p: lm_ln_two_pi(p, UP),
        lambda p: lm_pow(Fraction(4), Fraction(1, 2), prec=p, mode=UP),
    ]
    for f in cases:
        assert f(64) >= f(256)
    assert lm_log(Fraction(22, 7), prec=64, mode=DOWN) <= lm_log(
        Fraction(22, 7), prec=256, mode=DOWN
    )


# ---------------------------------------------------------------------------
# aggregation and rendering


def test_max_and_sum():
    xs = [LogMag.from_int(n, 128, UP) for n in (3, -5, 7, 2)]
    assert lm_sum(xs, 128, UP) == 7
    assert lm_sum([], prec=64, mode=UP).is_zero()
    with pytest.raises(TypeError):
        lm_sum([])


def test_pair_roundtrip_is_exact():
    x = lm_pow(Fraction(3, 7), 41, prec=128, mode=DOWN)
    j = json.loads(dumps_indented(x))
    h, e = j["mantissa_hex"], j["exponent"]
    man = int(h, 16)
    assert Fraction(man, 2**x.prec) * Fraction(2) ** int(e) == abs(x.to_fraction())
    assert (h.startswith("-")) == (x.sign < 0)


def test_json_value_fields():
    x = LogMag.from_fraction(Fraction(-22, 7), prec=64, mode=DOWN)
    j = json.loads(dumps_indented(x))
    assert set(j) == {"decimal", "mantissa_hex", "exponent", "precision", "rounding"}
    assert j["precision"] == 64
    assert j["rounding"] == "down"
    assert j["mantissa_hex"].startswith("-0x")


def _parsed(s: str) -> Fraction:
    return Fraction(Decimal(s))


def test_decimal_string_accuracy():
    x = LogMag.from_fraction(Fraction(22, 7), prec=128, mode=UP)
    rel = abs(_parsed(x.to_decimal_string(24)) / x.to_fraction() - 1)
    assert rel < Fraction(1, 10**21)
    assert x.to_decimal_string().startswith("3.142857142857142857")

    y = lm_pow(7, 10**5, prec=128, mode=UP)
    rel = abs(_parsed(y.to_decimal_string(24)) / Fraction(7 ** 10**5) - 1)
    assert rel < Fraction(1, 10**20)

    z = LogMag.from_fraction(Fraction(-1, 10**6), prec=128, mode=DOWN)
    s = z.to_decimal_string(24)
    assert s.startswith("-1.0000") and s.endswith("e-6")
    assert abs(_parsed(s) / z.to_fraction() - 1) < Fraction(1, 10**21)

    assert LogMag.zero(128, UP).to_decimal_string() == "0"
    one = LogMag.one(128, UP)
    assert _parsed(one.to_decimal_string(30)) == 1


def test_decimal_string_more_digits():
    x = LogMag.from_fraction(Fraction(1, 3), prec=256, mode=DOWN)
    rel = abs(_parsed(x.to_decimal_string(60)) / x.to_fraction() - 1)
    assert rel < Fraction(1, 10**55)


def _truncation(x: LogMag, digits: int = 24) -> str:
    m, e = x.dyadic()
    s = mp_decimal_truncation(abs(m), e, max(digits, 2))
    return "-" + s if m < 0 else s


def test_decimal_string_truncates_the_exact_value():
    half = LogMag.from_fraction(Fraction(1, 2), 128, UP)
    assert half.to_decimal_string() == "5.00000000000000000000000e-1"
    # a lower bound just below 1157 must not print above it
    below = LogMag(1, 0x909FFFFFFFFFFFFFFFFFFFFFFFFFFFFF, 11, 128, DOWN)
    assert below < 1157
    assert below.to_decimal_string() == "1.15699999999999999999999e+3"
    up = LogMag.from_int(10**30, 64, UP)
    down = LogMag.from_int(10**30, 64, DOWN)
    assert down < 10**30 < up
    assert up.to_decimal_string() == _truncation(up)
    assert up.to_decimal_string().startswith("1.000000000000000000")
    assert down.to_decimal_string() == _truncation(down)
    assert down.to_decimal_string().startswith("9.999999999999999999")
    assert down.to_decimal_string().endswith("e+29")
    x = lm_pow(7, 10**5, 128, UP)
    assert x.to_decimal_string() == _truncation(x)
    for mode in (UP, DOWN):
        x = lm_pow(10, 1100000, 128, mode)
        assert x.to_decimal_string() == _truncation(x)
    assert lm_pow(10, 1100000, 128, UP).to_decimal_string().endswith("e+1100000")
    neg = LogMag.from_fraction(Fraction(-22, 7), 128, DOWN)
    assert neg.to_decimal_string() == _truncation(neg) == "-3.14285714285714285714285e+0"
    third = LogMag.from_fraction(Fraction(1, 3), 256, DOWN)
    assert third.to_decimal_string(2) == "3.3e-1"
    assert third.to_decimal_string(1) == "3.3e-1"
    assert third.to_decimal_string(60) == _truncation(third, 60)
    assert third.to_decimal_string(60) == "3." + "3" * 59 + "e-1"


_LONG_MANTISSAS = """
import time
from fractions import Fraction
from smallpoints.numeric import DOWN, UP, LogMag
start = time.perf_counter()
half = LogMag.from_fraction(Fraction(1, 2), 16384, UP).to_decimal_string()
big = LogMag.from_int(10**3000, 16384, DOWN).to_decimal_string()
print(half, big, time.perf_counter() - start)
"""


def test_decimal_string_of_long_mantissas_returns():
    """At 16384 bits 1/2 and 10**3000 are exact, and scaled to 24 digits
    they are integers, which Ziv's loop can never separate from both
    neighbours; the switch on |exp| must keep them on the integer path
    although their mantissas lie more than 8192 bits above their units.
    Run in a fresh interpreter, so a hang fails the test, not the suite."""
    proc = fresh_interpreter(["-c", _LONG_MANTISSAS], timeout=60)
    half, big, seconds = proc.stdout.split()
    assert half == "5.00000000000000000000000e-1"
    assert big == "1.00000000000000000000000e+3000"
    assert float(seconds) < 1


# binary exponents within 2048 of the exact/Ziv switch at |exp| = 2 prec +
# 4 digits + 128, on either side of zero
_straddlers = st.builds(
    lambda sign, frac, prec, side, offset, mode, digits: (
        LogMag(sign, (1 << (prec - 1)) + frac % (1 << (prec - 1)),
               side * (2 * prec + 4 * digits + 128 + offset), prec, mode),
        digits,
    ),
    st.sampled_from([1, -1]),
    st.integers(0, 2**2048),
    st.sampled_from([8, 16, 64, 128, 300, 1024, 2048]),
    st.sampled_from([1, -1]),
    st.integers(-2048, 2048),
    _modes,
    st.sampled_from([2, 12, 24, 60]),
)


@settings(max_examples=150, deadline=None)
@given(case=_straddlers)
@example(case=(LogMag(1, (1 << 127) + 1, 2 * 128 + 4 * 24 + 129, 128, UP), 24))
@example(case=(LogMag(1, (1 << 127) + 1, -(2 * 128 + 4 * 24 + 129), 128, UP), 24))
def test_decimal_string_matches_truncation_oracle(case):
    x, digits = case
    assert x.to_decimal_string(digits) == _truncation(x, digits)


def test_log10_float():
    assert abs(LogMag.from_int(1000, 128, UP).log10_float() - 3.0) < 1e-12
    x = lm_pow(10, 100, prec=512, mode=UP)
    assert abs(x.log10_float() - 100.0) < 1e-9
    with pytest.raises(ValueError):
        LogMag.zero(128, UP).log10_float()


def test_to_fraction_refuses_gigantic_exponents():
    x = lm_pow(2, 1 << 25, prec=64, mode=UP)
    with pytest.raises(OverflowError):
        x.to_fraction()


def test_hash_agrees_with_eq():
    a = LogMag(1, 1 << 63, 5, 64, UP)
    b = LogMag(1, 1 << 299, 5, 300, DOWN)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert LogMag.from_int(16, 128, UP) == 16 and hash(LogMag.from_int(16, 128, UP)) == hash(16)
    for num in range(-40, 41):
        for e in range(-12, 13):
            value = Fraction(num) * Fraction(2) ** e
            for prec in (8, 64, 200):
                x = LogMag.from_fraction(value, prec=prec, mode=DOWN)
                assert x == value and hash(x) == hash(value), (num, e, prec)


def test_hash_of_huge_exponents():
    # 2**(P-1) = 1 mod the hash modulus P (Fermat), so 2**(k(P-1)) hashes as 1
    p = sys.hash_info.modulus
    for k in (1, -1, 10**40, -(10**40)):
        x = LogMag(1, 1 << 63, k * (p - 1) + 1, 64, UP)
        assert hash(x) == hash(1)
        assert hash(-x) == hash(-1) == -2
    big = LogMag(1, 3 << 62, 10**40, 64, UP)
    assert hash(big) == hash(LogMag(1, 3 << 198, 10**40, 200, DOWN))
