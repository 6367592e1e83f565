"""Independent oracles used to pin expected values in the tests.

Everything here deliberately avoids the code paths of the package under test:
factorization by pure trial division, resultants by Sylvester determinants
over exact Fractions, logs and roots via the stdlib decimal module at 50+
digits.
"""

from __future__ import annotations

from decimal import Decimal, getcontext
from fractions import Fraction

getcontext().prec = 60


def trial_division_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def dec_ln(x: Fraction | int) -> Fraction:
    """ln(x) to ~58 correct digits, as an exact Fraction of the Decimal."""
    fr = Fraction(x)
    d = Decimal(fr.numerator) / Decimal(fr.denominator)
    return Fraction(d.ln())


def dec_sqrt(x: Fraction | int) -> Fraction:
    fr = Fraction(x)
    d = Decimal(fr.numerator) / Decimal(fr.denominator)
    return Fraction(d.sqrt())


def dec_exp(x: Fraction | int) -> Fraction:
    fr = Fraction(x)
    d = Decimal(fr.numerator) / Decimal(fr.denominator)
    return Fraction(d.exp())


def dec_pow(b: Fraction | int, e: Fraction | int) -> Fraction:
    fb = Fraction(b)
    fe = Fraction(e)
    db = Decimal(fb.numerator) / Decimal(fb.denominator)
    de = Decimal(fe.numerator) / Decimal(fe.denominator)
    return Fraction(db**de)


def mp_ln_two_pi() -> Fraction:
    import mpmath

    with mpmath.workdps(60):
        return Fraction(Decimal(mpmath.nstr(mpmath.log(2 * mpmath.pi), 55)))


def mp_ln_dyadic_fixed(m: int, e: int, wp: int) -> Fraction:
    """ln(m * 2**e) * 2**wp, correct to about 2**-100 absolute."""
    import mpmath

    bits = wp + 128 + abs(e).bit_length() + m.bit_length()
    with mpmath.workprec(bits):
        v = (mpmath.log(m) + e * mpmath.log(2)) * mpmath.mpf(2) ** wp
        sign = -1 if v < 0 else 1
        man, exp = v.man_exp  # man_exp drops the sign
    return sign * Fraction(man) * Fraction(2) ** exp


def mp_exp_fixed(xf: int, wp: int) -> Fraction:
    """exp(xf * 2**-wp), correct to about 2**-(wp + 100) relative."""
    import mpmath

    with mpmath.workprec(wp + 128 + abs(xf).bit_length()):
        man, exp = mpmath.exp(mpmath.ldexp(mpmath.mpf(xf), -wp)).man_exp
    return Fraction(man) * Fraction(2) ** exp


DEC_TOL = Fraction(1, 10**45)


def sylvester_resultant(f: list[Fraction], g: list[Fraction]) -> Fraction:
    """Resultant via the Sylvester matrix determinant (exact Gaussian
    elimination over Fractions).  Coefficient lists are low-to-high."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    n = len(f) - 1
    m = len(g) - 1
    if n < 0 or m < 0:
        raise ValueError("resultant of the zero polynomial")
    if n == 0 and m == 0:
        return Fraction(1)
    size = n + m
    rows = []
    frev = f[::-1]
    grev = g[::-1]
    for i in range(m):
        rows.append([Fraction(0)] * i + frev + [Fraction(0)] * (size - n - 1 - i))
    for i in range(n):
        rows.append([Fraction(0)] * i + grev + [Fraction(0)] * (size - m - 1 - i))
    det = Fraction(1)
    for col in range(size):
        piv = None
        for r in range(col, size):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def newton_polygon_valuations(coeff_vals: list) -> list[Fraction]:
    """Root valuations from the lower Newton polygon.

    coeff_vals[i] is the p-adic valuation of the coefficient of x^i, or
    None for a zero coefficient.  Builds the lower convex hull of the
    points (i, v_i) by a monotone scan and reads one valuation per root:
    a hull segment of horizontal run r and slope s contributes r copies
    of -s.
    """
    pts = [(i, Fraction(v)) for i, v in enumerate(coeff_vals) if v is not None]
    if len(pts) < 2:
        raise ValueError("need at least two finite coefficients")
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point unless it turns strictly upward
            if (y2 - y1) * (p[0] - x1) < (p[1] - y1) * (x2 - x1):
                break
            hull.pop()
        hull.append(p)
    vals = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = (y2 - y1) / (x2 - x1)
        vals.extend([-slope] * (x2 - x1))
    return vals


def newton_polygon_flat(coeff_vals: list) -> bool:
    """True when every root valuation from the polygon is zero."""
    return all(v == 0 for v in newton_polygon_valuations(coeff_vals))


def v_p(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def mp_decimal_truncation(man: int, e: int, digits: int) -> str:
    """man * 2**e (man > 0) truncated toward zero to digits significant
    digits, as d.ddd...e+N.  mpmath evaluates it at two working precisions,
    the second twice the first, which must agree."""
    import mpmath

    found = set()
    for scale in (1, 2):
        bits = scale * (man.bit_length() + abs(e).bit_length() + 4 * digits + 128)
        with mpmath.workprec(bits):
            v = mpmath.ldexp(mpmath.mpf(man), e)
            e10 = int(mpmath.floor(mpmath.log10(v)))
            while True:
                n = int(mpmath.floor(v * mpmath.mpf(10) ** (digits - 1 - e10)))
                if n >= 10**digits:
                    e10 += 1
                elif n < 10 ** (digits - 1):
                    e10 -= 1
                else:
                    break
        found.add((n, e10))
    assert len(found) == 1, found
    s = str(n)
    return f"{s[0]}.{s[1:]}e{'+' if e10 >= 0 else ''}{e10}"
