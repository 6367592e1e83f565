"""Fixed-point complex boxes: four ints over a power of two.

A box is a tuple (re_lo, re_hi, im_lo, im_hi) of ints standing for
[re_lo, re_hi] / 2**w + [im_lo, im_hi] / 2**w i, where the number w of
fractional bits travels beside it.  A flat box (im_lo == im_hi == 0) is a
real interval.  Every rounding step moves a lower end down (>> s) and an
upper end up (-((-x) >> s)), so each result encloses the exact one (Rump,
"Verification methods", Acta Numerica 19, 2010) at the cost of integer
arithmetic, with no gcd.  Root isolation and refinement (roots.py),
resolves and heights (algebraic.py) all work on these boxes.
"""

from __future__ import annotations


def poly_eval_box(coeffs, z, w: int) -> tuple[int, int, int, int]:
    """Horner evaluation of a polynomial (integer coefficients low to high)
    on the box z at w fractional bits, rounded outward at every step."""
    xa, xb, ya, yb = z
    a = b = coeffs[-1] << w  # the accumulator [a, b] + [u, v]i
    u = v = 0
    real = not (ya or yb)
    for c in coeffs[-2::-1]:
        t = c << w
        p = (a * xa, a * xb, b * xa, b * xb)  # re * re
        if real:
            # on the real line the imaginary part stays [0, 0]
            a, b = (min(p) >> w) + t, t - ((-max(p)) >> w)
            continue
        q = (u * ya, u * yb, v * ya, v * yb)  # im * im
        r = (a * ya, a * yb, b * ya, b * yb)  # re * im
        s = (u * xa, u * xb, v * xa, v * xb)  # im * re
        a, b, u, v = (
            ((min(p) - max(q)) >> w) + t,
            t - ((min(q) - max(p)) >> w),
            (min(r) + min(s)) >> w,
            -((-max(r) - max(s)) >> w),
        )
    return a, b, u, v


def fx_regrid(x, v: int, w: int) -> tuple[int, int, int, int]:
    """The box x at v fractional bits as the least box at w bits holding
    it: exact when w >= v, rounded outward otherwise."""
    if v == w:
        return x
    if v < w:
        s = w - v
        return x[0] << s, x[1] << s, x[2] << s, x[3] << s
    s = v - w
    return x[0] >> s, -((-x[1]) >> s), x[2] >> s, -((-x[3]) >> s)


def fx_affine(x, k: int, n: int, w: int) -> tuple[int, int, int, int]:
    """k * x + n for integers k and n, exactly."""
    a, b, u, v = x
    n <<= w
    if k >= 0:
        return k * a + n, k * b + n, k * u, k * v
    return k * b + n, k * a + n, k * v, k * u


def fx_add(x, y) -> tuple[int, int, int, int]:
    return x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]


def fx_sub(x, y) -> tuple[int, int, int, int]:
    return x[0] - y[1], x[1] - y[0], x[2] - y[3], x[3] - y[2]


def fx_mul(x, y, w: int) -> tuple[int, int, int, int]:
    """x * y at w fractional bits: each interval product is the min and max
    of its four endpoint products, exact over 2**(2w), then rounded
    outward to 2**-w."""
    a, b, u, v = x
    c, d, s, t = y
    p = (a * c, a * d, b * c, b * d)  # re * re
    q = (u * s, u * t, v * s, v * t)  # im * im
    r = (a * s, a * t, b * s, b * t)  # re * im
    m = (u * c, u * d, v * c, v * d)  # im * re
    return (
        (min(p) - max(q)) >> w,
        -((min(q) - max(p)) >> w),
        (min(r) + min(m)) >> w,
        -((-max(r) - max(m)) >> w),
    )


def _sq_lo(lo: int, hi: int) -> int:
    """The least square on [lo, hi]."""
    if lo <= 0 <= hi:
        return 0
    return min(lo * lo, hi * hi)


def fx_abs_sq(x) -> tuple[int, int]:
    """Exact bounds (lo, hi) on |z|**2 over the box x at w bits, as ints
    over 2**(2w)."""
    a, b, u, v = x
    return _sq_lo(a, b) + _sq_lo(u, v), max(a * a, b * b) + max(u * u, v * v)


def fx_inverse(y, w: int) -> tuple[int, int, int, int] | None:
    """1/y = conj(y) / |y|**2 at w fractional bits, or None when y holds 0.
    |y|**2 is kept exact over 2**(2w), and only the quotients round."""
    a, b, u, v = y
    d_lo, d_hi = fx_abs_sq(y)
    if d_lo == 0:
        return None
    s = 2 * w
    # an end e over 2**w divided by d over 2**(2w) is (e << 2w) / d over 2**w
    return (
        (a << s) // (d_hi if a >= 0 else d_lo),
        -((-b << s) // (d_lo if b >= 0 else d_hi)),
        (-v << s) // (d_lo if v > 0 else d_hi),
        -((u << s) // (d_hi if u > 0 else d_lo)),
    )


def fx_contains_zero(x) -> bool:
    return x[0] <= 0 <= x[1] and x[2] <= 0 <= x[3]


def fx_intersects(x, y) -> bool:
    return x[0] <= y[1] and y[0] <= x[1] and x[2] <= y[3] and y[2] <= x[3]


def fx_intersect(x, y) -> tuple[int, int, int, int] | None:
    """The common part of two boxes, or None when they are disjoint."""
    if not fx_intersects(x, y):
        return None
    return max(x[0], y[0]), min(x[1], y[1]), max(x[2], y[2]), min(x[3], y[3])


def fx_hull(x, y) -> tuple[int, int, int, int]:
    return min(x[0], y[0]), max(x[1], y[1]), min(x[2], y[2]), max(x[3], y[3])
