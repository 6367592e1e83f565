"""Exact rational intervals and rectangular complex boxes.

Endpoints are Fractions and every operation is exact, so enclosures are
rigorous with no rounding analysis needed.  The price is denominator growth
under iteration; outward() snaps endpoints to a dyadic grid (always outward,
so containment survives) and is worth calling between refinement steps.

The Horner evaluators (poly_eval_box, poly_eval_interval, poly_eval_point)
take integer coefficients and share one integer kernel: the endpoints are
brought over one common denominator, so every intermediate endpoint is an
integer over a known power of it and no gcd is paid at each step.  Only
the final endpoints become Fractions, with exactly the values that Box and
Interval arithmetic would give.

The fx_* functions are a second kernel, on fixed-point boxes of four ints
over a power of two: rounded outward at every step, so rigorous but not
exact, and much cheaper.  Resolves use it; root isolation, whose boxes are
printed, keeps the exact one.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = _fr(lo)
        hi = lo if hi is None else _fr(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def __eq__(self, other):
        return (
            isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- queries

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def is_point(self) -> bool:
        return self.lo == self.hi

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def is_interior_subset(self, other: "Interval") -> bool:
        return other.lo < self.lo and self.hi < other.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    # -- arithmetic

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        other = _fr(other)
        return Interval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Interval) else -_fr(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Interval):
            ps = (
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
            return Interval(min(ps), max(ps))
        other = _fr(other)
        if other >= 0:
            return Interval(self.lo * other, self.hi * other)
        return Interval(self.hi * other, self.lo * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Interval):
            if other.contains_zero():
                raise ZeroDivisionError("division by an interval containing zero")
            qs = (
                self.lo / other.lo,
                self.lo / other.hi,
                self.hi / other.lo,
                self.hi / other.hi,
            )
            return Interval(min(qs), max(qs))
        other = _fr(other)
        if other == 0:
            raise ZeroDivisionError("interval division by zero")
        if other > 0:
            return Interval(self.lo / other, self.hi / other)
        return Interval(self.hi / other, self.lo / other)

    def sq(self) -> "Interval":
        """x*x with the dependency respected (tighter than self * self)."""
        if self.lo >= 0:
            return Interval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Interval(self.hi * self.hi, self.lo * self.lo)
        return Interval(0, max(self.lo * self.lo, self.hi * self.hi))

    # -- structure

    def split(self) -> tuple["Interval", "Interval"]:
        m = self.mid()
        return Interval(self.lo, m), Interval(m, self.hi)

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def outward(self, bits: int) -> "Interval":
        """Smallest enclosing interval with endpoints on the 2**-bits grid."""
        scale = 1 << bits
        lo = Fraction(_floor_scaled(self.lo, scale), scale)
        hi = Fraction(_ceil_scaled(self.hi, scale), scale)
        return Interval(lo, hi)


def _floor_scaled(x: Fraction, scale: int) -> int:
    return (x.numerator * scale) // x.denominator


def _ceil_scaled(x: Fraction, scale: int) -> int:
    return -((-x.numerator * scale) // x.denominator)


# ---------------------------------------------------------------------------
# exact complex rational points, as (re, im) Fraction pairs


def csub(u, v):
    return u[0] - v[0], u[1] - v[1]


def cmul(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def cabs_sq(u) -> Fraction:
    return u[0] * u[0] + u[1] * u[1]


def cinv(u):
    d = cabs_sq(u)
    if d == 0:
        raise ZeroDivisionError("inverse of complex zero")
    return u[0] / d, -u[1] / d


class Box:
    """Axis-aligned rectangle in the complex plane with exact rational sides."""

    __slots__ = ("re", "im")

    def __init__(self, re: Interval, im: Interval):
        self.re = re
        self.im = im

    @staticmethod
    def point(re, im=0) -> "Box":
        return Box(Interval(_fr(re)), Interval(_fr(im)))

    def __repr__(self):
        return f"Box([{self.re.lo}, {self.re.hi}] + [{self.im.lo}, {self.im.hi}]i)"

    # -- queries

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()

    def mid(self) -> tuple[Fraction, Fraction]:
        return self.re.mid(), self.im.mid()

    def rad(self) -> Fraction:
        """Half the larger side: the Chebyshev radius about mid()."""
        return max(self.re.width(), self.im.width()) / 2

    def abs_sq(self) -> Interval:
        return self.re.sq() + self.im.sq()

    def is_point(self) -> bool:
        return self.re.is_point() and self.im.is_point()

    def intersects(self, other: "Box") -> bool:
        return self.re.intersects(other.re) and self.im.intersects(other.im)

    def is_interior_subset(self, other: "Box") -> bool:
        return self.re.is_interior_subset(other.re) and self.im.is_interior_subset(
            other.im
        )

    def intersect(self, other: "Box") -> "Box | None":
        re = self.re.intersect(other.re)
        im = self.im.intersect(other.im)
        return Box(re, im) if re is not None and im is not None else None

    # -- arithmetic

    def __neg__(self):
        return Box(-self.re, -self.im)

    def _wrap(self, other) -> "Box":
        """other, a Box or an exact complex point (re, im), as a Box."""
        return Box.point(*other) if isinstance(other, tuple) else other

    def __add__(self, other):
        o = self._wrap(other)
        return Box(self.re + o.re, self.im + o.im)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __mul__(self, other):
        o = self._wrap(other)
        return Box(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    # -- structure

    def split4(self) -> list["Box"]:
        r1, r2 = self.re.split()
        i1, i2 = self.im.split()
        return [Box(r, i) for r in (r1, r2) for i in (i1, i2)]

    def hull(self, other: "Box") -> "Box":
        return Box(self.re.hull(other.re), self.im.hull(other.im))

    def outward(self, bits: int) -> "Box":
        return Box(self.re.outward(bits), self.im.outward(bits))

    def conjugate(self) -> "Box":
        return Box(self.re, -self.im)


def _horner(coeffs, re_lo, re_hi, im_lo, im_hi):
    """Horner evaluation of a polynomial (integer coefficients low to high)
    on the box [re_lo, re_hi] + [im_lo, im_hi]i, in integers.

    The endpoints are brought to one denominator D, so after k steps every
    endpoint of the accumulator is an integer over D**k.  The interval
    products are the min and max of the four endpoint products, as in
    Interval.__mul__ and Box.__mul__, so the four endpoints returned (re lo,
    re hi, im lo, im hi) are exactly those of the same loop run on Box
    values.
    """
    xs = [_fr(x) for x in (re_lo, re_hi, im_lo, im_hi)]
    d = math.lcm(*(x.denominator for x in xs))
    xa, xb, ya, yb = (x.numerator * (d // x.denominator) for x in xs)
    a = b = u = v = 0  # the accumulator [a, b] + [u, v]i
    scale = 1  # D**k
    for c in reversed(coeffs):
        scale *= d
        t = c * scale
        p = (a * xa, a * xb, b * xa, b * xb)  # re * re
        if not (ya or yb):
            # on the real line the imaginary part stays [0, 0]
            a, b = min(p) + t, max(p) + t
            continue
        q = (u * ya, u * yb, v * ya, v * yb)  # im * im
        r = (a * ya, a * yb, b * ya, b * yb)  # re * im
        s = (u * xa, u * xb, v * xa, v * xb)  # im * re
        a, b, u, v = (
            min(p) - max(q) + t,
            max(p) - min(q) + t,
            min(r) + min(s),
            max(r) + max(s),
        )
    return Fraction(a, scale), Fraction(b, scale), Fraction(u, scale), Fraction(v, scale)


def poly_eval_box(coeffs, box: Box) -> Box:
    """Horner evaluation of a polynomial (integer coefficients low to high)
    on a box."""
    a, b, u, v = _horner(coeffs, box.re.lo, box.re.hi, box.im.lo, box.im.hi)
    return Box(Interval(a, b), Interval(u, v))


def poly_eval_point(coeffs, z) -> tuple[Fraction, Fraction]:
    a, _, u, _ = _horner(coeffs, z[0], z[0], z[1], z[1])
    return a, u


def poly_eval_interval(coeffs, iv: Interval) -> Interval:
    a, b, _, _ = _horner(coeffs, iv.lo, iv.hi, 0, 0)
    return Interval(a, b)


# ---------------------------------------------------------------------------
# fixed-point boxes
#
# Two evaluators on purpose.  Root isolation and refinement need the exact
# Box arithmetic above, because their boxes are printed and fix the
# canonical order of the roots.  A resolve (algebraic._resolve_among) only
# needs some enclosure of a value, so it runs on fixed-point boxes: four
# ints (re_lo, re_hi, im_lo, im_hi) standing for the box
# [re_lo, re_hi] / 2**w + [im_lo, im_hi] / 2**w i.  Every rounding step
# moves a lower end down (>> s) and an upper end up (-((-x) >> s)), so each
# result encloses the exact one (Rump, "Verification methods", Acta
# Numerica 19, 2010) at the cost of integer arithmetic, with no gcd.


def fx_box(box: Box, w: int) -> tuple[int, int, int, int]:
    """The least fixed-point box at w fractional bits that holds box;
    exact when the endpoints of box lie on the 2**-w grid."""
    scale = 1 << w
    return (
        _floor_scaled(box.re.lo, scale),
        _ceil_scaled(box.re.hi, scale),
        _floor_scaled(box.im.lo, scale),
        _ceil_scaled(box.im.hi, scale),
    )


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


def fx_inverse(y, w: int) -> tuple[int, int, int, int] | None:
    """1/y = conj(y) / |y|**2 at w fractional bits, or None when y holds 0.
    |y|**2 is kept exact over 2**(2w), and only the quotients round."""
    a, b, u, v = y
    d_lo = _sq_lo(a, b) + _sq_lo(u, v)
    if d_lo == 0:
        return None
    d_hi = max(a * a, b * b) + max(u * u, v * v)
    s = 2 * w
    # an end e over 2**w divided by d over 2**(2w) is (e << 2w) / d over 2**w
    return (
        (a << s) // (d_hi if a >= 0 else d_lo),
        -((-b << s) // (d_lo if b >= 0 else d_hi)),
        (-v << s) // (d_lo if v > 0 else d_hi),
        -((u << s) // (d_hi if u > 0 else d_lo)),
    )


def fx_horner(coeffs, z, w: int) -> tuple[int, int, int, int]:
    """Horner evaluation of a polynomial (integer coefficients low to high)
    on the fixed-point box z, rounded outward at every step."""
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


def fx_contains_zero(x) -> bool:
    return x[0] <= 0 <= x[1] and x[2] <= 0 <= x[3]


def fx_intersects(x, y) -> bool:
    return x[0] <= y[1] and y[0] <= x[1] and x[2] <= y[3] and y[2] <= x[3]
