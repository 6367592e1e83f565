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
        if isinstance(other, Box):
            return other
        if isinstance(other, tuple):
            return Box.point(other[0], other[1])
        return Box.point(_fr(other))

    def __add__(self, other):
        o = self._wrap(other)
        return Box(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._wrap(other)
        return Box(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Box":
        """Enclosure of 1/z; the box must exclude the origin."""
        d = self.abs_sq()
        if d.lo <= 0:
            raise ZeroDivisionError("inverse of a box containing zero")
        return Box(self.re / d, -self.im / d)

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
