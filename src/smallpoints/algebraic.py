"""Exact arithmetic with algebraic numbers over Q.

A value is represented by its minimal polynomial (primitive, irreducible,
integer coefficients, positive leading coefficient) together with the index
of its root in a canonical ordering.  The ordering is fixed by one
certified isolation at _CANONICAL_PRECISION, and every box at a finer
precision is refined from that canonical box.  A root box is the
fixed-point box of intervals.py, four ints over 2**w, stored as roots.py
returns it with its w.  Root boxes and heights are cached, in tables of
bounded size, as pure functions of (minimal polynomial, precision), or of
(H, precision) for a rational's height (see weil_height), so equal values
always canonicalize to the same (minpoly, index) pair, equality is a tuple
comparison, and no result depends on what was computed before or on what
a table evicted.

Unary Mobius transforms (ax+b)/(cx+d), with integer a, b, c, d, act
directly on the minimal polynomial and stay exact; an operation with one
rational operand n/m is one such transform of the other, its matrix
written with n and m.  Sums, differences, products and quotients of
two irrational values are resultant kinds: the polynomial of all sums (or
products) of conjugates is built from Newton power sums and factored, and
one resolve, a box membership search, picks the right irreducible factor
and root.  The search refines operand boxes until exactly one candidate
root remains; it terminates because distinct algebraic numbers eventually
separate.  A resolve, including that of a Mobius image, computes its
enclosures on the same boxes with outward rounding, at grid_bits(p), the
grid most root boxes at precision p already lie on: any enclosure that
leaves one candidate names the true one, so the rounding can cost a
precision doubling but never changes a result.

Weil heights come out as directed (lower, upper) enclosures via the Mahler
measure, with |alpha|**2 bounds read off the ints of the root boxes, an
exact zero for roots of unity, and ln H for a rational p/q, H = max(|p|,
|q|), from one table entry per (H, precision) that every value sharing H
reads.  A height or an S-unit flag reads only the minimal polynomial, so
weil_height and is_s_unit also take a minimal polynomial, and
mobius_minpoly (which takes one too) and anharmonic_minpolys give those
of Mobius and anharmonic images without resolving any of them: three
images, x, 1-x and (x-1)/x, stand for the orbit, whose other three values
are their inverses.  coefficient_limits and height_exceeds certify from
the coefficients alone, by Mahler's inequality, that a height lies above a
bound.  The cross-ratio of a rational or infinite triple is one integer
Mobius map (a, b, c, d) of the fourth point (_cross_ratio_matrix).  A
rational or infinite fourth point with homogeneous coordinates (x, y) then
has the rational cross-ratio (ax + by)/(cx + dy), read on integers; an
irrational one is resolved once, and mobius_minpoly gives its minimal
polynomial with no resolve.

Any other cross_ratio reads the set of its four points.  With the points
a, b, c, d in point_key order, the set has three pairings, products over
a split of the points into two pairs: A = (c-a)(d-b), B = (c-b)(d-a) and
C = (b-a)(d-c), a difference with INFINITY left out, with A = B + C.
The set's cross-ratio cross_ratio(a, b, c, d) = A/B comes from the first
of A/B, A/C and B/C that the degree cap allows, so DegreeCapExceeded is
raised only when all three are capped.  Permuting the four points moves
the cross-ratio within its anharmonic orbit, the same way for any set
(PERMUTATION_IMAGES), so every ordering of a set is one Mobius image of
the set's value, and the set, not the ordering, is the unit of the cap.
set_orbit keeps, per set, that value and the minimal polynomials of its
orbit in a bounded table, a pure function of the four (minpoly, index)
pairs like every other table here, so a set is resolved once however
many orderings, searches or analyses read it.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce

from .intervals import (
    fx_abs_sq,
    fx_add,
    fx_affine,
    fx_contains_zero,
    fx_intersects,
    fx_inverse,
    fx_mul,
    fx_regrid,
    fx_sub,
    poly_eval_box,
)
from .numeric import (
    DEFAULT_PRECISION,
    DOWN,
    UP,
    LogMag,
    lm_div,
    lm_exp,
    lm_log,
    lm_log_ends,
    lm_mul,
    lm_sub,
    lm_sum,
    table,
)
from .polynomial import Poly, cyclotomic_index, factor_over_z
from .roots import grid_bits, isolate_roots, refine_root_box

RESULTANT_DEGREE_CAP = 64

_CANONICAL_PRECISION = 32
_MAX_RESOLVE_PRECISION = 1 << 16
# entries each of this module's tables (every `table` below) keeps: far
# more than a benchmark round fills, yet a long batch cannot grow them
# without limit.  An entry is a pure function of its key (numeric's
# registry), so an eviction never changes output.
_TABLE_CACHE_SIZE = 4096


class DegreeCapExceeded(Exception):
    """Raised when a binary operation would need a resultant of degree
    beyond RESULTANT_DEGREE_CAP."""


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


@table(_TABLE_CACHE_SIZE)
def _roots_of(coeffs: tuple, precision: int) -> tuple[int, tuple]:
    """(w, root boxes at w bits) of the irreducible polynomial with these
    coefficients, of degree at least 2, in canonical order and at exactly
    this precision.  The order is that of the isolation at
    _CANONICAL_PRECISION, which any lower precision also returns; finer
    boxes are refined from it."""
    f = Poly(coeffs)
    if precision <= _CANONICAL_PRECISION:
        w, boxes = isolate_roots(f, _CANONICAL_PRECISION)
        return w, tuple(boxes)
    w, canonical = _roots_of(coeffs, _CANONICAL_PRECISION)
    refined = [refine_root_box(f, b, w, precision) for b in canonical]
    return refined[0][0], tuple(b for _, b in refined)


def _boxes(coeffs: tuple, precision: int) -> tuple[int, tuple]:
    """(w, root boxes at w bits) of an irreducible polynomial at this
    precision: for a linear one, never stored in _roots_of, the least box
    at grid_bits(precision) holding its root; for one of higher degree,
    its _roots_of boxes."""
    if len(coeffs) == 2:
        w = grid_bits(precision)
        n, d = -coeffs[0] << w, coeffs[1]
        return w, ((n // d, -(-n // d), 0, 0),)
    return _roots_of(coeffs, precision)


class AlgebraicNumber:
    __slots__ = ("minpoly", "index")

    def __init__(self, minpoly: Poly, index: int):
        self.minpoly = minpoly
        self.index = index

    @staticmethod
    def from_rational(value) -> "AlgebraicNumber":
        v = Fraction(value)
        return AlgebraicNumber(Poly([-v.numerator, v.denominator]), 0)

    # -- basics

    @property
    def degree(self) -> int:
        return self.minpoly.degree()

    @property
    def is_rational(self) -> bool:
        return self.minpoly.degree() == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not a rational number")
        return Fraction(-self.minpoly[0], self.minpoly[1])

    def is_zero(self) -> bool:
        return self.is_rational and self.minpoly[0] == 0

    def refined_box(self, precision: int) -> tuple[int, tuple]:
        """(w, the enclosure at exactly this precision, at w bits); for a
        rational, the least box at grid_bits(precision) holding it."""
        w, boxes = _boxes(self.minpoly.coeffs, precision)
        return w, boxes[self.index]

    def _fixed_box(self, p: int):
        """refined_box(p) at grid_bits(p) bits, the grid of a resolve."""
        w, box = self.refined_box(p)
        return fx_regrid(box, w, grid_bits(p))

    def sort_key(self):
        return (self.minpoly.degree(), self.minpoly.coeffs, self.index)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AlgebraicNumber.from_rational(other)
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        return self.minpoly.coeffs == other.minpoly.coeffs and self.index == other.index

    def __hash__(self):
        return hash((self.minpoly.coeffs, self.index))

    def __repr__(self):
        if self.is_rational:
            return f"AlgebraicNumber({self.as_fraction()})"
        w, (a, b, u, v) = self.refined_box(_CANONICAL_PRECISION)
        return (
            f"AlgebraicNumber(deg {self.degree}, root {self.index} "
            f"~ {(a + b) / (2 << w):.6g}{(u + v) / (2 << w):+.6g}i)"
        )

    # -- exact unary Mobius arithmetic

    def mobius(self, a, b, c, d) -> "AlgebraicNumber":
        """The value (a*x + b)/(c*x + d) with integer a, b, c, d and
        nonzero determinant; the identity gives back this very value."""
        if a * d - b * c == 0:
            raise ValueError("mobius transform must be invertible")
        if b == c == 0 and a == d:
            return self
        if self.is_rational:
            r = self.as_fraction()
            den = c * r + d
            if den == 0:
                raise ZeroDivisionError("mobius transform sends the value to infinity")
            return AlgebraicNumber.from_rational((a * r + b) / den)
        # for c != 0 the leading coefficient is (-c)^n f(-d/c) != 0 because
        # f is irreducible of degree >= 2, so the degree never drops
        P = mobius_minpoly(self, a, b, c, d)

        def box_fn(p: int):
            w = grid_bits(p)
            x = self._fixed_box(p)
            den = fx_inverse(fx_affine(x, c, d, w), w)
            return None if den is None else fx_mul(fx_affine(x, a, b, w), den, w)

        return _resolve_among((P,), box_fn)

    # -- binary arithmetic

    def __add__(self, other):
        return _arith(self, other, "add")

    def __radd__(self, other):
        return _arith(other, self, "add")

    def __sub__(self, other):
        return _arith(self, other, "sub")

    def __rsub__(self, other):
        return _arith(other, self, "sub")

    def __mul__(self, other):
        return _arith(self, other, "mul")

    def __rmul__(self, other):
        return _arith(other, self, "mul")

    def __truediv__(self, other):
        return _arith(self, other, "div")

    def __rtruediv__(self, other):
        return _arith(other, self, "div")


_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def _arith(a, b, kind: str):
    """a op b for kind in add, sub, mul, div: Fraction arithmetic for two
    rationals; with one rational operand r, the Mobius matrix of x op r or
    r op x applied to the other operand x; with two irrationals, one
    resultant."""
    a, b = _as_algebraic(a), _as_algebraic(b)
    if a is None or b is None:
        return NotImplemented
    if kind == "div" and b.is_zero():
        raise ZeroDivisionError("division by zero algebraic number")
    if a.is_rational and b.is_rational:
        return AlgebraicNumber.from_rational(_OPS[kind](a.as_fraction(), b.as_fraction()))
    # with r = n/m, m > 0, the integer matrix of x op r or r op x
    if b.is_rational:
        x, r = a, b.as_fraction()
        n, m = r.numerator, r.denominator
        matrix = {"add": (m, n, 0, m), "sub": (m, -n, 0, m),
                  "mul": (n, 0, 0, m), "div": (m, 0, 0, n)}
    elif a.is_rational:
        x, r = b, a.as_fraction()
        n, m = r.numerator, r.denominator
        matrix = {"add": (m, n, 0, m), "sub": (-m, n, 0, m),
                  "mul": (n, 0, 0, m), "div": (0, n, m, 0)}
    else:
        return _binary(a, b, kind)
    if r == 0 and kind in ("mul", "div"):
        return AlgebraicNumber.from_rational(0)
    return x.mobius(*matrix[kind])


def _as_algebraic(x) -> AlgebraicNumber | None:
    if isinstance(x, AlgebraicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return AlgebraicNumber.from_rational(x)
    return None


def ensure_algebraic(x) -> AlgebraicNumber:
    a = _as_algebraic(x)
    if a is None:
        raise TypeError(f"expected an algebraic number or rational, got {type(x).__name__}")
    return a


def _resolve_among(factors: tuple[Poly, ...], box_fn) -> AlgebraicNumber:
    """Pick the unique (factor, root) pair compatible with ever sharper
    enclosures of the value.  box_fn(p) returns a fixed-point box with
    grid_bits(p) fractional bits certain to contain the value, or None
    when p is still too coarse to build one.  The true pair always
    qualifies, so any enclosure that leaves one pair gives that pair, and a
    looser one can only cost another doubling of p.  Root boxes at
    precision p mostly lie on that grid already; finer ones are rounded
    outward to it."""
    p = _CANONICAL_PRECISION
    while p <= _MAX_RESOLVE_PRECISION:
        probe = box_fn(p)
        if probe is not None:
            w = grid_bits(p)
            hits = []
            for h in factors:
                if not fx_contains_zero(poly_eval_box(h.coeffs, probe, w)):
                    continue
                hw, boxes = _boxes(h.coeffs, p)
                hits += [
                    (h, i) for i, rb in enumerate(boxes)
                    if fx_intersects(fx_regrid(rb, hw, w), probe)
                ]
            if len(hits) == 1:
                return AlgebraicNumber(*hits[0])
        p *= 2
    raise RuntimeError("could not resolve which root the value is")


def _mobius_image(coeffs: tuple, a, b, c, d) -> Poly:
    """Primitive part of sum f_i (dx - b)^i (a - cx)^(n-i), whose roots are
    the images (ax + b)/(cx + d) of the roots of the integer polynomial f
    with these coefficients, for integer a, b, c, d: one homogeneous Horner
    pass over the integer coefficients."""
    acc, vpow = [coeffs[-1]], [1]
    for fi in reversed(coeffs[:-1]):
        # acc * (dx - b) + f_i (a - cx)^(n-i), with vpow tracking the power
        acc = [-b * s + d * t for s, t in zip(acc + [0], [0] + acc)]
        vpow = [a * s - c * t for s, t in zip(vpow + [0], [0] + vpow)]
        acc = [s + fi * v for s, v in zip(acc, vpow)]
    return Poly(acc).primitive()


def mobius_minpoly(alpha, a, b, c, d) -> Poly:
    """The minimal polynomial of (a*alpha + b)/(c*alpha + d), integer a, b,
    c, d with nonzero determinant, read off that of alpha with no resolve
    of which root the image is.  alpha may be its minimal polynomial
    (Poly): every conjugate of alpha has the same image polynomial."""
    f = _minpoly(alpha)
    if b == c == 0 and a == d:
        return f
    P = _mobius_image(f.coeffs, a, b, c, d)
    if P.degree() != f.degree():
        raise ZeroDivisionError("mobius transform sends the value to infinity")
    return P


def _power_sums(coeffs: tuple, count: int) -> list[int]:
    """Power sums P_0..P_count of lc*x over the roots x of the integer
    polynomial f with these coefficients.  The lc*x are the roots of the
    monic integer polynomial lc^(n-1) f(x/lc), so Newton's identities keep
    every P_k an integer."""
    n, lc = len(coeffs) - 1, coeffs[-1]
    F = [fi * lc ** (n - 1 - i) for i, fi in enumerate(coeffs[:-1])] + [1]
    P = [n]
    for k in range(1, count + 1):
        s = k * F[n - k] if k <= n else 0
        s += sum(F[n - j] * P[k - j] for j in range(1, min(k - 1, n) + 1))
        P.append(-s)
    return P


def _from_power_sums(P: list[int]) -> list[int]:
    """Coefficients, low to high, of the monic integer polynomial of degree
    D = len(P) - 1 whose roots have the power sums P: Newton's identities
    solved for the coefficients, every division exact."""
    D = len(P) - 1
    C = [0] * D + [1]
    for k in range(1, D + 1):
        s = P[k] + sum(C[D - j] * P[k - j] for j in range(1, k))
        C[D - k] = -s // k
    return C


@table(_TABLE_CACHE_SIZE)
def _op_factors(f_coeffs: tuple, g_coeffs: tuple, kind: str) -> tuple[Poly, ...]:
    """Irreducible factors of the degree m*n polynomial whose roots, with
    multiplicity, are all sums (or products) of a root of f and a root of g.
    Scaled by c = lc(f) lc(g), a sum c(x + y) = lc(g)(lc(f) x) + lc(f)(lc(g) y)
    has as power sums the binomial convolution of those of f and g, and a
    product c x y their termwise product (Bostan, Flajolet, Salvy, Schost,
    J. Symbolic Comput. 41, 2006)."""
    A, B = f_coeffs[-1], g_coeffs[-1]
    D = (len(f_coeffs) - 1) * (len(g_coeffs) - 1)
    P, Q = _power_sums(f_coeffs, D), _power_sums(g_coeffs, D)
    if kind == "add":
        U = [B**k * p for k, p in enumerate(P)]
        V = [A**k * q for k, q in enumerate(Q)]
        S = [sum(math.comb(k, j) * U[j] * V[k - j] for j in range(k + 1))
             for k in range(D + 1)]
    else:
        S = [p * q for p, q in zip(P, Q)]
    # the roots of the monic H~ built from S are c times the wanted ones
    c = A * B
    H = Poly([h * c**i for i, h in enumerate(_from_power_sums(S))])
    return tuple(factor_over_z(H))


def _binary(a: AlgebraicNumber, b: AlgebraicNumber, kind: str) -> AlgebraicNumber:
    """a op b for two irrationals.  A difference is the sum with -b and a
    quotient the product with 1/b; their minimal polynomials are Mobius
    images of that of b, so the _op_factors keys stay canonical."""
    m, n = a.minpoly.degree(), b.minpoly.degree()
    if m * n > RESULTANT_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"operation needs a degree {m * n} resultant (cap {RESULTANT_DEGREE_CAP})"
        )
    g = b.minpoly
    if kind == "sub":
        g = _mobius_image(g.coeffs, -1, 0, 0, 1)
    elif kind == "div":
        g = _mobius_image(g.coeffs, 0, 1, 1, 0)
    resultant_kind = "add" if kind in ("add", "sub") else "mul"
    # the sums and the products of two sets of conjugates do not depend on
    # which set comes first, so the key is the sorted pair
    factors = _op_factors(*sorted((a.minpoly.coeffs, g.coeffs)), resultant_kind)

    def box_fn(p: int):
        # the value's enclosure from its operands' boxes; None until 1/y
        # is bounded
        w = grid_bits(p)
        x, y = a._fixed_box(p), b._fixed_box(p)
        if kind == "add":
            return fx_add(x, y)
        if kind == "sub":
            return fx_sub(x, y)
        if kind == "div":
            y = fx_inverse(y, w)
            if y is None:
                return None
        return fx_mul(x, y, w)

    return _resolve_among(factors, box_fn)


def algebraic_roots(f: Poly) -> list[AlgebraicNumber]:
    """The distinct roots of any nonzero integer polynomial, rationals
    first as exact values, ordered deterministically."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    out = []
    for h in factor_over_z(f):
        out.extend(AlgebraicNumber(h, i) for i in range(h.degree()))
    return out


# ---------------------------------------------------------------------------
# cross-ratios and the anharmonic group


# the anharmonic group as Mobius matrices (a, b, c, d) of (ax + b)/(cx + d):
# x, 1-x, 1/x, 1/(1-x), x/(x-1), (x-1)/x
ANHARMONIC = (
    (1, 0, 0, 1),
    (-1, 1, 0, 1),
    (0, 1, 1, 0),
    (0, 1, -1, 1),
    (1, 0, 1, -1),
    (1, -1, 1, 0),
)


def _permutation_images() -> dict[tuple[int, ...], int]:
    """j with cross_ratio(x_s0, x_s1, x_s2, x_s3) equal to ANHARMONIC[j] of
    cross_ratio(x_0, x_1, x_2, x_3), for every permutation s of four
    distinct points.  Permuting the points acts on their cross-ratio
    through the anharmonic group, the same way for any four points, so the
    table is read off one integer stand-in set, whose cross-ratio 9/7 has
    six distinct anharmonic images."""
    stand_in = (0, 1, 3, 7)

    def cr(p1, p2, p3, z):
        return Fraction((p3 - p1) * (z - p2), (p3 - p2) * (z - p1))

    x = cr(*stand_in)
    orbit = {(a * x + b) / (c * x + d): j for j, (a, b, c, d) in enumerate(ANHARMONIC)}
    return {s: orbit[cr(*(stand_in[i] for i in s))] for s in itertools.permutations(range(4))}


PERMUTATION_IMAGES = _permutation_images()


def point_key(p) -> tuple:
    """The canonical order of points on the projective line: INFINITY, then
    the rationals ascending, then the irrationals by sort_key.  Branch
    points are listed in it, and it orients every difference a pairing
    takes."""
    if p is INFINITY:
        return (0,)
    if p.is_rational:
        return (1, p.as_fraction())
    return (2, p.sort_key())


@table(_TABLE_CACHE_SIZE)
def _difference(u: AlgebraicNumber, v: AlgebraicNumber) -> AlgebraicNumber:
    """u - v, a pure function of the two (minpoly, index) pairs."""
    return u - v


def _pairing(pairs: tuple) -> AlgebraicNumber | None:
    """The product of u - v over the canonically oriented pairs (u, v) of a
    pairing, a difference with INFINITY left out; None when the degree cap
    stops a difference or the product."""
    try:
        return reduce(operator.mul, [
            _difference(u, v) for u, v in pairs if u is not INFINITY and v is not INFINITY
        ])
    except DegreeCapExceeded:
        return None


def _distinct_points(*points) -> list:
    pts = [x if x is INFINITY else ensure_algebraic(x) for x in points]
    if len(set(pts)) < len(pts):
        raise ValueError("cross-ratio needs distinct points")
    return pts


def _homogeneous(p) -> tuple[int, int]:
    """Integer homogeneous coordinates (x, y) of INFINITY, (1, 0), or of a
    rational x/y in lowest terms with y > 0."""
    return (1, 0) if p is INFINITY else (-p.minpoly[0], p.minpoly[1])


def _coordinate_matrix(u1, u2, u3) -> tuple[int, int, int, int]:
    """Integers (a, b, c, d) with cross_ratio(p1, p2, p3, z) = (az + b)/(cz + d)
    for every z, for the rational or infinite points p1, p2, p3 with
    _homogeneous coordinates u1, u2, u3.  With [i j] = x_i y_j - x_j y_i, the
    cross-ratio is [3 1][z 2] / ([3 2][z 1]), so no case needs INFINITY left
    out."""
    (x1, y1), (x2, y2), (x3, y3) = u1, u2, u3
    top, bottom = x3 * y1 - x1 * y3, x3 * y2 - x2 * y3
    return top * y2, -top * x2, bottom * y1, -bottom * x1


def _cross_ratio_matrix(p1, p2, p3) -> tuple[int, int, int, int] | None:
    """The _coordinate_matrix of p1, p2 and p3 when they are rational or
    INFINITY; None otherwise."""
    if any(p is not INFINITY and not p.is_rational for p in (p1, p2, p3)):
        return None
    return _coordinate_matrix(*map(_homogeneous, (p1, p2, p3)))


@table(_TABLE_CACHE_SIZE)
def set_orbit(a, b, c, d) -> tuple[AlgebraicNumber, tuple[Poly, ...]] | None:
    """(lam, the minimal polynomials of its anharmonic orbit by ANHARMONIC
    position) for lam = cross_ratio(a, b, c, d) of four distinct points in
    point_key order; None when the degree cap stops the set.  lam = A/B,
    from the pairings A = (c-a)(d-b), B = (c-b)(d-a) and C = (b-a)(d-c),
    which satisfy A = B + C: A/B itself, or x/(x-1) of x = A/C, or
    (x+1)/x of x = B/C, whichever quotient comes first under the cap."""
    pairing = lru_cache(maxsize=None)(_pairing)
    A, B, C = ((c, a), (d, b)), ((c, b), (d, a)), ((b, a), (d, c))
    for num, den, matrix in ((A, B, ANHARMONIC[0]), (A, C, ANHARMONIC[4]), (B, C, (1, 1, 1, 0))):
        num, den = pairing(num), pairing(den)
        if num is None or den is None:
            continue
        try:
            lam = (num / den).mobius(*matrix)
        except DegreeCapExceeded:
            continue
        return lam, tuple(mobius_minpoly(lam, *m) for m in ANHARMONIC)
    return None


def cross_ratio(p1, p2, p3, z) -> AlgebraicNumber:
    """(p3-p1)(z-p2) / ((p3-p2)(z-p1)) on the projective line.  Each point
    sits in one factor above the bar and one below, and in homogeneous
    coordinates a point at infinity makes both factors 1 (or both -1), so a
    difference with INFINITY is left out.  The four points must be
    distinct, which keeps the value away from 0, 1 and infinity.  For a
    rational or infinite p1, p2, p3 with integer matrix (a, b, c, d)
    (_cross_ratio_matrix), a rational or infinite z with homogeneous
    coordinates (x, y) gives (ax + by)/(cx + dy) on integers, and an
    irrational z the Mobius image of z, a single resolve.  Otherwise the
    value is the anharmonic image, by PERMUTATION_IMAGES, of the set_orbit
    value of the four points in point_key order, so every ordering of a set
    shares one degree cap, and DegreeCapExceeded means all three quotients
    of its pairings are capped."""
    q1, q2, q3, w = pts = _distinct_points(p1, p2, p3, z)
    matrix = _cross_ratio_matrix(q1, q2, q3)
    if matrix is not None:
        if w is not INFINITY and not w.is_rational:
            return w.mobius(*matrix)
        a, b, c, d = matrix
        x, y = _homogeneous(w)
        return AlgebraicNumber.from_rational(Fraction(a * x + b * y, c * x + d * y))
    order = sorted(range(4), key=lambda i: point_key(pts[i]))
    entry = set_orbit(*(pts[i] for i in order))
    if entry is None:
        raise DegreeCapExceeded(
            f"every cross-ratio of the set needs a resultant beyond degree {RESULTANT_DEGREE_CAP}"
        )
    return entry[0].mobius(*ANHARMONIC[PERMUTATION_IMAGES[tuple(map(order.index, range(4)))]])


def _orbit_base(lam) -> AlgebraicNumber:
    a = ensure_algebraic(lam)
    if a == 0 or a == 1:
        raise ValueError("anharmonic orbit needs a value outside {0, 1}")
    return a


def anharmonic_orbit(lam, positions=range(6)) -> list[AlgebraicNumber]:
    """The values at these positions of [x, 1-x, 1/x, 1/(1-x), x/(x-1),
    (x-1)/x], obtained from a cross-ratio by permuting the points; needs
    lam outside {0, 1}.  Each value other than x itself costs one resolve,
    so a caller asks only for the values it keeps."""
    a = _orbit_base(lam)
    return [a.mobius(*ANHARMONIC[p]) for p in positions]


def anharmonic_minpolys(minpoly: Poly) -> dict[int, Poly]:
    """The minimal polynomials of the anharmonic_orbit values at positions
    0, 1 and 5, x, 1-x and (x-1)/x, of a cross-ratio x with this minimal
    polynomial: x's own, then two Mobius images, with no resolve.  The other
    three values are their inverses, of the same height."""
    if minpoly.degree() == 1 and minpoly[0] in (0, -minpoly[1]):
        raise ValueError("anharmonic images need a value outside {0, 1}")
    return {0: minpoly, **{p: _mobius_image(minpoly.coeffs, *ANHARMONIC[p]) for p in (1, 5)}}


def coefficient_limits(d: int, bound: LogMag) -> tuple[int, ...]:
    """floor(C(d, k) * E) for k = 0..d, with E = exp(d * bound) rounded up.
    Mahler's inequality |a_k| <= C(d, k) M(f) (J. London Math. Soc. 37,
    1962) makes max_k |a_k| / C(d, k) a lower bound on the Mahler measure
    M(f), so a primitive minimal polynomial of degree d with some |a_k|
    above its limit has M(f) > E >= exp(d * bound): every root has Weil
    height ln(M(f)) / d > bound.  See height_exceeds."""
    man, e = lm_exp(lm_mul(bound, d, bound.prec, UP), bound.prec, UP).dyadic()
    return tuple((math.comb(d, k) * man << e) if e >= 0 else (math.comb(d, k) * man) >> -e
                 for k in range(d + 1))


def height_exceeds(coeffs: tuple, limits: tuple[int, ...]) -> bool:
    """Whether the coefficients of an integer minimal polynomial of degree d
    break the coefficient_limits(d, bound), which certifies that its roots
    have Weil height above bound.  A rational p/q gives max(|p|, |q|) > E,
    which is exact: its height is ln max(|p|, |q|)."""
    return any(abs(a) > t for a, t in zip(coeffs, limits))


# ---------------------------------------------------------------------------
# heights and S-units


def _minpoly(alpha) -> Poly:
    """The minimal polynomial of an algebraic number or rational; a Poly is
    taken to be one already."""
    return alpha if isinstance(alpha, Poly) else ensure_algebraic(alpha).minpoly


def weil_height(alpha, precision: int = DEFAULT_PRECISION) -> tuple[LogMag, LogMag]:
    """Directed enclosure (lower, upper) of the absolute logarithmic Weil
    height of alpha, or of a root of alpha when it is a minimal polynomial
    (Poly), via the Mahler measure of the minimal polynomial:

        h = (1/n) (ln a_n + sum_i ln max(1, |alpha_i|)).

    Both ends are precision-bit LogMags, lower rounded DOWN and upper UP,
    and the enclosure width is at most 2**-(precision//2).  Roots of unity
    give an exact [0, 0].

    A rational p/q in lowest terms has height ln H with H = max(|p|, |q|),
    so its table is keyed on (H, precision), not on (p, q): p/q, -p/q, q/p,
    -q/p and every other value sharing H take ln H once, and H = 1 (0, 1
    and -1) gives the exact [0, 0].  Higher degrees are keyed on (minimal
    polynomial, precision).
    """
    coeffs = _minpoly(alpha).coeffs
    if len(coeffs) == 2:
        return _rational_height(max(abs(coeffs[0]), coeffs[1]), precision)
    return _height(coeffs, precision)


@table(_TABLE_CACHE_SIZE)
def _rational_height(H: int, precision: int) -> tuple[LogMag, LogMag]:
    """(ln H rounded DOWN, ln H rounded UP) at precision bits: the height
    of every rational u/v in lowest terms with max(|u|, |v|) = H, both
    ends from one run of the ln kernel."""
    return lm_log_ends(H, precision)


@table(_TABLE_CACHE_SIZE)
def _height(coeffs: tuple, precision: int) -> tuple[LogMag, LogMag]:
    """weil_height of a root of the minimal polynomial, of degree at least
    2, with these coefficients.  The logarithms and their sums carry 16
    guard bits, and only the final division by the degree rounds to
    precision.  ln of the leading coefficient is taken once, both ends
    from one run of the ln kernel, whatever precision the root boxes need;
    each root's log is taken once per box precision, one end each."""
    f = Poly(coeffs)
    if f.lc() == 1 and cyclotomic_index(f) is not None:
        return LogMag.zero(precision, DOWN), LogMag.zero(precision, UP)
    n = f.degree()
    an = f.lc()
    wp = precision + 16
    ln_an = lm_log_ends(an, wp)
    target = Fraction(1, 1 << (precision // 2))
    p = max(64, precision)
    for _ in range(16):
        w, boxes = _boxes(coeffs, p)
        one = 1 << 2 * w  # |alpha|**2 bounds are ints over 2**(2w)
        lo_terms = [ln_an[0]]
        hi_terms = [ln_an[1]]
        for b in boxes:
            s_lo, s_hi = fx_abs_sq(b)
            lo_terms.append(lm_div(lm_log(Fraction(max(one, s_lo), one), wp, DOWN), 2, wp, DOWN))
            hi_terms.append(lm_div(lm_log(Fraction(max(one, s_hi), one), wp, UP), 2, wp, UP))
        lo = lm_div(lm_sum(lo_terms, wp, DOWN), n, precision, DOWN)
        hi = lm_div(lm_sum(hi_terms, wp, UP), n, precision, UP)
        if lm_sub(hi, lo, wp, UP) <= target:
            return lo, hi
        p *= 2
    raise RuntimeError("height enclosure did not converge")


def _divides_power_of(m: int, n: int) -> bool:
    """Whether every prime of m divides n, for m != 0: gcd(m, n) is divided
    out of m until the gcd is 1, and then m must be +-1.  No prime is
    needed, only n."""
    g = math.gcd(m, n)
    while g != 1:
        m //= g
        g = math.gcd(m, g)
    return abs(m) == 1


def is_s_unit(alpha, n_s: int) -> bool:
    """S-unit test on alpha, or on a root of alpha when it is a minimal
    polynomial (Poly), for the set S of the primes of n_s >= 1 (N_S): both
    the leading and the constant coefficient of the minimal polynomial must
    be nonzero with every prime in S."""
    f = _minpoly(alpha)
    return f[0] != 0 and _divides_power_of(f[0], n_s) and _divides_power_of(f.lc(), n_s)
