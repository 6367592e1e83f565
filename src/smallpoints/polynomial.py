"""Dense univariate polynomials over the integers, exactly.

Coefficients are ints stored low to high; a rational input is cleared of
its denominators once, by parse_poly, and every later stage reads integer
data.  On top of the ring ops and exact division this module provides the
pieces the rest of the package leans on: gcds, resultants and
discriminants, all from one subresultant PRS, the distinct irreducible
factors over Z by the modular route, cyclotomic recognition, and a small
text format ("x^5 - x") used by the CLI.

Factoring splits f mod one prime p (Cantor-Zassenhaus).  Each linear
factor x - r mod p is Newton-lifted on f itself to p-adic precision, and
a rational reconstruction b/a of r that passes an exact test gives the
factor a*x - b over Z: the rational branch points need nothing more.  The
factors left over are Hensel-lifted together and recombined in subsets
under the Mignotte bound, which also finds any root reconstruction missed.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction
from functools import lru_cache

from .numeric import factor as int_factor
from .numeric import is_prime


def _as_poly(other) -> "Poly":
    if isinstance(other, Poly):
        return other
    if isinstance(other, int):
        return Poly((other,))
    raise TypeError(f"polynomial arithmetic needs a Poly or an int, got {type(other).__name__}")


class Poly:
    """Immutable dense polynomial over Z; coeffs[i] multiplies x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"polynomial coefficients must be ints, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- basics

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == Poly((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({render_poly(self)!r})"

    # -- ring operations

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly([c * other for c in self.coeffs])
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def quo(self, other: "Poly") -> "Poly | None":
        """The quotient self / other when it is a polynomial over Z, else
        None.  Long division stops at the first quotient coefficient that
        is not an integer.  By Gauss's lemma a primitive divisor of self
        over Q always leaves an integer quotient."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        m = other.degree()
        d = other.lc()
        r = list(self.coeffs)
        q = [0] * max(0, len(r) - m)
        for k in range(len(r) - 1 - m, -1, -1):
            c, rem = divmod(r[k + m], d)
            if rem:
                return None
            q[k] = c
            if c:
                for i, b in enumerate(other.coeffs):
                    r[i + k] -= c * b
        return Poly(q) if not any(r[:m]) else None

    # -- calculus and integer structure

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def primitive(self) -> "Poly":
        """The primitive part: self divided by its content, with the sign
        that makes the leading coefficient positive."""
        if self.is_zero():
            return self
        g = math.gcd(*self.coeffs)
        if self.coeffs[-1] < 0:
            g = -g
        return Poly([v // g for v in self.coeffs])


# ---------------------------------------------------------------------------
# gcd and resultant via one subresultant PRS


def _iprem(A: list[int], B: list[int]) -> list[int]:
    """Pseudo-remainder: lc(B)**(deg A - deg B + 1) * A mod B, exactly."""
    m = len(B) - 1
    d = B[-1]
    R = list(A)
    for _ in range(len(A) - len(B) + 1):
        if len(R) > m:
            top = R[-1]
            k = len(R) - 1 - m
            R = [d * c for c in R]
            for i, bc in enumerate(B):
                R[i + k] -= top * bc
            R.pop()
            while R and R[-1] == 0:
                R.pop()
        else:
            R = [d * c for c in R]
    return R


def _subresultant(A: list[int], B: list[int]) -> tuple[list[int], int]:
    """(primitive gcd with positive lc, resultant) of nonzero integer
    polynomials, from one subresultant PRS (Brown & Traub, J. ACM 18, 1971).
    Every remainder is a constant multiple of the Euclidean one, so the gcd
    is the primitive part of the last nonzero remainder; a zero remainder
    means a common factor and a zero resultant."""
    n, m = len(A) - 1, len(B) - 1
    s = 1
    if n < m:
        if n % 2 == 1 and m % 2 == 1:
            s = -1
        A, B, n, m = B, A, m, n
    if m == 0:
        return [1], s * B[0] ** n if n > 0 else 1
    a = math.gcd(*A)
    A = [v // a for v in A]
    b = math.gcd(*B)
    B = [v // b for v in B]
    t = a**m * b**n
    g = h = 1
    while True:
        n, m = len(A) - 1, len(B) - 1
        delta = n - m
        if n % 2 == 1 and m % 2 == 1:
            s = -s
        R = _iprem(A, B)
        if not R:
            c = math.gcd(*B) if B[-1] > 0 else -math.gcd(*B)
            return [v // c for v in B], 0
        denom = g * h**delta
        A, B = B, [v // denom for v in R]
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g**delta // h ** (delta - 1)
        if len(B) == 1:
            break
    n = len(A) - 1
    c = B[0]
    hf = c if n == 1 else c**n // h ** (n - 1)
    return [1], s * t * hf


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """The gcd, primitive with positive leading coefficient (the gcd with
    zero is the primitive part of the other input)."""
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    h, _ = _subresultant(f.coeffs, g.coeffs)
    return Poly(h)


# ---------------------------------------------------------------------------
# resultant and discriminant


def resultant(f: Poly, g: Poly) -> int:
    """res(f, g); zero exactly when the inputs share a nonconstant factor."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    return _subresultant(f.coeffs, g.coeffs)[1]


def discriminant(f: Poly) -> int:
    """(-1)^(n(n-1)/2) res(f, f') / lc(f), a division that is exact."""
    if f.degree() < 1:
        raise ValueError("discriminant needs positive degree")
    n = f.degree()
    if n == 1:
        return 1
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) // f.lc()


# ---------------------------------------------------------------------------
# arithmetic mod p on int coefficient lists (low to high, trimmed)


def _pm_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_sub(a, b, p):
    n = max(len(a), len(b))
    return _pm_trim(
        [
            ((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
            for i in range(n)
        ]
    )


def _pm_add(a, b, p):
    n = max(len(a), len(b))
    return _pm_trim(
        [
            ((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
            for i in range(n)
        ]
    )


def _pm_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pm_trim([v % p for v in out])


def _pm_scale(a, c, p):
    return _pm_trim([v * c % p for v in a])


def _pm_divmod(a, b, p):
    """Quotient and remainder mod p; the divisor's lc must be invertible,
    which also covers monic divisors mod a prime power.  The working
    remainder is reduced lazily: only the coefficient that gives each
    quotient digit, and the remainder once at the end."""
    inv = pow(b[-1], -1, p)
    m = len(b) - 1
    r = list(a)
    q = [0] * max(0, len(r) - m)
    for k in reversed(range(len(q))):
        c = r[k + m] * inv % p
        if c:
            q[k] = c
            for i in range(m):
                r[i + k] -= c * b[i]
    return _pm_trim(q), _pm_trim([v % p for v in r[:m]])


def _pm_monic(a, p):
    if not a:
        return a
    return _pm_scale(a, pow(a[-1], -1, p), p)


def _pm_gcd(a, b, p):
    while b:
        a, b = b, _pm_divmod(a, b, p)[1]
    return _pm_monic(a, p)


def _pm_mulmod(a, b, f, p):
    return _pm_divmod(_pm_mul(a, b, p), f, p)[1]


def _pm_powmod(a, e: int, f, p):
    out = [1]
    base = _pm_divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _pm_mulmod(out, base, f, p)
        base = _pm_mulmod(base, base, f, p)
        e >>= 1
    return out


def _distinct_degree(f, p) -> list[tuple[list[int], int]]:
    """(product of the irreducible factors of degree d, d) pairs for
    squarefree monic f mod p."""
    out = []
    h = [0, 1]
    rem = list(f)
    d = 0
    while len(rem) - 1 >= 2 * (d + 1):
        d += 1
        h = _pm_powmod(h, p, rem, p)
        g = _pm_gcd(_pm_sub(h, [0, 1], p), rem, p)
        if len(g) > 1:
            out.append((g, d))
            rem = _pm_divmod(rem, g, p)[0]
            h = _pm_divmod(h, rem, p)[1]
    if len(rem) > 1:
        out.append((rem, len(rem) - 1))
    return out


def _equal_degree_split(f, d: int, p: int, rng) -> list[list[int]]:
    """Cantor-Zassenhaus splitting of monic squarefree f whose irreducible
    factors all have degree d; requires p odd."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = _pm_trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        b = _pm_powmod(a, e, f, p)
        t = _pm_gcd(_pm_sub(b, [1], p), f, p)
        if 1 < len(t) < len(f):
            other = _pm_divmod(f, t, p)[0]
            return _equal_degree_split(t, d, p, rng) + _equal_degree_split(
                other, d, p, rng
            )


# A block of two or more linear factors mod a prime up to this one is split
# by evaluating it at the residues, a larger prime's by Cantor-Zassenhaus.
# Measured on blocks of 2, 3 and 5 random linear factors (Python 3.11, a
# 2-vCPU Xeon VM): evaluation is 2.4 to 4.9 times as fast at p = 251, and
# still 1.8 times when the roots are the top residues; Cantor-Zassenhaus
# overtakes it between p = 400 and 600.
_ROOTS_BY_EVALUATION_MAX_P = 256


def _linear_factors(block, p) -> list[list[int]]:
    """x - r for each root r of block, a product of distinct monic linear
    factors mod p, found by evaluating it at 0, 1, ... in turn."""
    n = len(block) - 1
    out = []
    for r in range(p):
        if _eval_mod(block, r, p) == 0:
            out.append([-r % p, 1])
            if len(out) == n:
                break
    return out


def _factor_mod_p(f, p, blocks) -> list[list[int]]:
    """Monic irreducible factors of squarefree monic f mod p, given its
    _distinct_degree(f, p) blocks, in a deterministic order (the splitting
    randomness is seeded from f and p)."""
    rng = random.Random(hash((p, tuple(f))))
    out = []
    for block, d in blocks:
        if d == 1 and len(block) > 2 and p <= _ROOTS_BY_EVALUATION_MAX_P:
            out.extend(_linear_factors(block, p))
        else:
            out.extend(_equal_degree_split(block, d, p, rng))
    out.sort(key=lambda u: (len(u), tuple(reversed(u))))
    return out


# ---------------------------------------------------------------------------
# Hensel lifting


def _pm_bezout(g, h, p):
    """s, t with s*g + t*h = 1 mod p for coprime g, h."""
    r0, r1 = list(g), list(h)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pm_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pm_sub(s0, _pm_mul(q, s1, p), p)
        t0, t1 = t1, _pm_sub(t0, _pm_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return _pm_scale(s0, inv, p), _pm_scale(t0, inv, p)


def _hensel_step(f, g, h, s, t, M: int):
    """Quadratic lift: from f = g*h and s*g + t*h = 1 at the previous modulus
    to the same congruences mod M; h monic and stays monic."""
    e = _pm_sub(f, _pm_mul(g, h, M), M)
    q, r = _pm_divmod(_pm_mul(s, e, M), h, M)
    g1 = _pm_add(g, _pm_add(_pm_mul(t, e, M), _pm_mul(q, g, M), M), M)
    h1 = _pm_add(h, r, M)
    b = _pm_sub(_pm_add(_pm_mul(s, g1, M), _pm_mul(t, h1, M), M), [1], M)
    c, d = _pm_divmod(_pm_mul(s, b, M), h1, M)
    s1 = _pm_sub(s, d, M)
    t1 = _pm_sub(t, _pm_add(_pm_mul(t, b, M), _pm_mul(c, g1, M), M), M)
    return g1, h1, s1, t1


def _hensel_tree(f: list[int], lc: int, units: list[list[int]], p: int, modulus: int):
    """Lift f = lc * prod(units) from mod p to the given modulus (a power of
    p reached by repeated squaring).  units are monic mod p; the returned
    factors are monic mod modulus."""
    if len(units) == 1:
        inv = pow(lc % modulus, -1, modulus)
        return [_pm_trim([v * inv % modulus for v in f])]
    half = len(units) // 2
    g = [lc % p]
    for u in units[:half]:
        g = _pm_mul(g, u, p)
    h = [1]
    for u in units[half:]:
        h = _pm_mul(h, u, p)
    s, t = _pm_bezout(g, h, p)
    m = p
    while m < modulus:
        m = m * m
        g, h, s, t = _hensel_step([v % m for v in f], g, h, s, t, m)
    return _hensel_tree(g, lc, units[:half], p, modulus) + _hensel_tree(
        h, 1, units[half:], p, modulus
    )


# ---------------------------------------------------------------------------
# factorization over Z


def _mignotte_bound(ints: list[int]) -> int:
    """Bound on every coefficient of the candidate h = (lc f / lc g) * g for
    any factor g of f over Z, which recombination and the rational-root lift
    read off symmetric residues.  With f = g * k, M(k) >= |lc k| gives
    M(h) = |lc k| * M(g) <= M(f), and M(f) <= ||f||_2 (Landau), so every
    coefficient obeys |h_j| <= C(deg h, j) * M(h) <= 2**n * ||f||_2 for
    n = deg f.  h already carries lc f, so no further |lc f| multiplies the
    bound."""
    n = len(ints) - 1
    norm2 = math.isqrt(sum(v * v for v in ints)) + 1
    return (1 << n) * norm2


# A count of r modular factors lets the recombination try up to 2**(r-1)
# subset products.  Up to this r they cost less than the distinct-degree
# split of one more candidate prime, so no other prime can pay for itself.
# Measured on random polynomials of degree 16, 24 and 32, one split at a
# prime below 15 costs as much as 87, 144 and 319 subset trials: r = 7.4,
# 8.2 and 9.3.
_RECOMBINATION_BOUND = 8
_CANDIDATE_PRIMES = 5


def _next_prime(p: int) -> int:
    p += 1 + (p % 2)
    while not is_prime(p):
        p += 2
    return p


def _squarefree_mod(ints, p: int) -> bool:
    """Whether the integer polynomial with these coefficients, low to high,
    stays squarefree of the same degree modulo p, a prime not dividing its
    leading coefficient: gcd(f, f') = 1 mod p."""
    fp = _pm_trim([v % p for v in ints])
    dfp = _pm_trim([i * v % p for i, v in enumerate(ints)][1:])
    return bool(dfp) and len(_pm_gcd(fp, dfp, p)) == 1


def _squarefree_at_first_prime(ints) -> bool:
    """_squarefree_mod at the first odd prime p not dividing the leading
    coefficient, the first that _choose_prime tries.  True proves the
    polynomial squarefree over Q: a square g^2 dividing it would reduce to
    a square of the same degree dividing it mod p."""
    p = 3
    while ints[-1] % p == 0:
        p = _next_prime(p)
    return _squarefree_mod(ints, p)


def is_squarefree(f: Poly) -> bool:
    """Whether a nonconstant f has no repeated factor over Q: decided mod
    the first prime (_squarefree_at_first_prime) for most inputs, and by
    gcd(f, f') over Z for the rest."""
    return _squarefree_at_first_prime(f.coeffs) or poly_gcd(f, f.derivative()).degree() == 0


def _choose_prime(ints: list[int]) -> tuple[int, list[list[int]]]:
    """The first odd prime keeping the degree and squarefreeness of f, with
    the factors of f mod that prime.  Only when its modular factor count
    exceeds _RECOMBINATION_BOUND are further candidates tried, up to
    _CANDIDATE_PRIMES in all, stopping at the first whose count is within
    the bound; the fewest count wins, the earlier prime on a tie.  A
    candidate's count comes from its distinct-degree split alone (a block of
    degree k holding factors of degree d has k/d of them); only the chosen
    prime is fully split, from the blocks its count was read off."""
    best = None
    found = 0
    p = 2
    while found < _CANDIDATE_PRIMES:
        p = _next_prime(p)
        if ints[-1] % p == 0:
            continue
        if not _squarefree_mod(ints, p):
            continue
        monic = _pm_monic(_pm_trim([v % p for v in ints]), p)
        blocks = _distinct_degree(monic, p)
        count = sum((len(block) - 1) // d for block, d in blocks)
        found += 1
        if best is None or count < best[1]:
            best = (p, count, monic, blocks)
            if count <= _RECOMBINATION_BOUND:
                break
    p, _, monic, blocks = best
    return p, _factor_mod_p(monic, p, blocks)


def _rational_reconstruction(r: int, m: int) -> tuple[int, int] | None:
    """(b, a) with b = a * r mod m, |b| <= N and 0 < a <= N for N =
    isqrt(m/2), or None: the first remainder of the extended Euclid on
    (m, r) at most N, with its cofactor (each remainder r_i = t_i * r mod
    m).  For odd m, a fraction b/a of that size with a prime to m and
    b = a * r mod m is unique, and this finds it (Wang, Guy and Davenport,
    SIGSAM Bull. 16, 1982)."""
    bound = math.isqrt(m // 2)
    r0, r1 = m, r
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _eval_mod(ints, x: int, m: int) -> int:
    v = 0
    for c in reversed(ints):
        v = (v * x + c) % m
    return v


def _rational_root_factor(
    ints: list[int], g: Poly, r: int, p: int, target: int
) -> Poly | None:
    """The factor a*x - b of g over Z whose root b/a is congruent to r mod p,
    if one is found by the time the modulus reaches target (Loos, SIAM J.
    Comput. 12, 1983).  r is a simple root of ints mod p, and g, a divisor
    of ints over Z, keeps it.  r is Newton-lifted on ints itself, squaring
    the modulus at each step: ints' is a unit at r because ints is
    squarefree mod p.  At each modulus the rational reconstruction of r is
    accepted only when a divides lc g and g(b/a) * a**deg g is exactly 0.
    Then gcd(a, b) divides a power of p as well as lc g, which p does not
    divide, so a*x - b is primitive."""
    deriv = [i * c for i, c in enumerate(ints)][1:]
    lc = g.lc()
    m = p
    while True:
        pair = _rational_reconstruction(r, m)
        if pair is not None and lc % pair[1] == 0:
            b, a = pair
            # g(b/a) * a**deg g, one integer Horner pass
            v, w = 0, 1
            for c in reversed(g.coeffs):
                v = v * b + c * w
                w *= a
            if v == 0:
                return Poly([-b, a])
        if m >= target:
            return None
        m *= m
        r = (r - _eval_mod(ints, r, m) * pow(_eval_mod(deriv, r, m), -1, m)) % m


def _factor_squarefree_int(ints: tuple[int, ...]) -> list[Poly]:
    """Irreducible factors (primitive, positive lc) of a primitive squarefree
    integer polynomial of degree >= 1.

    Each linear factor x - r of f mod p first gives its rational root, if f
    has one there, by `_rational_root_factor`, which divides it out.  The
    cofactor is congruent mod p to its lc times the units left over, so it
    is irreducible when at most one is left; otherwise those units are
    Hensel-lifted and recombined on it, under its own bound."""
    f = Poly(ints).primitive()
    if f.degree() == 1:
        return [f]
    p, units = _choose_prime(ints)
    if len(units) == 1:
        return [f]
    target = 2 * _mignotte_bound(ints) + 1
    out: list[Poly] = []
    rest = []
    for u in units:
        h = _rational_root_factor(ints, f, -u[0] % p, p, target) if len(u) == 2 else None
        if h is None:
            rest.append(u)
        else:
            out.append(h)
            f = f.quo(h)
    if len(rest) <= 1:
        return out + [f] if f.degree() > 0 else out
    ints = f.coeffs
    target = 2 * _mignotte_bound(ints) + 1
    modulus = p
    while modulus < target:
        modulus = modulus * modulus
    lifted = _hensel_tree(ints, ints[-1], rest, p, modulus)
    half = modulus // 2
    remaining = list(range(len(lifted)))
    c = 1
    while remaining and c <= len(remaining) // 2:
        progressed = False
        for combo in itertools.combinations(remaining, c):
            if sum(len(lifted[i]) - 1 for i in combo) > f.degree() - 1:
                continue
            cand = [f.lc() % modulus]
            for i in combo:
                cand = _pm_mul(cand, lifted[i], modulus)
            # the primitive part of the symmetric residues divides f over Z
            # if it divides it at all
            h = Poly([v - modulus if v > half else v for v in cand]).primitive()
            q = f.quo(h)
            if q is not None:
                out.append(h)
                f = q
                remaining = [i for i in remaining if i not in combo]
                progressed = True
                break
        if not progressed:
            c += 1
    if f.degree() > 0:
        out.append(f)
    return out


def factor_over_z(f: Poly) -> list[Poly]:
    """The distinct irreducible factors of f over Q, those of its squarefree
    part f / gcd(f, f'): primitive integer polynomials with positive leading
    coefficient, sorted by (degree, coefficients).  A constant has none.
    The gcd runs only when f is not squarefree mod the first prime
    (_squarefree_at_first_prime), so a curve's model is factored as it is."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree() < 1:
        return []
    if not _squarefree_at_first_prime(f.coeffs):
        f = f.quo(poly_gcd(f, f.derivative()))
    factors = _factor_squarefree_int(f.primitive().coeffs)
    return sorted(factors, key=lambda h: (h.degree(), h.coeffs))


# ---------------------------------------------------------------------------
# cyclotomic recognition


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> Poly:
    """The m-th cyclotomic polynomial, from x**m - 1 by dividing out the
    lower Phi_d."""
    if m < 1:
        raise ValueError("cyclotomic index must be positive")
    num = Poly([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            num = num.quo(cyclotomic_poly(d))
    return num


def euler_phi(m: int) -> int:
    out = 1
    for p, e in int_factor(m):
        out *= (p - 1) * p ** (e - 1)
    return out


def cyclotomic_index(f: Poly) -> int | None:
    """m if f is exactly the m-th cyclotomic polynomial, else None.  phi(m)
    is at least sqrt(m/2), so indices up to 2 deg**2 + 1 cover everything."""
    n = f.degree()
    if n < 1 or f.lc() != 1:
        return None
    for m in range(1, 2 * n * n + 2):
        if euler_phi(m) == n and f == cyclotomic_poly(m):
            return m
    return None


# ---------------------------------------------------------------------------
# text format


# The largest degree parse_poly builds, far above any curve the pipeline
# can analyze; anything larger is rejected before it is built.
MAX_PARSE_DEGREE = 256
# The largest power size parse_poly builds: a power f^e of a nonconstant
# f is rejected before it is expanded when e * S exceeds this, with S the
# total bit length of the numerators and denominators of the coefficients
# of f in lowest terms.  Every coefficient of f^e then has numerator and
# denominator below 2^(e * S + MAX_PARSE_DEGREE).  The largest powers the
# two limits admit, such as (x + 8191)^256, expand in about half a second.
# A power of a constant is capped by its size alone, like a literal: a
# literal, a product, a sum or a constant power is rejected when a
# numerator or denominator of its coefficients has more than
# MAX_PARSE_BITS bits, checked before it is built.
MAX_PARSE_BITS = 1 << 12
# a literal with more digits than 2^MAX_PARSE_BITS is over the limit, and
# is rejected before it is converted
_MAX_LITERAL_DIGITS = len(str(1 << MAX_PARSE_BITS))

_TOKEN_RE = re.compile(r"\s*(\d+(?:/\d+)?|\*\*|[-+*^()xX])")


class _PolyParser:
    """Recursive descent over the tokens of one polynomial text:

        sum     := [sign] term (sign term)*
        term    := factor ("*" factor)*
        factor  := integer [power] [x-power] | fraction [x-power] | x-power
                   | "(" sum ")" [power]
        x-power := x [power]
        power   := ("^" | "**") digits

    A number written right before x ("2x", "1/2 x", "2^3x") multiplies it,
    and a power is a non-negative integer.  An integer's power is checked
    as that of its parenthesized form, so "2^10" and "(2)^10" are one
    polynomial under the same limits; a fraction literal such as "3/2"
    takes a power only in parentheses, "(3/2)^2", since "3/2^2" would read
    as 3/(2^2) in ordinary notation.  No power of x or of a nonconstant
    polynomial may have an exponent or degree over MAX_PARSE_DEGREE, and no
    product a degree over it; no such power may have a size over
    MAX_PARSE_BITS; and no numerator or denominator of a literal, product,
    sum or constant power may have more than MAX_PARSE_BITS bits, so
    "2^4000" parses as its 1205-digit literal does.  Each is checked before
    the polynomial is expanded.

    Each rule returns a pair (f, d) standing for f/d, with f over Z and
    d >= 1 coprime to the content of f; sums and products are brought back
    to lowest terms, and a power needs no reduction by Gauss's lemma."""

    def __init__(self, s: str):
        self.s = s
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(s):
            m = _TOKEN_RE.match(s, pos)
            if not m:
                raise ValueError(f"cannot parse polynomial near {s[pos:].lstrip()[:20]!r}")
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.tokens.append(("", len(s)))
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def error(self, what: str = "cannot parse polynomial") -> ValueError:
        pos = self.tokens[self.i][1]
        if pos == len(self.s):
            return ValueError(f"{what}: unexpected end of text")
        return ValueError(f"{what} near {self.s[pos:pos + 20]!r}")

    def starts_factor(self) -> bool:
        tok = self.peek()
        return tok[:1].isdigit() or tok in ("x", "X", "(")

    def parse(self) -> tuple[Poly, int]:
        f = self.sum()
        if self.peek():
            raise self.error()
        return f

    def sum(self) -> tuple[Poly, int]:
        total, den = Poly.zero(), 1
        first = True
        while True:
            sign = self.peek()
            if sign in ("+", "-"):
                self.i += 1
            elif not first:
                return total, den
            f, d = self.term()
            # |a d + b den| for the coefficients a of total and b of f
            _check_bits(max((abs(a) * d + abs(b) * den for a, b in
                             itertools.zip_longest(total.coeffs, f.coeffs, fillvalue=0)),
                            default=0), den * d)
            total, den = _lowest_terms(total * d + f * (-den if sign == "-" else den), den * d)
            first = False
            if self.starts_factor():
                raise self.error("missing sign between terms")

    def term(self) -> tuple[Poly, int]:
        f, d = self.factor()
        while self.peek() == "*":
            self.i += 1
            g, e = self.factor()
            _check_degree(f.degree() + g.degree())
            # each coefficient of f g sums at most min(len) products
            _check_bits(min(len(f.coeffs), len(g.coeffs)) * _max_abs(f) * _max_abs(g), d * e)
            f, d = _lowest_terms(f * g, d * e)
        return f, d

    def factor(self) -> tuple[Poly, int]:
        tok = self.peek()
        if tok[:1].isdigit():
            self.i += 1
            c = _literal(tok)
            if self.peek() in ("^", "**"):
                e = self.power(MAX_PARSE_BITS)
                if "/" in tok:
                    raise ValueError(f"a power of the fraction {tok} needs parentheses: "
                                     f"write ({tok})^{e}")
                c = Fraction(_constant_power(c.numerator, 1, e)[0])
            f = self.x_power() if self.peek() in ("x", "X") else Poly.one()
            return f * c.numerator, c.denominator
        if tok in ("x", "X"):
            return self.x_power(), 1
        if tok == "(":
            self.i += 1
            inner, d = self.sum()
            if self.peek() != ")":
                raise self.error()
            self.i += 1
            if inner.degree() <= 0:
                n, d = _constant_power(inner[0], d, self.power(MAX_PARSE_BITS))
                return Poly([n]), d
            e = self.power()
            _check_power(inner, d, e)
            return inner**e, d**e
        raise self.error()

    def x_power(self) -> Poly:
        self.i += 1
        return Poly([0] * self.power() + [1])

    def power(self, limit: int = MAX_PARSE_DEGREE) -> int:
        """The exponent of an optional power, at most limit: MAX_PARSE_DEGREE
        for x or a nonconstant polynomial, MAX_PARSE_BITS for a constant,
        since a larger exponent takes every constant but 0 and +-1 past
        MAX_PARSE_BITS bits."""
        if self.peek() not in ("^", "**"):
            return 1
        self.i += 1
        tok = self.peek()
        if not tok.isdigit():
            raise self.error()
        self.i += 1
        # count the digits first, so a huge exponent is never converted
        digits = len(tok.lstrip("0"))
        if digits > len(str(limit)) or int(tok) > limit:
            shown = tok if digits <= 20 else f"of {digits} digits"
            raise ValueError(f"exponent {shown} exceeds the limit {limit}")
        return int(tok)


def _literal(tok: str) -> Fraction:
    """The rational a literal writes, its digits counted before it is
    converted, as power() does."""
    for part in tok.split("/"):
        digits = len(part.lstrip("0"))
        if digits > _MAX_LITERAL_DIGITS:
            raise ValueError(f"coefficient of {digits} digits, over {MAX_PARSE_BITS} bits, "
                             f"exceeds the limit {MAX_PARSE_BITS}")
    try:
        c = Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficient {tok!r}") from None
    _check_bits(c.numerator, c.denominator)
    return c


def _max_abs(f: Poly) -> int:
    return max(map(abs, f.coeffs), default=0)


def _check_bits(numerator: int, denominator: int) -> None:
    """Reject a numerator or denominator bound of more than MAX_PARSE_BITS
    bits, before what it bounds is built."""
    bits = max(abs(numerator).bit_length(), denominator.bit_length())
    if bits > MAX_PARSE_BITS:
        raise ValueError(f"coefficient of {bits} bits exceeds the limit {MAX_PARSE_BITS}")


def _check_degree(d: int) -> None:
    if d > MAX_PARSE_DEGREE:
        raise ValueError(f"polynomial degree {d} exceeds the limit {MAX_PARSE_DEGREE}")


def _lowest_terms(f: Poly, d: int) -> tuple[Poly, int]:
    """f/d as (f', d') with d' >= 1 coprime to the content of f' (d' = 1
    for the zero polynomial)."""
    g = math.gcd(d, *f.coeffs)
    return (f, d) if g == 1 else (Poly([c // g for c in f.coeffs]), d // g)


def _check_power(f: Poly, d: int, e: int) -> None:
    """Reject (f/d)^e before it is expanded when its degree or its size is
    over the limit, the size read off the coefficients of f/d in lowest
    terms."""
    _check_degree(f.degree() * e)
    size = 0
    for c in f.coeffs:
        g = math.gcd(c, d)
        size += (c // g).bit_length() + (d // g).bit_length()
    if size * e > MAX_PARSE_BITS:
        raise ValueError(f"power of {size * e} coefficient bits exceeds the limit {MAX_PARSE_BITS}")


def _constant_power(n: int, d: int, e: int) -> tuple[int, int]:
    """(n^e, d^e) for a constant n/d in lowest terms, capped by size: with b
    the larger bit length of |n| and d, the power has at least (b - 1) e + 1
    bits, so it is rejected when that exceeds MAX_PARSE_BITS; otherwise it
    has at most b e, about twice the limit, and is built and checked
    exactly."""
    bits = max(abs(n).bit_length(), d.bit_length())
    if (bits - 1) * e + 1 > MAX_PARSE_BITS:
        raise ValueError(f"power of at least {(bits - 1) * e + 1} coefficient bits "
                         f"exceeds the limit {MAX_PARSE_BITS}")
    n, d = n**e, d**e
    _check_bits(n, d)
    return n, d


def parse_poly(text: str) -> tuple[Poly, int]:
    """Parse forms like "x^5 - x", "2x^3 + 1/2 x - 7", "x**6 - 1" and
    products such as "x*(x-1)^2*(x + 3)".  Returns (f, d) with f over Z,
    d >= 1 and gcd(d, content f) = 1, such that the text's polynomial is
    f/d: the denominators are cleared here, once."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    return _PolyParser(s).parse()


def render_poly(f: Poly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for e in range(f.degree(), -1, -1):
        c = f[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            body = xs if mag == 1 else f"{mag} {xs}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
