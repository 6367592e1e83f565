"""Arithmetic invariants of hyperelliptic curves y^2 = f(x) over Q.

The parser clears the input's denominators once: a text polynomial f/d,
with f over Z, gives the integral model d^2 (f/d) = d f (rescaling y
leaves the curve unchanged), and every later stage reads integers:

  * genus from the degree, rejecting genus < 2 and singular models,
  * a finite superset S of the bad primes: 2 together with every prime
    dividing the leading coefficient or the discriminant of f, read off the
    pieces of the one factorization f = c * prod f_i that also gives the
    branch points: c, lc(f_i), disc(f_i) and res(f_i, f_j), each distinct
    piece factored once on its own, never lc(f) * disc(f) whole.  A prime
    of S at or above 2^64, where the fixed Miller-Rabin bases stop being
    deterministic, gets one caveat, in ascending order, and no prime is
    tested again,
  * the 2g+2 branch points (infinity when deg f is odd, plus the roots of
    f) in a deterministic order,
  * a normalized cross-ratio vector: a Mobius transform sends three branch
    points to infinity, 0, 1, and the images of the remaining 2g-1 are
    cross-ratios; the triple is chosen to minimize the certified upper
    bound on the largest Weil height, preferring rational triples.  The
    search ranks three normalizations of each unordered triple, one for
    each point sent to 1: swapping the points sent to infinity and 0
    inverts every cross-ratio, which keeps its height and its S-unit
    flags.  For a rational triple a rational point's cross-ratio p/q is
    read on integers: its kept images have heights ln max(|p|, |q|),
    ln max(|q-p|, |q|) and ln max(|p-q|, |p|), and one upper bound on the
    largest of them ranks all of a candidate's rational values, so equal
    heights rank equal.  When every branch point is rational, the winner
    is then the triple of least largest max(|u|, |v|), found on integers
    alone.  An irrational point's cross-ratio gives one minimal polynomial
    and its anharmonic images: for a rational triple a Mobius image of the
    point's, one per set of conjugates, and otherwise an anharmonic image of the
    one cross-ratio resolved for each set of four branch points, since the
    orderings of four points permute their cross-ratio within its
    anharmonic orbit.  Heights are bounded best candidate first, and
    branch and bound skips every normalization whose integers or
    coefficients alone (Mahler's inequality) certify a height above the
    best upper bound so far: such a candidate cannot win, so the choice is
    the exhaustive one.  The search carries minimal polynomials only; the
    chosen triple's 2g-1 values are then cross_ratio(triple, z), the one
    definition of a cross-ratio, which resolves each irrational value once
    and reads a rational one on integers,
  * S-unit flags for each cross-ratio lambda and 1-lambda, which the
    Parshin construction expects to hold without exception, read from N_S
    alone: the gcd of a coefficient with N_S is divided out until it is 1,
  * an empirical lower estimate mu_hat: the largest height among the
    x-coordinates of the finite Weierstrass points.

Equal upper bounds fall back to the lexicographically first triple, so the
whole analysis is deterministic; on the rational values of a rational
triple equal bounds mean equal heights, so an exact tie goes to the first
triple too.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

from .algebraic import (
    ANHARMONIC,
    INFINITY,
    PERMUTATION_IMAGES,
    AlgebraicNumber,
    _coordinate_matrix,
    _homogeneous,
    _rational_height,
    algebraic_roots,
    anharmonic_minpolys,
    # not called here; perfbench/layers.py wraps it under this name, and
    # tests/test_bench_layers.py checks that the name resolves
    anharmonic_orbit,
    coefficient_limits,
    cross_ratio,
    height_exceeds,
    is_s_unit,
    mobius_minpoly,
    point_key,
    set_orbit,
    weil_height,
)
from .numeric import (
    DEFAULT_PRECISION,
    DOWN,
    MR_DETERMINISTIC_LIMIT,
    UP,
    LogMag,
    decimal_str,
    factor,
    lm_exp,
    lm_max,
)
from .polynomial import (
    Poly,
    discriminant,
    factor_over_z,
    parse_poly,
    poly_gcd,
    render_poly,
    resultant,
)

_EQUATION_RE = re.compile(r"^\s*y\s*(?:\^|\*\*)\s*2\s*=\s*(.+)$", re.IGNORECASE)

_SEARCH_PRECISION = 64

# the three normalizations of a sorted triple (a, b, c) as (positions in
# the triple sent to infinity, 0 and 1; anharmonic_orbit position of their
# cross-ratio relative to cr(a, b, c, z)): c, b or a goes to 1, and the
# other two go to infinity and 0 in index order
_NORMALIZATIONS = tuple((order, PERMUTATION_IMAGES[(*order, 3)])
                        for order in ((0, 1, 2), (0, 2, 1), (1, 2, 0)))
# j with candidate value ANHARMONIC[j](the cross-ratio of a sorted set of
# four branch points), keyed (t, pos): z is the set's point t, the other
# three are the triple in index order, normalized with anharmonic position
# pos
_SET_IMAGES = {
    (t, pos): PERMUTATION_IMAGES[(*([i for i in range(4) if i != t][k] for k in order), t)]
    for t in range(4) for order, pos in _NORMALIZATIONS
}


def parse_curve(text: str) -> Poly:
    """Read 'y^2 = f(x)' (or just f) and return the integral model.

    Raises ValueError for the zero polynomial, genus < 2 or a singular
    model, naming the repeated factor in the singular case.
    """
    m = _EQUATION_RE.match(text)
    f, d = parse_poly(m.group(1) if m else text)
    if f.is_zero():
        raise ValueError("the right hand side is the zero polynomial")
    if f.degree() < 5:
        raise ValueError(
            f"genus < 2: the right hand side must have degree at least 5, "
            f"got {f.degree()}"
        )
    # y -> y/d turns y^2 = f/d into the integral model y^2 = d^2 (f/d) = d f
    f = f * d
    g = poly_gcd(f, f.derivative())
    if g.degree() > 0:
        names = ", ".join(render_poly(h) for h in factor_over_z(g))
        raise ValueError(f"singular model: repeated factor {names}")
    return f


@dataclass
class CrossRatioRecord:
    z_index: int
    value: AlgebraicNumber
    height: tuple[LogMag, LogMag]
    lambda_s_unit: bool
    one_minus_s_unit: bool


@dataclass
class Normalization:
    triple: tuple[int, int, int]
    records: list[CrossRatioRecord]
    h_max: tuple[LogMag, LogMag]
    height_multiplicative: tuple[LogMag, LogMag]


@dataclass
class CurveAnalysis:
    equation: str
    f: Poly
    genus: int
    leading_coefficient: int
    disc: int
    s_primes: list[int]
    n_s: int
    branch_points: list
    normalization: Normalization | None
    mu_hat: tuple[LogMag, LogMag]
    parshin_exceptions: list[int]
    caveats: list[str] = field(default_factory=list)
    precision: int = DEFAULT_PRECISION

    def to_dict(self) -> dict:
        out = {
            "equation": self.equation,
            "genus": self.genus,
            "leading_coefficient": self.leading_coefficient,
            "discriminant": decimal_str(self.disc),
            "s_primes": self.s_primes,
            "n_s": decimal_str(self.n_s),
            "branch_points": [_point_descriptor(p) for p in self.branch_points],
            "mu_hat": _enclosure_dict(self.mu_hat),
            "parshin_exceptions": self.parshin_exceptions,
            "caveats": self.caveats,
            "precision": self.precision,
        }
        if self.normalization is None:
            out["normalization"] = None
        else:
            nz = self.normalization
            out["normalization"] = {
                "triple": list(nz.triple),
                "records": [
                    {
                        "z_index": r.z_index,
                        "lambda": _point_descriptor(r.value),
                        "height": _enclosure_dict(r.height),
                        "lambda_s_unit": r.lambda_s_unit,
                        "one_minus_lambda_s_unit": r.one_minus_s_unit,
                    }
                    for r in nz.records
                ],
                "h_max": _enclosure_dict(nz.h_max),
                "height_multiplicative": _enclosure_dict(nz.height_multiplicative),
            }
        return out


def _point_descriptor(p) -> dict:
    if p is INFINITY:
        return {"kind": "infinity"}
    if p.is_rational:
        return {"kind": "rational", "value": str(p.as_fraction())}
    # a 64-bit box: the 32-bit canonical box would print fewer correct digits.
    # Its centre is (a + b) / 2**(w + 1), and int / int rounds correctly.
    w, (a, b, u, v) = p.refined_box(64)
    return {
        "kind": "algebraic",
        "minpoly": render_poly(p.minpoly),
        "root_index": p.index,
        "approx": [(a + b) / (2 << w), (u + v) / (2 << w)],
    }


def _enclosure_dict(enc: tuple[LogMag, LogMag]) -> dict:
    return {"lower": enc[0].to_json_value(), "upper": enc[1].to_json_value()}


def bad_prime_superset(
    f: Poly, factors: list[Poly], disc: int
) -> tuple[list[int], int, list[str]]:
    """S = {2} union the primes of lc(f) and of disc(f), ascending, with N_S
    = prod S and one caveat per prime of S at or above
    MR_DETERMINISTIC_LIMIT (2^64), whose primality is only probabilistic.

    Both are read off the pieces of f = c * prod f_i, where factors are the
    distinct irreducible f_i (f is squarefree):

        lc(f)   = c * prod lc(f_i)
        disc(f) = c^(2n-2) * prod disc(f_i) * prod_{i<j} res(f_i, f_j)^2

    Each distinct |piece| is factored once, so a large prime of a resultant
    is found in a small piece, not split off squared from one big integer
    by Pollard rho, and no prime that factor returns is tested again.  The
    product of the lc(f_i) must divide lc(f), and the pieces must multiply
    to disc exactly, sign included; RuntimeError otherwise."""
    if disc == 0:
        raise ValueError("discriminant is zero; the model is singular")
    c, rest = divmod(f.lc(), math.prod(h.lc() for h in factors))
    discs = [discriminant(h) for h in factors if h.degree() >= 2]
    resultants = [resultant(g, h) for g, h in itertools.combinations(factors, 2)]
    product = math.prod(discs, start=c ** (2 * f.degree() - 2)) * math.prod(resultants) ** 2
    if rest or product != disc:
        raise RuntimeError("the factors of f do not reproduce its discriminant")
    pieces = {abs(m) for m in (c, *(h.lc() for h in factors), *discs, *resultants)} - {1}
    s = sorted({2}.union(*({p for p, _ in factor(m)} for m in pieces)))
    caveats = [f"primality of {p} in S is probabilistic"
               for p in s if p >= MR_DETERMINISTIC_LIMIT]
    return s, math.prod(s), caveats


def branch_point_list(f: Poly, genus: int) -> list:
    """Infinity first (odd degree only), then rational roots ascending,
    then irrational roots by (minpoly degree, coefficients, root index):
    the point_key order."""
    pts = [INFINITY] if f.degree() % 2 == 1 else []
    pts.extend(sorted(algebraic_roots(f), key=point_key))
    if len(pts) != 2 * genus + 2:
        raise RuntimeError("branch point count mismatch")
    return pts


def _estimated_height(f: Poly) -> float:
    """max_k ln(|a_k| / C(d, k)) / d in floating point: close to the
    certified lower bound on the height of a root of f that
    coefficient_limits and height_exceeds test, and used only to order
    the search."""
    d = f.degree()
    return max(math.log(abs(a)) - math.log(math.comb(d, k))
               for k, a in enumerate(f.coeffs) if a) / d


def _rational_tops(matrix: tuple, points: list) -> tuple[int, int, int]:
    """exp of the largest heights, over the rational points z = x/y given
    as (x, y) (INFINITY being (1, 0)), of the kept anharmonic images of
    lambda = (a z + b)/(c z + d), for the cross-ratio matrix (a, b, c, d),
    in _NORMALIZATIONS order: lambda, 1 - lambda and (lambda - 1)/lambda;
    0 for no points.  With lambda = p/q in lowest terms, those are p/q,
    (q - p)/q and (p - q)/p, all in lowest terms, and a rational u/v in
    lowest terms has height ln max(|u|, |v|).  One integer loop, no
    logarithm: ln is monotone, so the largest H is the largest height."""
    a, b, c, d = matrix
    h0 = h1 = h5 = 0
    for x, y in points:
        p, q = a * x + b * y, c * x + d * y
        g = math.gcd(p, q)
        if g != 1:
            p //= g
            q //= g
        r = abs(p - q)
        p, q = abs(p), abs(q)
        if p > h0:
            h0 = p
        if q > h0:
            h0 = q
        if q > h1:
            h1 = q
        if r > h1:
            h1 = r
        if r > h5:
            h5 = r
        if p > h5:
            h5 = p
    return h0, h1, h5


def _rational_rank_bits(H: int) -> int:
    """Precision of the upper bound on ln H that ranks rational values:
    _SEARCH_PRECISION up to 2^48, and H's bit length plus 16 beyond.  At
    64 bits H and H + 1 first share a bound near 2^59, 11 bits above the
    switch; at H's bit length plus 16 distinct H never do, so the rank of
    rational values is exact."""
    return max(_SEARCH_PRECISION, H.bit_length() + 16)


def _least_rational_triple(points: list) -> tuple[int, int, int]:
    """The ordered triple, in the three normalizations of each unordered
    one, whose cross-ratios over the other points have the least largest
    height, ties going to the lexicographically first; points are the
    _homogeneous coordinates of an all-rational branch list.  It is the
    least (H, triple), H read by _rational_tops: the upper bounds
    _rational_rank_bits gives are strictly increasing in H, so ranking on
    them picks the same triple, and H itself needs no logarithm."""
    n = len(points)
    best = None
    for combo in itertools.combinations(range(n), 3):
        matrix = _coordinate_matrix(*(points[i] for i in combo))
        tops = _rational_tops(matrix, [points[z] for z in range(n) if z not in combo])
        for (order, _), H in zip(_NORMALIZATIONS, tops):
            if best is not None and H > best[0]:
                continue
            key = (H, tuple(combo[i] for i in order))
            if best is None or key < best:
                best = key
    return best[1]


def _winner_values(branch: list, triple: tuple) -> list:
    """(z, cross_ratio(triple, z)) for the points z outside the winning
    triple, in index order."""
    return [(z, cross_ratio(*(branch[i] for i in triple), branch[z]))
            for z in range(len(branch)) if z not in triple]


def _normalization_search(branch: list):
    """Choose the normalizing triple (p, q, r), sending p to infinity, q to
    0 and r to 1, that minimizes the certified upper bound on the largest
    cross-ratio height.  Returns (triple, lambdas, caveats) with triple None
    when every candidate hit the resultant degree cap.  Upper bounds are
    _SEARCH_PRECISION-bit (64-bit) LogMags, rational values' at
    _rational_rank_bits, whatever precision the report asks for.

    Swapping the points sent to infinity and 0 turns every lambda into
    1/lambda, which has the same height and the same S-unit flags, so each
    unordered triple is ranked in its three normalizations with p < q.
    Equal upper bounds fall back to the lexicographically first triple.

    A height reads only a minimal polynomial, so no candidate value is
    resolved to a root.  In a pool of rational points and infinity the
    cross-ratio of a triple is one integer Mobius map of z
    (_coordinate_matrix), with no resultant, so the degree cap never skips
    a rational triple.  A rational or infinite z then gives a rational
    lambda = p/q, read on integers with one gcd, and one integer loop per
    triple (_rational_tops) gives H, the largest max(|p|, |q|) of its
    kept images in each normalization: their heights are ln H_i, so ln H
    is the largest.  The upper bound on ln H at _rational_rank_bits(H)
    grows strictly with H, so equal heights rank equal, distinct ones
    never do, and an exact tie goes to the triple.

    When every branch point is rational, the winner is therefore the least
    (H, ordered triple), taken directly (_least_rational_triple): no
    candidate list, logarithm or height call.

    A rational pool that also holds irrational points ranks by branch and
    bound (below).  An irrational z gives one Mobius image of its minimal
    polynomial and the anharmonic images of that.  Conjugates have one
    minimal polynomial, and so one image polynomial under a rational
    Mobius map, so the images are built once per distinct minimal
    polynomial among the triple's other points, and its H stands for all
    its rational values through one upper bound on ln H.

    Outside a rational pool the candidates come from sets of four branch
    points.  The four orderings (triple, z) of a set, and the three
    normalizations of each, have cross-ratios in one anharmonic orbit, so
    a set resolves one cross-ratio, that of its points in index order, and
    each of its twelve candidate values has the minimal polynomial of an
    anharmonic image of it (_SET_IMAGES), with no resolve.  The degree cap
    stops a set, not an ordering: set_orbit is None only when every
    quotient of the set's pairings is capped, and a triple is skipped, and
    counted in the degree-cap caveat, exactly when one of its sets is.  A
    set's entry is a pure function of its four (minimal polynomial, index)
    pairs, so a later analysis may read it from the table and its output
    cannot depend on that.

    Branch and bound takes candidates in the order of a floating point
    estimate of their heights (ln H for the rational values).  With u the
    best upper bound so far, a normalization is dropped as soon as H >
    exp(u) or one of its value minimal polynomials, of degree d, has some
    coefficient |a_k| > C(d, k) exp(d u), the exponential rounded up
    (coefficient_limits, height_exceeds).  By Mahler's inequality that
    value has height above u, so the candidate's own upper bound exceeds u
    and it cannot win.  A survivor stops its heights as soon as one of them
    loses to the best.  Any candidate that could win or tie gets the same
    upper bounds as in an exhaustive ranking, so neither the order nor the
    pruning can move the winner.

    Candidates and the best so far carry minimal polynomials only, no
    value.  The winner's values are cross_ratio(triple, z) for each z
    outside it (_winner_values): on integers for a rational z of a
    rational triple, else one resolve each, a Mobius image of z for a
    rational triple and, for any other, an anharmonic image of the set's
    cross-ratio, whose set_orbit entry the search has just stored."""
    n = len(branch)
    coords = {i: _homogeneous(p) for i, p in enumerate(branch)
              if p is INFINITY or p.is_rational}
    if len(coords) == n:
        triple = _least_rational_triple([coords[i] for i in range(n)])
        return triple, _winner_values(branch, triple), []
    rational_pool = len(coords) >= 3
    pool = list(coords) if rational_pool else list(range(n))
    caveats = []
    if not rational_pool:
        caveats.append(
            "fewer than three rational branch points; normalization searched "
            "over all triples"
        )
    candidates = []
    skipped = 0
    for combo in itertools.combinations(pool, 3):
        rest = [z for z in range(n) if z not in combo]
        if rational_pool:
            matrix = _coordinate_matrix(*(coords[i] for i in combo))
            tops = _rational_tops(matrix, [coords[z] for z in rest if z in coords])
            conjugates = dict.fromkeys(branch[z].minpoly for z in rest if z not in coords)
            images = [anharmonic_minpolys(mobius_minpoly(f, *matrix)) for f in conjugates]
            columns = [[im[pos] for im in images] for _, pos in _NORMALIZATIONS]
        else:
            # (set_orbit of the set, the point of the set that is z) for
            # each z; branch points are in point_key order, so are the sets
            members = []
            for z in rest:
                quad = sorted((*combo, z))
                members.append((set_orbit(*(branch[i] for i in quad)), quad.index(z)))
            if any(entry is None for entry, _ in members):
                skipped += len(_NORMALIZATIONS)
                continue
            tops = (0, 0, 0)
            columns = [[orbit[_SET_IMAGES[t, pos]] for (_, orbit), t in members]
                       for _, pos in _NORMALIZATIONS]
        for (order, _), H, polys in zip(_NORMALIZATIONS, tops, columns):
            key = max([math.log(H) if H else 0.0] + [_estimated_height(f) for f in polys])
            candidates.append((key, tuple(combo[i] for i in order), H, polys))
    # best first, so that the bound is tight early; the order decides only
    # how much is pruned, never which candidate wins
    candidates.sort(key=lambda c: c[:2])

    best = None  # (upper bound, triple)
    limits: dict[int, tuple] = {}  # degree d -> coefficient_limits(d, best upper bound)

    def limit(d: int) -> tuple:
        if d not in limits:
            limits[d] = coefficient_limits(d, best[0])
        return limits[d]

    for _, triple, H, polys in candidates:
        if best is not None and (
            H > limit(1)[0] or any(height_exceeds(f.coeffs, limit(f.degree())) for f in polys)
        ):
            continue
        # H's enclosure first: ln H, the largest height of the rational
        # values, stands for all of them
        enclosures = itertools.chain(
            [_rational_height(H, _rational_rank_bits(H))] if H else [],
            (weil_height(f, _SEARCH_PRECISION) for f in polys))
        uppers = []
        for _, up in enclosures:
            uppers.append(up)
            if best is not None and (up, triple) > best:
                break
        else:
            h_up = lm_max(*uppers)
            if best is None or (h_up, triple) < best:
                best = (h_up, triple)
                limits.clear()
    if skipped:
        caveats.append(f"{skipped} candidate triples skipped by the degree cap")
    if best is None:
        caveats.append("no feasible normalization triple under the degree cap")
        return None, [], caveats
    return best[1], _winner_values(branch, best[1]), caveats


def analyze_curve(text: str, precision: int = DEFAULT_PRECISION) -> CurveAnalysis:
    f = parse_curve(text)
    genus = (f.degree() - 1) // 2
    disc = discriminant(f)
    branch = branch_point_list(f, genus)
    # the distinct minimal polynomials of the branch points are the
    # irreducible factors of f, so f is factored over Z only once
    factors = list(dict.fromkeys(p.minpoly for p in branch if p is not INFINITY))
    s_primes, n_s, caveats = bad_prime_superset(f, factors, disc)

    triple, lams, norm_caveats = _normalization_search(branch)
    caveats.extend(norm_caveats)

    normalization = None
    parshin_exceptions: list[int] = []
    if triple is not None:
        records = []
        for z, lam in lams:
            lo, hi = weil_height(lam, precision)
            rec = CrossRatioRecord(
                z_index=z,
                value=lam,
                height=(lo, hi),
                lambda_s_unit=is_s_unit(lam, n_s),
                one_minus_s_unit=is_s_unit(mobius_minpoly(lam, *ANHARMONIC[1]), n_s),
            )
            records.append(rec)
        for idx, rec in enumerate(records):
            if not (rec.lambda_s_unit and rec.one_minus_s_unit):
                parshin_exceptions.append(idx)
        h_lo = lm_max(*[r.height[0] for r in records])
        h_hi = lm_max(*[r.height[1] for r in records])
        normalization = Normalization(
            triple=triple,
            records=records,
            h_max=(h_lo, h_hi),
            height_multiplicative=(
                lm_exp(h_lo, precision, DOWN),
                lm_exp(h_hi, precision, UP),
            ),
        )

    finite = [p for p in branch if p is not INFINITY]
    heights = [weil_height(p, precision) for p in finite]
    mu_hat = (lm_max(*[h[0] for h in heights]), lm_max(*[h[1] for h in heights]))

    return CurveAnalysis(
        equation="y^2 = " + render_poly(f),
        f=f,
        genus=genus,
        leading_coefficient=f.lc(),
        disc=disc,
        s_primes=s_primes,
        n_s=n_s,
        branch_points=branch,
        normalization=normalization,
        mu_hat=mu_hat,
        parshin_exceptions=parshin_exceptions,
        caveats=caveats,
        precision=precision,
    )
