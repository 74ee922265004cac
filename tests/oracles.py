"""Brute-force and independent oracles that the tests check the program against.

None of this runs in the program.  ``lattice_volume`` measures the hull of
an arbitrary point set by brute force, with a rational inverse
(``_inverse``) for its coordinates; ``subspace_contains`` decides span
membership for rational vectors; ``chow_volumes`` reads facet volumes off
intersection numbers in the Chow ring, sharing only the cone duals with the
vertex formula of ``toricstab.polytope``; ``ample_by_fractions`` decides
ampleness (``nef_by_fractions`` nefness) by the global scan over every
cone and every ray, on the points ``fraction_vertices`` solves in
fractions, and ``reflexive_by_scan`` scans the bounding box of those points
for interior lattice points, as ``polytope.is_reflexive`` once did.
``closure_flats`` grows the flats of the ray matroid from the definition,
with the oracles' own rank test (``rank``, which the span and hull tests
use too); ``barycenter_is_origin`` is the Kähler–Einstein test of a toric
Fano manifold (Wang and Zhu, 2004).  ``cone_carrier_problems`` is the
scan of every (r+1)-subset of a row's -1 rays that
``sheafdata.validate_lambda_matrix`` once ran, with ``is_cone`` as its
face test.  ``rank_one_by_charts`` is the all-charts reference for
``charts.rank_one_exists``, which tests only the charts of a cover: it
tries the same lines through the public chart objects on every maximal
cone; ``in_semigroup`` tests a weight against a chart's rays, and
``weight_space_dim`` counts the tangent sections of one weight on a chart
by it.  ``skewed_products`` are the product fans the ``oracle`` benchmark
draws from.  ``hirzebruch_lines`` lists the ray-spanned lines of a twisted
surface F_m with their slopes in closed form, and ``hirzebruch_closed_form``
decides F_m's verdict from them, comparing the best slope with mu(TX)
itself rather than by the rule ``decide`` applies.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from itertools import product as iproduct
from math import factorial, lcm
from random import Random

from toricstab import lattice
from toricstab.charts import MonomialDerivation, chart_of, is_regular
from toricstab.errors import BadTwist, DimMismatch, ToricStabError, ZeroSpan, ZeroVector
from toricstab.fan import construct_hirzebruch, construct_product, construct_projective_space
from toricstab.lattice import Vector, dot, integer_kernel
from toricstab.polytope import VolumeTable
from toricstab.stability import (
    GENERIC_NOTE, SCOPE_NOTE, Stability, StabilityVerdict, SubsheafCandidate,
)
from toricstab.testkit import random_unimodular, transform_fan


class NotOnFacetHyperplane(ToricStabError):
    """Vertices passed as a facet do not lie on a common level set of the ray."""


class EmptyFacet(ToricStabError):
    """A facet volume was requested for an empty vertex list."""


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def primitive_vector(v) -> Vector:
    """Primitive integer vector on the same ray as the rational vector ``v``:
    scaled by the common denominator, then divided by the gcd.  Raises
    ZeroVector when ``v`` is zero or empty.
    """
    vals = [Fraction(x) for x in v]
    mult = lcm(*(x.denominator for x in vals))
    return lattice.primitive_vector(tuple(int(x * mult) for x in vals))


def subspace_contains(basis, v) -> bool:
    """Whether ``v`` (ints or rationals) lies in the rational span of the
    nonempty integer ``basis`` (a ``hermite_canonical`` result)."""
    if len(v) != len(basis[0]):
        raise DimMismatch(f"vector of length {len(v)} in Q^{len(basis[0])}")
    if not any(v):
        return True
    return rank([*basis, primitive_vector(v)]) == len(basis)


# ---------------------------------------------------------------------------
# Rational elimination, for the brute-force volume and test oracles


def _inverse(rows) -> list[list[Fraction]]:
    mat = [[Fraction(x) for x in r] for r in rows]
    n = len(mat)
    aug = [mat[i] + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            raise ZeroSpan("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [a / inv for a in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def facet_lattice_basis(alpha) -> tuple[Vector, ...]:
    """Canonical basis of the sublattice ``alpha-perp ∩ Z^n``.

    Scaling ``alpha`` does not change the answer, so primitivity is not
    required, only nonzero.  For n = 1 the basis is empty.
    """
    a = tuple(map(int, alpha))
    if not a or all(x == 0 for x in a):
        raise ZeroVector("facet normal must be nonzero")
    return integer_kernel([a])


# ---------------------------------------------------------------------------
# Normalized volume of the hull of a point set


def lattice_volume(vertices, alpha) -> Fraction:
    """Lattice-normalized (n-1)-volume of the convex hull of ``vertices``.

    The vertices (rational) must lie on a common level set of ``alpha``;
    the hull is measured against the lattice ``alpha-perp ∩ Z^n``, i.e. the
    unit (n-1)-simplex in that lattice has volume 1/(n-1)!.  For n = 1 a
    single point counts as volume 1; hulls of deficient affine dimension
    have volume 0.  Unlike ``polytope.facet_volumes`` it assumes nothing
    about the points, at a cost exponential in the dimension.
    """
    verts = [tuple(Fraction(x) for x in v) for v in vertices]
    if not verts:
        raise EmptyFacet("no vertices")
    a = tuple(map(int, alpha))
    if all(x == 0 for x in a):
        raise ZeroVector("facet normal must be nonzero")
    n = len(a)
    if any(len(v) != n for v in verts):
        raise DimMismatch("vertex length does not match normal length")
    levels = {dot(v, a) for v in verts}
    if len(levels) != 1:
        raise NotOnFacetHyperplane(f"pairings with {a} take values {sorted(levels)}")
    if n == 1:
        return Fraction(1)
    # Coordinates against the rows of [basis; alpha]: the basis part is a
    # lattice coordinate system on the hyperplane, the alpha part constant.
    cols = list(zip(*_inverse(list(facet_lattice_basis(a)) + [a])))[:-1]
    points = sorted({tuple(dot(v, c) for c in cols) for v in verts})
    return _hull_volume(points, n - 1)


def _hull_volume(points, d) -> Fraction:
    """Volume of the hull of sorted, distinct points of Q^d (0 unless full-dimensional).

    Sums the pyramids from ``points[0]`` over the hull facets, found by
    brute force over d-subsets: an affinely independent subset spans a
    candidate hyperplane, a facet hyperplane when every point lies on one
    side.  With a primitive outer normal the pyramid's volume is its lattice
    height times the base's ``lattice_volume``, over d.
    """
    if d == 1:
        return points[-1][0] - points[0][0]
    apex = points[0]
    if rank(primitive_vector(vsub(p, apex)) for p in points[1:]) < d:
        return Fraction(0)
    total = Fraction(0)
    seen = set()
    for comb in combinations(points, d):
        kernel = integer_kernel([primitive_vector(vsub(p, comb[0])) for p in comb[1:]])
        if len(kernel) != 1:
            continue
        nu = kernel[0]
        level = dot(nu, comb[0])
        vals = [dot(nu, p) for p in points]
        if max(vals) != level:
            nu, level, vals = tuple(-x for x in nu), -level, [-v for v in vals]
        if max(vals) != level or (nu, level) in seen:
            continue
        seen.add((nu, level))
        face = [p for p, v in zip(points, vals) if v == level]
        total += (level - dot(nu, apex)) * lattice_volume(face, nu) / d
    return total


# ---------------------------------------------------------------------------
# Facet volumes from intersection numbers


def chow_volumes(f, coeffs) -> tuple[Fraction, ...]:
    """Facet volumes of ``D = sum(coeffs[i] * D_i)`` on the validated smooth
    complete fan ``f``, as ``vol_i = D^(n-1) . D_i / (n-1)!`` in the Chow
    ring (Fulton, *Introduction to Toric Varieties*, 1993, §5.2).

    ``F(S) = D^(n-|S|) . D_S`` over the cones S of the fan is 1 on maximal
    cones.  Below them, with m_k the duals of a maximal cone containing S,
    the character ``u = -sum_{k in S} a_k m_k`` moves D to a linearly
    equivalent divisor without the D_k of S, and D_j . D_S vanishes unless
    S + j is a cone, so ``F(S) = sum_j (a_j + <u, rho_j>) F(S + j)`` over
    the rays j outside S that extend it to a cone.  Only the cone duals are
    shared with the vertex formula; ``f.pairings`` is not used.

    The recursion runs on ``qD``, q the lcm of the coefficients'
    denominators, whose coefficients and characters are integers; since
    ``F_qD(S) = q^(n-|S|) F_D(S)``, each volume is ``F_qD({i})`` divided by
    ``q^(n-1) (n-1)!``.
    """
    n = f.dim
    coeffs = [Fraction(c) for c in coeffs]
    q = lcm(*(c.denominator for c in coeffs))
    a = [int(c * q) for c in coeffs]
    cones = [frozenset(c) for c in f.max_cones]

    @cache
    def intersection(s: frozenset) -> int:
        if len(s) == n:
            return 1
        containing = [ci for ci, c in enumerate(cones) if s <= c]
        ci = containing[0]
        duals = dict(zip(f.max_cones[ci], f.duals[ci]))
        u = [-sum(a[k] * duals[k][x] for k in s) for x in range(n)]
        extensions = set().union(*(cones[c] for c in containing)) - s
        return sum((a[j] + dot(u, f.rays[j])) * intersection(s | {j}) for j in sorted(extensions))

    scale = q ** (n - 1) * factorial(n - 1)
    return tuple(Fraction(intersection(frozenset({i})), scale) for i in range(len(f.rays)))


# ---------------------------------------------------------------------------
# Polytope points and ampleness by the global scan


def fraction_vertices(f, coeffs):
    """Each cone's point ``-sum coeff_i * m_i`` computed in fractions, from
    dual bases solved afresh."""
    out = []
    for cone in f.max_cones:
        duals = lattice.dual_basis([f.rays[r] for r in cone])
        out.append(tuple(
            -sum((Fraction(coeffs[r]) * m[j] for r, m in zip(cone, duals)), Fraction(0))
            for j in range(f.dim)
        ))
    return out


def _outside_gaps(f, coeffs):
    """``<u_s, ray> + coeff`` for each cone's fraction point u_s and every
    ray outside the cone."""
    return [
        dot(u, ray) + Fraction(coeffs[r])
        for cone, u in zip(f.max_cones, fraction_vertices(f, coeffs))
        for r, ray in enumerate(f.rays)
        if r not in cone
    ]


def ample_by_fractions(f, coeffs):
    """Strict convexity checked globally on fraction vertices: each cone's
    point strictly satisfies the inequality of every ray outside the cone."""
    return all(gap > 0 for gap in _outside_gaps(f, coeffs))


def nef_by_fractions(f, coeffs):
    """Convexity checked globally: each cone's point lies in the polytope."""
    return all(gap >= 0 for gap in _outside_gaps(f, coeffs))


def reflexive_by_scan(f, coeffs) -> bool:
    """Whether the cone points are integral and the origin is the only
    interior lattice point of the polytope, by a scan of the points'
    bounding box, which holds the polytope of a nef divisor.

    In dimension 2 that is reflexivity.  In dimension >= 3 it is weaker: a
    reflexive polytope also has every facet at lattice distance 1.  The
    cost grows with the box, so it serves small boxes only.
    """
    verts = fraction_vertices(f, coeffs)
    if any(x.denominator != 1 for v in verts for x in v):
        return False
    interior = []
    for point in iproduct(*(range(int(min(c)), int(max(c)) + 1) for c in zip(*verts))):
        if all(dot(point, ray) + coeffs[r] > 0 for r, ray in enumerate(f.rays)):
            interior.append(point)
            if len(interior) > 1:
                return False
    return interior == [(0,) * f.dim]


# ---------------------------------------------------------------------------
# Flats of the ray matroid from the definition


def rank(vectors) -> int:
    """Rank over Q of integer vectors, by Bareiss fraction-free elimination.

    After each pivot every entry left is a minor of the input, so the
    division by the previous pivot is exact; nothing is shared with
    ``toricstab.lattice``.
    """
    rows = [list(v) for v in vectors]
    r, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r]
        for i in range(r + 1, len(rows)):
            q = rows[i]
            rows[i] = [(p[col] * x - q[col] * y) // prev for x, y in zip(q, p)]
        prev = p[col]
        r += 1
    return r


def closure_flats(rays, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``(rank, rays_in)`` of every flat of rank 1 to n-1 of the matroid of
    the integer ``rays`` in Z^n, sorted.

    Each flat of rank r is the closure of a flat F of rank r-1 plus one ray
    i outside it: F, i and the rays j with ``rank(F + i + j) == r``, each
    tested from scratch.
    """
    level = {()}
    flats = set()
    for r in range(1, n):
        level = {
            tuple(j for j in range(len(rays)) if j in flat or j == i
                  or rank([*(rays[k] for k in flat), rays[i], rays[j]]) == r)
            for flat in level
            for i in range(len(rays))
            if i not in flat
        }
        flats |= {(r, flat) for flat in level}
    return tuple(sorted(flats))


# ---------------------------------------------------------------------------
# Admissibility of lambda-matrices by brute force


def is_cone(f, ray_indices) -> bool:
    """Whether the given rays span a cone of the simplicial fan ``f``: they
    lie in one maximal cone.  The empty set is the zero cone."""
    want = set(ray_indices)
    return any(want <= set(c) for c in f.max_cones)


def cone_carrier_problems(f, mat) -> list[str]:
    """The problems of the rule that no r+1 rays carrying -1 in one row of
    the rank-r matrix ``mat`` span a cone of ``f``: every (r+1)-subset of
    each row's -1 rays, in order, tested with ``is_cone``."""
    r = len(mat)
    problems = []
    for i, row in enumerate(mat):
        carriers = [j for j, v in enumerate(row) if v == -1]
        for sub in combinations(carriers, r + 1):
            if is_cone(f, sub):
                problems.append(f"rays {sub} span a cone but all carry -1 in row {i}")
    return problems


# ---------------------------------------------------------------------------
# Kähler–Einstein test


def barycenter_is_origin(f) -> bool:
    """Whether the anticanonical polytope of the validated smooth complete
    fan ``f`` has its barycenter at the origin; for a toric Fano manifold
    that holds exactly when it is Kähler–Einstein (Wang and Zhu, 2004).

    The cone of rays ``s`` has the vertex ``u_s = -sum(m_k)`` over its duals
    m_k, and Brion's formula expands to ``∫<xi, x> dx = sum_s <xi, u_s>^(n+1)
    / ((n+1)! * prod_k -<xi, m_k>)`` for any xi pairing nonzero with every
    dual.  That integral vanishes for n independent moment-curve vectors
    ``xi = (1, t, ..., t^(n-1))`` exactly when the barycenter is 0.
    """
    n = f.dim
    duals = [m for ms in f.duals for m in ms]
    checks, t = [], 2
    while len(checks) < n:
        xi = tuple(t**j for j in range(n))
        if all(dot(xi, m) for m in duals):
            checks.append(xi)
        t += 1
    for xi in checks:
        total = Fraction(0)
        for ms in f.duals:
            vertex = -sum(dot(xi, m) for m in ms)
            den = 1
            for m in ms:
                den *= -dot(xi, m)
            total += Fraction(vertex ** (n + 1), factorial(n + 1) * den)
        if total:
            return False
    return True


# ---------------------------------------------------------------------------
# Rank-one realizations, one chart object per line and cone


def rank_one_by_charts(f, lam):
    """The first line that realizes the rank-one data ``lam`` on the
    validated fan ``f``, in the order ``charts.rank_one_exists`` tries them
    (the lines of the rays carrying -1, then of the other rays, then of
    (1, ..., 1) when no entry is -1), or None.  A line v realizes it when on
    every maximal cone the weight u with <u, ray> = lam on the cone's rays
    (the chart's duals combined, checked against its rays) makes
    chi(u) d_v regular by the public ``chart_of``, ``MonomialDerivation``
    and ``is_regular``.
    """
    order = [i for i, x in enumerate(lam) if x == -1] + [i for i, x in enumerate(lam) if x != -1]
    vectors = [f.rays[i] for i in order] + ([(1,) * f.dim] if -1 not in lam else [])
    lines = []
    for w in vectors:
        p = primitive_vector(w)
        line = p if next(x for x in p if x) > 0 else tuple(-x for x in p)
        if line not in lines:
            lines.append(line)
    for v in lines:
        for cone in f.max_cones:
            chart = chart_of(f, cone)
            u = tuple(
                sum(lam[i] * m[k] for i, m in zip(chart.cone, chart.dual)) for k in range(f.dim)
            )
            assert [dot(u, ray) for ray in chart.rays] == [lam[i] for i in chart.cone]
            if not is_regular(MonomialDerivation(u, v), chart):
                break
        else:
            return v
    return None


def in_semigroup(c, u) -> bool:
    """Membership of the weight u in S_sigma = sigma^v ∩ M, for the chart
    ``c`` of sigma: u pairs >= 0 with each of its rays."""
    return all(dot(u, ray) >= 0 for ray in c.rays)


def weight_space_dim(f, sigma, u) -> int:
    """Dimension of the weight-u piece of the tangent sections on sigma's
    chart: the duals m_i with u + m_i in the semigroup, one section
    chi(u) d_{ray_i} each."""
    if len(u) != f.dim:
        raise DimMismatch(f"weight of length {len(u)} in dimension {f.dim}")
    c = chart_of(f, sigma)
    return sum(1 for m in c.dual if in_semigroup(c, tuple(x + y for x, y in zip(u, m))))


def skewed_products():
    """The five product fans the ``oracle`` benchmark draws from (P2^2,
    P1^4, P2^3, P2 x F1 x P1^2 and F1^3, with 9 to 64 cones), each raw in a
    skewed basis of its own."""
    p1, p2, f1 = construct_projective_space(1), construct_projective_space(2), construct_hirzebruch(1)
    p2p2, p1p1 = construct_product(p2, p2), construct_product(p1, p1)
    bases = (
        p2p2,
        construct_product(p1p1, p1p1),
        construct_product(p2p2, p2),
        construct_product(construct_product(p2, f1), p1p1),
        construct_product(construct_product(f1, f1), f1),
    )
    return tuple(
        transform_fan(f, random_unimodular(f.dim, Random(400 + i))) for i, f in enumerate(bases)
    )


# ---------------------------------------------------------------------------
# The twisted surfaces F_m in closed form


def hirzebruch_lines(m: int, a: int, b: int) -> tuple[SubsheafCandidate, ...]:
    """The ray-spanned lines of the twisted surface in ``Fan.flats`` order,
    with slopes b, 2a + m*b and b, or 2b and 2a when m = 0."""
    if m == 0:
        slopes = {(0, 2): 2 * b, (1, 3): 2 * a}
    else:
        slopes = {(0,): b, (1, 3): 2 * a + m * b, (2,): b}
    return tuple(SubsheafCandidate(1, s, Fraction(x)) for s, x in slopes.items())


def hirzebruch_closed_form(m: int, a1: int, a2: int, a3: int, a4: int) -> StabilityVerdict:
    """Closed-form verdict for the twisted surface, independent of decide().

    With a = a1 + a3 - m*a2 and b = a2 + a4 the facet volumes are
    (b, a, b, a + m*b), mu(TX) = a + (m+2)b/2, and the maximizer is the
    first line of ``hirzebruch_lines(m, a, b)`` of highest slope, which
    the verdict compares with mu(TX) here.  With m >= 0 the table's gate
    raises NonAmple exactly when a or b is not > 0.
    """
    if m < 0:
        raise BadTwist(f"twist must be nonnegative, got {m}")
    a = a1 + a3 - m * a2
    b = a2 + a4
    vols = VolumeTable(2, (b, a, b, a + m * b), 1)
    mu = Fraction(2 * a + (m + 2) * b, 2)
    best = min(hirzebruch_lines(m, a, b), key=lambda c: (-c.slope, c.rank, c.rays_in))
    if best.slope > mu:
        status = Stability.UNSTABLE
    elif best.slope == mu:
        status = Stability.SEMISTABLE
    else:
        status = Stability.STABLE
    return StabilityVerdict(
        status=status,
        mu_tx=mu,
        best=best,
        notes=(SCOPE_NOTE, GENERIC_NOTE),
        volumes=vols,
        fan=construct_hirzebruch(m),
    )
