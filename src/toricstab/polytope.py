"""Polarizations: invariant divisors, their polytopes, and facet volumes.

A divisor assigns a rational coefficient to every ray.  Its polytope is cut
out by the inequalities ``<x, ray> >= -coeff``; on a smooth complete fan it
is always bounded and carries one distinguished point per maximal cone --
the simultaneous solution of that cone's equalities.  Ampleness is exactly
strict convexity of the support function: every cone's point must satisfy
every inequality it does not saturate strictly.  For an ample divisor these
points are precisely the vertices and the polytope's facets correspond to
the rays; each facet volume is measured in the lattice of its own
hyperplane (unit simplex = 1/(dim-1)!).

All of this is done in integers.  With q the common denominator of the
coefficients, the polytope of ``q * D`` has integer coefficients and integer
cone points (integer combinations of the cone's dual basis), so
``Polytope`` keeps q, the integers ``q*coeff`` and those points, and the
inequalities are compared as ``<q*u, ray> + q*coeff > 0``.

Facet volumes come from the vertex formula for simple lattice polytopes
(Lawrence, "Polytope volume computation", Math. Comp. 1991; Brion 1988):
every vertex of a facet contributes one term built from its height and its
edge directions under a generic linear functional, so the cost is
O(cones * n^2) integer operations and no hull is ever triangulated.  The
terms are summed over one common integer denominator, and ``VolumeTable``
keeps those integer numerators and the denominator; a facet volume becomes
a ``Fraction`` only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import factorial, gcd, lcm, prod
from operator import mul

from .errors import DimMismatch, NonAmple
from .fan import Fan, validate_fan
from .lattice import Vector, dot

QVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class ToricDivisor:
    fan: Fan
    coeffs: tuple[Fraction, ...]


def divisor(f: Fan, coeffs) -> ToricDivisor:
    """Divisor sum(coeffs[i] * D_i) over the rays of ``f``."""
    cs = tuple(Fraction(c) for c in coeffs)
    if len(cs) != len(f.rays):
        raise DimMismatch(f"{len(cs)} coefficients for {len(f.rays)} rays")
    return ToricDivisor(f, cs)


def anticanonical(f: Fan) -> ToricDivisor:
    """The anticanonical divisor: coefficient one on every ray."""
    return divisor(f, [1] * len(f.rays))


@dataclass(frozen=True)
class Polytope:
    """Integer vertex data of a divisor's polytope.

    ``scale`` is the common denominator q of the divisor's coefficients,
    ``scaled_coeffs[i]`` is the integer q times the coefficient of ray i, and
    ``points[ci]`` is q times the point attached to maximal cone ``ci``, an
    integer vector; ``vertices`` gives the points themselves as fractions.
    The divisor's fan is validated, and its ``duals[ci]`` are the edge
    directions at ``vertices[ci]``: moving along the k-th dual keeps every
    equality of the cone but the one of its k-th ray, so for an ample
    divisor these are the primitive edge directions at that vertex.
    """

    divisor: ToricDivisor
    scale: int
    scaled_coeffs: tuple[int, ...]
    points: tuple[Vector, ...]

    @property
    def vertices(self) -> tuple[QVector, ...]:
        return tuple(tuple(Fraction(x, self.scale) for x in pt) for pt in self.points)


@dataclass(frozen=True)
class VolumeTable:
    """Per-ray normalized facet volumes of an ample polytope, in integers.

    ``weights[i] / den`` is ``(dim-1)!`` times the volume of the facet of
    ray i, and ``gcd(den, *weights) == 1``, so equal tables mean equal
    volumes.  ``values`` is the one view of the volumes themselves as
    fractions; the table is not a sequence.
    """

    dim: int
    weights: tuple[int, ...]
    den: int

    @property
    def values(self) -> tuple[Fraction, ...]:
        den = self.den * factorial(self.dim - 1)
        return tuple(Fraction(w, den) for w in self.weights)


def polytope_from_divisor(d: ToricDivisor) -> Polytope:
    """Solve each maximal cone's equality system for its polytope point.

    In the dual basis m_1..m_n of a smooth cone the solution of
    ``<v, ray_i> = -coeff_i`` is ``v = sum_i (-coeff_i) m_i``; it is kept
    as the integer vector ``q * v``.  A fan that is not yet validated is
    validated here (InvalidFan when it is not smooth and complete).
    """
    if not d.fan.validated:
        d = ToricDivisor(validate_fan(d.fan), d.coeffs)
    f = d.fan
    q = lcm(*(c.denominator for c in d.coeffs))
    cs = tuple(c.numerator * (q // c.denominator) for c in d.coeffs)
    points = []
    for cone, duals in zip(f.max_cones, f.duals):
        weights = [cs[r] for r in cone]
        points.append(tuple(-sum(map(mul, weights, column)) for column in zip(*duals)))
    return Polytope(d, q, cs, tuple(points))


def is_ample(p: Polytope) -> bool:
    """Strict convexity: each cone's vertex strictly satisfies all other inequalities."""
    f = p.divisor.fan
    cs = p.scaled_coeffs
    for cone, point in zip(f.max_cones, p.points):
        for r, ray in enumerate(f.rays):
            if r not in cone and sum(map(mul, point, ray)) + cs[r] <= 0:
                return False
    return True


def facet_volumes(p: Polytope) -> VolumeTable:
    """Normalized volume of every facet of an ample polytope.

    With xi the fan's ``generic`` vector (it pairs nonzero with every edge
    direction, the cone duals), vertex ``u`` of cone s and its edges
    ``m_k``, the facet of ray i has volume
    ``sum over cones s containing i of <xi, u>^(n-1)
    / ((n-1)! * prod_{k in s, k != i} -<xi, m_k>)``:
    the edges at ``u`` other than ``m_i`` span the facet and form a basis
    of its lattice, because the polytope is simple and the fan smooth.
    With ``g_k = -<xi, m_k>``, ``P_s = prod_k g_k``, L the lcm of the
    ``|P_s|`` and ``q*u`` the integer point, that term is the integer
    ``<xi, q*u>^(n-1) * g_i * (L // P_s)`` over ``L * q^(n-1) * (n-1)!``.
    The table keeps the sums of those integers as its weights over
    ``L * q^(n-1)``, both divided by their gcd.

    Raises NonAmple when the divisor is not ample (the facet structure is
    then degenerate and the slope theory does not apply).
    """
    f = p.divisor.fan
    if not is_ample(p):
        raise NonAmple("the divisor is not ample on this fan")
    n = f.dim
    xi = f.generic
    terms = []
    for cone, point, edges in zip(f.max_cones, p.points, f.duals):
        slopes = [-sum(map(mul, xi, m)) for m in edges]
        terms.append((cone, sum(map(mul, xi, point)) ** (n - 1), slopes, prod(slopes)))
    common = lcm(*(abs(all_slopes) for *_, all_slopes in terms))
    nums = [0] * len(f.rays)
    for cone, height, slopes, all_slopes in terms:
        height *= common // all_slopes
        for r, slope in zip(cone, slopes):
            nums[r] += height * slope
    den = common * p.scale ** (n - 1)
    g = gcd(den, *nums)
    return VolumeTable(n, tuple(x // g for x in nums), den // g)


def is_reflexive(p: Polytope) -> bool:
    """Whether the cone points are integral and the origin is the polytope's
    only interior lattice point.

    For an ample divisor in dimension 2 that is reflexivity.  In dimension
    >= 3 it is weaker: reflexive also asks every facet to lie at lattice
    distance 1 from the origin, and ``construct_p1_bundle(3, 1)`` with
    coefficients ``(1, 1, 2, 1, 1)`` is ample and passes with one facet at
    distance 2.

    The polytope is contained in the convex hull of the cone points (for
    any direction c, pick a maximal cone containing -c; its point bounds
    the support function), so the hull's bounding box is scanned and each
    candidate tested against all inequalities.  Exact for ample divisors;
    for non-ample ones the integrality test is conservative because the
    cone points may not all be true vertices.
    """
    f = p.divisor.fan
    q, cs = p.scale, p.scaled_coeffs
    if any(x % q for pt in p.points for x in pt):
        return False
    verts = [tuple(x // q for x in pt) for pt in p.points]
    lo = [min(v[j] for v in verts) for j in range(f.dim)]
    hi = [max(v[j] for v in verts) for j in range(f.dim)]
    interior = []
    for point in iproduct(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if all(q * dot(point, ray) + cs[r] > 0 for r, ray in enumerate(f.rays)):
            interior.append(point)
            if len(interior) > 1:
                return False
    return interior == [tuple(0 for _ in range(f.dim))]
