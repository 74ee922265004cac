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

Facet volumes come from the vertex formula for simple lattice polytopes
(Lawrence, "Polytope volume computation", Math. Comp. 1991; Brion 1988):
every vertex of a facet contributes one term built from its height and its
edge directions under a generic linear functional, so the cost is
O(cones * n^2) exact operations and no hull is ever triangulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import factorial, prod

from .errors import DimMismatch, NonAmple
from .fan import Fan, cone_dual
from .lattice import QVector, Vector, dot, generic_vector


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
    """Vertex data of a divisor's polytope.

    ``vertices[ci]`` is the point attached to maximal cone ``ci`` and
    ``facets[r]``, computed on access, lists the cones containing ray ``r``
    (equivalently, for an ample divisor, the vertices of the facet where
    ``<x, ray r>`` is tight).
    ``edges[ci]`` is the dual basis of cone ``ci`` in cone order: moving
    from ``vertices[ci]`` along ``edges[ci][k]`` keeps every equality of the
    cone but the one of its k-th ray, so for an ample divisor these are the
    primitive edge directions at that vertex.
    """

    divisor: ToricDivisor
    vertices: tuple[QVector, ...]
    edges: tuple[tuple[Vector, ...], ...]

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        f = self.divisor.fan
        return tuple(
            tuple(ci for ci, cone in enumerate(f.max_cones) if r in cone)
            for r in range(len(f.rays))
        )


@dataclass(frozen=True)
class VolumeTable:
    """Per-ray normalized facet volumes of an ample polytope."""

    dim: int
    values: tuple[Fraction, ...]

    def __getitem__(self, i) -> Fraction:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @property
    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))


def polytope_from_divisor(d: ToricDivisor) -> Polytope:
    """Solve each maximal cone's equality system for its polytope point.

    In the dual basis m_1..m_n of a smooth cone the solution of
    ``<v, ray_i> = -coeff_i`` is ``v = sum_i (-coeff_i) m_i``.
    """
    f = d.fan
    n = f.dim
    verts = []
    edges = []
    for ci, cone in enumerate(f.max_cones):
        duals = cone_dual(f, ci)
        v = [Fraction(0)] * n
        for pos, ray_idx in enumerate(cone):
            c = d.coeffs[ray_idx]
            for j in range(n):
                v[j] -= c * duals[pos][j]
        verts.append(tuple(v))
        edges.append(duals)
    return Polytope(d, tuple(verts), tuple(edges))


def is_ample(p: Polytope) -> bool:
    """Strict convexity: each cone's vertex strictly satisfies all other inequalities."""
    f = p.divisor.fan
    for ci, cone in enumerate(f.max_cones):
        v = p.vertices[ci]
        inside = set(cone)
        for r, ray in enumerate(f.rays):
            if r in inside:
                continue
            if dot(v, ray) <= -p.divisor.coeffs[r]:
                return False
    return True


def facet_volumes(p: Polytope) -> VolumeTable:
    """Normalized volume of every facet of an ample polytope.

    With xi the ``generic_vector`` of the edge directions (the cone duals,
    so the vector ``validate_fan`` counts covering cones with), vertex ``u``
    of cone s and its edges ``m_k``, the facet of ray i has volume
    ``sum over cones s containing i of <xi, u>^(n-1)
    / ((n-1)! * prod_{k in s, k != i} -<xi, m_k>)``:
    the edges at ``u`` other than ``m_i`` span the facet and form a basis
    of its lattice, because the polytope is simple and the fan smooth.

    Raises NonAmple when the divisor is not ample (the facet structure is
    then degenerate and the slope theory does not apply).
    """
    f = p.divisor.fan
    if not is_ample(p):
        raise NonAmple("the divisor is not ample on this fan")
    n = f.dim
    xi = generic_vector(n, p.edges)
    scale = factorial(n - 1)
    vols = [Fraction(0)] * len(f.rays)
    for cone, u, edges in zip(f.max_cones, p.vertices, p.edges):
        height = dot(xi, u) ** (n - 1)
        slopes = [-dot(xi, m) for m in edges]
        all_slopes = prod(slopes)
        for pos, r in enumerate(cone):
            vols[r] += height / (scale * (all_slopes // slopes[pos]))
    return VolumeTable(n, tuple(vols))


def is_reflexive(p: Polytope) -> bool:
    """Whether the polytope is reflexive: integral, with the origin as its
    only interior lattice point.

    The polytope is contained in the convex hull of the cone points (for
    any direction c, pick a maximal cone containing -c; its point bounds
    the support function), so the hull's bounding box is scanned and each
    candidate tested against all inequalities.  Exact for ample divisors;
    for non-ample ones the integrality test is conservative because the
    cone points may not all be true vertices.
    """
    f = p.divisor.fan
    if any(x.denominator != 1 for v in p.vertices for x in v):
        return False
    lo = [min(int(v[j]) for v in p.vertices) for j in range(f.dim)]
    hi = [max(int(v[j]) for v in p.vertices) for j in range(f.dim)]
    interior = []
    for point in iproduct(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if all(
            dot(point, ray) > -p.divisor.coeffs[r]
            for r, ray in enumerate(f.rays)
        ):
            interior.append(point)
            if len(interior) > 1:
                return False
    return interior == [tuple(0 for _ in range(f.dim))]
