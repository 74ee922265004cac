"""Slope stability of the tangent sheaf.

The decision procedure compares mu(TX) against the slopes of the
saturated equivariant subsheaves cut out by proper subspaces of the
ambient vector space that are spanned by rays.  Every such subspace V
determines jump data with a single level -1 on each ray lying in V, so
its degree is (n-1)! times the sum of the facet volumes over those
rays.  Subspaces containing no ray have degree zero and never compete.
All arithmetic is exact.

The ray-spanned subspaces are the proper nonempty flats (closed ray
sets) of the ray matroid, grown as classes of rays with parallel residues,
each exactly once from its canonical parent (``lattice.proper_flats``),
from the rays' coordinates in the duals of the fan's first maximal cone,
which are the same in every basis of the fan (``Fan.flats``).  A
flat's ray set and rank decide its slope; its lattice basis and jump data
are derived only for the maximizer, when a certificate is rendered.  The
flats and each maximizer's basis depend on the fan alone, so the fan keeps
them (``Fan.flats``, ``Fan.flat_basis``) and every further polarization
of that fan only sums the integer weights of its volume table
(``VolumeTable.weights``, over one ``den``) over them.  The maximizer is
picked on those integer sums: walking the flats in their sorted
``(rank, rays_in)`` order, a flat replaces the best one only when
``total * best_rank > best_total * rank``, so the first flat of highest
slope wins, which is the smallest rank and then the lexicographically
first ``rays_in``.  Only that flat gets a ``Fraction`` slope;
``StabilityVerdict.candidates`` derives every flat's slope on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import DimMismatch, TooManyRays
from .fan import Fan
from .polytope import ToricDivisor, VolumeTable, facet_volumes

SCOPE_NOTE = (
    "scope: the verdict maximizes slope over saturated equivariant subsheaves "
    "spanned by rays; a stable verdict asserts maximality within that family, "
    "which the saturation argument treats as exhaustive"
)
GENERIC_NOTE = (
    "generic subspaces containing no ray have degree 0 < mu(TX) and never "
    "attain the maximum"
)
# Default cap on the ray count of a fan whose flats are enumerated.
MAX_RAYS = 24


class Stability(Enum):
    STABLE = "stable"
    SEMISTABLE = "semistable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class SubsheafCandidate:
    """A ray-spanned proper subspace: its rank, the rays it contains and
    its slope under one polarization."""

    rank: int
    rays_in: tuple[int, ...]
    slope: Fraction


@dataclass(frozen=True)
class StabilityVerdict:
    """Verdict of ``decide``; ``volumes`` is the facet-volume table the
    slopes were computed from and ``fan`` the validated fan, whose rays
    the certificate's basis and jump data are derived from; ``candidates``
    (each of ``fan.flats`` with its slope) is derived from both when read."""

    status: Stability
    mu_tx: Fraction
    best: SubsheafCandidate | None
    notes: tuple[str, ...]
    volumes: VolumeTable | None = None
    fan: Fan | None = None

    @cached_property
    def candidates(self) -> tuple[SubsheafCandidate, ...]:
        w, den = self.volumes.weights, self.volumes.den
        return tuple(SubsheafCandidate(r, s, Fraction(sum(w[i] for i in s), den * r))
                     for r, s in self.fan.flats)


@dataclass(frozen=True)
class Certificate:
    """Maximizer report: jump data in matrix form plus its slope."""

    rank: int
    lambda_matrix: tuple[tuple[int, ...], ...]
    subspace_basis: tuple[tuple[int, ...], ...]
    slope: Fraction


def decide(f: Fan, a: ToricDivisor, max_rays: int = MAX_RAYS) -> StabilityVerdict:
    """Stability of the tangent sheaf with respect to the ample divisor `a`
    on ``f``, read off the validated fan ``a`` carries."""
    if a.fan != f:
        raise DimMismatch("divisor was built on a different fan")
    f = a.fan
    vols = facet_volumes(a)
    if len(f.rays) > max_rays:
        raise TooManyRays(
            f"fan has {len(f.rays)} rays; candidate enumeration capped at "
            f"{max_rays} (raise max_rays to override)"
        )
    weights, den = vols.weights, vols.den
    mu = Fraction(sum(weights), den * f.dim)
    # Weights are positive (VolumeTable's gate, before the ray cap), so every
    # flat beats the 0/1 start; ties go as the module docstring says.
    best_rays, best_total, best_rank = None, 0, 1
    for rank, rays_in in f.flats:
        total = sum(weights[i] for i in rays_in)
        if total * best_rank > best_total * rank:
            best_rays, best_total, best_rank = rays_in, total, rank
    best = best_rays and SubsheafCandidate(
        best_rank, best_rays, Fraction(best_total, den * best_rank))
    return StabilityVerdict(
        status=(Stability.STABLE if best is None or best.slope < mu else
                Stability.SEMISTABLE if best.slope == mu else Stability.UNSTABLE),
        mu_tx=mu,
        best=best,
        notes=(SCOPE_NOTE, GENERIC_NOTE),
        volumes=vols,
        fan=f,
    )


def certificate(v: StabilityVerdict) -> Certificate | None:
    """Render the maximizing candidate of a non-stable verdict; None for a
    stable one, which no candidate destabilizes (and the only kind whose
    ``best`` can be None).

    The basis is ``Fan.flat_basis`` of the candidate's rays, derived once
    per flat and fan.  The lambda-matrix has one column per ray and
    ``rank`` rows: row 0 puts level -1 on each ray in the candidate and 0
    elsewhere, and the other rows are 0.
    """
    if v.status is Stability.STABLE:
        return None
    c = v.best
    rays = v.fan.rays
    inside = set(c.rays_in)
    top = tuple(-1 if i in inside else 0 for i in range(len(rays)))
    return Certificate(
        rank=c.rank,
        lambda_matrix=(top,) + ((0,) * len(rays),) * (c.rank - 1),
        subspace_basis=v.fan.flat_basis(c.rays_in),
        slope=c.slope,
    )
