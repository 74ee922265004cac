"""Combinatorial data of equivariant reflexive sheaves on a toric variety.

A sheaf's restriction to the line of each ray decomposes by torus weight;
what survives of that structure after passing to numerical invariants is,
per ray, a multiset of pairs ``(level, multiplicity)``: at which pairing
level the weight filtration jumps, and by how much.  Everything needed for
degrees lives here:

* rank = common per-ray multiplicity sum,
* degree = -sum over rays and pairs of level*multiplicity*w_i, over den,
  where ``w_i / den`` is ``(n-1)!`` times the facet volume of ray i (the
  integer ``weights`` and ``den`` of the polarization's ``VolumeTable``),
* the tangent bundle contributes ``(-1, 1)`` and ``(0, n-1)`` on every ray.

Rank-r data flattens to an integer matrix with r rows and one sorted
column per ray; rank-one data is its one-row case, a vector with one level
per ray.  Necessary admissibility conditions for such data to come from an
actual subsheaf are checked by ``validate_lambda_matrix``, for rank one on
the one-row matrix; they are necessary but not sufficient, and the
chart-level machinery provides the independent existence oracle for the
rank-one case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations

from .errors import (
    DimMismatch,
    IncomparableLevels,
    InconsistentRank,
    InvalidJumpData,
    RankMismatch,
)
from .fan import Fan
from .polytope import VolumeTable

JumpPairs = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class JumpData:
    """Per-ray multisets of (level, multiplicity) pairs, sorted by level.

    The one gate for jump data: ``per_ray`` may be any iterable of pair
    iterables.  Repeated levels are merged and the pairs sorted, and the
    defining constraints hold or InvalidJumpData is raised: two entries to
    a pair, integer levels >= -1, positive integer multiplicities, at most
    a simple jump at level -1, and at least one ray.  Every ray's
    multiplicities sum to one rank >= 1 (InconsistentRank when they
    differ), as filtrations of one space.
    """

    per_ray: tuple[JumpPairs, ...]

    def __post_init__(self):
        try:
            per_ray = [list(pairs) for pairs in self.per_ray]
        except TypeError:
            raise InvalidJumpData(f"{self.per_ray!r} is not an iterable of pair iterables") from None
        rays = []
        for ri, pairs in enumerate(per_ray):
            merged: dict[int, int] = {}
            for pair in pairs:
                try:
                    lam, e = pair
                except (TypeError, ValueError):
                    raise InvalidJumpData(f"ray {ri}: {pair!r} is not a pair") from None
                if type(lam) is not int or type(e) is not int:
                    raise InvalidJumpData(f"ray {ri}: non-integer pair ({lam!r}, {e!r})")
                if lam < -1:
                    raise InvalidJumpData(f"ray {ri}: level {lam} below -1")
                if e < 1:
                    raise InvalidJumpData(f"ray {ri}: multiplicity {e} not positive")
                merged[lam] = merged.get(lam, 0) + e
            if merged.get(-1, 0) > 1:
                raise InvalidJumpData(f"ray {ri}: multiplicity {merged[-1]} at level -1")
            rays.append(tuple(sorted(merged.items())))
        sums = [sum(e for _, e in pairs) for pairs in rays]
        if len(set(sums)) > 1:
            raise InconsistentRank(f"per-ray multiplicity sums disagree: {sums}")
        if not sums or sums[0] < 1:
            raise InvalidJumpData(f"need at least one ray and rank >= 1, got sums {sums}")
        object.__setattr__(self, "per_ray", tuple(rays))


def tangent_jump_data(f: Fan) -> JumpData:
    """Jump data of the tangent bundle: (-1,1) and (0,n-1) on every ray."""
    n = f.dim
    pairs = ((-1, 1),) if n == 1 else ((-1, 1), (0, n - 1))
    return JumpData(tuple(pairs for _ in f.rays))


def rank_of(j: JumpData) -> int:
    """The common per-ray multiplicity sum, read off the first ray."""
    return sum(e for _, e in j.per_ray[0])


def degree_of(j: JumpData, vols: VolumeTable) -> Fraction:
    """Exact degree ``-sum(level * multiplicity * w_i) / den`` over the
    integer weights ``w_i`` and denominator ``den`` of ``vols``, where
    ``w_i / den`` is ``(n-1)!`` times the facet volume of ray i.

    DimMismatch unless ``vols`` has one weight per ray of ``j``.
    """
    if len(vols.weights) != len(j.per_ray):
        raise DimMismatch(f"{len(vols.weights)} volumes for {len(j.per_ray)} rays")
    total = sum(lam * e * w for pairs, w in zip(j.per_ray, vols.weights) for lam, e in pairs)
    return Fraction(-total, vols.den)


# ---------------------------------------------------------------------------
# Vector / matrix presentations


def lambda_matrix_to_jump(mat) -> JumpData:
    """Jump data with one level of multiplicity one per row in each column;
    ``JumpData`` rejects the entries that are not integer levels and a
    matrix without columns.  Rank-one data is the one-row matrix ``(lam,)``."""
    rows = tuple(tuple(row) for row in mat)
    if len({len(row) for row in rows}) > 1:
        raise InvalidJumpData(f"rows of unequal lengths {[len(row) for row in rows]}")
    return JumpData([(v, 1) for v in col] for col in zip(*rows))


def validate_lambda_matrix(f: Fan, mat) -> tuple[bool, tuple[str, ...]]:
    """Admissibility of rank-r matrix data, one column per ray.

    Checks: rectangular shape with one column per ray; integer entries
    >= -1; each column sorted ascending; at most one -1 per column; and
    for every row, no r+1 of the rays carrying -1 in that row may span a
    cone of the fan.  Necessary conditions only -- a passing matrix need
    not be realizable by a sheaf.
    """
    problems: list[str] = []
    rows = tuple(tuple(row) for row in mat)
    if not rows:
        return (False, ("matrix needs at least one row",))
    r = len(rows)
    p = len(f.rays)
    for i, row in enumerate(rows):
        if len(row) != p:
            problems.append(f"row {i} has {len(row)} columns, expected {p}")
    if problems:
        return (False, tuple(problems))
    for i, row in enumerate(rows):
        for jdx, v in enumerate(row):
            if type(v) is not int:
                problems.append(f"entry ({i}, {jdx}): non-integer {v!r}")
            elif v < -1:
                problems.append(f"entry ({i}, {jdx}): value {v} below -1")
    if problems:
        return (False, tuple(problems))
    for jdx in range(p):
        col = [rows[i][jdx] for i in range(r)]
        if col != sorted(col):
            problems.append(f"column {jdx} is not sorted ascending")
        if col.count(-1) > 1:
            problems.append(f"column {jdx} carries -1 more than once")
    # A ray set spans a cone iff some maximal cone holds it, so only the
    # (r+1)-subsets inside one maximal cone are candidates; a row with at
    # most r carriers of -1 has none.
    for i in range(r):
        carriers = {jdx for jdx in range(p) if rows[i][jdx] == -1}
        if len(carriers) <= r:
            continue
        spanning = set()
        for cone in f.max_cones:
            held = sorted(carriers.intersection(cone))
            if len(held) > r:
                spanning.update(combinations(held, r + 1))
        for sub in sorted(spanning):
            problems.append(f"rays {sub} span a cone but all carry -1 in row {i}")
    return (not problems, tuple(problems))


def degree_monotonicity_check(j1: JumpData, j2: JumpData, vols: VolumeTable) -> bool:
    """For same-rank data with j1's levels pointwise >= j2's (per ray,
    after expanding multiplicities in ascending order), degree can only
    drop: returns degree_of(j1) <= degree_of(j2).  Raises
    IncomparableLevels when some ray's levels are not pointwise >=, that is,
    when at some level t j1 has more levels <= t than j2: cumulative
    multiplicities decide, never expanded.
    """
    r1, r2 = rank_of(j1), rank_of(j2)
    if r1 != r2:
        raise RankMismatch(f"ranks {r1} and {r2} differ")
    if len(j1.per_ray) != len(j2.per_ray):
        raise DimMismatch("jump data over different ray counts")
    for ri, (p1, p2) in enumerate(zip(j1.per_ray, j2.per_ray)):
        excess: dict[int, int] = {}  # level -> j1's minus j2's multiplicity
        for pairs, sign in ((p1, 1), (p2, -1)):
            for lam, e in pairs:
                excess[lam] = excess.get(lam, 0) + sign * e
        if any(x > 0 for x in accumulate(excess[lam] for lam in sorted(excess))):
            raise IncomparableLevels(f"ray {ri}: levels are not pointwise comparable")
    return degree_of(j1, vols) <= degree_of(j2, vols)
