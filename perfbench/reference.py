"""Independent exact reference for the benchmark's output checks.

Nothing here calls into toricstab: the checks must not trust the code they
measure.  The reference uses other algorithms than the program where it
can, so that a shared mistake is unlikely:

* polytope points come from a Gauss-Jordan inverse of each cone's rays;
* facet volumes come from the Lawrence/Brion vertex formula
  ``vol_i = sum_{cones s containing i} <xi, u_s>^(n-1)
  / ((n-1)! * prod_{k in s, k != i} -<xi, m_{s,k}>)``
  for any xi pairing nonzero with every edge direction m_{s,k};
* candidates are the proper flats of the ray matroid, grown by closure.

The verdict rule (maximize slope over flats; break ties toward the smallest
rank, then the lexicographically smallest ray set) is the one the README
documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial


def _reduce(rows, v) -> list[Fraction]:
    """``v`` minus its components along the pivots of the echelon ``rows``."""
    v = [Fraction(x) for x in v]
    for piv, row in rows:
        if v[piv]:
            t = v[piv] / row[piv]
            v = [a - t * b for a, b in zip(v, row)]
    return v


def echelon(vectors) -> list[tuple[int, list[Fraction]]]:
    """(pivot column, row) pairs spanning the same space as ``vectors``.

    Each row is zero at the pivots of the rows before it, so reducing a
    vector against the rows in order leaves zero exactly for vectors in
    the span.
    """
    rows = []
    for v in vectors:
        v = _reduce(rows, v)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is not None:
            rows.append((piv, v))
    return rows


def in_span(rows, v) -> bool:
    return not any(_reduce(rows, v))


def rank(vectors) -> int:
    return len(echelon(vectors))


def inverse(matrix) -> list[list[Fraction]]:
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                t = aug[i][col]
                aug[i] = [a - t * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@dataclass(frozen=True)
class Verdict:
    ample: bool
    volumes: tuple[Fraction, ...] = ()
    mu_tx: Fraction = Fraction(0)
    status: str = ""
    rank: int | None = None
    rays_in: tuple[int, ...] | None = None
    slope: Fraction | None = None


def _cone_point(rays, cone, coeffs):
    """Edge directions m_k (in cone order) and the polytope point u of a cone."""
    inv = inverse([rays[i] for i in cone])
    duals = [[inv[j][k] for j in range(len(cone))] for k in range(len(cone))]
    u = [sum(-coeffs[i] * m[j] for i, m in zip(cone, duals)) for j in range(len(cone))]
    return duals, u


def _violated(rays, cone, coeffs, u) -> bool:
    """Whether u fails to satisfy strictly an inequality its cone does not own."""
    inside = set(cone)
    return any(r not in inside and _dot(u, ray) <= -coeffs[r] for r, ray in enumerate(rays))


def is_ample(rays, cones, coeffs) -> bool:
    coeffs = [Fraction(c) for c in coeffs]
    return not any(_violated(rays, cone, coeffs, _cone_point(rays, cone, coeffs)[1])
                   for cone in cones)


def _generic_functional(n, cone_data):
    t = 2
    while True:
        xi = [t**j for j in range(n)]
        if all(_dot(xi, m) for duals, _ in cone_data for m in duals):
            return xi
        t += 1


def facet_volumes(rays, cones, cone_data) -> tuple[Fraction, ...]:
    n = len(rays[0])
    xi = _generic_functional(n, cone_data)
    vols = [Fraction(0)] * len(rays)
    for cone, (duals, u) in zip(cones, cone_data):
        height = Fraction(_dot(xi, u))
        for pos, i in enumerate(cone):
            denom = Fraction(factorial(n - 1))
            for k, m in enumerate(duals):
                if k != pos:
                    denom *= -_dot(xi, m)
            vols[i] += height ** (n - 1) / denom
    return tuple(vols)


def flats(rays) -> dict[tuple[int, ...], int]:
    """Proper nonempty flats of the ray matroid, as sorted ray tuples -> rank."""
    n = len(rays[0])

    def close(idx):
        rows = echelon([rays[i] for i in idx])
        return tuple(i for i in range(len(rays)) if i in idx or in_span(rows, rays[i])), len(rows)

    found: dict[tuple[int, ...], int] = {}
    frontier = []
    for i in range(len(rays)):
        flat, r = close({i})
        if r < n and flat not in found:
            found[flat] = r
            frontier.append(flat)
    while frontier:
        grown = []
        for flat in frontier:
            for i in range(len(rays)):
                if i in flat:
                    continue
                bigger, r = close(set(flat) | {i})
                if r < n and bigger not in found:
                    found[bigger] = r
                    grown.append(bigger)
        frontier = grown
    return found


def decide(rays, cones, coeffs, flat_table=None) -> Verdict:
    """Reference verdict for a fan (rays, maximal cones) and divisor coefficients."""
    rays = [tuple(r) for r in rays]
    coeffs = [Fraction(c) for c in coeffs]
    data = [_cone_point(rays, cone, coeffs) for cone in cones]
    if any(_violated(rays, cone, coeffs, u) for cone, (_, u) in zip(cones, data)):
        return Verdict(ample=False)
    n = len(rays[0])
    vols = facet_volumes(rays, cones, data)
    scale = Fraction(factorial(n - 1))
    mu = scale * sum(vols) / n
    best = None
    for flat, r in (flat_table if flat_table is not None else flats(rays)).items():
        key = (-scale * sum(vols[i] for i in flat) / r, r, flat)
        if best is None or key < best:
            best = key
    if best is None:
        return Verdict(True, vols, mu, "stable")
    slope = -best[0]
    status = "stable" if slope < mu else "semistable" if slope == mu else "unstable"
    return Verdict(True, vols, mu, status, best[1], best[2], slope)
