"""Exact linear algebra over the integers and rationals.

Everything in this package reduces to a handful of lattice computations:
primitive generators, Hermite-canonical bases of saturated sublattices,
dual bases of unimodular cones and span membership, all in integer
arithmetic.  One Hermite reduction, ``row_hermite``, gives canonical
bases, kernels (read off the Hermite form of ``[A | I]``) and dual bases
(one per wall-connected component of a fan; ``fan`` crosses walls to the
other cones); the fraction-free ``eliminate`` decides spans and grows the
ray-matroid flats (``proper_flats``) that ``Fan.flats`` keeps.  Facet
volumes need nothing more: the vertex formula in ``polytope`` reads them
off the dual bases, at the ``generic_vector`` of the moment curve that
``validate_fan`` counts covering cones with and keeps on the fan.  The
brute-force ``lattice_volume`` of an arbitrary point set is the slow,
assumption-free check of that formula; no computation path calls it.

No floats anywhere; ``Fraction`` elimination is left to the brute-force
volume and test oracles.  Outputs are canonical, so equal subspaces
compare equal as values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul

from .errors import (
    DimMismatch,
    EmptyFacet,
    NotOnFacetHyperplane,
    NotSmoothCone,
    ZeroSpan,
    ZeroVector,
)

Vector = tuple[int, ...]
QVector = tuple[Fraction, ...]


def dot(u, v) -> Fraction | int:
    if len(u) != len(v):
        raise DimMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def primitive_vector(v) -> Vector:
    """Primitive integer vector on the same ray as ``v``: ints over their gcd,
    rationals scaled by their common denominator first.  Raises ZeroVector
    when ``v`` is zero or empty.
    """
    ints = list(v)
    if not all(isinstance(x, int) for x in ints):
        vals = [Fraction(x) for x in ints]
        mult = lcm(*(x.denominator for x in vals))
        ints = [int(x * mult) for x in vals]
    g = gcd(*ints)
    if not g:
        raise ZeroVector(f"no primitive vector along {tuple(v)!r}")
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# Integer row reduction


def row_hermite(rows) -> tuple[Vector, ...]:
    """Row-style Hermite normal form of integer row vectors.

    Returns the unique canonical basis of the lattice generated by the rows:
    zero rows dropped, pivots positive, entries above each pivot reduced into
    ``[0, pivot)``.  Any two generating sets of the same lattice map to the
    same tuple, which is what makes Subspace values directly comparable.
    """
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise DimMismatch("rows of unequal length")
    r = 0
    for col in range(ncols):
        live = [i for i in range(r, len(mat)) if mat[i][col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda i: abs(mat[i][col]))
            base = live[0]
            for i in live[1:]:
                q = mat[i][col] // mat[base][col]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[base])]
            live = [i for i in live if mat[i][col] != 0]
        base = live[0]
        mat[r], mat[base] = mat[base], mat[r]
        if mat[r][col] < 0:
            mat[r] = [-a for a in mat[r]]
        p = mat[r][col]
        for i in range(r):
            q = mat[i][col] // p
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r])


def identity_rows(n: int) -> tuple[Vector, ...]:
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


def integer_kernel(rows) -> tuple[Vector, ...]:
    """Canonical basis of ``{x in Z^n : <x, row> = 0 for every row}``.

    The Hermite form of ``[A | I]``, with A the n x m matrix whose columns
    are the rows, is ``[U*A | U]`` for a unimodular U.  Its rows whose
    A-part vanished come last and span the kernel lattice exactly, so the
    basis is saturated, and their identity parts are already in Hermite
    form.  ``rows`` must be nonempty so the ambient dimension is known.
    """
    rows = [tuple(map(int, r)) for r in rows]
    if not rows:
        raise ZeroSpan("integer_kernel needs at least one row")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DimMismatch("rows of unequal length")
    m = len(rows)
    h = row_hermite([col + e for col, e in zip(zip(*rows), identity_rows(n))])
    return tuple(row[m:] for row in h if not any(row[:m]))


def pivot_of(v) -> int:
    """Index of the first nonzero entry of ``v``."""
    return next(i for i, x in enumerate(v) if x)


def eliminate(v: Vector, pivot: int, row: Vector) -> Vector:
    """``row[pivot]*v - v[pivot]*row`` divided by its content, or ``v`` when
    ``v[pivot]`` is 0: zero at ``pivot``, and with ``row`` the same span."""
    c = v[pivot]
    if not c:
        return v
    a = row[pivot]
    w = [a * x - c * y for x, y in zip(v, row)]
    g = gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


def integer_echelon(rows) -> list[tuple[int, Vector]]:
    """Fraction-free echelon of integer rows as ``(pivot, row)`` pairs.

    Each row is reduced against the earlier ones, so it vanishes at their
    pivots; rows in the span of the earlier ones reduce to zero and are
    dropped, so the length is the rank.
    """
    echelon: list[tuple[int, Vector]] = []
    for v in rows:
        v = tuple(map(int, v))
        for pivot, row in echelon:
            v = eliminate(v, pivot, row)
        if any(v):
            echelon.append((pivot_of(v), v))
    return echelon


def _covering_flats(flat, residues):
    """Yield each flat covering ``flat`` with the residues modulo its span.

    ``residues`` maps each ray outside ``flat`` to its residue modulo the
    span of ``flat``.  Adding ray i makes its residue one more echelon row,
    so one elimination per residue gives the closure of ``flat`` plus i and
    the residues modulo it.  Rays in a closure already taken are skipped.
    """
    taken = set()
    for i, row in residues.items():
        if i in taken:
            continue
        pivot = pivot_of(row)
        closure, rest = list(flat), {}
        for j, res in residues.items():
            res = eliminate(res, pivot, row)
            if any(res):
                rest[j] = res
            else:
                closure.append(j)
                taken.add(j)
        yield tuple(sorted(closure)), rest


def proper_flats(vectors, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``(rank, indices)`` of every flat of rank 1 to n-1 of the matroid of
    the nonzero integer ``vectors`` (the rays) in Z^n, sorted.

    The flats are grown one rank at a time from the empty flat and
    deduplicated by their closed index sets; flats of rank n-1 are not
    extended, since every extension has full rank.
    """
    ranks: dict[tuple[int, ...], int] = {}
    level = [((), dict(enumerate(vectors)))]
    for rank in range(1, n):
        grown = []
        for flat, residues in level:
            for closure, rest in _covering_flats(flat, residues):
                if closure not in ranks:
                    ranks[closure] = rank
                    grown.append((closure, rest))
        level = grown
    return tuple(sorted((rank, flat) for flat, rank in ranks.items()))


@dataclass(frozen=True)
class Subspace:
    """A rational subspace of Q^n carried by its saturated lattice.

    ``basis`` is the Hermite-canonical basis of ``span ∩ Z^n``, so two
    Subspace values are equal exactly when they describe the same subspace.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def hermite_canonical(vectors) -> Subspace:
    """Canonical Subspace spanned by integer vectors.

    Saturation matters: the rows of a Hermite form of the generators need
    not generate ``span ∩ Z^n`` (e.g. (2,0,1) and (0,2,1) miss (1,1,1)), so
    the saturated basis is computed as the integer kernel of the integer
    kernel of the generators.
    """
    vecs = [tuple(map(int, v)) for v in vectors]
    if not vecs:
        raise ZeroSpan("empty spanning set")
    n = len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise DimMismatch("spanning vectors of unequal length")
    nonzero = [v for v in vecs if any(v)]
    if not nonzero:
        raise ZeroSpan("spanning set contains only zero vectors")
    perp = integer_kernel(nonzero)
    if not perp:
        return Subspace(n, identity_rows(n))
    return Subspace(n, integer_kernel(perp))


def subspace_contains(s: Subspace, v) -> bool:
    """Whether ``v`` (ints or rationals) lies in the rational span of ``s``."""
    if len(v) != s.ambient_dim:
        raise DimMismatch(f"vector of length {len(v)} in Q^{s.ambient_dim}")
    if not any(v):
        return True
    return len(integer_echelon([*s.basis, primitive_vector(v)])) == s.dim


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


# ---------------------------------------------------------------------------
# Dual bases of unimodular cones


def dual_basis(rays) -> tuple[Vector, ...]:
    """Dual basis (m_1, ..., m_n) with <m_i, rays[j]> = delta_ij.

    ``rays`` must be n integer vectors of length n forming a unimodular
    basis (|det| = 1); otherwise NotSmoothCone is raised.  The duals are the
    columns of the inverse matrix.  The Hermite form of ``[rays | I]`` is
    ``[U*rays | U]`` with ``U*rays`` upper triangular, so its diagonal
    multiplies to |det|, and it is ``[I | rays^-1]`` exactly when that is 1.
    """
    mat = [tuple(map(int, r)) for r in rays]
    n = len(mat)
    if n == 0 or any(len(r) != n for r in mat):
        raise DimMismatch("dual basis needs n vectors of length n")
    h = row_hermite([r + e for r, e in zip(mat, identity_rows(n))])
    det = prod(row[i] for i, row in enumerate(h))
    if det != 1:
        raise NotSmoothCone(det, mat)
    return tuple(zip(*(row[n:] for row in h)))


def generic_vector(n: int, bases) -> Vector:
    """First ``(1, t, ..., t^(n-1))``, t = 2, 3, ..., pairing nonzero with
    every vector of every basis in ``bases``.

    Each vector is nonzero and integral, so it vanishes on the moment curve
    at no more than n-1 values of t and the search stops.
    """
    t = 2
    while True:
        v = tuple(t**j for j in range(n))
        if all(dot(v, m) for basis in bases for m in basis):
            return v
        t += 1


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
    if len(integer_echelon(primitive_vector(vsub(p, apex)) for p in points[1:])) < d:
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
