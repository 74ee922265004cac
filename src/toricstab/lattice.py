"""Exact linear algebra over the integers.

Everything in this package reduces to a handful of lattice computations:
lines (``line_of``), Hermite-canonical bases of saturated sublattices,
dual bases of unimodular cones and span membership, all in integer
arithmetic.  One Hermite reduction, ``row_hermite``, gives canonical
bases, ranks (the length of the form), kernels (read off the Hermite form
of ``[A | I]``) and dual bases (one per wall-connected component of a fan;
``fan`` crosses walls to the other cones).  The fraction-free
``eliminate`` serves one purpose: it grows the ray-matroid flats
(``proper_flats``) that ``Fan.flats`` keeps, from the rays' coordinates in
the first cone's duals, which are basis-free: the covers of a flat F are
F plus the rays whose residues modulo span F share one line
(``line_of``), so one dict pass groups them.  Each flat is grown once,
from its canonical parent, the closure of all but the last ray of its
greedy basis by ray index, depth first, and no seen set is kept.  Facet
volumes need nothing more: the vertex formula in ``polytope`` reads them
off the pairings of the dual bases with the ``generic_vector`` of the
moment curve; ``validate_fan`` counts covering cones from those pairings
and keeps them on the fan.

Every input and output is an integer vector, never converted here and
shape-checked only by ``dot`` and ``dual_basis`` (``Fan`` and
``validate_fan`` are the gates).  A subspace is its canonical basis tuple,
so equal subspaces compare equal as values.  The brute-force hull volume,
the rational inverse and the other test oracles live in ``tests/oracles.py``.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul

from .errors import DimMismatch, NotSmoothCone, ZeroSpan, ZeroVector

Vector = tuple[int, ...]


def dot(u, v) -> int:
    if len(u) != len(v):
        raise DimMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


# ---------------------------------------------------------------------------
# Integer row reduction


def row_hermite(rows) -> tuple[Vector, ...]:
    """Row-style Hermite normal form of integer row vectors.

    Returns the unique canonical basis of the lattice generated by the rows:
    zero rows dropped, pivots positive, entries above each pivot reduced into
    ``[0, pivot)``.  Any two generating sets of the same lattice map to the
    same tuple, which is what makes canonical bases directly comparable.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    r = 0
    for col in range(len(mat[0])):
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
    rows = list(rows)
    n, m = len(rows[0]), len(rows)
    h = row_hermite([col + e for col, e in zip(zip(*rows), identity_rows(n))])
    return tuple(row[m:] for row in h if not any(row[:m]))


def line_of(v) -> Vector:
    """Hermite-canonical generator of the line of the nonzero integer vector
    ``v``: primitive, first nonzero entry > 0 (ZeroVector for a zero ``v``)."""
    for x in v:
        if x:
            g = gcd(*v) if x > 0 else -gcd(*v)
            return tuple([y // g for y in v]) if g != 1 else tuple(v)
    raise ZeroVector(f"no line along {tuple(v)!r}")


def eliminate(v: Vector, pivot: int, row: Vector) -> Vector:
    """The line (``line_of``) of ``row[pivot]*v - v[pivot]*row``, which is
    zero at ``pivot`` and spans with ``row`` what ``v`` does.  Both pivot
    entries must be nonzero and ``v`` not parallel to ``row``."""
    a, c = row[pivot], v[pivot]
    return line_of([a * x - c * y for x, y in zip(v, row)])


def proper_flats(vectors, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``(rank, indices)`` of every flat of rank 1 to n-1 of the matroid of
    the nonzero integer ``vectors`` (the rays) in Z^n, sorted.

    The flats that cover a flat F are F plus one parallel class of the
    contraction M/F: two rays outside F close F to one flat exactly when
    their residues modulo span F are parallel.  A stack entry keeps F's
    classes as a dict from the line (``line_of``) of their residue to
    their sorted rays.  Residues are zero at the pivots of F's echelon
    rows, each row zero at the pivots before its own, so they lie in a
    complement of span F, where parallel residues have equal lines.

    Each flat is grown exactly once, from its canonical parent, by reverse
    search (Avis and Fukuda, 1996), depth first.  A flat C of rank r
    has a greedy basis b_1 < ... < b_r, each b_k the first ray outside the
    closure of the earlier ones; its parent is the closure F of b_1 ..
    b_(r-1), and b_r is the least ray of C outside F.  So a flat F created
    by ray g (-1 for the empty flat) keeps only the covers whose class has
    its least ray above g, and no set of seen flats is needed.

    A kept cover of rank below n-1 is pushed with its class's line d as
    one more echelon row: each other line nonzero at d's pivot is
    eliminated against d, the rest are kept as they are, and classes whose
    lines become equal merge.
    """
    if n < 2:
        return ()
    classes: dict[Vector, tuple[int, ...]] = {}
    for i, v in enumerate(vectors):
        d = line_of(v)
        classes[d] = classes.get(d, ()) + (i,)
    flats = []
    stack = [(1, (), -1, classes)]
    while stack:
        rank, flat, g, classes = stack.pop()
        for d, cls in classes.items():
            if cls[0] < g:
                continue
            child = tuple(sorted(flat + cls))
            flats.append((rank, child))
            if rank < n - 1:
                for p, x in enumerate(d):
                    if x:
                        break
                rest = {}
                for e, rays in classes.items():
                    if e is not d:
                        e = eliminate(e, p, d) if e[p] else e
                        rest[e] = tuple(sorted(rest[e] + rays)) if e in rest else rays
                stack.append((rank + 1, child, cls[0], rest))
    return tuple(sorted(flats))


def hermite_canonical(vectors) -> tuple[Vector, ...]:
    """Hermite-canonical basis of ``span ∩ Z^n`` for integer vectors, so
    two spanning sets give equal tuples exactly when they span the same
    subspace; its length is the dimension.

    Saturation matters: the rows of a Hermite form of the generators need
    not generate ``span ∩ Z^n`` (e.g. (2,0,1) and (0,2,1) miss (1,1,1)), so
    the saturated basis is computed as the integer kernel of the integer
    kernel of the generators.
    """
    vecs = list(vectors)
    if not vecs:
        raise ZeroSpan("empty spanning set")
    n = len(vecs[0])
    nonzero = [v for v in vecs if any(v)]
    if not nonzero:
        raise ZeroSpan("spanning set contains only zero vectors")
    perp = integer_kernel(nonzero)
    return integer_kernel(perp) if perp else identity_rows(n)


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
    mat = [tuple(r) for r in rays]
    n = len(mat)
    if n == 0 or any(len(r) != n for r in mat):
        raise DimMismatch("dual basis needs n vectors of length n")
    h = row_hermite([r + e for r, e in zip(mat, identity_rows(n))])
    det = prod(row[i] for i, row in enumerate(h))
    if det != 1:
        raise NotSmoothCone(det, mat)
    return tuple(zip(*(row[n:] for row in h)))


def generic_vector(n: int, bases) -> tuple[Vector, tuple[Vector, ...]]:
    """First ``(1, t, ..., t^(n-1))``, t = 2, 3, ..., pairing nonzero with
    every vector of every basis in ``bases``, and ``rows``: ``rows[i][k]``
    is its pairing with ``bases[i][k]``.  For cone duals, a cone contains
    the vector iff its row is all positive.

    Each vector is nonzero and integral, so it vanishes on the moment curve
    at no more than n-1 values of t and the search stops.
    """
    t = 2
    while True:
        v = tuple(t**j for j in range(n))
        rows = []
        for basis in bases:
            row = tuple(dot(v, m) for m in basis)
            if not all(row):
                break
            rows.append(row)
        else:
            return v, tuple(rows)
        t += 1
