"""Exact linear algebra over the integers.

Everything in this package reduces to a handful of lattice computations:
primitive generators, Hermite-canonical bases of saturated sublattices,
dual bases of unimodular cones and span membership, all in integer
arithmetic.  One Hermite reduction, ``row_hermite``, gives canonical
bases, ranks (the length of the form), kernels (read off the Hermite form
of ``[A | I]``) and dual bases (one per wall-connected component of a fan;
``fan`` crosses walls to the other cones).  The fraction-free
``eliminate`` serves one purpose: it grows the ray-matroid flats
(``proper_flats``) that ``Fan.flats`` keeps.  Each flat
is grown once, from its canonical parent: the closure of all but the last
ray of its greedy basis by ray index.  An extension of any other flat
that reaches it is cut off at the first smaller ray it closes over, so
no flat is built twice and no set of seen flats is kept.  Facet
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


def primitive_vector(v) -> Vector:
    """Primitive integer vector on the same ray as the integer vector ``v``:
    its entries over their gcd.  Raises ZeroVector when ``v`` is zero or
    empty.
    """
    g = gcd(*v)
    if not g:
        raise ZeroVector(f"no primitive vector along {tuple(v)!r}")
    return tuple(x // g for x in v)


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


def proper_flats(vectors, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``(rank, indices)`` of every flat of rank 1 to n-1 of the matroid of
    the nonzero integer ``vectors`` (the rays) in Z^n, sorted.

    Each flat is grown exactly once, from its canonical parent, in the
    manner of reverse search (Avis and Fukuda, 1996).  A flat C of rank r
    has a greedy basis b_1 < ... < b_r, each b_k the first ray outside the
    closure of the earlier ones; its parent is the closure F of b_1 ..
    b_(r-1), and b_r is the least ray of C outside F.  So a flat F created
    by ray g (-1 for the empty flat) is extended only by rays i > g, and
    the closure C of F + i is kept only when no ray j < i lies in C
    outside F; otherwise C belongs to another parent.  Rays already in a
    kept closure of F give that closure again and are skipped.  No set of
    seen flats is needed, and no flat is built twice.

    Each level entry carries the residues of the rays outside its flat
    modulo its span.  Adding ray i makes its residue one more echelon row,
    so one elimination per residue gives the closure and the residues
    modulo it.  Flats of rank n-1 are not extended, since every extension
    has full rank.
    """
    flats = []
    level = [((), -1, dict(enumerate(vectors)))]
    for rank in range(1, n):
        grown = []
        for flat, g, residues in level:
            taken = set()
            for i, row in residues.items():
                if i <= g or i in taken:
                    continue
                pivot = pivot_of(row)
                added, rest = [], {}
                for j, res in residues.items():
                    res = eliminate(res, pivot, row)
                    if any(res):
                        rest[j] = res
                    elif j < i:
                        break
                    else:
                        added.append(j)
                else:
                    taken.update(added)
                    grown.append((tuple(sorted(flat + tuple(added))), i, rest))
        flats += ((rank, flat) for flat, _, _ in grown)
        level = grown
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
