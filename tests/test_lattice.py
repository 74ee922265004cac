"""Tests for exact lattice linear algebra.

Expected values below were worked out by hand (small matrices, shoelace
areas, explicit dual bases) and are frozen as oracles.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    EmptyFacet,
    NotOnFacetHyperplane,
    _inverse,
    closure_flats,
    facet_lattice_basis,
    lattice_volume,
    rank,
    subspace_contains,
)
from oracles import primitive_vector as rational_primitive_vector
from toricstab import lattice
from toricstab.errors import DimMismatch, NotSmoothCone, ZeroSpan, ZeroVector
from toricstab.fan import (
    catalog_fano4,
    construct_hirzebruch,
    construct_product,
    construct_proj_split,
    construct_projective_space,
)
from toricstab.lattice import (
    dot,
    dual_basis,
    hermite_canonical,
    integer_kernel,
    primitive_vector,
    proper_flats,
    row_hermite,
)
from toricstab.testkit import (
    build_case_fan,
    golden_suite,
    random_polarized,
    random_unimodular,
    transform_fan,
)


class TestPrimitiveVector:
    def test_divides_out_gcd(self):
        assert primitive_vector((2, -4, 6)) == (1, -2, 3)

    def test_clears_denominators(self):
        assert rational_primitive_vector((Fraction(1, 2), Fraction(3, 2))) == (1, 3)

    def test_keeps_direction(self):
        assert primitive_vector((0, -2)) == (0, -1)

    def test_zero_raises(self):
        with pytest.raises(ZeroVector):
            primitive_vector((0, 0, 0))

    def test_empty_raises(self):
        with pytest.raises(ZeroVector):
            primitive_vector(())

    def test_integer_path_matches_rational_path(self):
        rng = random.Random(2024)
        zeros = 0
        for _ in range(20000):
            v = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 7)))
            as_fractions = tuple(Fraction(x) for x in v)
            if not any(v):
                zeros += 1
                with pytest.raises(ZeroVector):
                    primitive_vector(v)
                with pytest.raises(ZeroVector):
                    rational_primitive_vector(as_fractions)
                continue
            p = primitive_vector(v)
            assert p == rational_primitive_vector(as_fractions), v
            assert all(type(x) is int for x in p)
        assert zeros > 0


class TestDot:
    def test_unequal_lengths_raise(self):
        for u, v in (((1, 2), (1, 2, 3)), ((), (0,)), ((Fraction(1, 2),), ())):
            with pytest.raises(DimMismatch):
                dot(u, v)

    def test_ints_and_fractions_match_a_plain_loop(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(0, 6)
            ints = [rng.randint(-20, 20) for _ in range(n)]
            fracs = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)]
            for u, v in ((ints, ints), (ints, fracs), (fracs, ints), (fracs, fracs)):
                expected = 0
                for a, b in zip(u, v):
                    expected += a * b
                assert dot(u, v) == expected
                assert type(dot(u, v)) is type(expected)


class TestRowHermite:
    def test_hand_example(self):
        assert row_hermite([(0, 0, 0, 1), (1, 0, 0, -1)]) == (
            (1, 0, 0, 0),
            (0, 0, 0, 1),
        )

    def test_reduces_above_pivots(self):
        assert row_hermite([(2, 4), (1, 1)]) == ((1, 1), (0, 2))

    def test_drops_zero_rows(self):
        assert row_hermite([(0, 0), (3, 0)]) == ((3, 0),)

    def test_empty(self):
        assert row_hermite([]) == ()

    @given(
        st.lists(
            st.tuples(*[st.integers(-9, 9)] * 3),
            min_size=1,
            max_size=4,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_canonical_under_row_operations(self, rows, rng):
        h = row_hermite(rows)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        if len(shuffled) >= 2:
            i, j = rng.sample(range(len(shuffled)), 2)
            k = rng.randint(-3, 3)
            shuffled[i] = tuple(
                a + k * b for a, b in zip(shuffled[i], shuffled[j])
            )
        assert row_hermite(shuffled) == h

    def test_idempotent(self):
        h = row_hermite([(2, 6, 1), (4, 2, 0)])
        assert row_hermite(h) == h


def det(rows) -> Fraction:
    """Determinant by Fraction Gaussian elimination."""
    mat = [[Fraction(x) for x in r] for r in rows]
    d = Fraction(1)
    for col in range(len(mat)):
        piv = next((i for i in range(col, len(mat)) if mat[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            d = -d
        d *= mat[col][col]
        for i in range(col + 1, len(mat)):
            f = mat[i][col] / mat[col][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return d


class TestIntegerKernel:
    def test_plane_kernel(self):
        assert integer_kernel([(1, 1, 1)]) == ((1, 0, -1), (0, 1, -1))

    def test_full_rank_kernel_is_empty(self):
        assert integer_kernel([(1, 0), (0, 1)]) == ()

    def test_kernel_vectors_annihilate(self):
        rows = [(3, 1, 4, 1), (5, 9, 2, 6)]
        for k in integer_kernel(rows):
            for r in rows:
                assert sum(a * b for a, b in zip(k, r)) == 0

    def test_hermite_saturated_kernel_of_dependent_rows(self):
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 3)):
                a, b = rng.choice(rows), rng.choice(rows)
                p, q = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append([p * x + q * y for x, y in zip(a, b)])
            rng.shuffle(rows)
            k = integer_kernel(rows)
            assert row_hermite(k) == k, seed
            assert all(sum(a * b for a, b in zip(v, r)) == 0 for v in k for r in rows), seed
            assert len(k) == n - rank(rows), seed
            if k:
                minors = [
                    int(det([[v[c] for c in cols] for v in k]))
                    for cols in combinations(range(n), len(k))
                ]
                assert gcd(*minors) == 1, seed


class TestHermiteCanonical:
    def test_saturation_beats_generator_hermite(self):
        # span{(2,0,1),(0,2,1)} has (1,1,1) in its saturation even though
        # no integer combination of the generators gives it.
        s = hermite_canonical([(2, 0, 1), (0, 2, 1)])
        assert s == ((1, 1, 1), (0, 2, 1))
        assert subspace_contains(s, (1, 1, 1))

    def test_duplicate_and_negated_generators_collapse(self):
        assert hermite_canonical([(0, 1), (0, -1), (0, 1)]) == ((0, 1),)

    def test_full_space(self):
        assert hermite_canonical([(2, 1), (1, 1)]) == ((1, 0), (0, 1))

    def test_all_zero_raises(self):
        with pytest.raises(ZeroSpan):
            hermite_canonical([(0, 0, 0)])

    def test_equal_spans_equal_values(self):
        a = hermite_canonical([(1, 2, 3), (0, 1, 1)])
        b = hermite_canonical([(1, 3, 4), (2, 3, 5)])
        assert a == b

    @given(
        st.lists(st.tuples(*[st.integers(-6, 6)] * 4), min_size=1, max_size=3),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_contains_every_integer_combination(self, vecs, c0, c1):
        if all(not any(v) for v in vecs):
            return
        s = hermite_canonical(vecs)
        combo = [0, 0, 0, 0]
        for i, v in enumerate(vecs[:2]):
            c = (c0, c1)[i]
            combo = [a + c * b for a, b in zip(combo, v)]
        assert subspace_contains(s, tuple(combo))
        for b in s:
            assert subspace_contains(s, b)


class TestRowHermiteRank:
    """Ranks come from ``row_hermite``: the length of the form."""

    @given(st.lists(st.tuples(*[st.integers(-9, 9)] * 4), min_size=0, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_rank_pivots_and_span_members(self, rows):
        h = row_hermite(rows)
        assert len(h) == rank(rows)
        pivots = [next(i for i, x in enumerate(row) if x) for row in h]
        assert pivots == sorted(set(pivots))
        assert all(row[p] > 0 for row, p in zip(h, pivots))
        for r in rows:
            assert len(row_hermite([*rows, r])) == len(h)
            assert len(row_hermite([*rows, [2 * x - y for x, y in zip(r, rows[0])]])) == len(h)


def power(f, k):
    """The product of ``k`` copies of the fan ``f``."""
    g = f
    for _ in range(k - 1):
        g = construct_product(g, f)
    return g


P1 = construct_projective_space(1)


@st.composite
def configurations(draw):
    """Up to 8 nonzero integer vectors in Z^n, 1 <= n <= 5, in any order,
    with up to two scaled or negated copies of each drawn vector."""
    n = draw(st.integers(1, 5))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    vectors = []
    for v in draw(st.lists(vector, min_size=1, max_size=5)):
        scales = draw(st.lists(st.sampled_from((1, -1, 2, -2, 3)), max_size=2))
        vectors += [tuple(k * x for x in v) for k in (1, *scales)]
    return draw(st.permutations(vectors[:8]))


class TestProperFlats:
    @given(st.lists(st.tuples(*[st.integers(-9, 9)] * 4), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_oracle_rank_is_the_hermite_rank(self, rows):
        assert rank(rows) == len(row_hermite(rows))

    def test_fan_flats_match_the_closure_oracle(self):
        fans = [build_case_fan(case) for case in golden_suite()]
        fans += [f for _, f in catalog_fano4()]
        fans += [random_polarized(seed)[0] for seed in range(200)]
        for seed, f in enumerate((
            power(P1, 5),
            construct_projective_space(6),
            power(construct_projective_space(2), 3),
            power(construct_hirzebruch(1), 3),
            construct_proj_split(4, (1, 1, 0, 0)),
        )):
            fans.append(transform_fan(f, random_unimodular(f.dim, random.Random(500 + seed))))
        for f in fans:
            assert f.flats == closure_flats(f.rays, f.dim), f

    def test_each_flat_is_grown_once(self, count_calls):
        # The eliminations that grow the flats, pinned exactly.  Growing
        # each flat from every flat it covers took 195, 312, 1701 and 9200;
        # one elimination per (flat, outside ray), from the canonical parent
        # alone, took 95, 147, 553 and 2540.  Covers grown as classes of
        # equal residue lines eliminate only a line nonzero at the new pivot.
        calls = count_calls(lattice, "eliminate")
        for f, flats, work in (
            (construct_projective_space(4), 25, 15),
            (construct_proj_split(1, (1, 0, 0)), 29, 26),
            (construct_projective_space(6), 119, 98),
            (power(P1, 8), 254, 0),
        ):
            calls.clear()
            assert len(proper_flats(f.rays, f.dim)) == flats
            assert len(calls) == work

    def test_fan_flats_growth_is_the_same_in_every_basis(self, count_calls):
        # Fan.flats grows the flats from the rays' coordinates in the duals
        # of the first maximal cone, so the same flats come out with the same
        # eliminations in every basis of the fan.  From the rays as written,
        # these bases took 45, 33, 26, 32 and 46 on P4 and 247 to 286 on P6.
        # B5 takes 29 here: its first cone's coordinates are not its raw rays,
        # on which the pin above counts 26.
        calls = count_calls(lattice, "eliminate")
        for f, work in (
            (construct_projective_space(4), 15),
            (construct_proj_split(1, (1, 0, 0)), 29),
            (construct_projective_space(6), 98),
        ):
            flats = f.flats
            for seed in range(5):
                g = transform_fan(f, random_unimodular(f.dim, random.Random(seed)))
                calls.clear()
                assert g.flats == flats
                assert len(calls) == work, (f, seed)

    @given(configurations())
    @settings(max_examples=300, deadline=None)
    def test_grown_flats_match_the_closure_oracle(self, vectors):
        # Repeats are scaled and negated copies, and small entries in few
        # vectors often span less than Z^n: the direction classes must
        # merge parallel vectors and keep the others apart.
        n = len(vectors[0])
        assert proper_flats(vectors, n) == closure_flats(vectors, n)

    def test_parallel_rays_share_their_flats(self):
        # Rays 0 and 2 are parallel, as are rays 1 and 3, so extending by
        # ray 2 or 3 reaches a flat that a smaller ray already grew.
        rays = ((2, 0, 0), (0, 1, 0), (1, 0, 0), (0, -3, 0), (0, 0, 1), (1, 1, 1))
        assert proper_flats(rays, 3) == closure_flats(rays, 3)
        assert proper_flats(rays, 3)[:4] == (
            (1, (0, 2)), (1, (1, 3)), (1, (4,)), (1, (5,)),
        )


class TestSubspaceContains:
    def test_rational_point(self):
        s = hermite_canonical([(1, 1, 1)])
        assert subspace_contains(s, (Fraction(1, 2),) * 3)
        assert not subspace_contains(s, (1, 0, 0))

    def test_dim_mismatch(self):
        s = hermite_canonical([(1, 1)])
        with pytest.raises(DimMismatch):
            subspace_contains(s, (1, 1, 1))

    def test_zero_always_inside(self):
        s = hermite_canonical([(5, -3)])
        assert subspace_contains(s, (0, 0))


class TestDualBasis:
    def test_hirzebruch_cone(self):
        # rays (0,1), (-1,m): duals (m,1), (-1,0)
        for m in range(4):
            assert dual_basis([(0, 1), (-1, m)]) == ((m, 1), (-1, 0))

    def test_downward_cone(self):
        assert dual_basis([(-1, 1), (0, -1)]) == ((-1, 0), (-1, -1))

    def test_fourfold_cone(self):
        rays = [(0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, 0), (1, 0, 0, -1)]
        assert dual_basis(rays) == (
            (-1, 1, 0, -1),
            (-1, 0, 1, -1),
            (-1, 0, 0, -1),
            (0, 0, 0, -1),
        )

    def test_kronecker_pairings(self):
        rays = [(1, 0, 1), (0, 1, 1), (0, 0, 1)]
        duals = dual_basis(rays)
        for i, m in enumerate(duals):
            for j, r in enumerate(rays):
                assert sum(a * b for a, b in zip(m, r)) == (1 if i == j else 0)

    def test_non_unimodular_raises(self):
        with pytest.raises(NotSmoothCone):
            dual_basis([(1, 0), (1, 2)])

    def test_singular_raises(self):
        with pytest.raises(NotSmoothCone, match=r"\|det\| = 0 "):
            dual_basis([(1, 0), (2, 0)])

    def test_det_three_raises_with_det(self):
        with pytest.raises(NotSmoothCone, match=r"\|det\| = 3 "):
            dual_basis([(1, 0, 0), (0, 1, 0), (1, 1, 3)])

    def test_matches_rational_inverse(self):
        rng = random.Random(7)
        for n in range(1, 9):
            for _ in range(10):
                mat = random_unimodular(n, rng)
                inv = _inverse(mat)
                columns = tuple(tuple(inv[k][i] for k in range(n)) for i in range(n))
                assert dual_basis(mat) == columns

    def test_wrong_count_raises(self):
        with pytest.raises(DimMismatch):
            dual_basis([(1, 0, 0), (0, 1, 0)])


class TestFacetLatticeBasis:
    def test_coordinate_normal(self):
        assert facet_lattice_basis((0, 0, 1)) == ((1, 0, 0), (0, 1, 0))

    def test_scaling_invariant(self):
        assert facet_lattice_basis((2, 0)) == facet_lattice_basis((1, 0)) == ((0, 1),)

    def test_dimension_one(self):
        assert facet_lattice_basis((1,)) == ()

    def test_zero_raises(self):
        with pytest.raises(ZeroVector):
            facet_lattice_basis((0, 0))

    def test_basis_spans_orthogonal_lattice(self):
        alpha = (3, -1, 2)
        basis = facet_lattice_basis(alpha)
        assert len(basis) == 2
        for b in basis:
            assert sum(a * x for a, x in zip(alpha, b)) == 0


class TestLatticeVolume:
    def test_segment_length(self):
        assert lattice_volume([(-1, -1), (-1, 2)], (1, 0)) == 3

    def test_unit_triangle(self):
        verts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert lattice_volume(verts, (1, 1, 1)) == Fraction(1, 2)

    def test_projective_space_facet(self):
        # facet z = -1 of the anticanonical polytope of 3-space
        verts = [(-1, -1, -1), (3, -1, -1), (-1, 3, -1)]
        assert lattice_volume(verts, (0, 0, 1)) == 8

    def test_unit_square_needs_triangulation(self):
        verts = [(0, 0, 5), (1, 0, 5), (0, 1, 5), (1, 1, 5)]
        assert lattice_volume(verts, (0, 0, 1)) == 1

    def test_pentagon_with_interior_point(self):
        flat = [(0, 0), (2, 0), (3, 1), (1, 3), (0, 2), (1, 1)]
        verts = [(x, y, 2) for x, y in flat]
        assert lattice_volume(verts, (0, 0, 1)) == 6

    def test_skew_hyperplane_normalization(self):
        # unit simplex of the lattice (1,1,1)-perp at level 1, doubled
        verts = [(1, 0, 0), (-1, 2, 0), (1, 0, 0), (-1, 0, 2)]
        assert lattice_volume(verts, (1, 1, 1)) == 2

    def test_point_in_dimension_one(self):
        assert lattice_volume([(5,)], (1,)) == 1

    def test_degenerate_hull_is_zero(self):
        verts = [(0, 0, 1), (1, 1, 1), (2, 2, 1)]
        assert lattice_volume(verts, (0, 0, 1)) == 0

    def test_rational_vertices(self):
        verts = [(Fraction(1, 2), 0), (Fraction(1, 2), Fraction(7, 3))]
        assert lattice_volume(verts, (2, 0)) == Fraction(7, 3)

    def test_off_hyperplane_raises(self):
        with pytest.raises(NotOnFacetHyperplane):
            lattice_volume([(0, 0), (1, 1)], (1, 0))

    def test_empty_raises(self):
        with pytest.raises(EmptyFacet):
            lattice_volume([], (1, 0))

    def test_zero_normal_raises(self):
        with pytest.raises(ZeroVector):
            lattice_volume([(1, 1)], (0, 0))

    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=6),
        st.integers(-5, 5),
        st.integers(-30, 30),
    )
    @settings(max_examples=80, deadline=None)
    def test_segment_spread(self, ys, level, shift):
        verts = [(level, y) for y in ys]
        vol = lattice_volume(verts, (1, 0))
        assert vol == max(ys) - min(ys)
        shifted = [(level, y + shift) for y in ys]
        assert lattice_volume(shifted, (1, 0)) == vol

    @given(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
            min_size=3,
            max_size=7,
            unique=True,
        ),
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    )
    @settings(max_examples=60, deadline=None)
    def test_planar_translation_and_midpoint_invariance(self, flat, shift):
        verts = [(x, y, 3) for x, y in flat]
        vol = lattice_volume(verts, (0, 0, 1))
        assert vol >= 0
        moved = [(x + shift[0], y + shift[1], 3) for x, y in flat]
        assert lattice_volume(moved, (0, 0, 1)) == vol
        mid = tuple(
            Fraction(a + b, 2) for a, b in zip(verts[0], verts[-1])
        )
        assert lattice_volume(verts + [mid], (0, 0, 1)) == vol


def test_subspace_is_hashable_value():
    # A subspace is its canonical basis tuple: equal spans, equal hashes.
    a = hermite_canonical([(1, 0, 1)])
    b = hermite_canonical([(2, 0, 2), (-1, 0, -1)])
    assert a == b == ((1, 0, 1),) and hash(a) == hash(b)
