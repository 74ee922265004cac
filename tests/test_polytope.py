"""Divisors, polytopes, ampleness, facet volumes, reflexivity."""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import product as iproduct
from math import factorial, gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowups import random_blowup
from oracles import (
    ample_by_fractions,
    chow_volumes,
    fraction_vertices,
    lattice_volume,
    nef_by_fractions,
    reflexive_by_scan,
)
from toricstab import lattice
from toricstab.errors import (
    BadCoefficient, BadVolumeTable, DimMismatch, NonAmple, ToricStabError,
)
from toricstab.fan import (
    catalog_fano4,
    construct_hirzebruch,
    construct_p1_bundle,
    construct_proj_split,
    construct_product,
    construct_projective_space,
    make_fan,
    validate_fan,
)
from toricstab.lattice import dot, generic_vector
from toricstab.polytope import (
    ToricDivisor,
    VolumeTable,
    anticanonical,
    divisor,
    facet_volumes,
    is_ample,
    is_reflexive,
    polytope_from_divisor,
)
from toricstab.sheafdata import degree_of, tangent_jump_data
from toricstab.stability import decide
from toricstab.testkit import (
    build_case_fan,
    golden_suite,
    random_polarized,
    random_unimodular,
    transform_fan,
)


def blown_up_quadric():
    """P1 x P1 blown up at the fixed point of the cone of (1, 0) and (0, 1)."""
    rays = ((1, 0), (1, 1), (0, 1), (-1, 0), (0, -1))
    return validate_fan(make_fan(2, rays, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))))


def hirzebruch_polytope(m, coeffs):
    return polytope_from_divisor(divisor(construct_hirzebruch(m), coeffs))


def facets(f):
    """The cones containing each ray: for an ample divisor, the vertices of
    the facet where ``<x, ray r>`` is tight."""
    return tuple(
        tuple(ci for ci, cone in enumerate(f.max_cones) if r in cone)
        for r in range(len(f.rays))
    )


class TestVertices:
    def test_plane_anticanonical_triangle(self):
        f = construct_projective_space(2)
        assert set(fraction_vertices(f, (1, 1, 1))) == {(-1, -1), (2, -1), (-1, 2)}

    def test_twisted_surface_anticanonical(self):
        f = construct_hirzebruch(1)
        assert fraction_vertices(f, (1, 1, 1, 1)) == [(-1, -1), (0, -1), (2, 1), (-1, 1)]

    def test_facet_lists_follow_rays(self):
        f = construct_projective_space(2)
        p = polytope_from_divisor(anticanonical(f))
        # ray r bounds exactly the cones containing it
        assert facets(p.fan) == ((1, 2), (0, 2), (0, 1))

    def test_vertices_satisfy_their_equalities(self):
        f = construct_proj_split(1, (1, 0, 0))
        for cone, v in zip(f.max_cones, fraction_vertices(f, [1] * len(f.rays))):
            for r in cone:
                assert sum(a * b for a, b in zip(v, f.rays[r])) == -1

    @pytest.mark.parametrize("k", [1, Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)])
    def test_points_are_scaled_vertices(self, k):
        # q times each fraction vertex is an integer point, and the heights
        # pair those points with the generic vector
        for case in golden_suite():
            f = build_case_fan(case)
            base = [1] * len(f.rays) if case.divisor == "anticanonical" else case.divisor
            coeffs = [k * Fraction(c) for c in base]
            p = polytope_from_divisor(divisor(f, coeffs))
            assert p.scale == lcm(*(c.denominator for c in coeffs))
            points = [[p.scale * x for x in u] for u in fraction_vertices(f, coeffs)]
            assert all(x.denominator == 1 for pt in points for x in pt), case.name
            xi = generic_vector(f.dim, f.duals)[0]
            assert p.heights == tuple(dot(xi, pt) for pt in points), case.name

    def test_coefficient_count_checked(self):
        with pytest.raises(DimMismatch):
            divisor(construct_projective_space(2), (1, 1))

    @pytest.mark.parametrize("bad", [0.1, 1.0, "1/2", True, False, None, Decimal(1)],
                             ids=repr)
    def test_only_ints_and_fractions_are_coefficients(self, bad):
        # Fraction() would take each of these; 0.1 would carry its binary error.
        f = construct_projective_space(2)
        with pytest.raises(BadCoefficient) as ei:
            divisor(f, [1, bad, 1])
        assert isinstance(ei.value, TypeError) and isinstance(ei.value, ToricStabError)
        assert divisor(f, [1, Fraction(1, 2), 1]).coeffs == (1, Fraction(1, 2), 1)

    @pytest.mark.parametrize("coeffs, error", [
        ((1, 1, 1, 1), DimMismatch),
        ((1, 1), DimMismatch),
        ((0.5, 1, 1), BadCoefficient),
        (("1", 1, 1), BadCoefficient),
        ((True, 1, 1), BadCoefficient),
    ], ids=repr)
    def test_a_divisor_built_directly_is_checked(self, coeffs, error):
        # ToricDivisor itself is the gate, so no verdict or builtin error
        # comes out of coefficients that divisor() would refuse.
        f = construct_projective_space(2)
        with pytest.raises(error):
            decide(f, ToricDivisor(f, coeffs))

    def test_a_polytope_derives_its_scale_and_heights(self):
        # Given heights would misstate the volumes: 3x them are those of 3D,
        # and scale 7 divides them by 7.
        f = construct_hirzebruch(1)
        d = divisor(f, (1, 0, 0, 1))
        assert polytope_from_divisor(d) is d
        assert d.scale == 1 and facet_volumes(d).values == (1, 1, 1, 2)
        for scale, heights in ((1, tuple(3 * h for h in d.heights)), (7, d.heights)):
            with pytest.raises(TypeError):
                ToricDivisor(f, (1, 0, 0, 1), scale, heights)

    def test_scale_and_heights_take_no_part_in_equality_hashing_or_repr(self):
        f = construct_hirzebruch(1)
        d = divisor(f, (1, 0, 0, 1))
        e = divisor(make_fan(2, f.rays, f.max_cones), (1, 0, 0, 1))
        assert d == e and hash(d) == hash(e) == hash((f, d.coeffs))
        assert d != divisor(f, (1, 0, 0, 2))
        assert repr(d) == (
            "ToricDivisor(fan=Fan(dim=2, rays=((1, 0), (0, 1), (-1, 1), (0, -1)), "
            "max_cones=((0, 1), (1, 2), (2, 3), (0, 3))), coeffs=(Fraction(1, 1), "
            "Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)))"
        )

    def test_a_divisor_built_directly_equals_divisor(self):
        f = construct_projective_space(2)
        d = ToricDivisor(f, (1, 1, 1))
        assert d == divisor(f, (1, 1, 1))
        assert all(type(c) is Fraction for c in d.coeffs)


class TestAmpleness:
    def test_anticanonical_on_catalog(self):
        for name, f in catalog_fano4():
            p = polytope_from_divisor(anticanonical(f))
            assert is_ample(p), name

    def test_twist_two_anticanonical_degenerates(self):
        p = hirzebruch_polytope(2, (1, 1, 1, 1))
        assert not is_ample(p)
        with pytest.raises(NonAmple):
            facet_volumes(p)

    def test_line_segment(self):
        f = construct_projective_space(1)
        assert is_ample(polytope_from_divisor(divisor(f, (1, 1))))
        assert not is_ample(polytope_from_divisor(divisor(f, (1, -1))))

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_twist_criterion(self, m):
        # ample iff both coordinates in the standard basis of the divisor
        # class group are positive
        span = [-1, 0, 1, 2]
        for a1 in span:
            for a2 in span:
                for a3 in span:
                    for a4 in span:
                        p = hirzebruch_polytope(m, (a1, a2, a3, a4))
                        expected = a1 + a3 - m * a2 > 0 and a2 + a4 > 0
                        assert is_ample(p) == expected, (m, a1, a2, a3, a4)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_halved_coefficients_match_twist_criterion(self, m):
        span = [Fraction(a, 2) for a in (-1, 0, 1, 2, 3)]
        for coeffs in iproduct(span, repeat=4):
            a1, a2, a3, a4 = coeffs
            p = hirzebruch_polytope(m, coeffs)
            expected = a1 + a3 - m * a2 > 0 and a2 + a4 > 0
            assert is_ample(p) == expected == ample_by_fractions(p.fan, coeffs)

    @pytest.mark.parametrize("block", range(5))
    def test_wall_signs_match_the_global_scan(self, block):
        # Block 0 is the catalog, F0-F4 and F1 x P2; blocks 1-4 are the fans
        # of random_polarized seeds 0-199, fifty each.
        if block:
            fans = [random_polarized(seed)[0] for seed in range(50 * block - 50, 50 * block)]
        else:
            fans = [f for _, f in catalog_fano4()]
            fans += [construct_hirzebruch(m) for m in range(5)]
            fans.append(construct_product(construct_hirzebruch(1), construct_projective_space(2)))
        rng = random.Random(block)
        seen = []
        for f in fans:
            for _ in range(12):
                whole = [rng.randint(-2, 4) for _ in f.rays]
                halved = [Fraction(rng.randint(-4, 8), 2) for _ in f.rays]
                for coeffs in (whole, halved):
                    got = is_ample(polytope_from_divisor(divisor(f, coeffs)))
                    assert got == ample_by_fractions(f, coeffs), (f, coeffs)
                    seen.append(got)
        assert True in seen and False in seen

    @pytest.mark.parametrize("m", range(5))
    def test_nef_boundary_is_not_ample(self, m):
        # a1 + a3 - m*a2 = 0 and a2 + a4 = 1: nef, with a wall of degree 0
        f = construct_hirzebruch(m)
        coeffs = (0, 1, m, 0)
        u = fraction_vertices(f, coeffs)
        gaps = [
            dot(u[ci], ray) + coeffs[r]
            for ci, cone in enumerate(f.max_cones)
            for r, ray in enumerate(f.rays)
            if r not in cone
        ]
        assert min(gaps) == 0
        assert not is_ample(polytope_from_divisor(divisor(f, coeffs)))
        assert not ample_by_fractions(f, coeffs)
        assert is_ample(polytope_from_divisor(divisor(f, (1, 1, m, 0))))

    @pytest.mark.parametrize("seed", range(10))
    def test_rational_divisors_match_fraction_check(self, seed):
        rng = random.Random(seed)
        f, d = random_polarized(seed)
        seen = set()
        for _ in range(20):
            k = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            coeffs = [k * c + Fraction(rng.randint(-6, 2), rng.randint(1, 3)) for c in d.coeffs]
            got = is_ample(polytope_from_divisor(divisor(f, coeffs)))
            assert got == ample_by_fractions(f, coeffs), coeffs
            seen.add(got)
        assert seen == {True, False}


class TestFacetVolumes:
    def test_plane(self):
        p = polytope_from_divisor(anticanonical(construct_projective_space(2)))
        t = facet_volumes(p)
        assert t.values == (3, 3, 3)
        assert t.dim == 2 and t.weights == (3, 3, 3) and t.den == 1

    def test_quadric_square(self):
        p = hirzebruch_polytope(0, (1, 1, 1, 1))
        assert facet_volumes(p).values == (2, 2, 2, 2)

    def test_twisted_surface(self):
        p = hirzebruch_polytope(1, (1, 1, 1, 1))
        assert facet_volumes(p).values == (2, 1, 2, 3)

    def test_fourfold_bundle_over_line(self):
        f = construct_proj_split(1, (1, 0, 0))
        t = facet_volumes(polytope_from_divisor(anticanonical(f)))
        third = Fraction(56, 3)
        assert t.values == (8, third, third, third, Fraction(32, 3), Fraction(32, 3))
        assert sum(t.values) == Fraction(256, 3)

    def test_segment_endpoints(self):
        f = construct_projective_space(1)
        p = polytope_from_divisor(divisor(f, (2, 3)))
        assert generic_vector(1, f.duals)[0] == (1,)
        t = facet_volumes(p)
        assert t.values == (1, 1)
        assert t.dim == 1

    def test_scaling_power(self):
        base = facet_volumes(hirzebruch_polytope(1, (1, 1, 1, 1)))
        for k in (2, 3):
            scaled = facet_volumes(hirzebruch_polytope(1, (k, k, k, k)))
            assert scaled.values == tuple(k * v for v in base.values)

    def test_linear_equivalence_invariance(self):
        # adding the divisor of a character translates the polytope
        base = facet_volumes(hirzebruch_polytope(1, (1, 1, 1, 1)))
        shifted = facet_volumes(hirzebruch_polytope(1, (2, 2, 1, 0)))
        assert shifted.values == base.values

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance_fuzz(self, u1, u2, m):
        f = construct_hirzebruch(m)
        base_coeffs = (3, 1, 3, 1)  # ample for every twist up to 5
        coeffs = tuple(
            a + u1 * r[0] + u2 * r[1] for a, r in zip(base_coeffs, f.rays)
        )
        p = polytope_from_divisor(divisor(f, coeffs))
        assert is_ample(p)
        base = facet_volumes(polytope_from_divisor(divisor(f, base_coeffs)))
        assert facet_volumes(p).values == base.values

    def test_rational_coefficients(self):
        p = hirzebruch_polytope(0, (Fraction(1, 2),) * 4)
        assert facet_volumes(p).values == (1, 1, 1, 1)


def _polarized_cases():
    """(fan, ample divisor) params for every golden case and 20 random seeds."""
    for case in golden_suite():
        f = build_case_fan(case)
        d = anticanonical(f) if case.divisor == "anticanonical" else divisor(f, case.divisor)
        yield pytest.param(f, d, id=case.name)
    for seed in range(20):
        yield pytest.param(*random_polarized(seed), id=f"seed{seed}")


POLARIZED = list(_polarized_cases())
# the brute-force hull costs exponentially in the dimension
HULL_CHECKED = [case for case in POLARIZED if case.values[0].dim <= 5]


def _volumes(f, coeffs):
    return facet_volumes(polytope_from_divisor(divisor(f, coeffs))).values


def _polytope_volume(f, coeffs):
    """Normalized n-volume of the polytope from the degree-n vertex sum."""
    n, xi = f.dim, generic_vector(f.dim, f.duals)[0]
    return sum(
        (
            dot(xi, u) ** n / (factorial(n) * prod(-dot(xi, m) for m in edges))
            for u, edges in zip(fraction_vertices(f, coeffs), f.duals)
        ),
        Fraction(0),
    )


class TestVertexFormulaProperties:
    @pytest.mark.parametrize("f, d", POLARIZED)
    def test_homogeneity(self, f, d):
        base = _volumes(f, d.coeffs)
        for k in (2, 3, Fraction(1, 2), Fraction(2, 3)):
            scaled = _volumes(f, [k * c for c in d.coeffs])
            assert scaled == tuple(k ** (f.dim - 1) * v for v in base)

    @pytest.mark.parametrize("f, d", POLARIZED)
    def test_character_shift_invariance(self, f, d):
        rng = random.Random(len(f.rays))
        m = [rng.randint(-3, 3) for _ in range(f.dim)]
        shifted = [c + dot(m, ray) for c, ray in zip(d.coeffs, f.rays)]
        assert _volumes(f, shifted) == _volumes(f, d.coeffs)

    @pytest.mark.parametrize("f, d", POLARIZED)
    def test_change_of_basis_invariance(self, f, d):
        g = transform_fan(f, random_unimodular(f.dim, random.Random(len(f.rays))))
        assert _volumes(g, d.coeffs) == _volumes(f, d.coeffs)

    @pytest.mark.parametrize("f, d", POLARIZED)
    def test_pyramid_identity(self, f, d):
        # cone over each facet from the origin: its lattice height is the
        # (signed) coefficient of the facet's ray
        vols = facet_volumes(polytope_from_divisor(d))
        assert f.dim * _polytope_volume(f, d.coeffs) == sum(
            a * v for a, v in zip(d.coeffs, vols.values)
        )


    @pytest.mark.parametrize("f, d", HULL_CHECKED)
    def test_matches_hull_volumes(self, f, d):
        # independent of the vertex formula: each facet is the hull of the
        # vertices of the cones through its ray; half of D has scale 2
        for k in (1, Fraction(1, 2)):
            coeffs = [k * c for c in d.coeffs]
            verts = fraction_vertices(f, coeffs)
            assert _volumes(f, coeffs) == tuple(
                lattice_volume([verts[ci] for ci in cones], ray)
                for cones, ray in zip(facets(f), f.rays)
            )

    @pytest.mark.parametrize("f, d", POLARIZED)
    def test_matches_chow_ring_volumes(self, f, d):
        # independent of the vertex formula and of the generic vector: the
        # intersection numbers D^(n-1).D_i share only the cone duals with
        # it, and unlike the hull check they reach the sixfolds
        for k in (1, Fraction(1, 2), Fraction(2, 3)):
            coeffs = [k * c for c in d.coeffs]
            assert _volumes(f, coeffs) == chow_volumes(f, coeffs)

    def test_matches_chow_ring_volumes_on_seeds_and_catalog(self):
        cases = [random_polarized(seed) for seed in range(200)]
        cases += [(f, anticanonical(f)) for _, f in catalog_fano4()]
        cases += [random_blowup(seed) for seed in range(50)]
        for f, d in cases:
            assert _volumes(f, d.coeffs) == chow_volumes(f, d.coeffs), f


class TestVolumeTable:
    @pytest.mark.parametrize("k", [1, Fraction(1, 2), Fraction(2, 3)])
    def test_reduced_integer_weights_over_one_denominator(self, k):
        for case in golden_suite():
            f = build_case_fan(case)
            base = [1] * len(f.rays) if case.divisor == "anticanonical" else case.divisor
            coeffs = [k * Fraction(c) for c in base]
            v = decide(f, divisor(f, coeffs))
            t = v.volumes
            assert all(type(w) is int for w in t.weights) and type(t.den) is int, case.name
            assert t.den > 0 and gcd(t.den, *t.weights) == 1, case.name
            assert t.values == chow_volumes(f, coeffs), case.name
            assert v.mu_tx == Fraction(sum(t.weights), t.den * f.dim), case.name

    @pytest.mark.parametrize("read", [
        lambda p2: degree_of(tangent_jump_data(p2), VolumeTable(2, (1, 1, 1), 0)),
        lambda p2: degree_of(tangent_jump_data(p2), VolumeTable(2, (1, 1, 1), -1)),
        lambda p2: degree_of(tangent_jump_data(p2), VolumeTable(2, (0.5, 1, 1), 1)),
        lambda p2: VolumeTable(2, (True, 1, 1), 1),
        lambda p2: VolumeTable(0, (1, 1, 1), 1),
    ], ids=["den-zero", "den-negative", "float-weight", "bool-weight", "dim-zero"])
    def test_a_table_built_directly_is_checked(self, read):
        # VolumeTable itself is the gate, so nothing is read off a table
        # that is not one.
        with pytest.raises(BadVolumeTable):
            read(construct_projective_space(2))

    def test_a_non_positive_weight_is_not_ample(self):
        with pytest.raises(NonAmple):
            VolumeTable(2, (1, 0, 1, 1), 1)

    def test_equal_volumes_make_equal_tables(self):
        assert VolumeTable(2, (2, 2, 2), 2) == VolumeTable(2, (1, 1, 1), 1)
        assert VolumeTable(2, [4, 6, 2], 8).weights == (2, 3, 1)


class TestGenericFunctional:
    # SKEW sends the rays e1, e2 of cone {0, 1} to (0,-1), (1,2), which
    # gives that cone the edge (2,-1), orthogonal to (1, 2): the search must
    # step on.
    SKEW = ((0, 1), (-1, 2))

    @pytest.mark.parametrize(
        "f, coeffs",
        [
            (construct_projective_space(2), (1, 1, 1)),
            (construct_hirzebruch(1), (1, 0, 0, 4)),
        ],
        ids=["P2", "F1"],
    )
    def test_search_steps_past_an_orthogonal_edge(self, f, coeffs):
        g = transform_fan(f, self.SKEW)
        p = polytope_from_divisor(divisor(g, coeffs))
        duals = p.fan.duals
        xi = generic_vector(g.dim, duals)[0]
        assert (2, -1) in duals[g.max_cones.index((0, 1))]
        assert xi[1] > 2
        assert all(dot(xi, m) for cone in duals for m in cone)
        assert facet_volumes(p).values == _volumes(f, coeffs)


class TestReflexive:
    def test_anticanonical_surfaces(self):
        assert is_reflexive(hirzebruch_polytope(0, (1, 1, 1, 1)))
        assert is_reflexive(hirzebruch_polytope(1, (1, 1, 1, 1)))

    def test_anticanonical_spaces(self):
        for n in (2, 3, 4):
            p = polytope_from_divisor(anticanonical(construct_projective_space(n)))
            assert is_reflexive(p)

    def test_non_ample_but_reflexive(self):
        # twist-two surface: the anticanonical polytope collapses to a
        # triangle with a unique interior lattice point
        assert is_reflexive(hirzebruch_polytope(2, (1, 1, 1, 1)))

    def test_big_polytope_not_reflexive(self):
        assert not is_reflexive(hirzebruch_polytope(1, (1, 0, 0, 4)))

    def test_shifted_square_not_reflexive(self):
        assert not is_reflexive(hirzebruch_polytope(0, (0, 2, 2, 0)))

    def test_fractional_vertices_not_reflexive(self):
        assert not is_reflexive(hirzebruch_polytope(0, (Fraction(1, 2),) * 4))

    def test_fourfold_catalog_anticanonical(self):
        for name, f in catalog_fano4():
            p = polytope_from_divisor(anticanonical(f))
            assert is_reflexive(p), name

    @pytest.mark.parametrize("f, coeffs", [
        (construct_p1_bundle(3, 1), (1, 1, 2, 1, 1)),
        (construct_p1_bundle(4, 1), (1, 1, 1, 2, 1, 1)),
        (construct_proj_split(2, (1, 0)), (2, 1, 1, 1, 1, 1)),
    ], ids=["p1_bundle(3,1)", "B3", "C2"])
    def test_facet_at_distance_two_is_not_reflexive(self, f, coeffs):
        # ample, so every ray gives a facet, and the ray with coefficient 2
        # gives one at lattice distance 2; the origin is still the only
        # interior lattice point
        p = polytope_from_divisor(divisor(f, coeffs))
        assert is_ample(p)
        assert not is_reflexive(p)
        if f.dim == 3:
            assert reflexive_by_scan(f, coeffs)

    def test_ray_supporting_only_a_vertex(self):
        # P1 x P1 blown up at a fixed point: D is nef, its polytope is the
        # reflexive square, and the ray (1, 1) touches it at the vertex (-1, -1)
        f = blown_up_quadric()
        p = polytope_from_divisor(divisor(f, (1, 2, 1, 1, 1)))
        assert not is_ample(p)
        assert is_reflexive(p)
        assert reflexive_by_scan(f, (1, 2, 1, 1, 1))

    def test_non_nef_divisor_raises(self):
        # a1 + a3 - a2 < 0: negative on the curve of ray 1
        p = hirzebruch_polytope(1, (1, 1, -1, 1))
        assert not nef_by_fractions(p.fan, (1, 1, -1, 1))
        with pytest.raises(NonAmple, match="not nef"):
            is_reflexive(p)

    def test_matches_the_box_scan_on_small_boxes(self):
        # every integer coefficient vector in {0, 1, 2}: a divisor that is
        # not nef raises; on a nef one the scan agrees in dimension 2, and in
        # dimension 3 the one it passes with a facet at distance 2 differs
        fans = [construct_hirzebruch(m) for m in range(4)]
        fans += [construct_projective_space(2), blown_up_quadric(), construct_projective_space(3),
                 construct_p1_bundle(3, 1), construct_proj_split(1, (1, 0))]
        verdicts, differ = 0, []
        for f in fans:
            for coeffs in iproduct(range(3), repeat=len(f.rays)):
                p = polytope_from_divisor(divisor(f, coeffs))
                if not nef_by_fractions(f, coeffs):
                    with pytest.raises(NonAmple):
                        is_reflexive(p)
                    continue
                verdicts += 1
                got, scanned = is_reflexive(p), reflexive_by_scan(f, coeffs)
                assert scanned or not got, (f, coeffs)
                if got != scanned:
                    differ.append((f, coeffs))
        assert verdicts == 922
        assert differ == [(construct_p1_bundle(3, 1), (1, 1, 2, 1, 1))]

    def test_work_does_not_grow_with_the_coefficients(self, count_calls):
        f = construct_projective_space(4)
        dots = count_calls(lattice, "dot")
        counts = []
        for k in range(1, 13):
            p = polytope_from_divisor(divisor(f, [k] * 5))
            before = len(dots)
            assert is_reflexive(p) == (k == 1)
            counts.append(len(dots) - before)
        assert counts == [counts[0]] * 12

    def test_random_polarization_answers(self):
        f, d = random_polarized(1)
        assert not is_reflexive(polytope_from_divisor(d))
