"""Fan validation and the standard constructors."""

import ast
import hashlib
import json
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from blowups import random_blowup
from oracles import _pair_face_violation, fraction_vertices, is_cone, skewed_products
from toricstab import lattice
from toricstab.charts import chart_of, rank_one_exists
from toricstab.cli import load_fan_file
from toricstab.errors import BadDimension, BadTwist, InvalidFan
from toricstab.fan import (
    Fan,
    catalog_fano4,
    cone_rays,
    construct_hirzebruch,
    construct_p1_bundle,
    construct_proj_split,
    construct_product,
    construct_projective_space,
    make_fan,
    validate_fan,
)
from toricstab.lattice import dot, dual_basis, generic_vector
from toricstab.polytope import (
    ToricDivisor, anticanonical, divisor, facet_volumes, polytope_from_divisor,
)
from toricstab.stability import Stability, decide
from toricstab.testkit import (
    build_case_fan,
    golden_suite,
    random_polarized,
    random_unimodular,
    transform_fan,
)


def codes_of(excinfo) -> set:
    return {code for code, _ in excinfo.value.violations}


def winding_fan() -> Fan:
    """Six unimodular cones, consecutive ones sharing a wall on opposite
    sides, that wind twice around the origin: every wall check passes and
    only the intersection check fails."""
    rays = [(1, 0), (0, 1), (-1, -2), (2, 3), (-1, -1), (0, -1)]
    return make_fan(2, rays, [(i, (i + 1) % 6) for i in range(6)])


def suspension(f: Fan) -> Fan:
    """Cones of ``f`` joined with +-e_(n+1): the same winding one dimension up."""
    n, k = f.dim, len(f.rays)
    rays = [r + (0,) for r in f.rays] + [(0,) * n + (1,), (0,) * n + (-1,)]
    return make_fan(n + 1, rays, [c + (j,) for c in f.max_cones for j in (k, k + 1)])


def both_contain(a, b, v):
    return ("BadIntersection", f"cones {a} and {b} both contain the generic vector {v}")


WITNESS = re.compile(r"cones (.*) and (.*) both contain the generic vector (.*)")

# The codes ``validate_fan`` raises before its walk reads any cone's duals.
BEFORE_THE_WALK = {
    "BadRay", "NonPrimitiveRay", "DuplicateRay", "BadIndex", "DuplicateCone", "UnusedRay",
    "NotSmooth",
}


CARRIED_RAYS = [(-1, 0, 1), (0, 0, -1), (0, 1, 2), (1, 0, 0), (2, -1, -2), (2, 1, 1)]
CARRIED_CONES = [(0, 1, 5), (3, 4, 5), (0, 2, 3), (1, 2, 3), (1, 3, 5), (0, 3, 4), (0, 1, 4)]


# Every fan the tests below reject, by the test that rejects it.
INVALID_FANS = {
    "nonprimitive_ray": make_fan(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    "duplicate_ray": make_fan(2, [(1, 0), (0, 1), (1, 0)], [(0, 1), (1, 2)]),
    "missing_cone": make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)]),
    "not_smooth": make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)]),
    "overlapping_cones": make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)]),
    "one_side_of_a_wall": make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2)]),
    "one_side_of_a_wall_3d": make_fan(
        3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [(0, 1, 2), (0, 1, 3)]
    ),
    "unused_ray": make_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (0, 2)]),
    "bad_cone_index": make_fan(2, [(1, 0), (0, 1)], [(0, 5)]),
    "duplicate_cone": make_fan(
        2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 0), (1, 2), (0, 2)]
    ),
    "half_line": make_fan(1, [(1,)], [(0,)]),
    "winding": winding_fan(),
    "winding_suspension": suspension(winding_fan()),
    # The walk from smooth cone 0 meets non-smooth cones 1 and 3 (|p| = 2)
    # and crosses into cone 2 (p = -1).
    "walk_meets_non_smooth": make_fan(
        3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -2, -2)],
        [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3)],
    ),
    # Cone 0 is not smooth; the walk starts at cone 1 and crosses into cone 2.
    "first_cone_non_smooth": make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 2), (0, 1), (1, 2)]),
    # Cones 0, 2 and cones 1, 3 share a wall each, and nothing else.
    "two_components": make_fan(
        2, [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)],
        [(0, 2), (3, 5), (1, 2), (4, 5)],
    ),
    # The walk reaches the one-sided walls (1, 3) and (3, 5) only after both
    # of their cones carry duals, so it reads their sides off the duals.
    "one_side_of_a_carried_wall": make_fan(3, CARRIED_RAYS, CARRIED_CONES),
    # The same rays mapped by a unimodular map: there the carried pairings
    # on walls (1, 3) and (3, 5) are 0, which the duals' sides do not read.
    "one_side_of_a_carried_wall_skewed": transform_fan(
        make_fan(3, CARRIED_RAYS, CARRIED_CONES), ((1, 0, 0), (2, 1, 0), (4, 0, 1))
    ),
    # Wall (0,) lies in cones (0, 1), (0, 3) and (0, 4).
    "wall_in_three_cones": make_fan(
        2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1)], [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]
    ),
    # Wall (0, 1) lies in cones (0, 1, 2), (0, 1, 3) and (0, 1, 4).
    "wall_in_three_cones_3d": make_fan(
        3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, -1)],
        [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (1, 2, 3)],
    ),
    # Wall (0,) lies in all four cones: its fourth is counted on a crowded wall.
    "wall_in_four_cones": make_fan(
        2, [(1, 0), (0, 1), (-1, -1), (0, -1), (1, 1)], [(0, 1), (0, 2), (0, 3), (0, 4)]
    ),
    # A short row after a good one: no wall table is made.
    "short_cone_row": make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1,), (0, 2)]),
}


class TestProjectiveSpace:
    def test_plane(self):
        f = construct_projective_space(2)
        assert f.rays == ((1, 0), (0, 1), (-1, -1))
        assert set(f.max_cones) == {(1, 2), (0, 2), (0, 1)}
        assert f.validated

    def test_line(self):
        f = construct_projective_space(1)
        assert set(f.rays) == {(1,), (-1,)}
        assert set(f.max_cones) == {(0,), (1,)}

    def test_fourfold_counts(self):
        f = construct_projective_space(4)
        assert len(f.rays) == 5 and len(f.max_cones) == 5

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            construct_projective_space(0)


class TestHirzebruch:
    def test_rays_and_cones(self):
        f = construct_hirzebruch(2)
        assert f.rays == ((1, 0), (0, 1), (-1, 2), (0, -1))
        assert f.max_cones == ((0, 1), (1, 2), (2, 3), (0, 3))

    def test_twist_zero_is_quadric(self):
        f = construct_hirzebruch(0)
        assert (-1, 0) in f.rays

    def test_negative_twist(self):
        with pytest.raises(BadTwist):
            construct_hirzebruch(-1)


class TestProjSplit:
    def test_fourfold_bundle_over_line(self):
        f = construct_proj_split(1, (1, 0, 0))
        assert f.rays == (
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (-1, -1, -1, 0),
            (0, 0, 0, 1),
            (1, 0, 0, -1),
        )
        assert len(f.max_cones) == 8
        assert (1, 2, 3, 5) in f.max_cones

    def test_plane_base(self):
        f = construct_proj_split(2, (2, 0))
        assert len(f.rays) == 6 and len(f.max_cones) == 9
        assert f.dim == 4

    def test_trivial_twists_give_product(self):
        f = construct_proj_split(1, (0,))
        g = construct_product(
            construct_projective_space(1), construct_projective_space(1)
        )
        assert set(f.rays) == set(g.rays)

    def test_empty_twists(self):
        with pytest.raises(BadTwist):
            construct_proj_split(1, ())

    def test_bad_base(self):
        with pytest.raises(BadDimension):
            construct_proj_split(0, (1,))


class TestP1Bundle:
    def test_matches_hirzebruch_up_to_relabeling(self):
        for m in range(3):
            a = construct_p1_bundle(2, m)
            b = construct_hirzebruch(m)
            assert set(a.rays) == set(b.rays)
            acones = {frozenset(a.rays[i] for i in c) for c in a.max_cones}
            bcones = {frozenset(b.rays[i] for i in c) for c in b.max_cones}
            assert acones == bcones

    def test_fourfold(self):
        f = construct_p1_bundle(4, 1)
        assert f.rays == (
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (0, 0, 0, -1),
            (-1, -1, -1, 1),
        )
        assert len(f.max_cones) == 8

    def test_fiber_rays_are_last_axis(self):
        for n in (2, 3, 4, 5, 6):
            f = construct_p1_bundle(n, n - 1)
            assert f.rays[n - 1] == tuple(0 if j < n - 1 else 1 for j in range(n))
            assert f.rays[n] == tuple(0 if j < n - 1 else -1 for j in range(n))

    def test_bad_params(self):
        with pytest.raises(BadDimension):
            construct_p1_bundle(1, 1)
        with pytest.raises(BadTwist):
            construct_p1_bundle(3, -2)


class TestProduct:
    def test_p1_cubed_counts(self):
        p1 = construct_projective_space(1)
        f = construct_product(construct_product(p1, p1), p1)
        assert f.dim == 3
        assert len(f.rays) == 6 and len(f.max_cones) == 8

    def test_segre_block_structure(self):
        f = construct_product(
            construct_projective_space(1), construct_projective_space(3)
        )
        assert f.rays[0] == (1, 0, 0, 0)
        assert f.rays[1] == (-1, 0, 0, 0)
        assert f.rays[5] == (0, -1, -1, -1)
        assert len(f.max_cones) == 8


class TestCatalog:
    def test_names_in_order(self):
        names = [name for name, _ in catalog_fano4()]
        assert names == ["P4", "B1", "B2", "B3", "B4", "B5", "C1", "C2", "C3", "C4"]

    def test_all_validated_fourfolds(self):
        for name, f in catalog_fano4():
            assert f.dim == 4 and f.validated, name

    def test_cone_counts(self):
        counts = {name: len(f.max_cones) for name, f in catalog_fano4()}
        assert counts == {
            "P4": 5,
            "B1": 8,
            "B2": 8,
            "B3": 8,
            "B4": 8,
            "B5": 8,
            "C1": 9,
            "C2": 9,
            "C3": 9,
            "C4": 9,
        }


class TestValidateFan:
    def test_accepts_unsorted_cones(self):
        f = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(2, 1), (2, 0), (1, 0)])
        v = validate_fan(f)
        assert v.max_cones == ((1, 2), (0, 2), (0, 1))

    def test_nonprimitive_ray(self):
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["nonprimitive_ray"])
        assert "NonPrimitiveRay" in codes_of(ei)

    def test_duplicate_ray(self):
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["duplicate_ray"])
        assert "DuplicateRay" in codes_of(ei)

    def test_missing_cone_breaks_completeness(self):
        f = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        validate_fan(f)
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["missing_cone"])
        assert "NotComplete" in codes_of(ei)
        assert "UnusedRay" not in codes_of(ei)

    def test_not_smooth(self):
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["not_smooth"])
        assert codes_of(ei) == {"NotSmooth"}
        assert any("(0, 2)" in detail for _, detail in ei.value.violations)

    def test_overlapping_cones(self):
        # The cones overlap, but the generic vector lies in one of them: the
        # walls name the fault.
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["overlapping_cones"])
        assert codes_of(ei) == {"NotComplete"}

    def test_cones_on_one_side_of_a_wall(self):
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["one_side_of_a_wall"])
        assert ei.value.violations == (
            ("NotComplete", "wall (0,) lies in 1 maximal cone(s)"),
            ("NotComplete", "cones (0, 1) and (1, 2) lie on one side of wall (1,)"),
            ("NotComplete", "wall (2,) lies in 1 maximal cone(s)"),
            ("NotComplete", "maximal cones are not connected through walls"),
            both_contain((0, 1), (1, 2), (1, 2)),
        )
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["one_side_of_a_wall_3d"])
        assert ei.value.violations == (
            ("NotComplete", "cones (0, 1, 2) and (0, 1, 3) lie on one side of wall (0, 1)"),
            ("NotComplete", "wall (0, 2) lies in 1 maximal cone(s)"),
            ("NotComplete", "wall (0, 3) lies in 1 maximal cone(s)"),
            ("NotComplete", "wall (1, 2) lies in 1 maximal cone(s)"),
            ("NotComplete", "wall (1, 3) lies in 1 maximal cone(s)"),
            ("NotComplete", "maximal cones are not connected through walls"),
        )

    def test_unused_ray(self):
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["unused_ray"])
        assert "UnusedRay" in codes_of(ei)

    def test_bad_cone_index(self):
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["bad_cone_index"])
        assert "BadIndex" in codes_of(ei)

    def test_bad_rows_allocate_no_wall_table(self):
        # One ray of 2000 entries and 2000 one-index cones: a table of
        # dim * cones wall slots would take 32 MB before any row is read.
        n = 2000
        f = Fan(n, [(1,) + (0,) * (n - 1)], [(0,)] * n)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidFan) as ei:
                validate_fan(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ei.value.violations == tuple(("BadIndex", f"cone {ci} = (0,)") for ci in range(n))
        assert peak < 2_000_000

    def test_duplicate_cone(self):
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["duplicate_cone"])
        assert "DuplicateCone" in codes_of(ei)

    def test_line_fan(self):
        f = validate_fan(make_fan(1, [(1,), (-1,)], [(0,), (1,)]))
        assert f.validated
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["half_line"])
        assert "NotComplete" in codes_of(ei)

    def test_unimodular_change_of_basis(self):
        mats = [
            ((1, 1), (0, 1)),
            ((2, 1), (1, 1)),
            ((0, -1), (1, 3)),
        ]
        base = construct_hirzebruch(1)
        for u in mats:
            rays = [
                tuple(sum(u[i][j] * r[j] for j in range(2)) for i in range(2))
                for r in base.rays
            ]
            assert validate_fan(make_fan(2, rays, base.max_cones)).validated

    def test_validation_is_idempotent(self):
        f = construct_projective_space(3)
        g = validate_fan(f)
        assert g == f and g.validated


class TestIsCone:
    """The face test of the oracles (``oracles.is_cone``)."""

    def test_faces_of_plane_fan(self):
        f = construct_projective_space(2)
        assert is_cone(f, ())
        assert is_cone(f, (0,))
        assert is_cone(f, (0, 1))
        assert not is_cone(f, (0, 1, 2))

    def test_non_face_pair(self):
        # opposite rays of the quadric never span a cone
        f = construct_hirzebruch(0)
        assert not is_cone(f, (0, 2))
        assert not is_cone(f, (1, 3))

    def test_indices_are_not_truncated(self):
        assert not is_cone(construct_hirzebruch(1), (0.9, 1))


def _covering_and_pairwise(f: Fan):
    """Covering count and pairwise violations of a smooth fan: the count
    ``validate_fan`` decides by, from per-cone duals, and the pairwise
    oracle it is checked against."""
    duals = [dual_basis([f.rays[i] for i in c]) for c in f.max_cones]
    cones = f.max_cones
    pairwise = [
        detail
        for a in range(len(cones))
        for b in range(a + 1, len(cones))
        if (detail := _pair_face_violation(
            f.rays, cones[a], cones[b], duals[a], duals[b]
        )) is not None
    ]
    covering = sum(all(x > 0 for x in row) for row in generic_vector(f.dim, duals)[1])
    return covering, pairwise


def _power(factor: Fan, k: int) -> Fan:
    f = factor
    for _ in range(k - 1):
        f = construct_product(f, factor)
    return f


class TestCoveringCount:
    def test_winding_fan_fails_only_the_intersection_check(self):
        # t = 2 pairs to 0 with a dual, so the search moves on to t = 3.
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["winding"])
        assert ei.value.violations == (both_contain((0, 1), (3, 4), (1, 3)),)

    def test_winding_suspension_fails_only_the_intersection_check(self):
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS["winding_suspension"])
        assert len(INVALID_FANS["winding_suspension"].max_cones) == 12
        assert ei.value.violations == (both_contain((0, 1, 6), (3, 4, 6), (1, 3, 9)),)

    def test_winding_fans_cover_twice(self):
        for name in ("winding", "winding_suspension"):
            count, pairwise = _covering_and_pairwise(INVALID_FANS[name])
            assert count == 2 and pairwise, name

    def test_count_is_one_exactly_when_no_pair_overlaps(self):
        # The equivalence needs the wall stages: "overlapping_cones" has
        # count 1 but unpaired walls, and there the walls name the fault.
        fans = list(INVALID_FANS.values())
        for seed in range(50):
            f = random_polarized(seed)[0]
            g = transform_fan(f, random_unimodular(f.dim, random.Random(seed)))
            fans += [f, g]
        checked = 0
        for f in fans:
            try:
                validate_fan(f)
                codes = set()
            except InvalidFan as e:
                codes = {code for code, _ in e.violations}
            if codes - {"BadIntersection"}:
                continue
            count, pairwise = _covering_and_pairwise(f)
            assert (count == 1) == (not pairwise), f
            checked += 1
        assert checked == 102

    def test_every_named_pair_overlaps_and_holds_the_named_vector(self):
        # The fixtures whose cones all reach the walk, and the fans of
        # test_count_is_one_exactly_when_no_pair_overlaps.
        fans = list(INVALID_FANS.values())
        for seed in range(50):
            f = random_polarized(seed)[0]
            fans += [f, transform_fan(f, random_unimodular(f.dim, random.Random(seed)))]
        checked, named = 0, 0
        for f in fans:
            try:
                validate_fan(f)
                violations = ()
            except InvalidFan as e:
                violations = e.violations
            if {code for code, _ in violations} & BEFORE_THE_WALK:
                continue
            checked += 1
            duals = {c: dual_basis(cone_rays(f, c)) for c in f.max_cones}
            for code, detail in violations:
                if code == "BadIntersection":
                    a, b, v = map(ast.literal_eval, WITNESS.fullmatch(detail).groups())
                    assert _pair_face_violation(f.rays, a, b, duals[a], duals[b]), detail
                    assert all(dot(v, m) > 0 for m in duals[a] + duals[b]), detail
                    named += 1
        assert (checked, named) == (113, 3)

    def test_one_pairing_of_each_dual_with_the_generic_vector(self, count_calls):
        # B5 has 8 cones and 16 walls: the start cone's 4 duals paired with
        # v, then one pairing for the side of each of the 7 walls the walk
        # crosses, and 3 more per crossing into the 7 cones after the first
        # (the omitted ray's dual was paired for the side).  The other 9
        # walls are reached with both cones carrying duals, and their sides
        # come from comparing the two carried duals.  Each crossing carries
        # the pairings with v over, so no other dual is paired with v.
        b5 = construct_proj_split(1, (1, 0, 0))
        dots = count_calls(lattice, "dot")
        validate_fan(make_fan(b5.dim, b5.rays, b5.max_cones))
        assert len(dots) == 4 + 7 + 7 * 3

    def test_pairings_ride_along_on_a_product_of_eight_lines(self, count_calls):
        # P1^8: 256 cones, 1024 walls; 8 start pairings, then for each of
        # the 255 crossings one for its wall's side and 7 for the duals it
        # carries.  The other 769 walls take their sides from the carried
        # duals.  Every dual is +-e_i, so t = 2 is generic and the search
        # never runs.
        f = _power(construct_projective_space(1), 8)
        dots = count_calls(lattice, "dot")
        searches = count_calls(lattice, "generic_vector")
        validate_fan(make_fan(f.dim, f.rays, f.max_cones))
        assert len(dots) == 8 + 255 + 255 * 7
        assert not searches

    def test_a_product_of_eight_lines_missing_a_cone_costs_one_walk(self, count_calls):
        # P1^8 without its first cone: 255 cones; the walk from cone 0 pairs
        # its 8 duals with v and crosses into the other 254 cones, 8
        # pairings each.  The 8 walls of the missing cone lie in one cone
        # each, no cone holds v, and no pair of cones is tested.
        f = _power(construct_projective_space(1), 8)
        dots = count_calls(lattice, "dot")
        with pytest.raises(InvalidFan) as ei:
            validate_fan(make_fan(f.dim, f.rays, f.max_cones[1:]))
        walls = sorted(f.max_cones[0][:k] + f.max_cones[0][k + 1:] for k in range(8))
        assert ei.value.violations == tuple(not_complete(w) for w in walls)
        assert len(dots) == 8 + 254 * 8

    def test_validated_fan_keeps_cone_duals(self):
        f = construct_hirzebruch(1)
        assert f.duals == tuple(
            dual_basis([f.rays[i] for i in c]) for c in f.max_cones
        )
        assert make_fan(f.dim, f.rays, f.max_cones).duals is None

    def test_validated_exactly_when_duals_are_kept(self):
        raw = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        assert not raw.validated and raw.duals is None
        f = validate_fan(raw)
        assert f.validated and f.duals is not None
        assert len(f.duals) == len(f.max_cones)
        assert f == raw

    def test_p1_to_the_twelve(self):
        f = _power(construct_projective_space(1), 12)
        assert f.validated and f.dim == 12
        assert len(f.rays) == 24 and len(f.max_cones) == 4096


def _validated_fans():
    yield from (construct_projective_space(n) for n in range(1, 5))
    yield from (construct_hirzebruch(m) for m in range(4))
    yield construct_proj_split(2, (1, 0))
    yield construct_proj_split(1, (2, 1, 0))
    yield construct_p1_bundle(4, 2)
    yield construct_product(construct_projective_space(1), construct_hirzebruch(1))
    yield from (f for _, f in catalog_fano4())
    yield from (random_polarized(seed)[0] for seed in range(50))


class TestPreparedFan:
    def test_pairings_are_kept(self):
        for f in _validated_fans():
            assert f.pairings == generic_vector(f.dim, f.duals)[1], f
            assert all(x for row in f.pairings for x in row), f
            assert sum(all(x > 0 for x in row) for row in f.pairings) == 1, f
            assert make_fan(f.dim, f.rays, f.max_cones).pairings is None

    def test_each_wall_is_listed_once_with_its_two_cones(self):
        for f in _validated_fans():
            cones = f.max_cones
            assert len(f.walls) == len(cones) * f.dim // 2, f
            faces = set()
            for s, k, t in f.walls:
                face = set(cones[s]) - {cones[s][k]}
                assert set(cones[s]) & set(cones[t]) == face, (f, s, k, t)
                faces.add(frozenset(face))
            assert len(faces) == len(f.walls), f
            assert make_fan(f.dim, f.rays, cones).walls is None

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_heights_pair_the_points_with_the_generic_vector(self, q):
        for case in golden_suite():
            f = build_case_fan(case)
            base = [1] * len(f.rays) if case.divisor == "anticanonical" else case.divisor
            coeffs = [Fraction(c) / q for c in base]
            p = polytope_from_divisor(divisor(f, coeffs))
            xi = generic_vector(f.dim, f.duals)[0]
            points = [[p.scale * x for x in u] for u in fraction_vertices(f, coeffs)]
            assert p.heights == tuple(dot(xi, pt) for pt in points), case.name

    def test_polytope_of_a_raw_fan_validates_it(self):
        f = construct_hirzebruch(1)
        raw = transform_fan(f, random_unimodular(2, random.Random(7)))
        assert not raw.validated
        p = polytope_from_divisor(divisor(raw, (1, 0, 0, 4)))
        assert p.fan.validated and p.fan == raw
        assert facet_volumes(p) == facet_volumes(polytope_from_divisor(divisor(f, (1, 0, 0, 4))))

    def test_divisor_validates_a_raw_fan_once(self, count_calls):
        f = construct_hirzebruch(1)
        raw = transform_fan(f, random_unimodular(2, random.Random(7)))
        walks = count_calls(lattice, "dual_basis")
        d = ToricDivisor(raw, (Fraction(1),) * 4)
        assert d.fan.validated and d.fan is raw and len(walks) == 1
        polytope_from_divisor(d)
        assert len(walks) == 1
        # A validated fan is kept as it is, with whatever it has derived.
        assert divisor(f, (1, 0, 0, 4)).fan is f and len(walks) == 1

    def test_no_constructor_sets_the_validated_fields(self):
        # Three rays in one half-plane cannot borrow P2's duals, pairings
        # and walls to pass as validated.
        p2 = construct_projective_space(2)
        with pytest.raises(TypeError, match="duals"):
            Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2), (0, 2)),
                duals=p2.duals, pairings=p2.pairings, walls=p2.walls)

    @pytest.mark.parametrize("rays", [
        ((1, 0), (0, 1, 5), (-1, -1)),
        ((1, 0), (0, 1), (1, 1)),
    ], ids=["ragged", "half-plane"])
    def test_derived_data_needs_a_valid_fan(self, rays):
        f = make_fan(2, rays, ((0, 1), (1, 2), (0, 2)))
        for derive in (lambda: f.flats, lambda: f.cone_factors, lambda: f.flat_basis((0,))):
            with pytest.raises(InvalidFan):
                derive()
        assert not f.validated and not {"flats", "cone_factors"} & set(vars(f))

    def test_cone_factors_of_a_raw_fan_validate_it(self):
        b5 = dict(catalog_fano4())["B5"]
        raw = make_fan(b5.dim, b5.rays, b5.max_cones)
        assert raw.cone_factors == b5.cone_factors and raw.validated

    def test_one_walk_per_fan_object(self, count_calls):
        b5 = dict(catalog_fano4())["B5"]
        raw = transform_fan(b5, random_unimodular(4, random.Random(11)))
        walks = count_calls(lattice, "dual_basis")
        d1, d2 = anticanonical(raw), divisor(raw, (1, 1, 1, 1, 3, 1))
        assert d1.fan is raw and d2.fan is raw
        assert decide(raw, d1).mu_tx == 128 and decide(raw, d2).mu_tx == 224
        assert [chart_of(raw, sigma).dual for sigma in raw.max_cones] == list(raw.duals)
        assert rank_one_exists(raw, (0,) * len(raw.rays)) is not None
        assert len(walks) == 1

    @pytest.mark.parametrize("name", ["overlapping_cones", "not_smooth"])
    def test_divisor_on_an_invalid_fan_raises(self, name):
        f = INVALID_FANS[name]
        with pytest.raises(InvalidFan):
            ToricDivisor(f, (Fraction(1),) * len(f.rays))

    @pytest.mark.parametrize("name", ["overlapping_cones", "not_smooth"])
    def test_polytope_of_an_invalid_fan_raises(self, name):
        f = INVALID_FANS[name]
        with pytest.raises(InvalidFan):
            polytope_from_divisor(divisor(f, [1] * len(f.rays)))


def not_complete(wall, cones=1):
    return ("NotComplete", f"wall {wall} lies in {cones} maximal cone(s)")


CARRIED_VIOLATIONS = (
    not_complete((0, 2)),
    not_complete((0, 5)),
    not_complete((1, 2)),
    ("NotComplete", "cones (1, 2, 3) and (1, 3, 5) lie on one side of wall (1, 3)"),
    not_complete((1, 4)),
    ("NotComplete", "cones (3, 4, 5) and (1, 3, 5) lie on one side of wall (3, 5)"),
    not_complete((4, 5)),
)


# The violations of every INVALID_FANS fixture except the two winding fans,
# whose violations TestCoveringCount pins.
VIOLATIONS = {
    "nonprimitive_ray": (("NonPrimitiveRay", "ray 0 = (2, 0)"),),
    "duplicate_ray": (("DuplicateRay", "rays 0 and 2 are both (1, 0)"),),
    "missing_cone": (not_complete((0,)), not_complete((2,))),
    "not_smooth": (("NotSmooth", "cone (0, 2) has |det| = 2"),),
    "overlapping_cones": (
        ("NotComplete", "cones (0, 1) and (0, 2) lie on one side of wall (0,)"),
        not_complete((1,)),
        not_complete((2,)),
        ("NotComplete", "maximal cones are not connected through walls"),
    ),
    "one_side_of_a_wall": (
        not_complete((0,)),
        ("NotComplete", "cones (0, 1) and (1, 2) lie on one side of wall (1,)"),
        not_complete((2,)),
        ("NotComplete", "maximal cones are not connected through walls"),
        both_contain((0, 1), (1, 2), (1, 2)),
    ),
    "one_side_of_a_wall_3d": (
        ("NotComplete", "cones (0, 1, 2) and (0, 1, 3) lie on one side of wall (0, 1)"),
        not_complete((0, 2)),
        not_complete((0, 3)),
        not_complete((1, 2)),
        not_complete((1, 3)),
        ("NotComplete", "maximal cones are not connected through walls"),
    ),
    "unused_ray": (("UnusedRay", "ray 3 = (1, 1) is in no maximal cone"),),
    "bad_cone_index": (("BadIndex", "cone 0 = (0, 5)"),),
    "duplicate_cone": (("DuplicateCone", "cones 0 and 1 are both (0, 1)"),),
    "half_line": (not_complete(()),),
    "walk_meets_non_smooth": (
        ("NotSmooth", "cone (0, 1, 3) has |det| = 2"),
        ("NotSmooth", "cone (0, 2, 3) has |det| = 2"),
    ),
    "first_cone_non_smooth": (("NotSmooth", "cone (0, 2) has |det| = 2"),),
    "two_components": (
        not_complete((0,)),
        not_complete((1,)),
        not_complete((3,)),
        not_complete((4,)),
        ("NotComplete", "maximal cones are not connected through walls"),
    ),
    "one_side_of_a_carried_wall": CARRIED_VIOLATIONS,
    "one_side_of_a_carried_wall_skewed": CARRIED_VIOLATIONS,
    "wall_in_three_cones": (
        not_complete((0,), 3),
        not_complete((4,)),
        ("NotComplete", "maximal cones are not connected through walls"),
    ),
    "wall_in_three_cones_3d": (
        not_complete((0, 1), 3),
        not_complete((0, 4)),
        not_complete((1, 4)),
        ("NotComplete", "maximal cones are not connected through walls"),
    ),
    "wall_in_four_cones": (
        not_complete((0,), 4),
        *(not_complete((i,)) for i in range(1, 5)),
        ("NotComplete", "maximal cones are not connected through walls"),
    ),
    "short_cone_row": (("BadIndex", "cone 1 = (1,)"),),
}


WALLS_DIGEST = "7642623fc7445f8fceee2f2b7f4849972a662f66c6a1ad3fa17f7049eaf75fcd"


def _crossing_fans():
    """Raw copies of the goldens, the catalog, ``random_polarized`` seeds
    0-199 and the five skewed product fans, with their names."""
    fans = [(case.name, build_case_fan(case)) for case in golden_suite()]
    fans += catalog_fano4()
    fans += [(f"random_polarized({seed})", random_polarized(seed)[0]) for seed in range(200)]
    fans += [(f"skewed product {i}", f) for i, f in enumerate(skewed_products())]
    return [(name, make_fan(f.dim, f.rays, f.max_cones)) for name, f in fans]


@pytest.fixture(scope="module")
def crossed():
    return [(name, validate_fan(raw)) for name, raw in _crossing_fans()]


def _zero_at_two(f) -> bool:
    """Whether (1, 2, ..., 2^(n-1)) pairs to 0 with some cone dual of ``f``."""
    v = tuple(2**j for j in range(f.dim))
    return any(dot(v, m) == 0 for ms in f.duals for m in ms)


class TestWallCrossing:
    def test_carried_pairings_and_duals_match_per_cone_ones(self, crossed):
        assert len(crossed) == 246
        for name, f in crossed:
            assert f.pairings == generic_vector(f.dim, f.duals)[1], name
            assert f.duals == tuple(dual_basis(cone_rays(f, c)) for c in f.max_cones), name
        # The search past t = 2 runs on some of them.
        assert sum(_zero_at_two(f) for _, f in crossed) == 33

    def test_carried_pairings_and_duals_match_per_cone_ones_on_blowups(self):
        # Connected ray matroids, which the products above rarely give.
        for seed in range(50):
            g = random_blowup(seed)[0]
            f = validate_fan(make_fan(g.dim, g.rays, g.max_cones))
            assert f.pairings == generic_vector(f.dim, f.duals)[1], seed
            assert f.duals == tuple(dual_basis(cone_rays(f, c)) for c in f.max_cones), seed

    def test_walls_are_unchanged(self, crossed):
        # SHA-256 over repr(f.walls) of every fan, a line each, in order, as
        # the walk gave them when it keyed each wall by its tuple of rays.
        h = hashlib.sha256()
        for _, f in crossed:
            h.update(repr(f.walls).encode() + b"\n")
        assert h.hexdigest() == WALLS_DIGEST

    def test_one_sided_walls_are_named_when_every_wall_has_two_cones(self):
        # Three smooth cones on (1, 0), (0, 1), (1, 1), folded over each
        # other: each wall lies in two cones, and two of the walls have both
        # cones on one side.
        folded = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(InvalidFan) as ei:
            validate_fan(folded)
        assert ei.value.violations == (
            ("NotComplete", "cones (0, 1) and (0, 2) lie on one side of wall (0,)"),
            ("NotComplete", "cones (0, 1) and (1, 2) lie on one side of wall (1,)"),
            ("NotComplete", "maximal cones are not connected through walls"),
            both_contain((0, 1), (1, 2), (1, 2)),
        )

    def test_a_zero_pairing_at_t_2_falls_back_to_the_search(self, count_calls):
        skewed = random_polarized(5)[0]
        raw = make_fan(skewed.dim, skewed.rays, skewed.max_cones)
        searches = count_calls(lattice, "generic_vector")
        f = validate_fan(raw)
        assert _zero_at_two(f) and len(searches) == 1
        v, rows = generic_vector(f.dim, f.duals)
        assert v[1] > 2 and f.pairings == rows
        b5 = construct_proj_split(1, (1, 0, 0))
        validate_fan(make_fan(b5.dim, b5.rays, b5.max_cones))
        assert not _zero_at_two(b5) and len(searches) == 1

    def test_duals_equal_per_cone_hermite_duals(self):
        rng = random.Random(5)
        skews = [
            validate_fan(transform_fan(f, random_unimodular(4, rng)))
            for _ in range(20)
            for _, f in catalog_fano4()
        ]
        assert len(skews) == 200
        for f in [*_validated_fans(), *skews]:
            assert f.duals == tuple(dual_basis(cone_rays(f, c)) for c in f.max_cones), f

    def test_p1_to_the_twelve_duals_on_sampled_cones(self):
        rays = [tuple(s if j == i else 0 for j in range(12)) for i in range(12) for s in (1, -1)]
        cones = [tuple(2 * i + b for i, b in enumerate(bits)) for bits in product((0, 1), repeat=12)]
        f = validate_fan(make_fan(12, rays, cones))
        for ci in random.Random(12).sample(range(4096), 64):
            assert f.duals[ci] == dual_basis(cone_rays(f, f.max_cones[ci])), ci

    def test_cone_order_is_not_an_input_to_the_walk(self):
        def by_cone(f):
            f = validate_fan(f)
            cones = f.max_cones
            per_cone = dict(zip(cones, zip(f.duals, f.pairings)))
            return per_cone, {frozenset((cones[s], cones[t])) for s, _, t in f.walls}

        for seed in range(200):
            rng = random.Random(seed)
            polarized = random_polarized(seed)[0]
            f = transform_fan(polarized, random_unimodular(polarized.dim, rng))
            shuffled = list(f.max_cones)
            while shuffled == list(f.max_cones):
                rng.shuffle(shuffled)
            assert by_cone(make_fan(f.dim, f.rays, shuffled)) == by_cone(f), seed

    def test_invalid_fixtures_keep_their_violations(self):
        assert set(VIOLATIONS) == set(INVALID_FANS) - {"winding", "winding_suspension"}
        for name, expected in VIOLATIONS.items():
            with pytest.raises(InvalidFan) as ei:
                validate_fan(INVALID_FANS[name])
            assert ei.value.violations == expected, name

    @pytest.mark.parametrize("name, starts, non_smooth", [
        ("walk_meets_non_smooth", 1, 2),
        ("first_cone_non_smooth", 1, 1),
        ("two_components", 2, 0),
        ("not_smooth", 1, 1),
        # No walk crosses a wall with both cones on one side.
        ("one_side_of_a_wall", 2, 0),
        ("one_side_of_a_wall_3d", 2, 0),
    ])
    def test_one_hermite_reduction_per_start_and_non_smooth_cone(
        self, count_calls, name, starts, non_smooth
    ):
        duals = count_calls(lattice, "dual_basis")
        with pytest.raises(InvalidFan) as ei:
            validate_fan(INVALID_FANS[name])
        assert ei.value.violations == VIOLATIONS[name]
        assert sum(code == "NotSmooth" for code, _ in ei.value.violations) == non_smooth
        assert len(duals) == starts + non_smooth


P2_RAYS = ((1, 0), (0, 1), (-1, -1))
P2_CONES = ((0, 1), (1, 2), (0, 2))


class TestMakeFanGate:
    def test_exact_integers_pass_unchanged(self):
        f = make_fan(2, [[1, 0], [0, 1], [-1, -1]], [[1, 0], [2, 1], [2, 0]])
        assert (f.dim, f.rays, f.max_cones) == (2, P2_RAYS, P2_CONES)

    @pytest.mark.parametrize("rays, cones", [
        ([[1, 0], [0, 1], [-1, -1]], [[1, 0], [2, 1], [2, 0]]),
        (P2_RAYS, ((1, 0), (2, 1), (2, 0))),
    ], ids=["lists", "unsorted-tuples"])
    def test_a_fan_built_directly_is_normalized(self, rays, cones):
        # Fan itself is the gate, so a divisor on it lies on the same fan
        # and the fan is a hashable value.
        f = Fan(2, rays, cones)
        assert f == Fan(2, P2_RAYS, P2_CONES) and hash(f) == hash(Fan(2, P2_RAYS, P2_CONES))
        assert decide(f, divisor(f, (1, 1, 1))).status is Stability.STABLE

    def test_nothing_is_converted(self):
        # int() would turn every number here into P2's, which validates.
        with pytest.raises(TypeError, match="dim 2.7 is not an integer"):
            make_fan(2.7, [(1.9, 0), (0, "1"), (-1, -1)], [(0, 1), (1, 2), (0, 2.2)])

    @pytest.mark.parametrize("value", [2.0, 1.5, True, False, "1", None, Fraction(1)],
                             ids=repr)
    @pytest.mark.parametrize("what", ["dim", "ray entry", "cone index"])
    def test_each_position_takes_only_an_int(self, what, value):
        dim, rays, cones = 2, [list(r) for r in P2_RAYS], [list(c) for c in P2_CONES]
        if what == "dim":
            dim = value
        elif what == "ray entry":
            rays[1][1] = value
        else:
            cones[1][0] = value
        for build in (make_fan, Fan):
            with pytest.raises(TypeError) as ei:
                build(dim, rays, cones)
            assert str(ei.value) == f"{what} {value!r} is not an integer"

    def test_the_gate_runs_once_per_fan_built(self, monkeypatch, tmp_path):
        # validate_fan keeps the fields the gate checked; it never re-enters it.
        p1, p2 = construct_projective_space(1), construct_projective_space(2)
        path = tmp_path / "p2.json"
        path.write_text(json.dumps({"dim": 2, "rays": P2_RAYS, "max_cones": P2_CONES}))
        gate, calls = Fan.__post_init__, []

        def counting(self):
            calls.append(self)
            gate(self)

        monkeypatch.setattr(Fan, "__post_init__", counting)
        for build in (
            lambda: load_fan_file(str(path)),
            lambda: construct_projective_space(3),
            lambda: construct_hirzebruch(1),
            lambda: construct_proj_split(1, (1, 0, 0)),
            lambda: construct_p1_bundle(4, 2),
            lambda: construct_product(p2, p1),
        ):
            calls.clear()
            f = build()
            assert f.validated and len(calls) == 1
            raw = calls[0]
            assert f == raw and hash(f) == hash(raw) and repr(f) == repr(raw)


class TestConstructorsTakeOnlyInts:
    """A bool is an ``int`` subclass; the constructors' own checks reject
    it with their typed errors, before ``make_fan`` sees it."""

    @pytest.mark.parametrize("build, error", [
        (lambda: construct_projective_space(True), BadDimension),
        (lambda: construct_hirzebruch(True), BadTwist),
        (lambda: construct_proj_split(True, (1,)), BadDimension),
        (lambda: construct_proj_split(1, (True,)), BadTwist),
        (lambda: construct_p1_bundle(3, True), BadTwist),
    ], ids=["pn", "hirzebruch", "proj-split-base", "proj-split-twist", "p1-bundle-twist"])
    def test_bools_are_rejected(self, build, error):
        with pytest.raises(error):
            build()


class TestStructuralChecks:
    """The checks made before any geometry: the type checks by ``Fan``
    itself, which raise a ``TypeError`` naming the one bad position, and
    the value checks by ``validate_fan``."""

    @pytest.mark.parametrize("args, expected", [
        ((0, P2_RAYS, P2_CONES), ("BadDimension", "dim = 0")),
        ((2.0, P2_RAYS, P2_CONES), "dim 2.0 is not an integer"),
        ((True, ((1,), (-1,)), ((0,), (1,))), "dim True is not an integer"),
        ((2, (), P2_CONES), ("BadRay", "no rays")),
        ((2, ((1, 0), (0,), (-1, -1)), P2_CONES), ("BadRay", "ray 1 = (0,)")),
        ((2, ((1, 0), (0, 1, 0), (-1, -1)), P2_CONES), ("BadRay", "ray 1 = (0, 1, 0)")),
        ((2, ((1.0, 0), (0, 1), (-1, -1)), P2_CONES), "ray entry 1.0 is not an integer"),
        ((2, ((True, 0), (0, 1), (-1, -1)), P2_CONES), "ray entry True is not an integer"),
        ((2, P2_RAYS, ((False, 1), (1, 2), (0, 2))), "cone index False is not an integer"),
        ((2, P2_RAYS, ()), ("NotComplete", "no maximal cones")),
    ], ids=["dim-zero", "dim-float", "dim-bool", "no-rays", "short-ray", "long-ray",
            "float-entry", "bool-entry", "bool-index", "no-cones"])
    def test_each_check_reports_alone(self, args, expected):
        if isinstance(expected, str):
            with pytest.raises(TypeError) as ei:
                Fan(*args)
            assert str(ei.value) == expected
        else:
            with pytest.raises(InvalidFan) as ei:
                validate_fan(Fan(*args))
            assert ei.value.violations == (expected,)
