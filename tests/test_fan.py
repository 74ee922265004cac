"""Fan validation and the standard constructors."""

import pytest

from toricstab.errors import BadDimension, BadIndex, BadTwist, InvalidFan
from toricstab.fan import (
    Fan,
    catalog_fano4,
    construct_hirzebruch,
    construct_p1_bundle,
    construct_proj_split,
    construct_product,
    construct_projective_space,
    is_cone,
    make_fan,
    validate_fan,
)


def codes_of(excinfo) -> set:
    return {code for code, _ in excinfo.value.violations}


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
        f = make_fan(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(InvalidFan) as ei:
            validate_fan(f)
        assert "NonPrimitiveRay" in codes_of(ei)

    def test_duplicate_ray(self):
        f = make_fan(2, [(1, 0), (0, 1), (1, 0)], [(0, 1), (1, 2)])
        with pytest.raises(InvalidFan) as ei:
            validate_fan(f)
        assert "DuplicateRay" in codes_of(ei)

    def test_missing_cone_breaks_completeness(self):
        f = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        validate_fan(f)
        g = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
        with pytest.raises(InvalidFan) as ei:
            validate_fan(g)
        assert "NotComplete" in codes_of(ei)
        assert "UnusedRay" not in codes_of(ei)

    def test_not_smooth(self):
        f = make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(InvalidFan) as ei:
            validate_fan(f)
        assert codes_of(ei) == {"NotSmooth"}
        assert any("(0, 2)" in detail for _, detail in ei.value.violations)

    def test_overlapping_cones(self):
        f = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
        with pytest.raises(InvalidFan) as ei:
            validate_fan(f)
        assert "BadIntersection" in codes_of(ei)
        assert "NotComplete" in codes_of(ei)

    def test_cones_on_one_side_of_a_wall(self):
        f = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2)])
        with pytest.raises(InvalidFan) as ei:
            validate_fan(f)
        assert ei.value.violations == (
            ("NotComplete", "wall (0,) lies in 1 maximal cone(s)"),
            ("NotComplete", "cones (0, 1) and (1, 2) lie on one side of wall (1,)"),
            ("NotComplete", "wall (2,) lies in 1 maximal cone(s)"),
            ("NotComplete", "maximal cones are not connected through walls"),
            ("BadIntersection", "cones (0, 1) and (1, 2) intersect outside the face "
             "spanned by their common rays (1,)"),
        )
        g = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [(0, 1, 2), (0, 1, 3)])
        with pytest.raises(InvalidFan) as ei:
            validate_fan(g)
        assert ei.value.violations == (
            ("NotComplete", "cones (0, 1, 2) and (0, 1, 3) lie on one side of wall (0, 1)"),
            ("NotComplete", "wall (0, 2) lies in 1 maximal cone(s)"),
            ("NotComplete", "wall (0, 3) lies in 1 maximal cone(s)"),
            ("NotComplete", "wall (1, 2) lies in 1 maximal cone(s)"),
            ("NotComplete", "wall (1, 3) lies in 1 maximal cone(s)"),
            ("NotComplete", "maximal cones are not connected through walls"),
            ("BadIntersection", "cones (0, 1, 2) and (0, 1, 3) intersect outside the face "
             "spanned by their common rays (0, 1)"),
        )

    def test_unused_ray(self):
        f = make_fan(
            2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (0, 2)]
        )
        with pytest.raises(InvalidFan) as ei:
            validate_fan(f)
        assert "UnusedRay" in codes_of(ei)

    def test_bad_cone_index(self):
        f = make_fan(2, [(1, 0), (0, 1)], [(0, 5)])
        with pytest.raises(InvalidFan) as ei:
            validate_fan(f)
        assert "BadIndex" in codes_of(ei)

    def test_duplicate_cone(self):
        f = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 0), (1, 2), (0, 2)])
        with pytest.raises(InvalidFan) as ei:
            validate_fan(f)
        assert "DuplicateCone" in codes_of(ei)

    def test_line_fan(self):
        f = validate_fan(make_fan(1, [(1,), (-1,)], [(0,), (1,)]))
        assert f.validated
        g = make_fan(1, [(1,)], [(0,)])
        with pytest.raises(InvalidFan) as ei:
            validate_fan(g)
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
    def test_faces_of_plane_fan(self):
        f = construct_projective_space(2)
        assert is_cone(f, ())
        assert is_cone(f, (0,))
        assert is_cone(f, (0, 1))
        assert not is_cone(f, (0, 1, 2))

    def test_bad_indices(self):
        f = construct_projective_space(2)
        with pytest.raises(BadIndex):
            is_cone(f, (0, 0))
        with pytest.raises(BadIndex):
            is_cone(f, (7,))

    def test_non_face_pair(self):
        # opposite rays of the quadric never span a cone
        f = construct_hirzebruch(0)
        assert not is_cone(f, (0, 2))
        assert not is_cone(f, (1, 3))
