"""Jump data, degrees, and the admissibility validators."""

from fractions import Fraction
import random
import re
from itertools import islice
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chow_volumes, cone_carrier_problems
from toricstab.errors import (
    DimMismatch,
    IncomparableLevels,
    InconsistentRank,
    InvalidJumpData,
    RankMismatch,
    ToricStabError,
)
from toricstab.fan import (
    catalog_fano4,
    construct_hirzebruch,
    construct_product,
    construct_proj_split,
    construct_projective_space,
    validate_fan,
)
from toricstab.polytope import (
    VolumeTable,
    anticanonical,
    divisor,
    facet_volumes,
    polytope_from_divisor,
)
from toricstab.sheafdata import (
    JumpData,
    degree_monotonicity_check,
    degree_of,
    lambda_matrix_to_jump,
    rank_of,
    tangent_jump_data,
    validate_lambda_matrix,
)
from toricstab.testkit import (
    build_case_fan,
    fuzz_lambda,
    fuzz_lambda_matrix,
    golden_suite,
    random_polarized,
)


def volumes_of(f, coeffs=None):
    d = anticanonical(f) if coeffs is None else divisor(f, coeffs)
    return facet_volumes(polytope_from_divisor(d))


B5 = construct_proj_split(1, (1, 0, 0))
F1 = construct_hirzebruch(1)
F2 = construct_hirzebruch(2)


class TestJumpData:
    def test_tangent_surface(self):
        j = tangent_jump_data(F1)
        assert j.per_ray == (((-1, 1), (0, 1)),) * 4

    def test_tangent_line(self):
        j = tangent_jump_data(construct_projective_space(1))
        assert j.per_ray == (((-1, 1),), ((-1, 1),))

    def test_tangent_fourfold(self):
        j = tangent_jump_data(B5)
        assert j.per_ray == (((-1, 1), (0, 3)),) * 6
        assert rank_of(j) == 4

    def test_normalization_merges_and_sorts(self):
        j = JumpData([[(2, 1), (0, 1), (2, 1)], [(0, 2), (2, 1)]])
        assert j.per_ray == (((0, 1), (2, 2)), ((0, 2), (2, 1)))

    def test_level_below_minus_one(self):
        with pytest.raises(InvalidJumpData):
            JumpData([[(-2, 1)]])

    def test_double_jump_at_minus_one(self):
        with pytest.raises(InvalidJumpData):
            JumpData([[(-1, 2)]])

    def test_nonpositive_multiplicity(self):
        with pytest.raises(InvalidJumpData):
            JumpData([[(0, 0)]])

    @pytest.mark.parametrize("pair", [(True, 1), (0, True), (False, 2)], ids=repr)
    def test_bool_pairs_rejected(self, pair):
        with pytest.raises(InvalidJumpData, match="non-integer"):
            JumpData([[pair]])

    @pytest.mark.parametrize("pair", [(0, 1, 2), (0,), 5], ids=repr)
    def test_a_pair_of_the_wrong_shape_is_rejected(self, pair):
        with pytest.raises(InvalidJumpData, match=rf"ray 1: {re.escape(repr(pair))} is not a pair"):
            JumpData([[(0, 1)], [pair]])

    @pytest.mark.parametrize("per_ray", [[5], [None], 5, [[(0, 1)], 5]], ids=repr)
    def test_data_that_is_not_pairs_per_ray_is_rejected(self, per_ray):
        with pytest.raises(InvalidJumpData, match="is not an iterable of pair iterables"):
            JumpData(per_ray)

    @pytest.mark.parametrize("per_ray", [
        (((-2, 1),), ((0, 1),), ((0, 1),)),
        (((-1, 2),), ((0, 2),), ((0, 2),)),
        (((0.5, 1),), ((0, 1),), ((0, 1),)),
    ], ids=repr)
    def test_jump_data_built_directly_is_checked(self, per_ray):
        # JumpData itself is the gate, so no degree is ever read off data
        # that breaks its constraints.
        p2 = construct_projective_space(2)
        with pytest.raises(InvalidJumpData):
            degree_of(JumpData(per_ray), volumes_of(p2))

    def test_inconsistent_rank(self):
        with pytest.raises(InconsistentRank):
            JumpData([[(0, 2)], [(0, 2)], [(0, 3)]])

    @pytest.mark.parametrize("read, error", [
        (lambda vols: degree_of(JumpData([[(0, 2)], [(0, 2)], [(0, 3)]]), vols), InconsistentRank),
        (lambda vols: lambda_matrix_to_jump(((),)), InvalidJumpData),
        (lambda vols: rank_of(JumpData([[], [], []])), InvalidJumpData),
        (lambda vols: JumpData([]), InvalidJumpData),
    ], ids=["ranks-differ", "no-columns", "rank-zero", "no-rays"])
    def test_data_of_no_sheaf_is_rejected(self, read, error):
        # Every ray filters one space, so every ray sums to one rank >= 1.
        with pytest.raises(error):
            read(volumes_of(construct_projective_space(2)))


class TestDegreeAndSlope:
    def test_twisted_surface_tangent_degree(self):
        # volumes (b, a, b, a+mb); tangent degree = 2a + (m+2)b
        vols = volumes_of(F2, (1, 1, 3, 1))
        assert vols.values == (2, 2, 2, 6)
        j = tangent_jump_data(F2)
        assert degree_of(j, vols) == 12
        assert degree_of(j, vols) / rank_of(j) == 6

    def test_twisted_surface_destabilizer(self):
        vols = volumes_of(F2, (1, 1, 3, 1))
        j = lambda_matrix_to_jump(((0, -1, 0, -1),))
        assert degree_of(j, vols) == 8
        assert degree_of(j, vols) / rank_of(j) == 8

    def test_fourfold_bundle_tangent(self):
        vols = volumes_of(B5)
        j = tangent_jump_data(B5)
        assert degree_of(j, vols) == 512
        assert degree_of(j, vols) / rank_of(j) == 128

    def test_projective_space_slopes(self):
        for n in range(1, 7):
            f = construct_projective_space(n)
            vols = volumes_of(f)
            j = tangent_jump_data(f)
            mu = degree_of(j, vols) / rank_of(j)
            assert mu == Fraction((n + 1) ** n, n)

    def test_degree_against_volume_total(self):
        # tangent degree always equals (n-1)! * sum of facet volumes
        for f in (F1, F2, B5, construct_projective_space(3)):
            coeffs = None if f is not F2 else (1, 1, 3, 1)
            vols = volumes_of(f, coeffs)
            j = tangent_jump_data(f)
            assert degree_of(j, vols) == factorial(f.dim - 1) * sum(vols.values)

    def test_hand_built_volume_table(self):
        j = lambda_matrix_to_jump(((0, -1),))
        assert degree_of(j, VolumeTable(1, (1, 1), 1)) == 1

    def test_volume_table_ray_count_mismatch(self):
        with pytest.raises(DimMismatch):
            degree_of(tangent_jump_data(F1), VolumeTable(2, (1, 1, 1), 1))

    @given(st.integers(-1, 4), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_single_level_bump_linearity(self, level, ray):
        vols = volumes_of(F1)
        base = [0, 0, 0, 0]
        base[ray] = level
        bumped = list(base)
        bumped[ray] = level + 1
        d0 = degree_of(lambda_matrix_to_jump((base,)), vols)
        d1 = degree_of(lambda_matrix_to_jump((bumped,)), vols)
        assert d1 - d0 == -vols.values[ray]


def polarized_cases():
    """Goldens, the catalog under -K and 2*(-K), and random_polarized seeds
    0-199, as (validated fan, coefficients)."""
    for case in golden_suite():
        f = validate_fan(build_case_fan(case))
        base = [1] * len(f.rays) if case.divisor == "anticanonical" else case.divisor
        yield f, [Fraction(c) for c in base]
    for _, f in catalog_fano4():
        f = validate_fan(f)
        yield f, [1] * len(f.rays)
        yield f, [2] * len(f.rays)
    for seed in range(200):
        f, d = random_polarized(seed)
        yield f, d.coeffs


class TestIntegerDegree:
    def test_matches_chow_ring_volumes(self):
        # -(n-1)! * sum(level * multiplicity * vol_i) with vol_i from the
        # Chow ring, so the reference shares nothing with the volume table
        for idx, (f, coeffs) in enumerate(polarized_cases()):
            n = f.dim
            vols = volumes_of(f, coeffs)
            chow = chow_volumes(f, coeffs)
            data = [tangent_jump_data(f)]
            for r in range(1, n):
                mats = islice(fuzz_lambda_matrix(f, r, idx), 3)
                data += [lambda_matrix_to_jump(mat) for mat in mats]
            for j in data:
                expected = -factorial(n - 1) * sum(
                    (lam * e * vol for pairs, vol in zip(j.per_ray, chow) for lam, e in pairs),
                    Fraction(0),
                )
                assert degree_of(j, vols) == expected, (idx, j)


class TestLambdaVectorValidation:
    """Rank-one data is validated as the one-row matrix."""

    def test_valid_vertical_pair(self):
        for m in range(4):
            ok, probs = validate_lambda_matrix(construct_hirzebruch(m), ((0, -1, 0, -1),))
            assert ok and probs == ()

    def test_valid_but_unrealizable_horizontal_pair(self):
        # rays 0 and 2 span no cone, so the validator passes even though
        # no rank-one sheaf exists with this data
        ok, _ = validate_lambda_matrix(F1, ((-1, 0, -1, 0),))
        assert ok

    def test_cone_pair_rejected(self):
        ok, probs = validate_lambda_matrix(F1, ((-1, -1, 0, 0),))
        assert not ok
        assert any("(0, 1)" in p for p in probs)

    def test_length_mismatch(self):
        ok, probs = validate_lambda_matrix(F1, ((0, 0, 0),))
        assert not ok and probs

    def test_value_floor(self):
        ok, probs = validate_lambda_matrix(F1, ((0, -2, 0, 0),))
        assert not ok and any("below -1" in p for p in probs)

    def test_non_integer(self):
        ok, probs = validate_lambda_matrix(F1, ((0, Fraction(1, 2), 0, 0),))
        assert not ok


class TestLambdaMatrixValidation:
    def test_bool_entry_rejected(self):
        ok, probs = validate_lambda_matrix(construct_projective_space(2), ((True, 0, 0),))
        assert not ok and probs == ("entry (0, 0): non-integer True",)

    def test_rank3_certificate_shape(self):
        mat = (
            (-1, -1, -1, -1, 0, 0),
            (0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0),
        )
        ok, probs = validate_lambda_matrix(B5, mat)
        assert ok and probs == ()

    def test_double_minus_one_column(self):
        mat = ((-1, 0, 0, 0), (-1, 0, 0, 0))
        ok, probs = validate_lambda_matrix(F1, mat)
        assert not ok
        assert any("more than once" in p for p in probs)

    def test_unsorted_column(self):
        mat = ((1, 0, 0, 0), (0, 0, 0, 0))
        ok, probs = validate_lambda_matrix(F1, mat)
        assert not ok
        assert any("sorted" in p for p in probs)

    def test_rank2_sparse_minus_ones_pass(self):
        # rays 0, 4, 5 never lie in one cone of this fan, so no
        # cone-forming triple exists and the matrix is admissible
        # (admissible does not mean realizable).
        mat = (
            (-1, 0, 0, 0, -1, -1),
            (0, 0, 0, 0, 0, 0),
        )
        ok, probs = validate_lambda_matrix(B5, mat)
        assert ok, probs

    def test_cone_forming_row_rejected_rank1(self):
        mat = ((-1, -1, 0, 0),)
        ok, probs = validate_lambda_matrix(F1, mat)
        assert not ok
        assert any("span a cone" in p for p in probs)

    def test_tangent_matrix_is_admissible(self):
        mat = ((-1,) * 6, (0,) * 6, (0,) * 6, (0,) * 6)
        assert lambda_matrix_to_jump(mat) == tangent_jump_data(B5)
        ok, _ = validate_lambda_matrix(B5, mat)
        assert ok

    def test_shape_mismatch(self):
        ok, probs = validate_lambda_matrix(F1, ((0, 0),))
        assert not ok

    def test_no_rows(self):
        assert validate_lambda_matrix(F1, ()) == (False, ("matrix needs at least one row",))

    def test_cone_rule_matches_the_subset_scan(self):
        # Fuzzed admissible matrices, then corrupted copies: -1 put on top of
        # random columns (columns stay sorted), a lower row turned all -1
        # (unsorted columns, two -1s), and random entries set to -1.
        fans = [f for _, f in catalog_fano4()] + [random_polarized(s)[0] for s in range(50)]
        flagged = 0
        for seed, f in enumerate(fans):
            rng = random.Random(seed)
            p = len(f.rays)
            for rank in range(1, f.dim):
                for mat in islice(fuzz_lambda_matrix(f, rank, seed), 2):
                    rows = [list(row) for row in mat]
                    top = [list(rows[0])]
                    for j in range(p):
                        if rng.random() < 0.6:
                            top[0][j] = -1
                    lower = [list(row) for row in rows]
                    lower[-1] = [-1] * p
                    scattered = [[-1 if rng.random() < 0.4 else x for x in row] for row in rows]
                    for m in (rows, top + rows[1:], lower, scattered):
                        ok, probs = validate_lambda_matrix(f, m)
                        expected = cone_carrier_problems(f, m)
                        assert [x for x in probs if "span a cone" in x] == expected
                        flagged += bool(expected)
                        if m is rows:
                            assert ok and expected == []
            # Rank-one vectors from the fuzzer, then copies with -1 put on
            # random rays.
            for lam in islice(fuzz_lambda(f, seed), 4):
                corrupted = tuple(-1 if rng.random() < 0.4 else x for x in lam)
                for vec in (lam, corrupted):
                    ok, probs = validate_lambda_matrix(f, (vec,))
                    expected = cone_carrier_problems(f, (vec,))
                    assert [x for x in probs if "span a cone" in x] == expected
                    flagged += bool(expected)
                    if vec is lam:
                        assert ok and expected == []
        assert flagged > 100

    def test_all_minus_one_row_on_a_product_of_nine_lines(self):
        # Every one of the 512 maximal cones holds 9 = r + 1 carriers; the
        # subset scan would test all C(18, 9) = 48620 subsets.
        p1 = construct_projective_space(1)
        f = p1
        for _ in range(8):
            f = construct_product(f, p1)
        mat = ((-1,) * 18,) + ((0,) * 18,) * 7
        ok, probs = validate_lambda_matrix(f, mat)
        assert not ok and len(probs) == 512 == len(f.max_cones)
        assert probs[0] == (
            "rays (0, 2, 4, 6, 8, 10, 12, 14, 16) span a cone but all carry -1 in row 0"
        )


class TestConversions:
    def test_vector_round_trip(self):
        lam = (0, -1, 2, 0)
        j = lambda_matrix_to_jump((lam,))
        assert rank_of(j) == 1
        assert j.per_ray == (((0, 1),), ((-1, 1),), ((2, 1),), ((0, 1),))

    def test_matrix_round_trip(self):
        mat = ((-1, 0, 0, 0), (0, 0, 1, 2))
        j = lambda_matrix_to_jump(mat)
        assert rank_of(j) == 2
        assert j.per_ray == (
            ((-1, 1), (0, 1)),
            ((0, 2),),
            ((0, 1), (1, 1)),
            ((0, 1), (2, 1)),
        )

    def test_matrix_sorts_columns(self):
        j = lambda_matrix_to_jump(((2, 0), (0, 1)))
        assert j.per_ray == (((0, 1), (2, 1)), ((0, 1), (1, 1)))

    def test_vector_keeps_a_fractional_level(self):
        with pytest.raises(InvalidJumpData, match="non-integer"):
            lambda_matrix_to_jump(((Fraction(3, 2), -1),))

    def test_matrix_with_a_longer_row(self):
        with pytest.raises(InvalidJumpData, match="unequal"):
            lambda_matrix_to_jump(((0,), (0, 1)))

    def test_matrix_with_a_shorter_row(self):
        with pytest.raises(InvalidJumpData, match="unequal"):
            lambda_matrix_to_jump(((0, -1), (0,)))


class TestDegreeMonotonicity:
    def test_dominating_data_has_smaller_degree(self):
        vols = volumes_of(F2, (1, 1, 3, 1))
        j1 = lambda_matrix_to_jump(((0, -1, 0, 0),))
        j2 = lambda_matrix_to_jump(((0, -1, 0, -1),))
        assert degree_monotonicity_check(j1, j2, vols)

    def test_equal_data(self):
        vols = volumes_of(F1)
        j = tangent_jump_data(F1)
        assert degree_monotonicity_check(j, j, vols)

    def test_rank_mismatch(self):
        vols = volumes_of(F1)
        with pytest.raises(RankMismatch):
            degree_monotonicity_check(
                tangent_jump_data(F1), lambda_matrix_to_jump(((0, 0, 0, 0),)), vols
            )

    def test_different_ray_counts(self):
        with pytest.raises(DimMismatch, match="different ray counts"):
            degree_monotonicity_check(tangent_jump_data(F1),
                                      tangent_jump_data(construct_projective_space(2)),
                                      volumes_of(F1))

    def test_incomparable_rejected(self):
        vols = volumes_of(F1)
        j1 = lambda_matrix_to_jump(((0, -1, 0, 0),))
        j2 = lambda_matrix_to_jump(((-1, 0, 0, 0),))
        with pytest.raises(ValueError):
            degree_monotonicity_check(j1, j2, vols)
        with pytest.raises(ToricStabError):
            degree_monotonicity_check(j1, j2, vols)

    def test_cumulative_counts_agree_with_expanded_levels(self):
        # The levels expanded one by one, in ascending order, and compared
        # pointwise: the definition, on small fuzzed same-rank data.
        vols = volumes_of(F1)
        rng = random.Random(2026)

        def draw(rank):
            per_ray = []
            for _ in F1.rays:
                levels = [rng.randint(0, 4) for _ in range(rank)]
                if rng.random() < 0.5:
                    levels[0] = -1
                per_ray.append([(lam, 1) for lam in levels])
            return JumpData(per_ray)

        def expand(pairs):
            return [lam for lam, e in pairs for _ in range(e)]

        outcomes = set()
        for _ in range(400):
            rank = rng.randint(1, 4)
            j1, j2 = draw(rank), draw(rank)
            comparable = all(
                all(a >= b for a, b in zip(expand(p1), expand(p2)))
                for p1, p2 in zip(j1.per_ray, j2.per_ray)
            )
            outcomes.add(comparable)
            if comparable:
                expected = degree_of(j1, vols) <= degree_of(j2, vols)
                assert degree_monotonicity_check(j1, j2, vols) is expected
            else:
                with pytest.raises(IncomparableLevels):
                    degree_monotonicity_check(j1, j2, vols)
        assert outcomes == {True, False}

    def test_huge_multiplicities_answer(self):
        # Time independent of the multiplicities: 10^12 copies of a level.
        vols = volumes_of(F1)
        big = 10**12
        low = JumpData([[(-1, 1), (0, big - 1)]] * 4)
        high = JumpData([[(0, big)]] * 4)
        assert degree_monotonicity_check(high, low, vols)
        with pytest.raises(IncomparableLevels, match="ray 0"):
            degree_monotonicity_check(low, high, vols)

    @given(
        st.lists(st.integers(-1, 3), min_size=4, max_size=4),
        st.lists(st.integers(0, 2), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_dominating_pairs(self, lam, raises):
        vols = volumes_of(F1)
        upper = tuple(v + d for v, d in zip(lam, raises))
        j1 = lambda_matrix_to_jump((upper,))
        j2 = lambda_matrix_to_jump((tuple(lam),))
        assert degree_monotonicity_check(j1, j2, vols)
