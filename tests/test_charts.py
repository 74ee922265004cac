"""Chart expansions, regularity, and the rank-one existence oracle."""

import dataclasses
import random
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowups import random_blowup
from oracles import in_semigroup, rank_one_by_charts, skewed_products, weight_space_dim
from toricstab import charts, lattice
from toricstab.charts import (
    Chart,
    MonomialDerivation,
    chart_of,
    expand_in_chart,
    is_regular,
    rank_one_exists,
    reexpand,
)
from toricstab.errors import (
    DimMismatch,
    InvalidFan,
    InvalidLambda,
    NotMaximal,
    ZeroVector,
)
from toricstab.fan import (
    catalog_fano4,
    construct_hirzebruch,
    construct_proj_split,
    construct_product,
    construct_projective_space,
    make_fan,
    validate_fan,
)
from toricstab.lattice import dot, hermite_canonical, line_of
from toricstab.sheafdata import tangent_jump_data, validate_lambda_matrix
from toricstab.testkit import (
    fuzz_lambda, fuzz_lambda_matrix, random_polarized, random_unimodular, transform_fan,
)

B5 = construct_proj_split(1, (1, 0, 0))
F1 = construct_hirzebruch(1)
F2 = construct_hirzebruch(2)
P2 = construct_projective_space(2)


def D(u, v):
    return MonomialDerivation(tuple(u), tuple(v))


class TestChartOf:
    def test_surface_duals(self):
        assert chart_of(F2, (0, 1)).dual == ((1, 0), (0, 1))
        assert chart_of(F2, (1, 2)).dual == ((2, 1), (-1, 0))
        assert chart_of(F1, (1, 2)).dual == ((1, 1), (-1, 0))

    def test_fourfold_standard_chart(self):
        c = chart_of(B5, (0, 1, 2, 4))
        assert c.dual == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def test_accepts_unsorted_cone(self):
        assert chart_of(F1, (1, 0)).cone == (0, 1)

    def test_a_chart_is_its_cone_data_alone(self):
        # F1 and F2 share the cone (0, 1) and its rays, and differ elsewhere.
        assert [f.name for f in dataclasses.fields(Chart)] == ["cone", "rays", "dual"]
        assert chart_of(F1, (0, 1)) == chart_of(F2, (0, 1))
        assert hash(chart_of(F1, (0, 1))) == hash(chart_of(F2, (0, 1)))

    def test_not_maximal(self):
        with pytest.raises(NotMaximal):
            chart_of(F1, (0,))
        with pytest.raises(NotMaximal):
            chart_of(F1, (0, 2))

    @pytest.mark.parametrize("sigma", [(0, 1.0), (0, "1"), (True, 0)], ids=repr)
    def test_only_integer_indices_name_a_cone(self, sigma):
        with pytest.raises(NotMaximal):
            chart_of(P2, sigma)

    def test_the_cone_is_the_fans_own(self):
        assert chart_of(P2, (1, 0)).cone is P2.max_cones[P2.max_cones.index((0, 1))]

    def test_not_smooth(self):
        # A raw fan is validated first, as rank_one_exists and divisors do.
        f = make_fan(2, ((1, 0), (1, 2)), ((0, 1),))
        with pytest.raises(InvalidFan) as ei:
            chart_of(f, (0, 1))
        assert "NotSmooth" in {code for code, _ in ei.value.violations}

    def test_raw_fan_reads_the_validated_duals(self, count_calls):
        raw = make_fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
        walks = count_calls(lattice, "dual_basis")
        for sigma in P2.max_cones:
            assert chart_of(raw, sigma) == chart_of(P2, sigma)
        # One walk validates raw in place, whatever the number of charts.
        assert len(walks) == 1 and raw.validated

    def test_duality_pairing_is_identity(self):
        for _, f in catalog_fano4():
            for sigma in f.max_cones:
                c = chart_of(f, sigma)
                for i, m in enumerate(c.dual):
                    assert [dot(m, r) for r in c.rays] == [
                        1 if j == i else 0 for j in range(len(c.rays))
                    ]


class TestExpansion:
    def test_vertical_section_on_first_chart(self):
        # chi((-1,k)) d_(1,0) is t2^k d/dt1
        for k in range(4):
            terms = expand_in_chart(D((-1, k), (1, 0)), chart_of(F2, (0, 1)))
            assert terms == ((1, (0, k), 0),)

    def test_fiber_translation_on_fourfold(self):
        terms = expand_in_chart(D((0, 0, 0, -1), (0, 0, 0, 1)), chart_of(B5, (0, 1, 2, 4)))
        assert terms == ((1, (0, 0, 0, 0), 3),)

    def test_inverted_fiber_field(self):
        # chi(e4) d_(1,0,0,-1) = t1 t4 d/dt1 - t4^2 d/dt4
        terms = expand_in_chart(D((0, 0, 0, 1), (1, 0, 0, -1)), chart_of(B5, (0, 1, 2, 4)))
        assert terms == ((1, (1, 0, 0, 1), 0), (-1, (0, 0, 0, 2), 3))

    def test_rational_direction(self):
        terms = expand_in_chart(D((0, 0), (Fraction(1, 2), 0)), chart_of(P2, (0, 1)))
        assert terms == ((Fraction(1, 2), (1, 0), 0),)

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroVector):
            D((0, 0), (0, 0))

    def test_weight_longer_than_direction_rejected(self):
        with pytest.raises(DimMismatch):
            expand_in_chart(D((0, 0, 5), (1, 0)), chart_of(F1, (1, 2)))


class TestRegularity:
    def test_double_pole(self):
        assert not is_regular(D((-2, 0), (1, 0)), chart_of(F2, (0, 1)))

    def test_base_translation_regular_on_far_chart(self):
        assert is_regular(D((-1, 0), (1, 0)), chart_of(F1, (1, 2)))

    def test_vertical_unit_field_has_pole_at_infinity(self):
        for m in (1, 2, 3):
            f = construct_hirzebruch(m)
            assert is_regular(D((0, -1), (0, 1)), chart_of(f, (0, 1)))
            assert not is_regular(D((0, -1), (0, 1)), chart_of(f, (1, 2)))

    def test_inverted_coordinate_field_on_fourfold(self):
        d = D((0, 0, 0, 1), (1, 0, 0, -1))
        assert is_regular(d, chart_of(B5, (1, 2, 3, 5)))
        assert is_regular(d, chart_of(B5, (0, 1, 2, 4)))

    def test_coordinate_fields_and_their_overshoots(self):
        for _, f in catalog_fano4():
            for sigma in f.max_cones:
                c = chart_of(f, sigma)
                for i, m in enumerate(c.dual):
                    neg = tuple(-x for x in m)
                    assert is_regular(D(neg, c.rays[i]), c)
                    for mj in c.dual:
                        u = tuple(-x - y for x, y in zip(m, mj))
                        assert not is_regular(D(u, c.rays[i]), c)

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_semigroup_closed_under_addition(self, x, y, p, q):
        c = chart_of(F1, (1, 2))
        u, w = (x, y), (p + q, q)  # second point: <.,(0,1)> = q, <.,(-1,1)> = -p
        if in_semigroup(c, u) and in_semigroup(c, w):
            assert in_semigroup(c, tuple(a + b for a, b in zip(u, w)))


class TestWeightSpaceDim:
    def test_plane_examples(self):
        assert weight_space_dim(P2, (0, 1), (0, 0)) == 2
        assert weight_space_dim(P2, (0, 1), (-1, 0)) == 1
        assert weight_space_dim(P2, (0, 1), (-1, -1)) == 0

    def test_not_maximal(self):
        with pytest.raises(NotMaximal):
            weight_space_dim(P2, (0,), (0, 0))

    def test_weight_of_wrong_length_rejected(self):
        with pytest.raises(DimMismatch):
            weight_space_dim(F1, (1, 2), (0, 0, 7))

    def test_equals_regular_basis_derivation_count(self):
        rng = random.Random(7)
        for f in (P2, F1, F2, B5):
            for sigma in f.max_cones:
                c = chart_of(f, sigma)
                for _ in range(5):
                    u = tuple(rng.randint(-2, 2) for _ in range(f.dim))
                    direct = weight_space_dim(f, sigma, u)
                    counted = sum(
                        1 for ray in c.rays if is_regular(D(u, ray), c)
                    )
                    assert direct == counted

    def test_jumps_reproduce_tangent_data(self):
        fans = [construct_projective_space(1), P2, construct_hirzebruch(0), F1, F2, B5]
        for f in fans:
            expected = dict(tangent_jump_data(f).per_ray[0])
            for ray_index in range(len(f.rays)):
                cones = [s for s in f.max_cones if ray_index in s]
                for sigma in cones:
                    c = chart_of(f, sigma)
                    pos = sigma.index(ray_index)
                    for level in (-1, 0):
                        dims = []
                        for shift in (level, level - 1):
                            u = [0] * f.dim
                            for i, m in enumerate(c.dual):
                                w = shift if i == pos else 5
                                for k in range(f.dim):
                                    u[k] += w * m[k]
                            dims.append(weight_space_dim(f, sigma, tuple(u)))
                        assert dims[0] - dims[1] == expected.get(level, 0)


class TestRankOneExists:
    def test_vertical_witness(self):
        for m in range(4):
            f = construct_hirzebruch(m)
            assert rank_one_exists(f, (0, -1, 0, -1)) == (0, 1)

    def test_horizontal_pair_fails_when_twisted(self):
        for m in (1, 2, 3):
            assert rank_one_exists(construct_hirzebruch(m), (-1, 0, -1, 0)) is None
        # untwisted, the two rays really span a line and the sheaf exists
        assert rank_one_exists(construct_hirzebruch(0), (-1, 0, -1, 0)) == (1, 0)

    def test_fourfold_fiber_pair_fails(self):
        assert rank_one_exists(B5, (0, 0, 0, 0, -1, -1)) is None

    def test_no_poles_always_realizable(self):
        assert rank_one_exists(F1, (0, 0, 0, 0)) is not None
        assert rank_one_exists(F1, (0, 1, 0, 2)) is not None
        assert rank_one_exists(P2, (2, 0, 1)) is not None

    def test_invalid_data_rejected(self):
        with pytest.raises(InvalidLambda):
            rank_one_exists(F1, (-1, -1, 0, 0))

    def test_bool_entry_rejected(self):
        with pytest.raises(InvalidLambda, match="non-integer True"):
            rank_one_exists(P2, (True, 0, -1))

    def test_raw_fan_is_validated_once(self, count_calls):
        raw = transform_fan(F1, random_unimodular(2, random.Random(3)))
        f = validate_fan(transform_fan(F1, random_unimodular(2, random.Random(3))))
        walks = count_calls(lattice, "dual_basis")
        for lam in ((0, -1, 0, -1), (-1, 0, -1, 0), (0, 1, 0, 2)):
            assert rank_one_exists(raw, lam) == rank_one_exists(f, lam)
        # One walk for the raw fan however many requests, none for the
        # validated one.
        assert len(walks) == 1
        assert rank_one_exists(raw, (0, -1, 0, -1)) is not None

    def test_incomplete_raw_fan_is_rejected(self):
        raw = make_fan(2, P2.rays, [(0, 1), (1, 2)])
        with pytest.raises(InvalidFan) as ei:
            rank_one_exists(raw, (0, 0, 0))
        assert {code for code, _ in ei.value.violations} == {"NotComplete"}

    def test_non_smooth_raw_fan_is_rejected(self):
        raw = make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(InvalidFan) as ei:
            rank_one_exists(raw, (0, 0, 0))
        assert ei.value.violations == (("NotSmooth", "cone (0, 2) has |det| = 2"),)

    def test_matches_the_per_line_reference(self):
        fans = [f for _, f in catalog_fano4()] + [validate_fan(f) for f in skewed_products()]
        fans += [random_polarized(seed)[0] for seed in range(50)]
        outcomes = set()
        for i, f in enumerate(fans):
            lams = islice(fuzz_lambda(f, 900 + i), 60 if i < 15 else 20)
            rows = (mat[0] for mat in islice(fuzz_lambda_matrix(f, 1, 1300 + i), 20))
            for lam in chain(lams, rows):
                witness = rank_one_exists(f, lam)
                assert witness == rank_one_by_charts(f, lam), (i, lam)
                outcomes.add(witness is None)
        assert outcomes == {True, False}
        assert rank_one_exists(B5, (0, 0, 0, 0, -1, -1)) is None
        assert rank_one_by_charts(B5, (0, 0, 0, 0, -1, -1)) is None

    def test_matches_the_per_line_reference_on_blowups(self):
        outcomes = set()
        for seed in range(50):
            f = random_blowup(seed)[0]
            for lam in islice(fuzz_lambda(f, 2000 + seed), 5):
                witness = rank_one_exists(f, lam)
                assert witness == rank_one_by_charts(f, lam), (seed, lam)
                outcomes.add(witness is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("build, kept", [
        (lambda: reduce(construct_product, [construct_projective_space(1)] * 8), 9),
        (lambda: validate_fan(skewed_products()[4]), 7),
    ], ids=["P1^8", "skewed-F1^3"])
    def test_only_the_charts_of_a_cover_are_tested(self, count_calls, build, kept):
        f = build()
        calls = count_calls(charts, "_regular")
        # The first line, that of ray 0, witnesses data without poles, so
        # each kept chart is tested once.
        assert rank_one_exists(f, (0,) * len(f.rays)) == line_of(f.rays[0])
        assert len(calls) == kept <= len(f.rays) - f.dim + 1
        assert {ray for _, _, rays, _ in calls for ray in rays} == set(f.rays)

    def test_a_cover_must_reach_every_ray(self):
        # The charts of the cones through ray 0 reach rays 0, 1 and 3 of F1,
        # and accept the horizontal line; the chart of (1, 2) rejects it.
        lam = (-1, 0, -1, 0)

        def accepts(sigma):
            c = chart_of(F1, sigma)
            u = tuple(sum(lam[i] * m[k] for i, m in zip(c.cone, c.dual)) for k in range(2))
            return is_regular(D(u, (1, 0)), c)

        assert accepts((0, 1)) and accepts((0, 3))
        assert not accepts((1, 2))
        assert rank_one_exists(F1, lam) is None

    def test_a_chart_allows_only_the_line_of_its_pole(self):
        # The argument of rank_one_exists, chart by chart: a chart accepts
        # every line when none of its rays carries -1, and otherwise only
        # the line of the one ray that does.
        fans = [f for _, f in catalog_fano4()] + [construct_hirzebruch(m) for m in range(6)]
        fans += [random_polarized(seed)[0] for seed in range(20)]
        checks, outcomes = 0, set()
        for i, f in enumerate(fans):
            lines = {line_of(ray) for ray in f.rays}
            for lam in islice(fuzz_lambda(f, 3100 + i), 5):
                for sigma in f.max_cones:
                    c = chart_of(f, sigma)
                    u = tuple(sum(lam[j] * m[k] for j, m in zip(c.cone, c.dual))
                              for k in range(f.dim))
                    poles = {line_of(f.rays[j]) for j in c.cone if lam[j] == -1}
                    for v in lines:
                        accepted = is_regular(D(u, v), c)
                        assert accepted == (not poles or poles == {v}), (i, lam, sigma, v)
                        outcomes.add((bool(poles), accepted))
                        checks += 1
        assert outcomes == {(False, True), (True, True), (True, False)}
        assert checks == 4885

    def test_agrees_with_span_criterion(self):
        rng = random.Random(20260816)
        fans = [f for _, f in catalog_fano4()]
        fans += [construct_hirzebruch(m) for m in range(6)]
        for f in fans:
            checked = 0
            while checked < 30:
                lam = [rng.choice((-1, -1, 0, 0, 1, 2, 3)) for _ in f.rays]
                for i in range(len(lam)):
                    for j in range(i):
                        bad = (
                            lam[i] == lam[j] == -1
                            and len(hermite_canonical([f.rays[i], f.rays[j]])) == 2
                        )
                        # leave genuine line-pairs alone, zero out others
                        if bad and not validate_lambda_matrix(f, (lam,))[0]:
                            lam[i] = 0
                if not validate_lambda_matrix(f, (lam,))[0]:
                    continue
                checked += 1
                negatives = [f.rays[i] for i, l in enumerate(lam) if l == -1]
                span_dim = len(hermite_canonical(negatives)) if negatives else 0
                witness = rank_one_exists(f, tuple(lam))
                assert (witness is not None) == (span_dim <= 1), (lam,)

    def test_line_is_the_hermite_basis_of_its_span(self):
        rng = random.Random(20261018)
        vectors = []
        while len(vectors) < 20000:
            v = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 7)))
            if any(v):
                vectors.append(v)
        vectors += [(1,) * n for n in range(1, 8)]
        for seed in range(300):
            vectors += random_polarized(seed)[0].rays
        for v in vectors:
            assert line_of(v) == hermite_canonical([v])[0], v


def _normalized(terms):
    return {(e, i): c for c, e, i in terms}


class TestChartIndependence:
    def derivations_for(self, f):
        out = [D((0,) * f.dim, ray) for ray in f.rays]
        out.append(D((0,) * f.dim, tuple(range(1, f.dim + 1))))
        return out

    def test_global_fields_agree_on_all_chart_pairs(self):
        fans = [f for _, f in catalog_fano4()] + [F2]
        for f in fans:
            charts = [chart_of(f, s) for s in f.max_cones]
            for d in self.derivations_for(f):
                for ca, cb in combinations(charts, 2):
                    if not (is_regular(d, ca) and is_regular(d, cb)):
                        continue
                    pushed = reexpand(expand_in_chart(d, ca), ca, cb)
                    assert _normalized(pushed) == _normalized(expand_in_chart(d, cb))

    def test_named_fields(self):
        cases = [
            (B5, D((0, 0, 0, 1), (1, 0, 0, -1))),
            (F2, D((-1, 1), (1, 0))),
            (F2, D((0, -1), (0, 1))),
        ]
        for f, d in cases:
            charts = [chart_of(f, s) for s in f.max_cones]
            regular_on = [c for c in charts if is_regular(d, c)]
            assert regular_on
            for ca, cb in combinations(regular_on, 2):
                pushed = reexpand(expand_in_chart(d, ca), ca, cb)
                assert _normalized(pushed) == _normalized(expand_in_chart(d, cb))

    def test_reexpansion_is_involutive(self):
        ca = chart_of(F1, (0, 1))
        cb = chart_of(F1, (1, 2))
        d = D((0, 0), (1, 1))
        there = reexpand(expand_in_chart(d, ca), ca, cb)
        back = reexpand(there, cb, ca)
        assert _normalized(back) == _normalized(expand_in_chart(d, ca))


class TestRankThreeSubsheafFields:
    """The rank-3 destabilizer of B5 is generated per chart by coordinate
    fields whose directions span the hyperplane W through the first four
    rays; re-expanding any of those fields in any other chart never
    produces a component transverse to W."""

    W_RAYS = (0, 1, 2, 3)

    def test_each_cone_meets_the_hyperplane_in_three_rays(self):
        for sigma in B5.max_cones:
            assert len([i for i in sigma if i in self.W_RAYS]) == 3

    def test_fields_stay_inside_the_hyperplane(self):
        charts = [chart_of(B5, s) for s in B5.max_cones]
        for source in charts:
            in_w = [k for k, i in enumerate(source.cone) if i in self.W_RAYS]
            assert len(in_w) == 3
            for k in in_w:
                d = D(tuple(-x for x in source.dual[k]), B5.rays[source.cone[k]])
                for target in charts:
                    for _, _, j in expand_in_chart(d, target):
                        assert target.cone[j] in self.W_RAYS

    def test_fields_generate_rank_three_on_each_chart(self):
        for sigma in B5.max_cones:
            chart = chart_of(B5, sigma)
            dirs = [
                B5.rays[i] for i in sigma if i in self.W_RAYS
            ]
            assert len(hermite_canonical(dirs)) == 3
