"""Tests for the shared fixture kit: golden cases, fuzzers, random fans."""

import dataclasses
import time
from itertools import islice

import pytest

from oracles import _inverse
from toricstab.fan import construct_hirzebruch, is_cone, validate_fan
from toricstab.polytope import is_ample, polytope_from_divisor
from toricstab.sheafdata import validate_lambda_matrix
from toricstab.testkit import (
    GoldenCase,
    build_case_fan,
    compare_golden,
    fuzz_lambda,
    fuzz_lambda_matrix,
    golden_suite,
    random_polarized,
    random_unimodular,
    transform_fan,
)

SUITE = golden_suite()


class TestGoldenSuite:
    def test_suite_is_large_enough(self):
        assert len(SUITE) >= 25

    def test_names_are_unique(self):
        names = [c.name for c in SUITE]
        assert len(set(names)) == len(names)

    def test_every_case_has_a_derivation(self):
        for case in SUITE:
            assert case.derivation.strip()

    @pytest.mark.parametrize("case", SUITE, ids=lambda c: c.name)
    def test_case_passes(self, case):
        diffs = compare_golden(case)
        assert not diffs, "\n".join(diffs)

    def test_tampered_case_reports_field_diff(self):
        case = dataclasses.replace(SUITE[1], mu_tx="999")
        diffs = compare_golden(case)
        assert len(diffs) == 1
        assert "mu_tx" in diffs[0]
        assert case.derivation in diffs[0]

    def test_tampered_certificate_reports_diff(self):
        case = next(c for c in SUITE if c.certificate_rank is not None)
        broken = dataclasses.replace(case, certificate_rank=None)
        diffs = compare_golden(broken)
        assert diffs and "certificate" in diffs[0]

    def test_stable_case_expects_no_certificate(self):
        case = next(c for c in SUITE if c.verdict == "stable" and c.fan_kind == "pn")
        broken = dataclasses.replace(
            case, certificate_rank=1, certificate_rays=(0,), certificate_slope="1"
        )
        assert compare_golden(broken)

    def test_case_fans_validate(self):
        for case in SUITE:
            f = build_case_fan(case)
            assert validate_fan(f) == f


class TestFuzzLambda:
    def test_first_element_is_reproducible(self):
        f = construct_hirzebruch(2)
        assert next(fuzz_lambda(f, 0)) == (2, 2, -1, 0)

    def test_streams_with_same_seed_agree(self):
        f = construct_hirzebruch(1)
        a = list(islice(fuzz_lambda(f, 7), 20))
        b = list(islice(fuzz_lambda(f, 7), 20))
        assert a == b

    def test_streams_with_different_seeds_differ(self):
        f = construct_hirzebruch(1)
        a = list(islice(fuzz_lambda(f, 1), 20))
        b = list(islice(fuzz_lambda(f, 2), 20))
        assert a != b

    def test_all_elements_are_valid(self):
        for case in SUITE[:8]:
            f = build_case_fan(case)
            for lam in islice(fuzz_lambda(f, 3), 50):
                ok, problems = validate_lambda_matrix(f, (lam,))
                assert ok, problems
                assert all(-1 <= x <= 3 for x in lam)

    def test_hundred_elements_under_a_second(self):
        f = construct_hirzebruch(2)
        start = time.perf_counter()
        got = list(islice(fuzz_lambda(f, 5), 100))
        assert time.perf_counter() - start < 1.0
        assert len(got) == 100

    def test_pole_pairs_on_cones_are_repaired(self):
        f = construct_hirzebruch(0)
        seen_pole = False
        for lam in islice(fuzz_lambda(f, 11), 200):
            seen_pole = seen_pole or (-1 in lam)
            for i in range(4):
                for j in range(i + 1, 4):
                    if lam[i] == lam[j] == -1:
                        assert not is_cone(f, (i, j))
        assert seen_pole


class TestFuzzLambdaMatrix:
    def test_matrices_are_valid(self):
        f = build_case_fan(next(c for c in SUITE if c.name == "B5 anticanonical"))
        for rank in (1, 2, 3):
            for mat in islice(fuzz_lambda_matrix(f, rank, 4), 20):
                ok, problems = validate_lambda_matrix(f, mat)
                assert ok, problems
                assert len(mat) == rank

    def test_deterministic(self):
        f = construct_hirzebruch(2)
        a = list(islice(fuzz_lambda_matrix(f, 2, 9), 5))
        b = list(islice(fuzz_lambda_matrix(f, 2, 9), 5))
        assert a == b
        assert a[0] == ((-1, 0, 0, -1), (3, 0, 1, 3))


class TestRandomFans:
    def test_twenty_polarized_pairs_are_valid(self):
        for seed in range(20):
            f, d = random_polarized(seed)
            assert validate_fan(f) == f
            assert is_ample(polytope_from_divisor(d))

    def test_deterministic(self):
        f1, d1 = random_polarized(13)
        f2, d2 = random_polarized(13)
        assert f1 == f2 and d1 == d2

    def test_unimodular_matrices_have_unit_determinant(self):
        import random as _random

        for seed in range(10):
            rng = _random.Random(seed)
            mat = random_unimodular(3, rng)
            assert all(x.denominator == 1 for row in _inverse(mat) for x in row)

    def test_transform_preserves_fan_validity(self):
        import random as _random

        f = construct_hirzebruch(3)
        mat = random_unimodular(2, _random.Random(0))
        g = transform_fan(f, mat)
        assert validate_fan(g) == g
        assert g.max_cones == f.max_cones


class TestGoldenCaseShape:
    def test_golden_case_is_frozen(self):
        case = SUITE[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            case.name = "x"

    def test_certificate_fields_come_together(self):
        for case in SUITE:
            fields = (case.certificate_rank, case.certificate_rays, case.certificate_slope)
            assert all(x is None for x in fields) or all(x is not None for x in fields)

    def test_verdicts_are_canonical(self):
        for case in SUITE:
            assert case.verdict in {"stable", "semistable", "unstable"}
            if case.verdict == "stable":
                assert case.certificate_rank is None
            else:
                assert case.certificate_rank is not None
