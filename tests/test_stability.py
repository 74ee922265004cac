"""The stability decision procedure and its closed-form cross-checks."""

import gc
import random
import weakref
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, product
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    barycenter_is_origin,
    chow_volumes,
    hirzebruch_closed_form,
    hirzebruch_lines,
    product_verdict,
    rank,
    subspace_contains,
)
from toricstab import fan, lattice, sheafdata
from toricstab.errors import BadTwist, DimMismatch, NonAmple
from toricstab.fan import (
    catalog_fano4,
    construct_hirzebruch,
    construct_p1_bundle,
    construct_product,
    construct_proj_split,
    construct_projective_space,
    make_fan,
    validate_fan,
)
from toricstab.lattice import dot, hermite_canonical, integer_kernel
from toricstab.polytope import (
    anticanonical,
    divisor,
    facet_volumes,
    is_ample,
    polytope_from_divisor,
)
from toricstab.sheafdata import (
    degree_of,
    rank_of,
    lambda_matrix_to_jump,
    tangent_jump_data,
    validate_lambda_matrix,
)
from toricstab.stability import (
    Stability,
    SubsheafCandidate,
    certificate,
    decide,
)
from toricstab.testkit import (
    build_case_fan,
    golden_suite,
    random_polarized,
    random_unimodular,
    transform_fan,
)

B5 = construct_proj_split(1, (1, 0, 0))
F1 = construct_hirzebruch(1)
F2 = construct_hirzebruch(2)


def volumes_of(f, coeffs=None):
    d = anticanonical(f) if coeffs is None else divisor(f, coeffs)
    return facet_volumes(polytope_from_divisor(d))


def reference_slope(c, vols, n):
    """(n-1)! times the candidate's facet volumes summed, over its rank."""
    return factorial(n - 1) * sum((vols.values[i] for i in c.rays_in), Fraction(0)) / c.rank


class TestEnumeration:
    def test_twisted_surfaces_have_three_lines(self):
        for m in (1, 2, 3):
            flats = construct_hirzebruch(m).flats
            assert [s for _, s in flats] == [(0,), (1, 3), (2,)]
            assert all(r == 1 for r, _ in flats)

    def test_product_surface_has_two_lines(self):
        flats = construct_hirzebruch(0).flats
        assert [s for _, s in flats] == [(0, 2), (1, 3)]

    def test_projective_line_has_none(self):
        assert construct_projective_space(1).flats == ()

    def test_fourfold_bundle_key_candidates(self):
        ranks = {s: r for r, s in B5.flats}
        assert ranks[(0, 1, 2, 3)] == 3
        assert ranks[(0, 4, 5)] == 2
        sub = hermite_canonical([B5.rays[i] for i in (0, 4, 5)])
        assert sub == ((1, 0, 0, 0), (0, 0, 0, 1))

    def test_matches_brute_force_subset_spans(self):
        # independent route: span every nonempty ray subset directly; the
        # skewed bases give rays with large entries, so residues need their
        # content divided out
        p1, p2 = construct_projective_space(1), construct_projective_space(2)
        skewed = []
        for seed, base in enumerate((
            construct_product(F1, p1),
            construct_product(construct_product(p1, p1), p1),
            construct_product(p2, p1),
        )):
            mat = random_unimodular(base.dim, random.Random(seed))
            skewed.append(("skewed", transform_fan(base, mat)))
        for _, f in (catalog_fano4()[0], catalog_fano4()[5], ("F2", F2), *skewed):
            expected = set()
            for k in range(1, len(f.rays) + 1):
                for subset in combinations(f.rays, k):
                    s = hermite_canonical(list(subset))
                    if len(s) < f.dim:
                        expected.add(s)
            got = f.flats
            spans = [hermite_canonical([f.rays[i] for i in s]) for _, s in got]
            assert set(spans) == expected
            assert len(set(spans)) == len(got)
            for (rank, rays_in), sub in zip(got, spans):
                inside = [len(hermite_canonical([*sub, r])) == rank for r in f.rays]
                assert rays_in == tuple(i for i, ok in enumerate(inside) if ok)

    def test_no_basis_or_jump_data_per_candidate(self, count_calls):
        p4 = construct_projective_space(4)
        hermite = count_calls(lattice, "hermite_canonical")
        jumps = count_calls(sheafdata, "JumpData")
        for f, flats in ((p4, 25), (B5, 29)):
            assert len(f.flats) == flats
        decide(B5, anticanonical(B5))
        assert hermite == [] and jumps == []

    def test_certificate_derives_one_basis(self, count_calls):
        # A fresh fan, so no earlier test has left the basis on it.
        f = validate_fan(skewed_b5(6))
        v = decide(f, anticanonical(f))
        hermite = count_calls(lattice, "hermite_canonical")
        cert = certificate(v)
        assert len(hermite) == 1
        assert certificate(v) == cert and len(hermite) == 1
        assert v.best.rays_in == (0, 1, 2, 3)
        assert cert.subspace_basis == hermite_canonical([f.rays[i] for i in v.best.rays_in])

    def test_stable_verdict_has_no_certificate(self):
        p4 = construct_projective_space(4)
        v = decide(p4, anticanonical(p4))
        assert v.status is Stability.STABLE and v.best is not None
        assert certificate(v) is None

    def test_ray_cap(self):
        with pytest.raises(ValueError) as decided:
            decide(B5, anticanonical(B5), max_rays=3)
        assert str(decided.value) == (
            "fan has 6 rays; candidate enumeration capped at 3 (raise max_rays to override)"
        )
        assert decide(B5, anticanonical(B5), max_rays=6).mu_tx == 128
        with pytest.raises(NonAmple):  # ampleness is decided before the cap
            decide(F2, anticanonical(F2), max_rays=3)

    def test_candidate_slopes(self):
        vols = volumes_of(B5)
        cands = decide(B5, anticanonical(B5)).candidates
        assert [(c.rank, c.rays_in) for c in cands] == list(B5.flats)
        by_rays = {c.rays_in: c for c in cands}
        assert reference_slope(by_rays[(0, 1, 2, 3)], vols, 4) == 128
        assert reference_slope(by_rays[(0, 4, 5)], vols, 4) == 88
        assert reference_slope(by_rays[(1, 2)], vols, 4) == 112
        assert all(c.slope == reference_slope(c, vols, 4) for c in cands)


def skewed_b5(seed):
    """An unvalidated copy of B5 in a basis no other test uses."""
    return transform_fan(B5, random_unimodular(4, random.Random(1000 + seed)))


class TestPreparedFan:
    def test_unvalidated_fan_computes_one_dual_basis(self, count_calls):
        # The other 7 cones' duals follow by wall crossing.
        raw = make_fan(B5.dim, B5.rays, B5.max_cones)
        duals = count_calls(lattice, "dual_basis")
        assert decide(raw, anticanonical(raw)).mu_tx == 128
        assert len(duals) == 1 and len(B5.max_cones) == 8

    def test_second_decide_grows_no_flats(self, count_calls):
        f = validate_fan(skewed_b5(1))
        grown = count_calls(lattice, "proper_flats")
        first = decide(f, anticanonical(f))
        assert len(grown) == 1
        grown.clear()
        generic = count_calls(lattice, "generic_vector")
        duals = count_calls(lattice, "dual_basis")
        second = decide(f, divisor(f, (1, 1, 1, 1, 3, 1)))
        assert grown == [] and generic == [] and duals == []
        assert [c.rays_in for c in second.candidates] == [
            c.rays_in for c in first.candidates
        ]
        assert [(c.rank, c.rays_in) for c in second.candidates] == list(skewed_b5(1).flats)
        assert all(c.slope == reference_slope(c, second.volumes, 4) for c in second.candidates)

    def test_ray_cap_checked_on_a_stored_fan(self):
        f = validate_fan(skewed_b5(3))
        f.flats
        assert "flats" in vars(f)
        with pytest.raises(ValueError):
            decide(f, anticanonical(f), max_rays=3)

    def test_one_basis_per_maximizer_flat(self, count_calls):
        # Every ample box polarization of one fan object: the fan derives
        # the basis of each distinct maximizer once; an equal fresh fan
        # derives its own.
        f = dict(catalog_fano4())["C1"]
        hermite = count_calls(lattice, "hermite_canonical")
        maximizers, certified = set(), 0
        for d in box_divisors(f):
            v = decide(f, d)
            if certificate(v) is not None:
                maximizers.add(v.best.rays_in)
                certified += 1
        assert len(hermite) == len(maximizers) and certified > 2 * len(maximizers) > 0
        fresh = validate_fan(make_fan(f.dim, f.rays, f.max_cones))
        flat = min(maximizers)
        assert fresh.flat_basis(flat) == f.flat_basis(flat)
        assert len(hermite) == len(maximizers) + 1

    def test_cone_factors_are_computed_once_per_fan(self, monkeypatch):
        f = validate_fan(skewed_b5(7))
        assert "cone_factors" not in vars(f)  # validation computes no volume
        calls = []

        def counting_lcm(*args):
            calls.append(args)
            return lcm(*args)

        monkeypatch.setattr(fan, "lcm", counting_lcm)
        for coeffs in ((1,) * 6, (1, 1, 1, 1, 3, 1), (2,) * 6):
            decide(f, divisor(f, coeffs))
            assert len(calls) == 1
        kept = vars(f)["cone_factors"]
        fresh = validate_fan(skewed_b5(7))
        facet_volumes(polytope_from_divisor(anticanonical(fresh)))
        assert len(calls) == 2 and vars(fresh)["cone_factors"] == kept

    def test_entry_dies_with_its_fan(self):
        f = validate_fan(skewed_b5(5))
        f.flats
        assert "flats" in vars(f)
        alive = weakref.ref(f)
        del f
        gc.collect()
        assert alive() is None


class TestDecideSurfaces:
    def test_plane_is_stable(self):
        f = construct_projective_space(2)
        v = decide(f, anticanonical(f))
        assert v.status is Stability.STABLE
        assert v.mu_tx == Fraction(9, 2)
        assert v.best.slope == 3

    def test_twisted_destabilizer(self):
        v = decide(F2, divisor(F2, (1, 1, 3, 1)))
        assert v.status is Stability.UNSTABLE
        assert v.mu_tx == 6
        assert v.best.rays_in == (1, 3)
        assert v.best.slope == 8
        cert = certificate(v)
        assert cert.lambda_matrix == ((0, -1, 0, -1),)
        assert cert.subspace_basis == ((0, 1),)

    def test_first_twist_anticanonical_semistable(self):
        v = decide(F1, anticanonical(F1))
        assert v.status is Stability.SEMISTABLE
        assert v.mu_tx == 4
        assert v.best.slope == 4

    def test_first_twist_polarization_dependence(self):
        stable = decide(F1, divisor(F1, (1, 0, 0, 4)))
        assert stable.status is Stability.STABLE
        unstable = decide(F1, divisor(F1, (1, 0, 0, 1)))
        assert unstable.status is Stability.UNSTABLE

    def test_product_surface_square_polarization(self):
        f = construct_hirzebruch(0)
        assert decide(f, anticanonical(f)).status is Stability.SEMISTABLE
        assert decide(f, divisor(f, (2, 1, 2, 1))).status is Stability.UNSTABLE

    def test_non_ample_rejected(self):
        with pytest.raises(NonAmple):
            decide(F2, anticanonical(F2))

    def test_foreign_divisor_rejected(self):
        with pytest.raises(DimMismatch):
            decide(F1, anticanonical(F2))


class TestDecideProjectiveSpaces:
    def test_stable_with_uniform_best(self):
        for n in range(1, 7):
            f = construct_projective_space(n)
            v = decide(f, anticanonical(f))
            assert v.status is Stability.STABLE
            if n == 1:
                assert v.best is None and v.candidates == ()
            else:
                assert v.best.rays_in == (0,)
                assert all(
                    c.slope == v.best.slope and c.rank == len(c.rays_in)
                    for c in v.candidates
                )
                assert v.mu_tx == Fraction((n + 1) ** n, n)


class TestDecideBundles:
    def test_fourfold_bundle_semistable(self):
        v = decide(B5, anticanonical(B5))
        assert v.status is Stability.SEMISTABLE
        assert v.mu_tx == 128
        assert v.best.rank == 3
        assert v.best.rays_in == (0, 1, 2, 3)
        assert v.best.slope == 128
        cert = certificate(v)
        assert cert.lambda_matrix[0] == (-1, -1, -1, -1, 0, 0)
        assert cert.lambda_matrix[1:] == ((0,) * 6, (0,) * 6)
        assert cert.subspace_basis == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        ranked = {}
        for c in v.candidates:
            ranked.setdefault(c.rank, []).append(c.slope)
        assert max(ranked[1]) == 112
        assert max(ranked[2]) == 112

    def test_family_closed_forms(self):
        # mu(TX) = ((n+m)^n - (n-m)^n)/(m*n): slices of the moment
        # polytope at fiber height t are simplices of size n + m*t
        cases = {
            (3, 1): (20, Fraction(56, 3)),
            (4, 1): (152, 136),
            (4, 2): (224, 160),
            (4, 3): (344, 200),
            (5, 2): (2482, Fraction(8282, 5)),
            (6, 5): (161052, 59052),
        }
        for (n, m), (best_slope, mu) in cases.items():
            f = construct_p1_bundle(n, m)
            v = decide(f, anticanonical(f))
            assert v.status is Stability.UNSTABLE
            assert v.mu_tx == mu == Fraction((n + m) ** n - (n - m) ** n, m * n)
            assert v.best.slope == best_slope == (n + m) ** (n - 1) + (n - m) ** (n - 1)
            assert v.best.rank == 1
            assert v.best.rays_in == (n - 1, n)

    def test_whole_family_unstable(self):
        for n in range(3, 7):
            for m in range(1, n):
                f = construct_p1_bundle(n, m)
                v = decide(f, anticanonical(f))
                assert v.status is Stability.UNSTABLE
                assert v.best.slope == (n + m) ** (n - 1) + (n - m) ** (n - 1)


class TestCatalog:
    EXPECTED = {
        "P4": (Stability.STABLE, None),
        "B1": (Stability.UNSTABLE, 1),
        "B2": (Stability.UNSTABLE, 1),
        "B3": (Stability.UNSTABLE, 1),
        "B4": (Stability.SEMISTABLE, 1),
        "B5": (Stability.SEMISTABLE, 3),
        "C1": (Stability.UNSTABLE, 2),
        "C2": (Stability.UNSTABLE, 2),
        "C3": (Stability.UNSTABLE, 1),
        "C4": (Stability.SEMISTABLE, 2),
    }

    def test_verdicts_and_ranks(self):
        for name, f in catalog_fano4():
            v = decide(f, anticanonical(f))
            status, rank = self.EXPECTED[name]
            assert v.status is status, name
            if v.status is not Stability.STABLE:
                assert v.best.rank == rank, name

    def test_split_threefold_bundles_over_plane(self):
        by_name = dict(catalog_fano4())
        v1 = decide(by_name["C1"], anticanonical(by_name["C1"]))
        assert v1.mu_tx == Fraction(297, 2)
        assert v1.best.slope == Fraction(351, 2)
        assert v1.best.rays_in == (0, 1, 2)
        v2 = decide(by_name["C2"], anticanonical(by_name["C2"]))
        assert v2.mu_tx == Fraction(513, 4)
        assert v2.best.slope == 135
        v3 = decide(by_name["C3"], anticanonical(by_name["C3"]))
        assert v3.mu_tx == Fraction(513, 4)
        assert v3.best.slope == 144
        assert v3.best.rays_in == (2,)

    def test_products_tie_exactly(self):
        by_name = dict(catalog_fano4())
        v4 = decide(by_name["B4"], anticanonical(by_name["B4"]))
        assert v4.mu_tx == 128
        assert v4.best.slope == 128
        assert v4.best.rays_in == (0, 1)  # smallest rank wins the tie
        vc4 = decide(by_name["C4"], anticanonical(by_name["C4"]))
        assert vc4.mu_tx == Fraction(243, 2)
        assert vc4.best.slope == Fraction(243, 2)

    def test_mu_matches_tangent_slope(self):
        for _, f in catalog_fano4():
            vols = volumes_of(f)
            v = decide(f, anticanonical(f))
            j = tangent_jump_data(f)
            assert v.mu_tx == degree_of(j, vols) / rank_of(j)

    def test_certificates_are_admissible(self):
        # every catalog fan and golden case, re-checked from the sheaf side
        cases = [(name, f, anticanonical(f)) for name, f in catalog_fano4()]
        for case in golden_suite():
            f = build_case_fan(case)
            d = anticanonical(f) if case.divisor == "anticanonical" else divisor(f, case.divisor)
            cases.append((case.name, f, d))
        checked = 0
        for name, f, d in cases:
            v = decide(f, d)
            cert = certificate(v)
            if cert is None:
                continue
            checked += 1
            ok, problems = validate_lambda_matrix(f, cert.lambda_matrix)
            assert ok, (name, problems)
            j = lambda_matrix_to_jump(cert.lambda_matrix)
            assert rank_of(j) == cert.rank
            assert degree_of(j, v.volumes) / cert.rank == cert.slope, name
            assert len(cert.subspace_basis) == cert.rank
            top, *rest = cert.lambda_matrix
            assert [i for i, x in enumerate(top) if x == -1] == [
                i for i, ray in enumerate(f.rays) if subspace_contains(cert.subspace_basis, ray)
            ], name
            assert set(top) <= {-1, 0}
            assert all(not any(row) for row in rest), name
        assert checked > len(catalog_fano4())

    def test_product_semistability_spot_check(self):
        factors = {
            "P1": construct_projective_space(1),
            "P2": construct_projective_space(2),
            "F1": F1,
        }
        for (n1, f1), (n2, f2) in combinations(factors.items(), 2):
            f = construct_product(f1, f2)
            v = decide(f, anticanonical(f))
            assert v.status is not Stability.UNSTABLE, (n1, n2)


def box_divisors(f, top=4):
    """One ample divisor per class among those with every coefficient in
    0..top; the class is read off the pairings with the ray relations."""
    relations = integer_kernel(list(zip(*f.rays)))
    classes = {}
    for coeffs in product(range(top + 1), repeat=len(f.rays)):
        classes.setdefault(tuple(dot(r, coeffs) for r in relations), coeffs)
    for coeffs in classes.values():
        d = divisor(f, coeffs)
        if is_ample(polytope_from_divisor(d)):
            yield d


class TestBestPick:
    """``decide`` picks its maximizer on integer sums in flat order and
    builds no candidate list; the list, derived when first read, is every
    flat with its slope, and its ranking rule is the one the pick must
    agree with."""

    @staticmethod
    def check(v):
        certificate(v)
        assert "candidates" not in vars(v)
        weights, den = v.volumes.weights, v.volumes.den
        assert v.candidates == tuple(
            SubsheafCandidate(r, s, Fraction(sum(weights[i] for i in s), den * r))
            for r, s in v.fan.flats
        )
        expected = min(v.candidates, key=lambda c: (-c.slope, c.rank, c.rays_in), default=None)
        assert v.best == expected
        if expected is None:
            return False
        assert v.best in v.candidates
        return sum(c.slope == expected.slope for c in v.candidates) > 1

    def test_goldens_and_random_polarizations(self):
        for case in golden_suite():
            f = build_case_fan(case)
            d = anticanonical(f) if case.divisor == "anticanonical" else divisor(f, case.divisor)
            self.check(decide(f, d))
        for seed in range(200):
            self.check(decide(*random_polarized(seed)))

    def test_catalog_ties(self):
        ties = {}
        for name, f in catalog_fano4():
            for k in (1, 2):
                ties[name, k] = self.check(decide(f, divisor(f, (k,) * len(f.rays))))
        # the products tie at mu under both multiples of -K
        assert all(ties[name, k] for name in ("B4", "C4") for k in (1, 2))

    def test_catalog_box_divisors(self):
        checked = ties = 0
        for _, f in catalog_fano4():
            for d in box_divisors(f):
                ties += self.check(decide(f, d))
                checked += 1
        assert checked > 100 and ties > 0

    def test_reading_the_list_leaves_the_verdict_alike(self):
        f = validate_fan(skewed_b5(8))
        read, unread = decide(f, anticanonical(f)), decide(f, anticanonical(f))
        assert read.candidates is read.candidates
        assert "candidates" in vars(read) and "candidates" not in vars(unread)
        assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)


class TestKeptFanData:
    """What a fan keeps (flats, cone factors, flat bases) stays right over
    many polarizations of one fan object, and the fan still equals, hashes
    and prints like a fresh copy."""

    @staticmethod
    def check(f, divisors):
        certified = 0
        for d in divisors:
            v = decide(f, d)
            assert v.volumes.values == chow_volumes(f, d.coeffs)
            cert = certificate(v)
            if cert is not None:
                rays = [f.rays[i] for i in v.best.rays_in]
                assert cert.subspace_basis == hermite_canonical(rays)
                certified += 1
        assert {"flats", "cone_factors"} <= set(vars(f))
        fresh = make_fan(f.dim, f.rays, f.max_cones)
        assert fresh == f and hash(fresh) == hash(f) and repr(fresh) == repr(f)
        return certified

    def test_box_polarizations(self):
        fans = [f for _, f in catalog_fano4()] + [construct_hirzebruch(m) for m in range(5)]
        assert sum(self.check(f, list(box_divisors(f))) for f in fans) > 500

    def test_three_polarizations_of_each_random_fan(self):
        certified = 0
        for seed in range(200):
            f, d = random_polarized(seed)
            rng, divisors, k = random.Random(seed), [d], 2
            while len(divisors) < 3:
                e = divisor(f, [k * c + rng.randint(0, 1) for c in d.coeffs])
                if is_ample(polytope_from_divisor(e)):
                    divisors.append(e)
                k += 1
            certified += self.check(f, divisors)
        assert certified > 100


class TestKahlerEinstein:
    """A toric Fano manifold is Kähler–Einstein exactly when its
    anticanonical polytope has barycenter 0 (Wang–Zhu); its tangent bundle
    is then polystable, so never unstable."""

    def test_einstein_fans_are_never_unstable(self):
        catalog = dict(catalog_fano4())
        p1, p2 = construct_projective_space(1), construct_projective_space(2)
        for f in (p2, construct_product(p1, p1), catalog["P4"], catalog["B4"], catalog["C4"]):
            f = validate_fan(f)
            assert barycenter_is_origin(f), f
            for k in (1, 2):
                v = decide(f, divisor(f, (k,) * len(f.rays)))
                assert v.status is not Stability.UNSTABLE, f

    def test_unstable_catalog_rows_are_not_einstein(self):
        unstable = [
            name for name, f in catalog_fano4()
            if decide(f, anticanonical(f)).status is Stability.UNSTABLE
        ]
        assert unstable == ["B1", "B2", "B3", "C1", "C2", "C3"]
        catalog = dict(catalog_fano4())
        assert not any(barycenter_is_origin(validate_fan(catalog[name])) for name in unstable)


class TestScaleInvariance:
    def test_examples(self):
        for f, coeffs in ((F1, (1, 0, 0, 4)), (B5, (1,) * 6), (F2, (1, 1, 3, 1))):
            base = decide(f, divisor(f, coeffs))
            for k in (2, 3, 5):
                scaled = decide(f, divisor(f, tuple(k * c for c in coeffs)))
                assert scaled.status is base.status
                assert scaled.mu_tx == k ** (f.dim - 1) * base.mu_tx
                assert scaled.best.rays_in == base.best.rays_in

    @given(st.integers(1, 6), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_fuzzed_surface_scaling(self, k, m):
        f = construct_hirzebruch(m)
        a = (2, 1, 2 + m, 1)
        base = decide(f, divisor(f, a))
        scaled = decide(f, divisor(f, tuple(k * c for c in a)))
        assert scaled.status is base.status
        assert scaled.best.slope == k * base.best.slope


class TestRankMaxima:
    def test_largest_slope_of_each_rank_equals_brute_force_over_ray_sets(self):
        # The largest rank-r candidate slope is (n-1)! max w(S) / r over
        # every ray set S spanning at most r dimensions: S closes to a flat of
        # rank <= r, which lies in a rank-r flat, and weights are positive.
        # Ranks come from the oracle's elimination and volumes from the Chow
        # ring, not from the flats or the table.
        polarized = []
        for _, f in catalog_fano4():
            polarized += [(f, [1] * len(f.rays)), (f, [2] * len(f.rays))]
        for m in range(4):
            f = construct_hirzebruch(m)
            polarized += [(f, (1, 1, m + 1, 1)), (f, (2, 2, 2 * m + 2, 2))]
        for f, coeffs in polarized:
            f = validate_fan(f)
            v = decide(f, divisor(f, coeffs))
            chow = chow_volumes(f, coeffs)
            spans = {
                s: rank([f.rays[i] for i in s])
                for size in range(len(f.rays) + 1)
                for s in combinations(range(len(f.rays)), size)
            }
            for r in range(1, f.dim):
                best = max(sum((chow[i] for i in s), Fraction(0))
                           for s, k in spans.items() if k <= r)
                top = max(c.slope for c in v.candidates if c.rank == r)
                assert top == factorial(f.dim - 1) * best / r, (f, coeffs, r)


class TestClosedForm:
    def test_named_polarizations(self):
        assert hirzebruch_closed_form(1, 1, 0, 0, 4).status is Stability.STABLE
        assert hirzebruch_closed_form(1, 1, 0, 0, 1).status is Stability.UNSTABLE
        assert hirzebruch_closed_form(1, 1, 1, 1, 1).status is Stability.SEMISTABLE
        v = hirzebruch_closed_form(2, 1, 1, 3, 1)
        assert v.status is Stability.UNSTABLE
        assert v.mu_tx == 6 and v.best.slope == 8

    def test_higher_twists_always_unstable(self):
        for m in range(2, 11):
            for a2 in range(3):
                for a4 in range(1, 4):
                    a1, a3 = 1, 1 + m * a2
                    v = hirzebruch_closed_form(m, a1, a2, a3, a4)
                    assert v.status is Stability.UNSTABLE

    def test_product_surface_split(self):
        assert hirzebruch_closed_form(0, 1, 1, 1, 1).status is Stability.SEMISTABLE
        assert hirzebruch_closed_form(0, 2, 1, 2, 1).status is Stability.UNSTABLE
        assert hirzebruch_closed_form(0, 1, 2, 1, 2).status is Stability.UNSTABLE

    def test_errors(self):
        with pytest.raises(BadTwist):
            hirzebruch_closed_form(-1, 1, 1, 1, 1)
        with pytest.raises(NonAmple):
            hirzebruch_closed_form(2, 1, 1, 1, 1)

    def test_agrees_with_decide_on_grid(self):
        checked = 0
        for m in range(0, 5):
            f = construct_hirzebruch(m)
            for a1 in range(0, 3):
                for a2 in range(0, 3):
                    for a3 in range(0, 3):
                        for a4 in range(0, 3):
                            a = a1 + a3 - m * a2
                            b = a2 + a4
                            if a <= 0 or b <= 0:
                                continue
                            direct = decide(f, divisor(f, (a1, a2, a3, a4)))
                            closed = hirzebruch_closed_form(m, a1, a2, a3, a4)
                            assert direct == closed
                            assert direct.candidates == hirzebruch_lines(m, a, b)
                            checked += 1
        assert checked >= 100


def _agrees_with_product_oracle(f, factors):
    """``decide`` on ``f``, the product of ``factors`` in their order, gives
    ``product_verdict``'s facet volumes ``D^(n-1).D_rho / (n-1)!``, mu(TX)
    and status; returns the status."""
    v = decide(f, divisor(f, [c for _, coeffs in factors for c in coeffs]))
    weights, mu, status = product_verdict(factors)
    assert v.volumes.values == tuple(w / factorial(f.dim - 1) for w in weights)
    assert (v.mu_tx, v.status) == (mu, status)
    return status


class TestProductOracle:
    def test_catalog_pairs_at_anticanonical(self):
        statuses = [
            _agrees_with_product_oracle(
                construct_product(f, g), [(f, [1] * len(f.rays)), (g, [1] * len(g.rays))])
            for (_, f), (_, g) in combinations_with_replacement(catalog_fano4(), 2)
        ]
        # At -K both factors have slope 35 (-K1)^4 (-K2)^4 / 4, so a pair is
        # semistable when neither factor is unstable: P4, B4, B5, C4.
        assert len(statuses) == 55 and statuses.count(Stability.SEMISTABLE) == 10

    @pytest.mark.parametrize("base, top", [
        (construct_projective_space(1), 12), (F1, 4), (construct_projective_space(2), 3),
    ], ids=["P1^k", "F1^k", "P2^k"])
    def test_ladder_powers(self, base, top):
        # Each base is semistable at -K, and so is every power of it.
        f = base
        for k in range(2, top + 1):
            f = construct_product(f, base)
            factors = [(base, [1] * len(base.rays))] * k
            assert _agrees_with_product_oracle(f, factors) is Stability.SEMISTABLE

    def test_fractional_coefficients_enter_by_the_divisor_scale(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        p1, p2 = construct_projective_space(1), construct_projective_space(2)
        for factors, status in [
            ([(p1, (half, half)), (p2, (1, 1, 1))], Stability.UNSTABLE),
            ([(p2, (third, third, third)), (p2, (1, 0, 0))], Stability.SEMISTABLE),
            ([(F1, (half, 0, 1, third)), (p1, (1, 2)), (p1, (third, 0))], Stability.UNSTABLE),
        ]:
            f = reduce(construct_product, [g for g, _ in factors])
            assert _agrees_with_product_oracle(f, factors) is status
