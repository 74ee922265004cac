"""Verdicts that must not change when the input is presented otherwise:
the rays relabeled and the cones renumbered, or the divisor replaced by a
linearly equivalent one.  Ties may pick other rays, so slopes are
compared, not ray sets."""

import random

import pytest

from blowups import random_blowup
from toricstab.fan import make_fan
from toricstab.lattice import dot
from toricstab.polytope import divisor
from toricstab.stability import decide
from toricstab.testkit import random_polarized

CASES = [("polarized", seed) for seed in range(200)] + [("blowup", seed) for seed in range(50)]
MAKERS = {"polarized": random_polarized, "blowup": random_blowup}


def summary(v):
    return v.status, v.mu_tx, v.best and v.best.slope


@pytest.fixture(scope="module")
def cases():
    return [(kind, seed, *MAKERS[kind](seed)) for kind, seed in CASES]


def test_relabeling_rays_and_cones(cases):
    # The flats grow from another reverse-search tree, whose canonical
    # parents follow the new ray labels.
    for kind, seed, f, d in cases:
        rng = random.Random(seed)
        perm = rng.sample(range(len(f.rays)), len(f.rays))
        rays, coeffs = [None] * len(perm), [None] * len(perm)
        for i, j in enumerate(perm):
            rays[j], coeffs[j] = f.rays[i], d.coeffs[i]
        cones = [[perm[i] for i in c] for c in f.max_cones]
        rng.shuffle(cones)
        g = make_fan(f.dim, rays, cones)
        assert g.flats == tuple(sorted(
            (r, tuple(sorted(perm[i] for i in s))) for r, s in f.flats)), (kind, seed)
        assert summary(decide(g, divisor(g, coeffs))) == summary(decide(f, d)), (kind, seed)


def test_linearly_equivalent_divisor(cases):
    for kind, seed, f, d in cases:
        rng = random.Random(seed)
        m = [rng.randint(-3, 3) for _ in range(f.dim)]
        coeffs = [a + dot(m, v) for a, v in zip(d.coeffs, f.rays)]
        assert summary(decide(f, divisor(f, coeffs))) == summary(decide(f, d)), (kind, seed)
