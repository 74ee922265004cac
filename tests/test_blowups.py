"""The blow-up generator of ``tests/blowups.py``, and the flat growth on
its connected fans."""

import random

import pytest

from blowups import BASES, blow_up, blow_up_divisor, random_blowup
from oracles import ample_by_fractions, closure_flats
from toricstab.fan import construct_projective_space
from toricstab.polytope import anticanonical

SEEDS = range(50)


@pytest.mark.parametrize("sigma", [(0, 1), (1, 3), (0, 2, 3), (0, 1, 2)])
def test_one_ray_and_sigma_minus_one_cones_per_cone_through_sigma(sigma):
    f = construct_projective_space(3)
    g = blow_up(f, sigma)
    through = sum(set(sigma).issubset(c) for c in f.max_cones)
    assert g.validated and g.rays[:4] == f.rays
    assert g.rays[4] == tuple(map(sum, zip(*(f.rays[i] for i in sigma))))
    assert len(g.max_cones) == len(f.max_cones) + through * (len(sigma) - 1)


def test_each_step_adds_what_the_construction_says_and_stays_ample():
    # Replays the steps of random_blowup's seeds with the same draws.
    for seed in range(20):
        rng = random.Random(seed)
        f = rng.choice(BASES)()
        d = anticanonical(f)
        for _ in range(rng.randint(1, 6)):
            cone = rng.choice(d.fan.max_cones)
            sigma = rng.sample(cone, rng.randint(2, f.dim))
            through = sum(set(sigma).issubset(c) for c in d.fan.max_cones)
            b = blow_up_divisor(d, sigma)
            assert len(b.fan.rays) == len(d.fan.rays) + 1
            assert len(b.fan.max_cones) == len(d.fan.max_cones) + through * (len(sigma) - 1)
            assert ample_by_fractions(b.fan, b.coeffs)
            d = b
        assert random_blowup(seed) == (d.fan, d)


def test_a_chosen_base_takes_the_chosen_count():
    f, d = random_blowup(7, construct_projective_space(4), 3)
    assert len(f.rays) == 5 + 3 and d.fan is f and ample_by_fractions(f, d.coeffs)


def test_fan_flats_match_the_closure_oracle_on_blowups():
    for seed in SEEDS:
        f, _ = random_blowup(seed)
        assert f.flats == closure_flats(f.rays, f.dim), seed
