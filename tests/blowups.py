"""Blow-ups by star subdivision: smooth complete fans whose ray matroids
are connected, with an ample divisor on each.

The star subdivision of a smooth complete fan at a cone sigma keeps it
smooth and complete (Oda 1988; Fulton 1993, ch. 2); geometrically it is
the blow-up along the orbit closure V(sigma).  It adds the ray
e = sum of sigma's rays and replaces each maximal cone c through sigma by
the |sigma| cones ``(c - {i}) + {e}``, one per ray i of sigma; the other
cones stay.  So it adds one ray and |sigma| - 1 cones per maximal cone
through sigma.

With D = sum a_i D_i ample, ``k * pi^*D - E`` has coefficients ``k * a_i``
and ``k * sum(a_i for i in sigma) - 1`` on e, and it is ample for k large
enough: k doubles from 1 until ``is_ample`` says so.
"""

from __future__ import annotations

import random

from toricstab.fan import construct_product, construct_projective_space, make_fan, validate_fan
from toricstab.polytope import anticanonical, divisor, is_ample, polytope_from_divisor

BASES = (
    lambda: construct_projective_space(3),
    lambda: construct_projective_space(4),
    lambda: construct_product(construct_projective_space(2), construct_projective_space(1)),
    lambda: construct_projective_space(5),
)


def blow_up(f, sigma):
    """The validated star subdivision of the fan ``f`` at the cone whose ray
    indices are ``sigma``; the new ray comes last."""
    sigma = set(sigma)
    e = len(f.rays)
    ray = tuple(map(sum, zip(*(f.rays[i] for i in sigma))))
    cones = []
    for c in f.max_cones:
        if sigma.issubset(c):
            cones += [tuple(j for j in c if j != i) + (e,) for i in sorted(sigma)]
        else:
            cones.append(c)
    return validate_fan(make_fan(f.dim, [*f.rays, ray], cones))


def blow_up_divisor(d, sigma):
    """The fan blown up at ``sigma`` and an ample ``k * pi^*D - E`` on it,
    for the ample divisor ``d``, with the least k = 1, 2, 4, ... that is
    ample."""
    g = blow_up(d.fan, sigma)
    a = d.coeffs
    k = 1
    while True:
        coeffs = [k * x for x in a] + [k * sum(a[i] for i in sigma) - 1]
        b = divisor(g, coeffs)
        if is_ample(polytope_from_divisor(b)):
            return b
        k *= 2


def random_blowup(seed, base=None, count=None):
    """A pseudo-random (fan, ample divisor) pair: ``count`` blow-ups (1 to 6
    when None) of ``base`` (one of ``BASES`` when None) at its
    anticanonical divisor, each at a random 2 to n rays of a random
    maximal cone."""
    rng = random.Random(seed)
    f = rng.choice(BASES)() if base is None else base
    count = rng.randint(1, 6) if count is None else count
    d = anticanonical(f)
    for _ in range(count):
        cone = rng.choice(d.fan.max_cones)
        sigma = rng.sample(cone, rng.randint(2, f.dim))
        d = blow_up_divisor(d, sigma)
    return d.fan, d
