"""Shared fixtures: golden cases, fuzzers and random fan generators."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations

from .fan import (
    Fan,
    construct_hirzebruch,
    construct_p1_bundle,
    construct_product,
    construct_proj_split,
    construct_projective_space,
    make_fan,
    validate_fan,
)
from .polytope import anticanonical, divisor, is_ample, polytope_from_divisor
from .sheafdata import validate_lambda_matrix
from .stability import certificate, decide


@dataclass(frozen=True)
class GoldenCase:
    """One end-to-end expectation: fan + divisor in, frozen numbers out.

    `volumes`, `mu_tx`, and `certificate_slope` are exact rationals in
    "p/q" form; `derivation` records how the numbers were obtained so a
    failure message points back at the computation to redo by hand.
    """

    name: str
    fan_kind: str
    fan_params: tuple
    divisor: object  # "anticanonical" or a tuple of coefficients
    volumes: tuple[str, ...] | None
    mu_tx: str
    verdict: str
    certificate_rank: int | None
    certificate_rays: tuple[int, ...] | None
    certificate_slope: str | None
    derivation: str


def _build_from_spec(spec) -> Fan:
    kind = spec["kind"]
    params = spec["params"]
    if kind == "pn":
        return construct_projective_space(params[0])
    if kind == "hirzebruch":
        return construct_hirzebruch(params[0])
    if kind == "proj-split":
        return construct_proj_split(params[0], tuple(params[1]))
    if kind == "p1-bundle":
        return construct_p1_bundle(params[0], params[1])
    if kind == "product":
        return construct_product(_build_from_spec(params[0]), _build_from_spec(params[1]))
    raise ValueError(f"unknown fan kind {kind!r}")


def build_case_fan(case: GoldenCase) -> Fan:
    return _build_from_spec({"kind": case.fan_kind, "params": list(case.fan_params)})


def golden_suite() -> tuple[GoldenCase, ...]:
    raw = json.loads(
        resources.files("toricstab").joinpath("data/golden_cases.json").read_text()
    )
    cases = []
    for entry in raw:
        cert = entry.get("certificate")
        cases.append(
            GoldenCase(
                name=entry["name"],
                fan_kind=entry["fan"]["kind"],
                fan_params=tuple(
                    tuple(p) if isinstance(p, list) else p
                    for p in entry["fan"]["params"]
                ),
                divisor=(
                    entry["divisor"]
                    if entry["divisor"] == "anticanonical"
                    else tuple(entry["divisor"])
                ),
                volumes=tuple(entry["volumes"]) if entry.get("volumes") else None,
                mu_tx=entry["mu_tx"],
                verdict=entry["verdict"],
                certificate_rank=cert["rank"] if cert else None,
                certificate_rays=tuple(cert["rays_in"]) if cert else None,
                certificate_slope=cert["slope"] if cert else None,
                derivation=entry["derivation"],
            )
        )
    return tuple(cases)


def compare_golden(case: GoldenCase) -> list[str]:
    """Run the case end to end; return field-level diffs (empty = pass)."""
    f = build_case_fan(case)
    a = anticanonical(f) if case.divisor == "anticanonical" else divisor(f, case.divisor)
    diffs = []

    def check(field, expected, got):
        if expected != got:
            diffs.append(
                f"{case.name}: {field}: expected {expected!r}, got {got!r}"
                f" [{case.derivation}]"
            )

    v = decide(f, a)
    if case.volumes is not None:
        check("volumes", tuple(Fraction(s) for s in case.volumes), v.volumes.values)
    check("mu_tx", Fraction(case.mu_tx), v.mu_tx)
    check("verdict", case.verdict, v.status.value)
    cert = certificate(v)
    if case.certificate_rank is None:
        check("certificate", None, cert)
    else:
        if cert is None:
            diffs.append(f"{case.name}: certificate: expected rank "
                         f"{case.certificate_rank}, got none [{case.derivation}]")
        else:
            check("certificate rank", case.certificate_rank, cert.rank)
            check("certificate rays", case.certificate_rays, v.best.rays_in)
            check("certificate slope", Fraction(case.certificate_slope), cert.slope)
    return diffs


def fuzz_lambda(f: Fan, seed: int):
    """Deterministic infinite stream of valid lambda-vectors, entries in [-1, 3]."""
    rng = random.Random(seed)
    pairs = sorted({pair for cone in f.max_cones for pair in combinations(sorted(cone), 2)})
    while True:
        lam = [rng.choice((-1, -1, 0, 0, 0, 1, 2, 3)) for _ in f.rays]
        for i, j in pairs:
            if lam[i] == -1 and lam[j] == -1:
                lam[j] = 0
        ok, problems = validate_lambda_matrix(f, (lam,))
        assert ok, problems
        yield tuple(lam)


def _below_two_fifths(rng: random.Random) -> bool:
    """``rng.random() < 0.4`` in integers, drawing what ``random()`` draws:
    the top 27 and 26 bits of two 32-bit words make its 53-bit numerator,
    and 0.4 is 3602879701896397 / 2^53."""
    k = (rng.getrandbits(32) >> 5 << 26) | (rng.getrandbits(32) >> 6)
    return k < 3602879701896397


def fuzz_lambda_matrix(f: Fan, rank: int, seed: int):
    """Deterministic infinite stream of valid rank x p lambda-matrices."""
    rng = random.Random(seed)
    p = len(f.rays)
    forbidden = []
    if rank + 1 <= f.dim:
        for sigma in f.max_cones:
            forbidden.extend(combinations(sigma, rank + 1))
    while True:
        columns = []
        for _ in range(p):
            col = sorted(rng.choice((0, 0, 1, 2, 3)) for _ in range(rank))
            if _below_two_fifths(rng):
                col[0] = -1
            columns.append(col)
        for subset in forbidden:
            while all(columns[j][0] == -1 for j in subset):
                columns[subset[-1]][0] = 0
                columns[subset[-1]] = sorted(columns[subset[-1]])
        mat = tuple(tuple(columns[j][i] for j in range(p)) for i in range(rank))
        ok, problems = validate_lambda_matrix(f, mat)
        assert ok, problems
        yield mat


def random_unimodular(n: int, rng: random.Random):
    """A small determinant +-1 integer matrix built from elementary moves."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            mat[i][k] += c * mat[j][k]
    return tuple(tuple(row) for row in mat)


def transform_fan(f: Fan, mat) -> Fan:
    """Apply a unimodular change of lattice basis to every ray."""
    n = f.dim
    new_rays = tuple(
        tuple(sum(mat[i][k] * ray[k] for k in range(n)) for i in range(n))
        for ray in f.rays
    )
    return make_fan(n, new_rays, f.max_cones)


# (builder, coefficients of a divisor known to be ample on that fan)
_BASE_FANS = (
    (lambda: construct_projective_space(2), (1, 1, 1)),
    (lambda: construct_projective_space(3), (1, 1, 1, 1)),
    (lambda: construct_projective_space(4), (1, 1, 1, 1, 1)),
    (lambda: construct_hirzebruch(0), (1, 1, 1, 1)),
    (lambda: construct_hirzebruch(1), (1, 0, 0, 1)),
    (lambda: construct_hirzebruch(2), (1, 0, 0, 1)),
    (lambda: construct_hirzebruch(4), (1, 0, 0, 1)),
    (lambda: construct_p1_bundle(3, 1), (1, 1, 1, 1, 1, 1)),
    (lambda: construct_p1_bundle(3, 2), (1, 1, 1, 1, 1, 1)),
    (lambda: construct_p1_bundle(4, 2), (1, 1, 1, 1, 1, 1, 1)),
    (lambda: construct_proj_split(1, (1, 0, 0)), (1, 1, 1, 1, 1, 1)),
    (lambda: construct_proj_split(2, (1, 1)), (1, 1, 1, 1, 1, 1)),
    (lambda: construct_proj_split(2, (2, 0)), (1, 1, 1, 1, 1, 1)),
    (
        lambda: construct_product(
            construct_projective_space(1), construct_projective_space(2)
        ),
        (1, 1, 1, 1, 1),
    ),
    (
        lambda: construct_product(
            construct_hirzebruch(1), construct_projective_space(1)
        ),
        (1, 0, 0, 1, 1, 1),
    ),
)


def random_polarized(seed: int):
    """A pseudo-random (fan, ample divisor) pair in a skewed lattice basis.

    The fan is one of the stock constructions conjugated by a random
    unimodular matrix; the divisor is rejection-sampled, with a known
    ample coefficient vector (scaled) as the deterministic fallback.
    """
    rng = random.Random(seed)
    builder, fallback = rng.choice(_BASE_FANS)
    base = builder()
    f = validate_fan(transform_fan(base, random_unimodular(base.dim, rng)))
    for _ in range(60):
        coeffs = tuple(rng.randint(1, 6) for _ in f.rays)
        d = divisor(f, coeffs)
        if is_ample(polytope_from_divisor(d)):
            return f, d
    k = rng.randint(1, 4)
    return f, divisor(f, tuple(k * c for c in fallback))
