"""Seeded inputs and closed-loop operations for the three workloads.

Each workload turns ``(seed, seconds)`` into a fixed list of operations, so
the same seed and length give the same inputs, and the same output digest,
on every commit.  The length is converted to an operation count at the
speed of the commit that defined the benchmark (``NOMINAL_OPS_PER_S``).

* ``analyze``: one-shot ``toricstab analyze FAN.json --divisor=...`` requests,
  what CLI users run.  A block holds every golden case in a fresh seeded
  lattice basis with a seeded linear-equivalence shift of its divisor,
  ``AMPLE_PER_BASE`` random polarizations of each of the fifteen stock fans
  ``testkit.random_polarized`` draws from, and one non-ample request (exit
  3, empty stdout) on every other stock fan.  The random polarizations are
  drawn as ``random_polarized`` draws them (fresh skewed basis, coefficients
  1..6 until ample) but with a fixed count per stock fan: a seeded choice of
  fan moved the median latency by 18% from seed to seed.  Every request
  has its own fan file, so no two requests share fan-only work, as
  separate CLI processes share nothing.
* ``sweep``: many polarizations on the ten catalog fourfolds through the
  library API, the fans validated once in set-up.  Each op is a distinct
  seeded coefficient vector from the box 0..4 (about a quarter non-ample):
  the place where fan-only work is repeated and a prepared-fan cache shows.
* ``oracle``: one-shot ``toricstab oracle FAN.json --lam=...`` requests on
  product fans of 9 to 64 maximal cones in seeded skewed bases.  Time goes
  to fan loading and validation; the polytope and stability layers do no
  work, so this workload bypasses volume and enumeration changes.

Set-up never runs the layer a workload times on the fans it times: those
are unvalidated basis changes of small stock fans, product fans are
assembled here without ``validate_fan`` (``construct_product`` validates),
and ampleness is decided by the benchmark's own reference.

Left out on purpose: the larger fans of the ROADMAP ladder (P1^5 takes 13 s
per request, ``proj_split(3, (1, 1, 0))`` 5 s, P2^3 and F1^3 over 120 s) do
not fit the number of runs one comparison needs, and the Tier-1 suite time
is a test run, not user traffic.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import reference
import toricstab
from toricstab import (
    catalog_fano4,
    cli,
    construct_hirzebruch,
    construct_p1_bundle,
    construct_product,
    construct_proj_split,
    construct_projective_space,
    make_fan,
    testkit,
)

WORKLOADS = ("analyze", "sweep", "oracle")

# Operations per second at the commit that defined the benchmark.
NOMINAL_OPS_PER_S = {"analyze": 7.0, "sweep": 18.0, "oracle": 4.6}
# p90 needs at least ten samples beyond it.  The oracle median falls inside
# one fan type, whose cost varies with the basis: 30 samples of it keep the
# median steady from seed to seed.
MIN_OPS = {"analyze": 100, "sweep": 100, "oracle": 150}

AMPLE_PER_BASE = 4


@dataclass
class Op:
    """One timed request and what its check needs to know."""

    kind: str  # "cli" or "sweep"
    args: tuple  # argv for "cli"; (fan index, coefficients) for "sweep"
    rays: tuple
    cones: tuple
    coeffs: tuple = ()
    golden: object = None  # testkit.GoldenCase for golden-derived requests
    matroid: object = None  # ops with equal keys have the same ray matroid
    expect_ample: bool = True
    lam: tuple = ()


def _write_fan(workdir: Path, index: int, f) -> str:
    path = workdir / f"fan{index:05d}.json"
    path.write_text(json.dumps(
        {"dim": f.dim, "rays": [list(r) for r in f.rays],
         "max_cones": [list(c) for c in f.max_cones]}))
    return str(path)


def _product(f1, f2):
    """``construct_product`` without its validation pass."""
    rays = [tuple(r) + (0,) * f2.dim for r in f1.rays]
    rays += [(0,) * f1.dim + tuple(r) for r in f2.rays]
    shift = len(f1.rays)
    cones = [tuple(c1) + tuple(i + shift for i in c2)
             for c1 in f1.max_cones for c2 in f2.max_cones]
    return make_fan(f1.dim + f2.dim, rays, cones)


def _stock_fans():
    """The stock fans ``testkit.random_polarized`` chooses from."""
    p = construct_projective_space
    h = construct_hirzebruch
    return (
        p(2), p(3), p(4), h(0), h(1), h(2), h(4),
        construct_p1_bundle(3, 1), construct_p1_bundle(3, 2), construct_p1_bundle(4, 2),
        construct_proj_split(1, (1, 0, 0)), construct_proj_split(2, (1, 1)),
        construct_proj_split(2, (2, 0)),
        construct_product(p(1), p(2)), construct_product(h(1), p(1)),
    )


def _random_polarized(base, rng: random.Random, ample: bool):
    """A fresh skewed basis of ``base`` and coefficients that are (not) ample."""
    f = testkit.transform_fan(base, testkit.random_unimodular(base.dim, rng))
    lo, hi = (1, 6) if ample else (-1, 3)
    while True:
        coeffs = [rng.randint(lo, hi) for _ in f.rays]
        if reference.is_ample(f.rays, f.max_cones, coeffs) == ample:
            return f, coeffs


def _analyze_ops(rng: random.Random, seconds: float, workdir: Path) -> list[Op]:
    goldens = [(case, testkit.build_case_fan(case)) for case in testkit.golden_suite()]
    stock = _stock_fans()
    block_ops = len(goldens) + len(stock) * AMPLE_PER_BASE + len(stock[::2])
    blocks = max(-(-MIN_OPS["analyze"] // block_ops),
                 round(seconds * NOMINAL_OPS_PER_S["analyze"] / block_ops))
    ops: list[Op] = []

    def add(f, coeffs, **kw):
        path = _write_fan(workdir, len(ops), f)
        argv = ("analyze", path, "--divisor=" + ",".join(map(str, coeffs)))
        ops.append(Op("cli", argv, f.rays, f.max_cones, tuple(coeffs), **kw))

    for _ in range(blocks):
        for case, base in goldens:
            f = testkit.transform_fan(base, testkit.random_unimodular(base.dim, rng))
            coeffs = [1] * len(f.rays) if case.divisor == "anticanonical" else case.divisor
            # D + div(chi^m) has a translated polytope: same volumes and verdict.
            m = [rng.choice((-1, 0, 1)) for _ in range(f.dim)]
            add(f, [c + sum(a * b for a, b in zip(m, ray)) for c, ray in zip(coeffs, f.rays)],
                golden=case, matroid=case.name)
        for i, base in enumerate(stock):
            for _ in range(AMPLE_PER_BASE):
                add(*_random_polarized(base, rng, ample=True), matroid=i)
        for base in stock[::2]:
            add(*_random_polarized(base, rng, ample=False), expect_ample=False)
    rng.shuffle(ops)
    return ops


def _sweep_ops(rng: random.Random, seconds: float) -> tuple[list[Op], list]:
    fans = [f for _, f in catalog_fano4()]
    n_ops = max(MIN_OPS["sweep"], round(seconds * NOMINAL_OPS_PER_S["sweep"]))
    seen: set = set()
    ops = []
    for i in range(n_ops):
        fi = i % len(fans)
        f = fans[fi]
        while True:
            coeffs = tuple(rng.randint(0, 4) for _ in f.rays)
            if (fi, coeffs) not in seen:
                seen.add((fi, coeffs))
                break
        ops.append(Op("sweep", (fi, coeffs), f.rays, f.max_cones, coeffs, matroid=fi))
    rng.shuffle(ops)
    return ops, fans


def _oracle_bases():
    p1, p2 = construct_projective_space(1), construct_projective_space(2)
    f1 = construct_hirzebruch(1)
    p2p2 = _product(p2, p2)
    p1p1 = _product(p1, p1)
    return (
        p2p2,  # 9 cones
        _product(p1p1, p1p1),  # 16 cones
        _product(p2p2, p2),  # 27 cones
        _product(_product(p2, f1), p1p1),  # 48 cones
        _product(_product(f1, f1), f1),  # 64 cones
    )


def _oracle_ops(rng: random.Random, seconds: float, workdir: Path) -> list[Op]:
    bases = _oracle_bases()
    n_ops = max(MIN_OPS["oracle"], round(seconds * NOMINAL_OPS_PER_S["oracle"]))
    ops = []
    for i in range(n_ops):
        base = bases[i % len(bases)]
        f = testkit.transform_fan(base, testkit.random_unimodular(base.dim, rng))
        lam = next(testkit.fuzz_lambda(f, rng.randrange(2**32)))
        argv = ("oracle", _write_fan(workdir, i, f), "--lam=" + ",".join(map(str, lam)))
        ops.append(Op("cli", argv, f.rays, f.max_cones, lam=lam))
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int, seconds: float, workdir: Path):
    """The op list for one run, plus the shared fans of ``sweep`` (else None)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "analyze":
        return _analyze_ops(rng, seconds, workdir), None
    if workload == "sweep":
        return _sweep_ops(rng, seconds)
    return _oracle_ops(rng, seconds, workdir), None


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_sweep(f, coeffs):
    # Called through the package namespace, which the tracer patches.
    ts = toricstab
    d = ts.divisor(f, coeffs)
    if not ts.is_ample(ts.polytope_from_divisor(d)):
        return None
    v = ts.decide(f, d)
    return v, ts.certificate(v)
