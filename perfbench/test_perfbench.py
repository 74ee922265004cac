"""Self-test of the benchmark: its checker catches corrupt output, and the
traced layer counts of a fixed seed are pinned.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json

import pytest

import run

run.import_program()

import workloads  # noqa: E402  (needs the program on sys.path)
from tracer import Tracer  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    made = {}
    for workload in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        made[workload] = workloads.generate(workload, SEED, 1, workdir)
    return made


def _failures(workload, ops, outputs) -> int:
    problems, _ = run.check_ops(workload, ops, outputs)
    return sum(1 for p in problems if p)


def _golden_op(ops, name):
    return next(op for op in ops if op.golden is not None and op.golden.name == name)


def _corrupt(rep, field):
    cert = rep["certificate"]
    if field == "volumes":
        rep["volumes"][0] = "1/1" if rep["volumes"][0] != "1/1" else "2/1"
    elif field == "mu_tx":
        rep["mu_tx"] = "1/3"
    elif field == "verdict":
        rep["verdict"] = "semistable"
    elif field == "divisor":
        rep["divisor"][0] = "7/2"
    elif field == "fan":
        rep["fan"]["rays"][0][0] += 1
    elif field == "slope":
        cert["slope"] = "1/1"
    elif field == "rank":
        cert["rank"] += 1
    elif field == "lambda_matrix":
        row = cert["lambda_matrix"][0]
        row[row.index(-1)] = 0
    elif field == "subspace_basis":
        outside = cert["lambda_matrix"][0].index(0)  # a ray outside the destabilizer
        cert["subspace_basis"][0] = rep["fan"]["rays"][outside]
    elif field == "certificate":
        rep["certificate"] = None
    return rep


@pytest.mark.parametrize("field", [
    "volumes", "mu_tx", "verdict", "divisor", "fan", "slope", "rank", "lambda_matrix",
    "subspace_basis", "certificate",
])
def test_checker_counts_a_corrupted_analyze_report(generated, field):
    ops, _ = generated["analyze"]
    op = _golden_op(ops, "F2 polarization (1,1,3,1)")  # unstable, rank-1 certificate
    code, out, err = workloads.run_cli(op.args)
    assert _failures("analyze", [op], [(code, out, err)]) == 0
    bad = json.dumps(_corrupt(json.loads(out), field))
    assert _failures("analyze", [op], [(code, bad, err)]) == 1


def test_checker_counts_wrong_exit_codes_and_oracle_lines(generated):
    ops, _ = generated["analyze"]
    non_ample = next(op for op in ops if not op.expect_ample)
    code, out, err = workloads.run_cli(non_ample.args)
    assert (code, out) == (3, "")
    assert _failures("analyze", [non_ample], [(code, out, err)]) == 0
    assert _failures("analyze", [non_ample], [(0, out, err)]) == 1

    ops, _ = generated["oracle"]
    code, out, err = workloads.run_cli(ops[0].args)
    assert _failures("oracle", ops[:1], [(code, out, err)]) == 0
    assert _failures("oracle", ops[:1], [(code, out.replace("AGREE", "DISAGREE"), err)]) == 1


def test_checker_counts_a_wrong_sweep_verdict(generated):
    ops, fans = generated["sweep"]
    op = next(op for op in ops if op.args[0] == 0)  # projective 4-space: always stable
    result = workloads.run_sweep(fans[0], op.coeffs)
    assert _failures("sweep", [op], [result]) == 0
    v, cert = result
    flipped = (type(v)(v.status, v.mu_tx * 2, v.best, v.candidates, v.notes), cert)
    assert _failures("sweep", [op], [flipped]) == 1


def _traced_counts(workload, ops, fans):
    tracer = Tracer()
    tracer.install()
    try:
        outputs, _, _ = run.run_ops(ops, fans, workloads)
    finally:
        tracer.uninstall()
    assert _failures(workload, ops, outputs) == 0
    counts = {name: n for name, n in tracer.calls.items() if n}
    if tracer.candidates:
        counts["candidates returned"] = tracer.candidates
    return counts


# Exact call counts of the first ten ops of seed 0 (first ten cheap ops for
# analyze).  They change only when a layer does a different amount of work.
PINNED = {
    "analyze": {
        "cli.load_fan_file": 10, "cli.report_for": 9, "fan.validate_fan": 10,
        "lattice.dual_basis": 252, "lattice.hermite_canonical": 643,
        "lattice.integer_kernel": 1348, "lattice.lattice_volume": 94,
        "lattice.subspace_contains": 1992, "polytope.facet_volumes": 18,
        "polytope.is_ample": 37, "polytope.polytope_from_divisor": 28,
        "sheafdata.jump_data": 174, "stability.candidate_slope": 174,
        "stability.certificate": 9, "stability.decide": 9,
        "stability.enumerate_candidates": 9, "candidates returned": 174,
    },
    "sweep": {
        "lattice.dual_basis": 121, "lattice.hermite_canonical": 579,
        "lattice.integer_kernel": 1050, "lattice.lattice_volume": 34,
        "lattice.subspace_contains": 1844, "polytope.facet_volumes": 6,
        "polytope.is_ample": 22, "polytope.polytope_from_divisor": 16,
        "sheafdata.jump_data": 162, "stability.candidate_slope": 162,
        "stability.certificate": 6, "stability.decide": 6,
        "stability.enumerate_candidates": 6, "candidates returned": 162,
    },
    "oracle": {
        "charts.rank_one_exists": 10, "cli.load_fan_file": 10, "fan.validate_fan": 10,
        "lattice.dual_basis": 730, "lattice.hermite_canonical": 105,
        "lattice.integer_kernel": 1255, "sheafdata.validate_lambda_vector": 20,
    },
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_call_counts_are_pinned(generated, workload):
    ops, fans = generated[workload]
    if workload == "analyze":
        ops = [op for op in ops if len(op.rays) <= 6][:10]
    else:
        ops = ops[:10]
    assert _traced_counts(workload, ops, fans) == PINNED[workload]


def test_tracer_reports_a_missing_function_as_absent():
    tracer = Tracer(layers=(("lattice", "no_such_function"), ("polytope", "is_ample")))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["lattice.no_such_function"]
