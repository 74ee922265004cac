"""toricstab benchmark: one closed-loop client on one thread.

    python3 perfbench/run.py --workload analyze|sweep|oracle --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The inputs come from ``--seed`` alone (see
``workloads.py``); every output is checked against an independent
reference (``check.py``).  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the ops run under
the layer tracer and the metrics are the per-layer ones.  Lines before it
give the failure fraction, the failures, and a SHA-256 digest of every
op's exit code and output, which must be equal across commits for the same
seed and length.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import reference
from tracer import ENUMERATE, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 5
PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import run; getattr(run, sys.argv[2])(*sys.argv[3:])"

# The machine this runs on changes speed by tens of percent within seconds
# (shared cores).  Every timing is therefore scaled to a nominal machine
# speed: a fixed exact-arithmetic kernel, the same kind of work as the
# program's, is timed next to each measurement, and the measurement is
# multiplied by NOMINAL_CALIBRATION_S / (kernel time).  The kernel runs no
# toricstab code and runs with the garbage collector off, so nothing the
# program keeps alive can change it.
CALIBRATION_MATRIX = ((3, 1, 4, 1, 5, 9), (2, 6, 5, 3, 5, 8), (9, 7, 9, 3, 2, 3),
                      (8, 4, 6, 2, 6, 4), (3, 3, 8, 3, 2, 7), (9, 5, 0, 2, 8, 8))
NOMINAL_CALIBRATION_S = 0.002


def calibration_s() -> float:
    """Median time of three runs of the calibration kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            reference.inverse(CALIBRATION_MATRIX)
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def import_program():
    """Import toricstab from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import toricstab
    except ImportError as e:
        sys.exit(f"perfbench: cannot import toricstab from {src}: {e}")
    if src not in Path(toricstab.__file__).resolve().parents:
        sys.exit(f"perfbench: toricstab was imported from {toricstab.__file__}, not {src}")


def _probe(function: str, workload: str, seed: int, seconds: float) -> str:
    """Run ``function(workload, seed, seconds)`` of this module in a fresh
    interpreter; return what it printed."""
    return subprocess.run(
        [sys.executable, "-c", PROBE, str(BENCH_DIR), function, workload, str(seed), str(seconds)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout


def setup_probe(workload: str, seed: str, seconds: str) -> None:
    """Set-up as a fresh interpreter does it: import, then generate inputs.

    Prints the mean of the calibrations measured at its start and end.
    """
    before = calibration_s()
    import_program()
    import workloads

    workdir = WORK_DIR / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.generate(workload, int(seed), float(seconds), workdir)
    finally:
        shutil.rmtree(workdir)
    print((before + calibration_s()) / 2)


def measure_setup(workload: str, seed: int, seconds: float) -> list[float]:
    """Fresh-interpreter set-up times, process start to exit, at nominal speed."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        calibration = float(_probe("setup_probe", workload, seed, seconds))
        times.append((time.perf_counter() - start) * NOMINAL_CALIBRATION_S / calibration)
    return times


def untraced_probe(workload: str, seed: str, seconds: str) -> None:
    """The timed loop of an untraced run on the same inputs; prints ops/s."""
    import_program()
    import workloads

    workdir = WORK_DIR / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, fans = workloads.generate(workload, int(seed), float(seconds), workdir)
        _, _, scaled = run_ops(ops, fans, workloads)
    finally:
        shutil.rmtree(workdir)
    print(len(scaled) / sum(scaled))


def run_ops(ops, fans, workloads):
    """Closed loop over the ops, calibrating before each op and after the last.

    Returns the outputs, the raw op latencies and the latencies scaled to
    nominal machine speed by the mean of the calibrations around each op.
    """
    outputs, latencies, calibrations = [], [], []
    clock = time.perf_counter
    for op in ops:
        calibrations.append(calibration_s())
        start = clock()
        try:
            if op.kind == "cli":
                out = workloads.run_cli(op.args)
            else:
                out = workloads.run_sweep(fans[op.args[0]], op.args[1])
        except Exception:  # an op that crashes is a failed op, not a crashed run
            out = traceback.format_exc()
        latencies.append(clock() - start)
        outputs.append(out)
    calibrations.append(calibration_s())
    scaled = [lat * 2 * NOMINAL_CALIBRATION_S / (calibrations[i] + calibrations[i + 1])
              for i, lat in enumerate(latencies)]
    return outputs, latencies, scaled


def check_ops(workload, ops, outputs):
    """Per-op problem lists, and the digest of every op's output in op order."""
    digest = hashlib.sha256()
    flat_tables: dict = {}

    def verdict(op):
        if op.matroid is not None and op.matroid not in flat_tables:
            flat_tables[op.matroid] = reference.flats(op.rays)
        return reference.decide(op.rays, op.cones, op.coeffs, flat_tables.get(op.matroid))

    problems = []
    for op, out in zip(ops, outputs):
        try:
            if isinstance(out, str):
                found = ["raised:\n" + out]
                record = "raised"
            elif workload == "sweep":
                rep = check.sweep_report(out, op.coeffs)
                record = json.dumps(rep, sort_keys=True)
                found = check.sweep_problems(op, rep, verdict(op))
            else:
                code, stdout, _ = out
                record = f"{code}\n{stdout}"
                if workload == "analyze":
                    found = check.analyze_problems(op, code, stdout, verdict(op))
                else:
                    found = check.oracle_problems(op, code, stdout)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as e:
            found = [f"malformed output: {e!r}"]
            record = "malformed"
        digest.update(record.encode() + b"\0")
        problems.append(found)
    return problems, digest.hexdigest()


def layer_metrics(tracer, ops) -> dict:
    calls, self_s = tracer.calls, tracer.self_s
    metrics = {}
    for name in tracer.layers:
        metrics[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s[name], "unit": "s"}
    for name in ("polytope.is_ample", "polytope.polytope_from_divisor", "polytope.facet_volumes"):
        metrics[f"{name}.calls_per_op"] = {"value": calls[name] / len(ops), "unit": "count"}
    # Fans that reach decide: one per fan file of an ample analyze request,
    # the shared catalog fans in sweep, none in oracle.
    fans = {op.args[1] if op.kind == "cli" else op.args[0]
            for op in ops if op.coeffs and op.expect_ample}
    metrics[f"{ENUMERATE}.calls_per_fan"] = {
        "value": calls[ENUMERATE] / len(fans) if fans else 0.0, "unit": "count"}
    hermite = calls["lattice.hermite_canonical"]
    metrics["stability.flats_per_hermite_call"] = {
        "value": tracer.candidates / hermite if hermite else 0.0, "unit": "ratio"}
    return metrics


def timing_metrics(latencies) -> dict:
    return {
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "latency_p90_s": {"value": statistics.quantiles(latencies, n=10)[8], "unit": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, args.seconds)
    workdir = WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, fans = workloads.generate(args.workload, args.seed, args.seconds, workdir)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            outputs, raw, scaled = run_ops(ops, fans, workloads)
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir)
    problems, digest = check_ops(args.workload, ops, outputs)
    failed = sum(1 for p in problems if p)
    for i, found in enumerate(problems):
        for problem in found:
            print(f"FAIL op {i} {ops[i].args[:2]}: {problem}")
    print(f"{args.workload} seed={args.seed} ops={len(ops)} failed_frac={failed / len(ops)} "
          f"digest sha256={digest}")
    print("unscaled: " + " ".join(f"{k}={v['value']:.6g}" for k, v in timing_metrics(raw).items())
          + f" speed_factor={sum(raw) / sum(scaled):.4f}")

    if tracer:
        metrics = layer_metrics(tracer, ops)
        if tracer.absent:
            print("absent layers (reported as 0): " + ", ".join(tracer.absent))
        # The untraced loop runs in its own process, so that nothing the
        # traced loop leaves behind (a warm cache, say) speeds it up.
        untraced = float(_probe("untraced_probe", args.workload, args.seed, args.seconds))
        traced = len(scaled) / sum(scaled)
        metrics["trace_overhead_frac"] = {"value": untraced / traced - 1, "unit": "ratio"}
    else:
        metrics = timing_metrics(scaled)
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
