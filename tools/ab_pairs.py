"""Compare two checkouts on the benchmark in alternating pairs.

    python3 tools/ab_pairs.py BASE CHANGE [--workloads analyze,sweep,oracle]
        [--seed 1000]

BASE and CHANGE are the roots of two source checkouts.  Every name in
``--workloads`` must be a workload of CHANGE's BENCHMARK.json (exit 2
otherwise, before any run).  For each workload, pair i of ``PAIRS`` runs
``perfbench/run.py --workload W --seed SEED+i --seconds S`` once in each
checkout, S the ``run_seconds`` of CHANGE's BENCHMARK.json, BASE first on
even pairs and CHANGE first on odd ones, so a drift in machine speed falls
on both sides alike.  Each pair must give equal ``digest sha256=`` lines
and 0 failed ops on both sides; a pair that does not is reported and the
script exits 1.

For each workload and each end-to-end metric of CHANGE's BENCHMARK.json it
prints BASE's median and quartiles, CHANGE's median, the change of the
median relative to BASE's, the gap between the medians over BASE's
interquartile range, in how many pairs CHANGE was better, in how many the
side that ran first read worse (a count near 0 or near the number of pairs
shows an order bias), and a verdict:
``gain`` when CHANGE was better in at least 9 of 10 pairs and its median
is better than BASE's by more than BASE's interquartile range;
``regression`` when CHANGE's median is worse than BASE's by more than the
metric's bound times BASE's median; ``unresolved`` when it is neither and
BASE's interquartile range, relative to BASE's median, is wider than the
metric's bound; else ``no gain``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
GAIN_WINS = 0.9  # the share of pairs a gain must win


def base_first(i: int) -> bool:
    """Whether BASE runs first in pair ``i``: on even pairs."""
    return i % 2 == 0


def verdict(row: dict, lower: bool) -> str:
    """``gain``, ``regression``, ``unresolved`` or ``no gain`` for one
    ``summarize`` row."""
    iqr = row["base_q3"] - row["base_q1"]
    better = row["base_median"] - row["change_median"]
    if not lower:
        better = -better
    if row["wins"] >= GAIN_WINS * row["pairs"] and better > iqr:
        return "gain"
    bound, median = row["bound"], row["base_median"]
    if bound is not None and -better > bound * abs(median):
        return "regression"
    if bound is not None and median and iqr / abs(median) > bound:
        return "unresolved"
    return "no gain"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout ``root``: its metrics, digest and failures."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    digest = next((line.split("digest sha256=")[1] for line in lines if "digest sha256=" in line),
                  None)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digest": digest, "failed": result["failed"]}


def pair_problems(base: dict, change: dict) -> list[str]:
    """What makes one pair unusable: unequal digests or failed ops."""
    problems = []
    if base["digest"] is None or base["digest"] != change["digest"]:
        problems.append(f"digests differ: {base['digest']} != {change['digest']}")
    for side, run in (("base", base), ("change", change)):
        if run["failed"]:
            problems.append(f"{side} failed {run['failed']} ops")
    return problems


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """Per metric: both medians, BASE's quartiles, CHANGE's wins, the
    pairs whose first run read worse and the verdict.

    ``pairs`` holds (base, change) runs as ``run_once`` returns them, in
    pair order, so ``base_first`` tells which ran first; ``metrics`` the
    ``end_to_end`` entries of BENCHMARK.json.
    """
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b["metrics"][name] for b, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        q1, median, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else base * 3
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        firsts = [(b, c) if base_first(i) else (c, b)
                  for i, (b, c) in enumerate(zip(base, change))]
        first_worse = sum((x > y) if lower else (x < y) for x, y in firsts)
        change_median = statistics.median(change)
        row = {"metric": name, "base_median": median, "base_q1": q1, "base_q3": q3,
               "change_median": change_median,
               "rel": change_median / median - 1 if median else 0.0,
               "gap_over_iqr": abs(change_median - median) / (q3 - q1) if q3 > q1 else None,
               "wins": wins, "first_worse": first_worse, "pairs": len(pairs),
               "bound": metric.get("bound")}
        rows.append({**row, "verdict": verdict(row, lower)})
    return rows


def format_rows(workload: str, rows: list[dict]) -> str:
    out = [f"{workload}: {rows[0]['pairs'] if rows else 0} pairs"]
    for r in rows:
        gap = "-" if r["gap_over_iqr"] is None else f"{r['gap_over_iqr']:.2f}"
        out.append(f"  {r['metric']:<14} base {r['base_median']:.6g} "
                   f"[{r['base_q1']:.6g}-{r['base_q3']:.6g}] change {r['change_median']:.6g} "
                   f"({r['rel']:+.1%}, bound {r['bound']}) gap/IQR {gap} "
                   f"wins {r['wins']}/{r['pairs']} first worse {r['first_worse']}/{r['pairs']} "
                   f"{r['verdict']}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", default="analyze,sweep,oracle")
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",")
    known = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"unknown workloads {','.join(unknown)}: CHANGE's BENCHMARK.json "
                     f"has {','.join(known)}")
    seconds = spec["run_seconds"]
    ok = True
    for workload in workloads:
        pairs = []
        for i in range(PAIRS):
            seed = args.seed + i
            order = [("base", args.base), ("change", args.change)]
            if not base_first(i):
                order.reverse()
            runs = {side: run_once(root, workload, seed, seconds) for side, root in order}
            problems = pair_problems(runs["base"], runs["change"])
            for problem in problems:
                print(f"{workload} seed {seed}: {problem}", flush=True)
            ok = ok and not problems
            pairs.append((runs["base"], runs["change"]))
            print(f"{workload} seed {seed} ({order[0][0]} first): " + " ".join(
                f"{k}={runs['base']['metrics'][k]:.4g}/{runs['change']['metrics'][k]:.4g}"
                for k in runs["base"]["metrics"]), flush=True)
        print(format_rows(workload, summarize(pairs, spec["end_to_end"])), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
