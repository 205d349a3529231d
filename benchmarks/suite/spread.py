#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, for setting their bounds.

    python3 benchmarks/suite/spread.py [--runs K] [--sets S] [--seed0 N]
                                       [--workload W ...]

Runs ``run.py --workload W --seed S --seconds <run_seconds> --trace 0``
K times per workload per set, each run with its own seed, interleaving
the workloads so that host drift spreads evenly. For every (metric,
workload) it prints the median, the interquartile range as a share of
the median (quartiles from ``statistics.quantiles(n=4)``) and the
max/min ratio, next to the metric's bound in BENCHMARK.json. With two
or more sets it also prints how far each later set's median moved from
the first, in the metric's worse direction. A spread above a third of
the bound, or a drift above the bound, is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(SUITE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"spread.py: {workload} seed {seed} exited {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"spread.py: {workload} seed {seed} failed its checks")
    return {k: v["value"] for k, v in res["metrics"].items()}


def iqr_share(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    workloads = args.workload or names

    # values[set][workload][metric] -> list over runs
    values = [{w: {m: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    seed = args.seed0
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:
                got = one_run(w, seed, spec["run_seconds"])
                seed += 1
                for m in metrics:
                    values[s][w][m].append(got[m])
                print(f"set {s} {w} seed {seed - 1}: "
                      + " ".join(f"{m}={got[m]:.4g}" for m in metrics), flush=True)

    flagged = 0
    print(f"\n{'workload':8s} {'metric':18s} {'bound':>6s} "
          + " ".join(f"{'s' + str(s) + ' median':>12s} {'iqr/med':>8s} {'max/min':>8s}"
                     for s in range(args.sets))
          + ("  drift" if args.sets > 1 else ""))
    for w in workloads:
        for m, meta in metrics.items():
            row = f"{w:8s} {m:18s} {meta['bound']:6.3f} "
            base = statistics.median(values[0][w][m])
            drift = 0.0
            notes = []
            for s in range(args.sets):
                vals = values[s][w][m]
                med = statistics.median(vals)
                spread = iqr_share(vals)
                row += f"{med:12.5g} {spread:8.4f} {max(vals) / min(vals):8.3f} "
                if spread > meta["bound"] / 3:
                    notes.append(f"set {s} spread > bound/3")
                worse = (med - base) / base if meta["better"] == "lower" else (base - med) / base
                drift = max(drift, worse)
            if args.sets > 1:
                row += f" {drift:+.4f}"
                if drift > meta["bound"]:
                    notes.append("drift > bound")
            flagged += bool(notes)
            print(row + ("  <- " + "; ".join(notes) if notes else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
