#!/usr/bin/env python3
"""FT-Hess benchmark suite: one command, every workload and metric.

    python3 benchmarks/suite/run.py [--workload W] [--seed S] [--seconds T]
                                    [--trace [0|1]] [--quick]

Each workload runs in a child process of its own (``workloads.py``),
one after another, with one BLAS thread per library (see README.md).
``--seconds`` is the timed length of each workload; the benchmark is
measured at ``run_seconds`` from BENCHMARK.json, which is the default
(``--quick``: 3 s). Every metric is printed by name with its unit; the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports the per-layer metrics from a
run that alternates probed and unprobed units, and writes a chrome
trace per workload under ``results/``. Without ``--workload`` all three
workloads run and the metric names are prefixed with the workload.
The exit code is 0 when every output checked out, 1 when a check
failed, and 2 when a workload could not run at all (then no result
line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
#: one BLAS thread per library: numpy's and scipy's OpenBLAS each keep
#: their own pool, and two pools on a 2-core host contend (README.md)
THREAD_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
#: set-ups per run, half before and half after the measured one;
#: setup_s is their median
SETUP_REPEATS = 7
QUICK_SECONDS = 3.0
#: wall-clock limit for one workload: its set-ups plus the measured run
WORKLOAD_LIMIT_S = 170.0


class SuiteError(RuntimeError):
    """A workload could not run (as opposed to running and failing a check)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(workload: str, args, deadline: float, *, setup_only: bool = False,
          trace_file: Path | None = None) -> tuple[float, dict]:
    """Run one workload child; returns (set-up seconds, its JSON line)."""
    cmd = [
        sys.executable, str(SUITE / "workloads.py"), workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    env = dict(os.environ, **THREAD_ENV)
    t_spawn = time.monotonic()
    # a session of its own, so a timeout can stop the pool workers too
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SuiteError(f"{workload}: child timed out") from None
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise SuiteError(f"{workload}: child exited with code {proc.returncode}")
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise SuiteError(f"{workload}: unreadable child output ({exc})") from None
    return res["ready_at"] - t_spawn, res


def run_workload(workload: str, args, names: list[str], units: dict) -> dict:
    """Set-ups, the measured run, and the metrics named in *names*."""
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    extra = 0 if (args.quick or args.trace) else SETUP_REPEATS - 1
    setups = [child(workload, args, deadline, setup_only=True)[0] for _ in range(extra // 2)]
    trace_file = None
    if args.trace:
        (SUITE / "results").mkdir(exist_ok=True)
        trace_file = SUITE / "results" / f"{workload}-seed{args.seed}.trace.json"
    setup, res = child(workload, args, deadline, trace_file=trace_file)
    setups.append(setup)
    setups += [child(workload, args, deadline, setup_only=True)[0]
               for _ in range(extra - extra // 2)]
    produced = {k: tuple(v) for k, v in res["metrics"].items()}
    produced["setup_s"] = (statistics.median(setups), "s")
    metrics = {}
    for name in names:
        if name in produced:
            value, unit = produced[name]
        elif args.trace:
            value, unit = 0.0, units[name]  # a layer this workload never enters
        else:
            raise SuiteError(f"{workload}: end-to-end metric {name!r} was not measured")
        metrics[name] = {"value": float(value), "unit": unit}
    return {
        "workload": workload,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "host": res["host"],
        "metrics": metrics,
        "trace_file": res.get("trace_file"),
    }


def report(r: dict, args) -> None:
    host = r["host"]
    share = r["failed"] / max(r["attempted"], 1)
    print(f"== {r['workload']}  seed {args.seed}  {args.seconds:g} s  "
          f"trace {'on' if args.trace else 'off'} ==")
    print(f"host: commit {commit()[:12]}  python {host['python']}  numpy {host['numpy']}  "
          f"scipy {host['scipy']}  affinity {host['affinity']}  "
          f"yardstick {host['yardstick_ms']:.3f} ms")
    print(f"      blas {', '.join(host['blas_libs']) or '?'}  threads "
          + " ".join(f"{k}={v}" for k, v in host["threads"].items()))
    print(f"ops {r['attempted']}  failed {r['failed']}  fail_share {share:.4f}")
    for why in r["failures"]:
        print(f"  FAILED: {why}")
    for name, m in r["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if r["trace_file"]:
        print(f"  trace: {r['trace_file']}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    choices = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=choices, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"timed seconds per workload (default: {spec['run_seconds']}, "
                         f"--quick: {QUICK_SECONDS:g})")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="short smoke run: small serve rounds, one set-up")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])

    table = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in table]
    units = {m["name"]: m["unit"] for m in table}
    results = []
    try:
        for workload in ([args.workload] if args.workload else choices):
            results.append(run_workload(workload, args, names, units))
            report(results[-1], args)
    except SuiteError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    if args.workload:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
