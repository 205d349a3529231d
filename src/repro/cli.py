"""Command-line interface: regenerate any paper table/figure from a shell.

Usage::

    python -m repro table1
    python -m repro fig2 --n 158 --nb 32 --heatmap
    python -m repro fig6 --area 1 --sizes 1022,2046,4030 --moments 5
    python -m repro table2 --sizes 128,256
    python -m repro table3 --sizes 128,256
    python -m repro section5 --sizes 1022,4030,10110
    python -m repro campaign --n 128 --moments 4
    python -m repro eig-campaign --n 24 --workers 4
    python -m repro demo
    python -m repro submit --jobs jobs.jsonl --workers 2
    python -m repro serve --jobs jobs.jsonl --stats stats.json

Each subcommand prints the same rendered text the benchmark harness
writes to ``benchmarks/results/``. The ``submit``/``serve`` pair runs a
JSONL job file through the :mod:`repro.serve` batch service (``serve``
additionally streams progress events as JSON lines).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence


def _sizes(arg: str) -> list[int]:
    try:
        sizes = [int(x) for x in arg.split(",") if x]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {arg!r}") from exc
    bad = [x for x in sizes if x <= 0]
    if bad:
        # catch these at parse time: a zero/negative order would otherwise
        # surface as an opaque ShapeError deep inside a driver
        raise argparse.ArgumentTypeError(f"sizes must be positive, got {bad}")
    return sizes


def _channels(arg: str) -> int:
    try:
        k = int(arg)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad channel count {arg!r}") from exc
    if k < 1:
        # the encoding needs the unit channel; reject here rather than
        # as a ShapeError traceback from the campaign's first encode
        raise argparse.ArgumentTypeError(f"channels must be at least 1, got {k}")
    return k


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of Jia/Luszczek/Dongarra, "
        "IPDPSW'16 (fault-tolerant Hessenberg reduction).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="the simulated test platform (Table I)")

    f2 = sub.add_parser("fig2", help="error-propagation patterns (Fig. 2)")
    f2.add_argument("--n", type=int, default=158)
    f2.add_argument("--nb", type=int, default=32)
    f2.add_argument("--seed", type=int, default=42)
    f2.add_argument("--heatmap", action="store_true", help="include ASCII heat maps")

    f6 = sub.add_parser("fig6", help="FT overhead curves (Fig. 6)")
    f6.add_argument("--area", type=int, choices=(1, 2, 3), default=1)
    f6.add_argument("--sizes", type=_sizes, default=None,
                    help="comma-separated sizes (default: the paper's grid)")
    f6.add_argument("--moments", type=int, default=5)
    f6.add_argument("--nb", type=int, default=32)

    t2 = sub.add_parser("table2", help="numerical stability (Table II)")
    t2.add_argument("--sizes", type=_sizes, default=[128, 256])
    t2.add_argument("--nb", type=int, default=32)
    t2.add_argument("--seed", type=int, default=0)

    t3 = sub.add_parser("table3", help="orthogonality of Q (Table III)")
    t3.add_argument("--sizes", type=_sizes, default=[128, 256])
    t3.add_argument("--nb", type=int, default=32)
    t3.add_argument("--seed", type=int, default=0)

    s5 = sub.add_parser("section5", help="the closed-form overhead model (§V)")
    s5.add_argument("--sizes", type=_sizes,
                    default=[1022, 2046, 4030, 6014, 8062, 10110])
    s5.add_argument("--nb", type=int, default=32)

    c = sub.add_parser("campaign", help="fault-injection recovery campaign")
    c.add_argument("--n", type=int, default=128)
    c.add_argument("--nb", type=int, default=32)
    c.add_argument("--moments", type=int, default=4)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--channels", type=_channels, default=None,
                   help="checksum channels (2 enables weighted decode; "
                        "default 2 with --adversarial, else 1)")
    c.add_argument("--dtype", choices=("float64", "float32"), default="float64",
                   help="precision lane for the campaign matrix (float32 "
                        "uses the variance-adaptive V-ABFT threshold)")
    c.add_argument("--workers", type=int, default=1,
                   help="trial-runner processes (1 = serial in-process)")
    c.add_argument("--adversarial", action="store_true",
                   help="widened fault surface: all spaces x phases "
                        "(checkpoint/tau/V/Q-checksum faults, faults during "
                        "recovery) instead of the paper's area x moment grid")
    c.add_argument("--journal", type=str, default=None,
                   help="append each trial to this JSONL journal as it "
                        "completes (crash-proof campaigns)")
    c.add_argument("--resume", action="store_true",
                   help="replay completed trials from --journal and run "
                        "only the remainder")
    c.add_argument("--trial-timeout", type=float, default=None,
                   help="per-trial wall-clock budget in seconds (pooled "
                        "runs; a wedged worker aborts its chunk)")
    c.add_argument("--transport", choices=("auto", "shm", "pickle"),
                   default="auto",
                   help="how the matrix reaches pooled trial runners: "
                        "shared memory, pickle, or pick automatically")

    ec = sub.add_parser("eig-campaign",
                        help="adversarial fault campaign over the full "
                             "eigensolver pipeline (FT reduction + protected "
                             "Francis QR), graded against the clean spectrum")
    ec.add_argument("--n", type=int, default=24)
    ec.add_argument("--nb", type=int, default=8)
    ec.add_argument("--moments", type=int, default=3)
    ec.add_argument("--seed", type=int, default=0)
    ec.add_argument("--magnitude", type=float, default=1.0)
    ec.add_argument("--verify-every", type=int, default=5,
                    help="QR sweeps between invariant checkpoints")
    ec.add_argument("--dtype", choices=("float64", "float32"), default="float64",
                    help="precision lane (float32 widens the invariant "
                         "thresholds by the lane-eps ratio)")
    ec.add_argument("--workers", type=int, default=1,
                    help="trial-runner processes (1 = serial in-process)")
    ec.add_argument("--journal", type=str, default=None,
                    help="append each trial to this JSONL journal as it "
                         "completes (crash-proof campaigns)")
    ec.add_argument("--resume", action="store_true",
                    help="replay completed trials from --journal and run "
                         "only the remainder")
    ec.add_argument("--trial-timeout", type=float, default=None,
                    help="per-trial wall-clock budget in seconds (pooled "
                         "runs; a wedged worker aborts its chunk)")
    ec.add_argument("--transport", choices=("auto", "shm", "pickle"),
                    default="auto",
                    help="how the matrix reaches pooled trial runners")

    d = sub.add_parser("demo", help="one FT run with an injected error")
    d.add_argument("--n", type=int, default=158)
    d.add_argument("--nb", type=int, default=32)
    d.add_argument("--seed", type=int, default=42)

    tr = sub.add_parser("trace", help="export a simulated FT run's timeline "
                                      "as Chrome-trace JSON (chrome://tracing)")
    tr.add_argument("--n", type=int, default=1022)
    tr.add_argument("--nb", type=int, default=32)
    tr.add_argument("--out", type=str, default="ft_hess_trace.json")
    tr.add_argument("--csv", type=str, default=None, metavar="PATH",
                    help="also write the per-op CSV export to this path")

    cv = sub.add_parser("coverage", help="empirical protection-coverage map "
                                         "(one FT run per fault position)")
    cv.add_argument("--n", type=int, default=96)
    cv.add_argument("--nb", type=int, default=32)
    cv.add_argument("--iteration", type=int, default=1)
    cv.add_argument("--grid", type=int, default=10)
    cv.add_argument("--audit-every", type=int, default=0,
                    help="enable the full-audit extension (closes the "
                         "finished-H hole)")
    cv.add_argument("--workers", type=int, default=1,
                    help="trial-runner processes (1 = serial in-process)")

    for name, help_text in (
        ("submit", "run a JSONL job file through the batch service and "
                   "print a summary"),
        ("serve", "like submit, but stream progress events as JSON lines "
                  "while the batch runs"),
    ):
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--jobs", type=str, required=True,
                       help="JSONL file of JobSpec objects ('-' reads stdin)")
        s.add_argument("--workers", type=int, default=2,
                       help="pool worker processes")
        s.add_argument("--max-queue", type=int, default=32,
                       help="admission bound (full queue => structured "
                            "backpressure rejection)")
        s.add_argument("--small-n", type=int, default=64,
                       help="jobs of order <= this run on the in-thread lane")
        s.add_argument("--cache-mb", type=float, default=32.0,
                       help="result-cache byte budget in MiB (0 disables)")
        s.add_argument("--spill", type=str, default=None,
                       help="directory for on-disk cache spill")
        s.add_argument("--timeout", type=float, default=None,
                       help="per-attempt wall-clock budget in seconds")
        s.add_argument("--transport", choices=("auto", "shm", "pickle"),
                       default="auto",
                       help="cross-process data plane for inline matrices "
                            "and returned factors (see docs/performance.md)")
        s.add_argument("--batch-max", type=int, default=0,
                       help="batch-coalescing lane: group up to this many "
                            "compatible small-n jobs into one stacked "
                            "execution (<= 1 disables; see docs/serving.md)")
        s.add_argument("--batch-linger-ms", type=float, default=5.0,
                       help="how long a partially filled batch waits for "
                            "company before it runs anyway")
        s.add_argument("--stats", type=str, default=None, metavar="PATH",
                       help="write the service stats dump to this JSON file")
        s.add_argument("--results", type=str, default=None, metavar="PATH",
                       help="write one JobResult JSON per line to this file")

    return p


def _cmd_table1() -> str:
    from repro.analysis import render_table1
    from repro.hybrid import paper_testbed

    return render_table1(paper_testbed())


def _cmd_fig2(args) -> str:
    from repro.analysis import paper_fig2_cases, render_fig2, run_propagation
    from repro.utils.rng import random_matrix

    a = random_matrix(args.n, seed=args.seed)
    if args.n == 158 and args.nb == 32:
        cases = paper_fig2_cases()
    else:
        from repro.faults import finished_cols_at, sample_in_area
        import numpy as np

        rng = np.random.default_rng(args.seed)
        p = finished_cols_at(1, args.n, args.nb)
        cases = [(*sample_in_area(area, p, args.n, rng), 1) for area in (3, 1, 2)]
    results = [run_propagation(a, i, j, it, nb=args.nb) for (i, j, it) in cases]
    return render_fig2(results, with_heatmap=args.heatmap)


def _cmd_fig6(args) -> str:
    from repro.analysis import PAPER_SIZES, fig6_series, render_fig6

    sizes = tuple(args.sizes) if args.sizes else PAPER_SIZES
    series = fig6_series(args.area, sizes=sizes, nb=args.nb, moments=args.moments)
    return render_fig6(series)


def _cmd_table2(args) -> str:
    from repro.analysis import render_table2, run_stability_sweep

    return render_table2(run_stability_sweep(args.sizes, nb=args.nb, seed=args.seed))


def _cmd_table3(args) -> str:
    from repro.analysis import render_table3, run_stability_sweep

    return render_table3(run_stability_sweep(args.sizes, nb=args.nb, seed=args.seed))


def _cmd_section5(args) -> str:
    from repro.analysis import render_section5

    return render_section5(args.sizes, nb=args.nb)


def _cmd_campaign(args) -> str:
    from repro.core.config import FTConfig
    from repro.faults import run_campaign
    from repro.utils import Table
    from repro.utils.rng import random_matrix

    channels = args.channels
    if channels is None:
        channels = 2 if args.adversarial else 1
    a = random_matrix(args.n, seed=args.seed, dtype=args.dtype)
    res = run_campaign(
        a,
        nb=args.nb,
        moments=args.moments,
        seed=args.seed,
        config=FTConfig(nb=args.nb, channels=channels),
        workers=args.workers,
        adversarial=args.adversarial,
        journal=args.journal,
        resume=args.resume,
        trial_timeout=args.trial_timeout,
        transport=args.transport,
    )
    if args.adversarial:
        from repro.faults import OUTCOMES

        t = Table(
            ["space", "trials", "corrected", "restarted", "masked", "aborted",
             "worst residual"],
            title=f"adversarial campaign on N={args.n} "
                  f"(nb={args.nb}, channels={channels}, dtype={args.dtype})",
        )
        spaces = sorted({x.spec.space for x in res.trials})
        for space in spaces:
            trials = [x for x in res.trials if x.spec.space == space]
            t.add_row(
                [
                    space,
                    len(trials),
                    sum(x.outcome == "corrected" for x in trials),
                    sum(x.outcome == "restarted" for x in trials),
                    sum(x.outcome == "masked" for x in trials),
                    sum(x.outcome == "aborted" for x in trials),
                    max(x.residual for x in trials),
                ]
            )
        counts = res.outcome_counts
        tail = "outcomes: " + ", ".join(f"{o}={counts[o]}" for o in OUTCOMES)
        if res.resumed:
            tail += f"\nreplayed from journal: {res.resumed}/{len(res.trials)}"
        return t.render() + "\n" + tail
    t = Table(
        ["area", "trials", "detected", "recovered", "worst residual"],
        title=f"campaign on N={args.n} (nb={args.nb}, channels={channels}, "
              f"dtype={args.dtype})",
    )
    for area in (1, 2, 3):
        trials = res.by_area(area)
        t.add_row(
            [
                area,
                len(trials),
                sum(x.detected for x in trials),
                sum(x.recovered for x in trials),
                max(x.residual for x in trials),
            ]
        )
    tail = f"overall recovery rate: {res.recovery_rate:.0%}"
    if res.resumed:
        tail += f"\nreplayed from journal: {res.resumed}/{len(res.trials)}"
    return t.render() + "\n" + tail


def _cmd_eig_campaign(args) -> str:
    from repro.core.config import FTConfig
    from repro.eigen import QRProtectConfig
    from repro.faults import OUTCOMES, run_eig_campaign
    from repro.utils import Table
    from repro.utils.rng import random_matrix

    a = random_matrix(args.n, seed=args.seed, dtype=args.dtype)
    res = run_eig_campaign(
        a,
        nb=args.nb,
        moments=args.moments,
        seed=args.seed,
        magnitude=args.magnitude,
        config=FTConfig(nb=args.nb),
        qr_config=QRProtectConfig(verify_every=args.verify_every),
        workers=args.workers,
        journal=args.journal,
        resume=args.resume,
        trial_timeout=args.trial_timeout,
        transport=args.transport,
    )
    t = Table(
        ["space", "trials", "corrected", "escalated", "masked", "aborted",
         "worst residual"],
        title=f"eigensolver fault campaign on N={args.n} "
              f"(nb={args.nb}, verify_every={args.verify_every}, "
              f"dtype={args.dtype})",
    )
    for space in sorted({x.spec.space for x in res.trials}):
        trials = [x for x in res.trials if x.spec.space == space]
        t.add_row(
            [
                space,
                len(trials),
                sum(x.outcome == "corrected" for x in trials),
                sum(x.outcome == "escalated" for x in trials),
                sum(x.outcome == "masked" for x in trials),
                sum(x.outcome == "aborted" for x in trials),
                max(x.residual for x in trials),
            ]
        )
    counts = res.outcome_counts
    # "detected" here = a fault perturbed the spectrum past tolerance and
    # no guard fired: silent corruption, the one outcome the protected
    # solver must never produce.
    silent = counts.get("detected", 0)
    tail = "outcomes: " + ", ".join(f"{o}={counts[o]}" for o in OUTCOMES)
    tail += (
        f"\nclean-pipeline parity vs numpy eigvals: "
        f"{res.baseline_residual:.3e}"
    )
    tail += f"\nsilent corruptions: {silent}"
    if res.resumed:
        tail += f"\nreplayed from journal: {res.resumed}/{len(res.trials)}"
    return t.render() + "\n" + tail


def _cmd_trace(args) -> str:
    from repro.core import FTConfig, ft_gehrd

    res = ft_gehrd(args.n, FTConfig(nb=args.nb))
    with open(args.out, "w") as fh:
        fh.write(res.timeline.to_chrome_trace())
    written = [args.out]
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(res.timeline.to_csv())
        written.append(args.csv)
    return (
        f"wrote {len(res.timeline.ops)} simulated ops "
        f"(makespan {res.seconds:.4f}s on the Table-I machine) to "
        + ", ".join(written) + "\n"
        + res.timeline.gantt(width=90)
    )


def _cmd_coverage(args) -> str:
    from repro.analysis import coverage_map

    cmap = coverage_map(
        n=args.n, nb=args.nb, iteration=args.iteration, grid=args.grid,
        audit_every=args.audit_every, workers=args.workers,
    )
    return cmap.render()


def _cmd_demo(args) -> str:
    from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd, overhead_percent
    from repro.faults import FaultInjector, FaultSpec
    from repro.linalg import (
        extract_hessenberg,
        factorization_residual,
        orghr,
    )
    from repro.utils.rng import random_matrix

    a = random_matrix(args.n, seed=args.seed)
    base = hybrid_gehrd(a, HybridConfig(nb=args.nb))
    i, j = args.n // 2, min(args.n - 2, 3 * args.n // 4)
    inj = FaultInjector().add(FaultSpec(iteration=1, row=i, col=j, magnitude=2.0))
    ft = ft_gehrd(a, FTConfig(nb=args.nb), injector=inj)
    q = orghr(ft.a, ft.taus)
    h = extract_hessenberg(ft.a)
    lines = [
        f"N={args.n}, nb={args.nb}: injected +2.0 at ({i}, {j}) before iteration 1",
        f"detections: {ft.detections}, recoveries: {len(ft.recoveries)}",
    ]
    for rec in ft.recoveries:
        for e in rec.errors:
            lines.append(
                f"  located ({e.row}, {e.col}), magnitude {e.magnitude:+.4f}, corrected"
            )
    lines.append(f"residual after recovery: {factorization_residual(a, q, h):.3e}")
    lines.append(f"simulated overhead vs baseline: {overhead_percent(ft, base):.2f}%")
    return "\n".join(lines)


def _load_jobs(path: str) -> list:
    """Parse a JSONL job file into JobSpecs (blank/# lines skipped)."""
    import json

    from repro.serve import JobSpec, JobSpecError

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    specs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            specs.append(JobSpec.from_json(json.loads(line)))
        except (ValueError, JobSpecError, TypeError) as exc:
            raise SystemExit(f"jobs file {path}:{lineno}: {exc}") from exc
    return specs


def _run_jobs(args, *, stream: bool) -> str:
    import json
    import queue as queue_mod
    import threading
    import time

    from repro.serve import HessService
    from repro.utils import Table

    specs = _load_jobs(args.jobs)
    t0 = time.perf_counter()
    svc = HessService(
        workers=args.workers,
        max_queue=args.max_queue,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        spill_dir=args.spill,
        small_n_threshold=args.small_n,
        default_timeout=args.timeout,
        transport=args.transport,
        batch_max=args.batch_max,
        batch_linger_ms=args.batch_linger_ms,
    )
    pumper = None
    stop = threading.Event()
    if stream:
        evq = svc.subscribe()

        def _pump() -> None:
            while True:
                try:
                    event = evq.get(timeout=0.1)
                except queue_mod.Empty:
                    if stop.is_set():
                        return
                    continue
                print(json.dumps(event), flush=True)

        pumper = threading.Thread(target=_pump, name="serve-events", daemon=True)
        pumper.start()

    backpressured = 0
    pairs = []  # (spec, submission)
    try:
        for spec in specs:
            sub = svc.submit(spec)
            if not sub.accepted and sub.reason.startswith("backpressure"):
                # client-side flow control: wait out the full queue
                backpressured += 1
                sub = svc.submit_wait(spec)
            pairs.append((spec, sub))
        svc.drain()
        results = [
            svc.peek(sub.job_id) if sub.accepted else None for _, sub in pairs
        ]
        stats = svc.stats()
    finally:
        stop.set()
        if pumper is not None:
            pumper.join(timeout=5)
        svc.close(drain=False)
    elapsed = time.perf_counter() - t0

    terminal = [r for r in results if r is not None]
    dump = {
        "jobs": len(specs),
        "elapsed_s": elapsed,
        "jobs_per_sec": len(terminal) / elapsed if elapsed > 0 else 0.0,
        "backpressure_waits": backpressured,
        "stats": stats,
    }
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump(dump, fh, indent=2)
    if args.results:
        with open(args.results, "w") as fh:
            for r in terminal:
                fh.write(json.dumps(r.to_json()) + "\n")

    t = Table(
        ["driver", "jobs", "done", "failed", "cancelled", "cache hits", "coalesced"],
        title=f"batch of {len(specs)} jobs "
              f"({args.workers} workers, max queue {args.max_queue})",
    )
    drivers = sorted({s.driver for s in specs})
    for driver in drivers:
        rows = [r for (s, _), r in zip(pairs, results) if s.driver == driver and r]
        t.add_row(
            [
                driver,
                sum(s.driver == driver for s, _ in pairs),
                sum(r.status == "done" for r in rows),
                sum(r.status == "failed" for r in rows),
                sum(r.status == "cancelled" for r in rows),
                sum(r.cache_hit for r in rows),
                sum(r.coalesced for r in rows),
            ]
        )
    tail = (
        f"hit rate: {stats['hit_rate']:.0%}  "
        f"jobs/sec: {dump['jobs_per_sec']:.2f}  "
        f"retries: {stats['counts'].get('retries', 0)}  "
        f"pool rebuilds: {stats['pool_rebuilds']}  "
        f"backpressure waits: {backpressured}"
    )
    blane = stats.get("batch_lane", {})
    if blane.get("enabled"):
        tail += (
            f"\nbatch lane: {blane['batches']} batches, "
            f"mean occupancy {blane['mean_occupancy']:.1f}, "
            f"ejections {blane['ejections']}"
        )
    return t.render() + "\n" + tail


def _cmd_submit(args) -> str:
    return _run_jobs(args, stream=False)


def _cmd_serve(args) -> str:
    return _run_jobs(args, stream=True)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    dispatch = {
        "table1": lambda: _cmd_table1(),
        "fig2": lambda: _cmd_fig2(args),
        "fig6": lambda: _cmd_fig6(args),
        "table2": lambda: _cmd_table2(args),
        "table3": lambda: _cmd_table3(args),
        "section5": lambda: _cmd_section5(args),
        "campaign": lambda: _cmd_campaign(args),
        "eig-campaign": lambda: _cmd_eig_campaign(args),
        "demo": lambda: _cmd_demo(args),
        "trace": lambda: _cmd_trace(args),
        "coverage": lambda: _cmd_coverage(args),
        "submit": lambda: _cmd_submit(args),
        "serve": lambda: _cmd_serve(args),
    }
    print(dispatch[args.command]())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
