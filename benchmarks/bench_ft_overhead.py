#!/usr/bin/env python
"""Driver-level protection overhead: ``ft_gehrd`` vs unprotected ``gehrd``.

The FT-GEMM papers report protection cost as a single number — the
wall-clock overhead of the protected kernel against the unprotected one.
This benchmark produces that number for the *whole reduction driver* (the
paper's Fig. 6 metric): ``ft_gehrd`` on a matrix — ABFT encoding,
checksum-fused updates, per-iteration detection — against the plain
``hybrid_gehrd`` on the same matrix, for both precision lanes.  Both
sides pay the same simulated-runtime tax, so the delta is pure
protection work.

Each lane also reports the *measured flop* share of the ABFT categories
from the instrumented driver's :class:`~repro.linalg.flops.FlopCounter`
(the §V ``FLOP_extra / FLOP_total`` ratio), so wall-clock overhead can
be read against the arithmetic the protection actually added.

Because the wall overhead is routinely 10–50x the flop share (the fp32
lane has shown 43.8% wall against 0.95% flops), each lane carries a
``phases`` block: the driver's kernel sequence replayed standalone with
per-phase timers — panel factorization, right update, left update, and
checksum maintenance (encoding, V/Y column checksums, finished-segment
refresh, Σ detection) — on both the protected (checksum-extended) and
unprotected paths, so the overhead is attributed to the phase that
actually pays it rather than smeared across the run. The residual
between the full-driver delta and the phase-sum delta is reported as
``other_ms`` (checkpoint saves, Q-protection, tau guard, simulated
runtime) — nothing is silently dropped.

Run:  PYTHONPATH=src python benchmarks/bench_ft_overhead.py
      [--quick] [--json PATH]

``--quick`` shrinks the problem (n=128, fewer repeats) for CI smoke
jobs; the full run uses the paper's n=512, nb=32.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd  # noqa: E402
from repro.linalg.verify import extract_hessenberg                     # noqa: E402
from repro.utils.rng import random_matrix                              # noqa: E402

_ABFT_CATEGORIES = ("abft_init", "abft_maintain", "abft_detect", "abft_qprotect")


def _best_of(fn, *, repeats: int) -> float:
    """Best wall-clock of several runs (noise floor, not an average)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _phase_breakdown(n: int, nb: int, dtype, *, repeats: int) -> dict:
    """Per-phase wall times of the protected vs unprotected kernel walk.

    Replays the driver's fault-free iteration sequence (panel → V/Y
    checksums → right update → left update → refresh + Σ check) with an
    accumulating timer per phase, and the unprotected equivalent (panel
    → right → left) next to it. ``*_delta_ms`` is what protection adds
    in that phase; phases only the protected side has (checksum
    maintenance) are pure overhead by construction.
    """
    from repro.abft.checksums import (
        left_update_encoded,
        right_update_encoded,
        v_col_checksums,
        y_col_checksums,
    )
    from repro.abft.detection import Detector
    from repro.abft.encoding import EncodedMatrix
    from repro.core.config import FTConfig
    from repro.core.hybrid_hessenberg import iteration_plan_cached
    from repro.linalg.gehrd import apply_left_update, apply_right_updates
    from repro.linalg.lahr2 import lahr2
    from repro.linalg.verify import one_norm
    from repro.perf.workspace import Workspace

    a = random_matrix(n, seed=4, dtype=dtype)
    plan = iteration_plan_cached(n, nb)
    cfg = FTConfig(nb=nb)
    norm_a = one_norm(a)

    def walk_ft() -> dict[str, float]:
        t: dict[str, float] = {"panel": 0.0, "right": 0.0, "left": 0.0,
                               "checksum": 0.0}
        t0 = time.perf_counter()
        em = EncodedMatrix(a.copy())          # encoding is maintenance too
        t["checksum"] += time.perf_counter() - t0
        ws = Workspace()
        ws.presize(n, nb, em.k, dtype=em.ext.dtype)
        detector = Detector(cfg.threshold, norm_a)
        for p, ib in plan:
            t0 = time.perf_counter()
            pf = lahr2(em.ext, p, ib, n, workspace=ws)
            t["panel"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            vce = v_col_checksums(pf, em)
            ychk = y_col_checksums(em, pf)
            t["checksum"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            right_update_encoded(em, pf, vce, ychk, workspace=ws)
            t["right"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            left_update_encoded(em, pf, vce, workspace=ws)
            t["left"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            em.refresh_finished_segment(p, ib)
            detector.check(em)
            t["checksum"] += time.perf_counter() - t0
        return t

    def walk_plain() -> dict[str, float]:
        t: dict[str, float] = {"panel": 0.0, "right": 0.0, "left": 0.0}
        work = a.copy(order="F")
        ws = Workspace()
        ws.presize(n, nb, dtype=work.dtype)
        for p, ib in plan:
            t0 = time.perf_counter()
            pf = lahr2(work, p, ib, n, workspace=ws)
            t["panel"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            apply_right_updates(work, pf, n, workspace=ws)
            t["right"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            apply_left_update(work, pf, n, workspace=ws)
            t["left"] += time.perf_counter() - t0
        return t

    def best_walk(walk) -> dict[str, float]:
        best: dict[str, float] = {}
        best_total = float("inf")
        for _ in range(repeats):
            t = walk()
            total = sum(t.values())
            if total < best_total:
                best_total, best = total, t
        return best

    ft = best_walk(walk_ft)
    plain = best_walk(walk_plain)
    out: dict = {}
    for phase in ("panel", "right", "left", "checksum"):
        ft_ms = ft[phase] * 1e3
        plain_ms = plain.get(phase, 0.0) * 1e3
        out[phase] = {
            "ft_ms": ft_ms,
            "plain_ms": plain_ms,
            "delta_ms": ft_ms - plain_ms,
        }
    delta_total = sum(row["delta_ms"] for row in out.values())
    for row in out.values():
        row["delta_share_pct"] = (
            100.0 * row["delta_ms"] / delta_total if delta_total > 0 else 0.0
        )
    out["kernel_walk_ft_ms"] = sum(ft.values()) * 1e3
    out["kernel_walk_plain_ms"] = sum(plain.values()) * 1e3
    return out


def _lane(n: int, nb: int, dtype, *, repeats: int) -> dict:
    a = random_matrix(n, seed=4, dtype=dtype)

    def unprotected():
        return hybrid_gehrd(a, HybridConfig(nb=nb))

    def protected():
        return ft_gehrd(a, FTConfig(nb=nb))

    res_plain = unprotected()
    res_ft = protected()
    h_plain = extract_hessenberg(res_plain.a)
    h_ft = extract_hessenberg(res_ft.a)
    hess_diff = float(
        np.max(np.abs(h_ft - h_plain)) / max(float(np.max(np.abs(h_plain))), 1.0)
    )
    counter = res_ft.counter
    abft_flops = counter.category_total(*_ABFT_CATEGORIES)
    t_plain = _best_of(unprotected, repeats=repeats)
    t_ft = _best_of(protected, repeats=repeats)
    phases = _phase_breakdown(n, nb, dtype, repeats=repeats)
    # whatever the full driver pays beyond the instrumented kernel walk:
    # checkpoint saves, Q-protection, tau guard, simulated runtime
    phases["other_ms"] = (t_ft - t_plain) * 1e3 - sum(
        phases[p]["delta_ms"] for p in ("panel", "right", "left", "checksum")
    )
    return {
        "dtype": str(np.dtype(dtype)),
        "gehrd_ms": t_plain * 1e3,
        "ft_gehrd_ms": t_ft * 1e3,
        "overhead_pct": (t_ft / t_plain - 1.0) * 100.0,
        "abft_flop_pct": 100.0 * abft_flops / counter.total,
        "hess_diff_rel": hess_diff,
        "recoveries": len(res_ft.recoveries),
        "phases": phases,
    }


def bench_ft_overhead(
    n: int = 512, nb: int = 32, *, repeats: int = 3, quick: bool = False
) -> dict:
    """The ``ft_overhead`` BENCH row: both lanes at one problem size."""
    if quick:
        n, repeats = min(n, 128), min(repeats, 2)
    return {
        "n": n,
        "nb": nb,
        "fp64": _lane(n, nb, np.float64, repeats=repeats),
        "fp32": _lane(n, nb, np.float32, repeats=repeats),
    }


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small-n smoke mode for CI (n=128, 2 repeats)")
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--nb", type=int, default=32)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help="also write the row to this JSON file")
    args = ap.parse_args(argv)
    row = bench_ft_overhead(args.n, args.nb, repeats=args.repeats, quick=args.quick)
    text = json.dumps({"ft_overhead": row}, indent=2)
    if args.json is not None:
        args.json.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
