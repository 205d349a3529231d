#!/usr/bin/env python
"""Before/after timings for the throughput layer, emitted as JSON.

Runs the comparisons below on this machine and writes
``BENCH_kernels.json`` at the repository root — the single source of
truth; ``benchmarks/results/BENCH_kernels.json`` is maintained as a
relative symlink to it so the two can never drift:

* ``panel``           — ``lahr2``: frozen pre-pooling reference vs the
                        workspace-pooled kernel (n=512, nb=32, first panel);
* ``encoded_updates`` — one checksum-extended right+left update pair:
                        reference vs the pooled kernels, whose GEMMs
                        are one np.matmul each (n=512, nb=32);
* ``encoded_updates_fp32`` — the same fused update pair on the float32
                        lane vs float64 (SGEMM vs DGEMM, half the
                        memory traffic);
* ``campaign``        — a small fault campaign (n=96), serial vs
                        ``--workers 4``, with serialized-bytes-per-trial
                        for the pickle vs shared-memory data planes and
                        the measured pool-startup cost;
* ``campaign_n256``   — the same comparison at n=256, where the pool
                        should win outright and the shm transport moves
                        orders of magnitude fewer serialized bytes;
* ``serve``           — a 200-job duplicate-heavy mixed batch through
                        ``HessService`` (jobs/sec and cache hit-rate;
                        see ``bench_serve.py``);
* ``campaign_fp32``   — the n=96 campaign on the float32 lane (same
                        grid; ~2x smaller ``bytes_per_trial`` and
                        segment copies);
* ``serve_batched``   — 200 *distinct* small-n jobs through the scalar
                        in-thread lane vs the batch-coalescing lane
                        (stacked execution; see ``bench_serve.py``);
* ``serve_batched_fp32`` — the batch lane's two precision lanes head to
                        head at identical settings (n=96, where stacked
                        BLAS work dominates per-job overhead);
* ``serve_dataplane`` — inline n=256 matrices through the service under
                        ``transport="pickle"`` vs ``"auto"`` (bytes per
                        submitted job each way; see ``bench_serve.py``);
* ``cluster``         — a 200-job distinct-key batch through the sharded
                        serve tier, 3 shards vs 1 shard (aggregate
                        jobs/sec; see ``bench_cluster.py``);
* ``ft_eig``          — the full protected eigensolver pipeline
                        (FT reduction + checkpointed Francis QR) vs the
                        unprotected ``hybrid_gehrd`` +
                        ``hessenberg_eigvals`` path (fault-free
                        overhead %, n=192);
* ``ft_overhead``     — the reduction driver alone: ``ft_gehrd`` vs
                        unprotected ``hybrid_gehrd`` at the paper's
                        n=512, both precision lanes, with the measured
                        ABFT flop share and a per-phase wall breakdown
                        (see ``bench_ft_overhead.py``);
* ``backend_gehrd``   — the array-namespace backend lane: production
                        NumPy engines vs the whole-stack functional
                        kernels (eager NumPy reference and, when
                        importable, jit'd JAX-CPU with compile vs
                        steady-state; see ``bench_backend.py``).

Honest wall-clock numbers: speedups are whatever this host produces —
on a single-core box the campaign rows will show pool overhead, not
parallel speedup.

Run:  PYTHONPATH=src python benchmarks/bench_to_json.py
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.abft.checksums import (                                # noqa: E402
    left_update_encoded,
    right_update_encoded,
    v_col_checksums,
    y_col_checksums,
)
from repro.abft.encoding import EncodedMatrix                     # noqa: E402
from repro.core.config import FTConfig                            # noqa: E402
from repro.faults.campaign import build_fault_grid                # noqa: E402
from repro.faults.executor import run_ft_trials                   # noqa: E402
from repro.linalg.lahr2 import lahr2                              # noqa: E402
from repro.perf.reference import (                                # noqa: E402
    lahr2_reference,
    left_update_encoded_reference,
    right_update_encoded_reference,
)
from repro.perf.workspace import Workspace                        # noqa: E402
from repro.utils.rng import random_matrix                         # noqa: E402

from bench_backend import bench_backend_gehrd                     # noqa: E402
from bench_cluster import bench_cluster                           # noqa: E402
from bench_ft_overhead import bench_ft_overhead                   # noqa: E402
from bench_serve import (                                         # noqa: E402
    bench_serve,
    bench_serve_batched,
    bench_serve_batched_lanes,
    bench_serve_dataplane,
)

N, NB = 512, 32


def _best_of(fn, *, repeats: int = 5) -> float:
    """Best wall-clock of several runs (noise floor, not an average)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_panel() -> dict:
    a0 = np.asfortranarray(random_matrix(N, seed=0))

    def before():
        lahr2_reference(a0.copy(order="F"), 0, NB, N)

    ws = Workspace()
    ws.presize(N, NB)

    def after():
        lahr2(a0.copy(order="F"), 0, NB, N, workspace=ws)

    t_before = _best_of(before)
    t_after = _best_of(after)
    return {
        "n": N, "nb": NB,
        "before_ms": t_before * 1e3,
        "after_ms": t_after * 1e3,
        "speedup": t_before / t_after,
    }


def bench_encoded_updates() -> dict:
    a0 = random_matrix(N, seed=1)
    p = NB  # second iteration: both the top-row and trailing paths active
    em0 = EncodedMatrix(a0.copy())
    ws = Workspace()
    ws.presize(N, NB, em0.k)
    # the FT driver factorizes the panel in-place in the extended
    # storage (v_full spans n+k rows, so Vce can ride under V)
    pf = lahr2(em0.ext, p, NB, N, workspace=ws)
    vce = v_col_checksums(pf, em0)
    ychk = y_col_checksums(em0, pf)
    ext0 = em0.ext.copy(order="F")

    def timed(kern, repeats=9):
        # the state restore stays outside the timed window — both sides
        # would pay it identically, hiding the kernel-only ratio
        best = float("inf")
        for _ in range(repeats):
            em0.ext[...] = ext0
            t0 = time.perf_counter()
            kern()
            best = min(best, time.perf_counter() - t0)
        return best

    def before():
        right_update_encoded_reference(em0, pf, vce, ychk)
        left_update_encoded_reference(em0, pf, vce)

    def after():
        right_update_encoded(em0, pf, vce, ychk, workspace=ws)
        left_update_encoded(em0, pf, vce, workspace=ws)

    t_before = timed(before)
    t_after = timed(after)
    return {
        "n": N, "nb": NB,
        "before_ms": t_before * 1e3,
        "after_ms": t_after * 1e3,
        "speedup": t_before / t_after,
    }


def _time_fused_updates(dtype) -> float:
    """Best wall-clock of one fused encoded right+left update pair at
    *dtype* (the same kernel pair ``bench_encoded_updates`` times on its
    "after" side, here on a chosen precision lane)."""
    a0 = random_matrix(N, seed=1, dtype=dtype)
    p = NB
    em0 = EncodedMatrix(a0.copy())
    ws = Workspace()
    ws.presize(N, NB, em0.k, dtype=em0.ext.dtype)
    pf = lahr2(em0.ext, p, NB, N, workspace=ws)
    vce = v_col_checksums(pf, em0)
    ychk = y_col_checksums(em0, pf)
    ext0 = em0.ext.copy(order="F")
    best = float("inf")
    for _ in range(9):
        em0.ext[...] = ext0
        t0 = time.perf_counter()
        right_update_encoded(em0, pf, vce, ychk, workspace=ws)
        left_update_encoded(em0, pf, vce, workspace=ws)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_encoded_updates_fp32() -> dict:
    """The float32 lane of the fused encoded-update pair vs float64.

    Both sides run the *fused* kernel (SGEMM vs DGEMM on the same
    checksum-extended storage); the win is pure memory bandwidth and
    SIMD width, which is the mixed-precision lane's whole pitch.
    """
    t64 = _time_fused_updates(np.float64)
    t32 = _time_fused_updates(np.float32)
    return {
        "n": N, "nb": NB,
        "fp64_fused_ms": t64 * 1e3,
        "fp32_fused_ms": t32 * 1e3,
        "speedup_vs_fp64": t64 / t32,
    }


def _noop() -> None:
    """Top-level (hence picklable) no-op for the pool-startup probe."""


def _pool_startup_cost(workers: int, initargs: tuple) -> float:
    """Wall-clock cost of bringing up a campaign pool: process spawn,
    the real worker initializer (matrix + workspace priming), and one
    round-trip per worker.

    The campaign's parallel path pays this once per run; at small n it
    dominates the trial work itself, which is why the n=96 row is judged
    against ``serial_s + pool_startup_s`` rather than ``serial_s``.
    """
    from repro.faults.executor import _init_worker
    from repro.utils.procpool import ResilientProcessPool

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        pool = ResilientProcessPool(workers, initializer=_init_worker,
                                    initargs=initargs)
        for fut in [pool.submit(_noop) for _ in range(workers)]:
            fut.result()
        best = min(best, time.perf_counter() - t0)
        pool.shutdown()
    return best


def bench_campaign(n: int = 96, moments: int = 3, *, workers: int = 4,
                   repeats: int = 3, dtype=np.float64) -> dict:
    import pickle

    from repro.utils.precision import lane_scale
    from repro.utils.shm import SharedMatrix, shm_available

    nb = 32
    a = random_matrix(n, seed=2, dtype=dtype)
    cfg = FTConfig(nb=nb)
    tasks = build_fault_grid(n, nb, moments=moments, seed=0)
    tol = 1e-13 * lane_scale(a.dtype)

    def serial():
        run_ft_trials(a, tasks, cfg, residual_tol=tol, workers=1)

    def pooled_shm():
        run_ft_trials(a, tasks, cfg, residual_tol=tol, workers=workers,
                      transport="shm" if shm_available() else "pickle")

    def pooled_pickle():
        run_ft_trials(a, tasks, cfg, residual_tol=tol, workers=workers,
                      transport="pickle")

    serial()  # warm the lru caches / BLAS threads out of both timings
    t_serial = _best_of(serial, repeats=repeats)
    t_shm = _best_of(pooled_shm, repeats=repeats)
    t_pickle = _best_of(pooled_pickle, repeats=repeats)

    # serialized bytes crossing the pool's pipes, per trial: the pool
    # primes each worker once through its initargs — pickle ships the
    # whole matrix to every worker, shm ships a ~100-byte handle (the
    # matrix bytes are written to the segment once, as a memcpy, not a
    # serialization; reported separately as bytes_copied_shm)
    eff_workers = min(workers, len(tasks))
    init_pickle = len(pickle.dumps((a, cfg, tol)))
    handle = SharedMatrix(name="repro-shm-0-00000000", shape=tuple(a.shape),
                          dtype=str(a.dtype))
    init_shm = len(pickle.dumps((handle, cfg, tol)))
    bytes_per_trial_pickle = eff_workers * init_pickle / len(tasks)
    bytes_per_trial_shm = eff_workers * init_shm / len(tasks)
    startup = _pool_startup_cost(eff_workers, (a, cfg, tol))
    return {
        "n": n, "nb": nb, "trials": len(tasks), "workers": workers,
        "dtype": str(a.dtype),
        "serial_s": t_serial,
        "parallel_s": t_shm,
        "parallel_pickle_s": t_pickle,
        "speedup": t_serial / t_shm,
        "pool_startup_s": startup,
        "overhead_within_startup": (t_shm - t_serial) <= startup,
        "bytes_per_trial_pickle": bytes_per_trial_pickle,
        "bytes_per_trial_shm": bytes_per_trial_shm,
        "bytes_ratio": bytes_per_trial_pickle / bytes_per_trial_shm,
        "bytes_copied_shm": a.nbytes,
        "cpu_count": os.cpu_count(),
    }


def bench_ft_eig(n: int = 192, nb: int = 32, *, repeats: int = 3) -> dict:
    """Fault-free overhead of the protected eigensolver pipeline.

    Unprotected side: ``hybrid_gehrd`` + ``hessenberg_eigvals`` (plain
    Francis QR). Protected side: ``ft_gehrd`` on a matrix +
    ``ft_hqr`` — ABFT-encoded reduction, then the checkpointed QR with
    similarity-invariant verification every ``verify_every`` sweeps.
    The overhead percentage is the number the paper's Fig. 6 reports
    for the reduction alone, extended to the full spectrum pipeline.
    """
    from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd
    from repro.eigen import QRProtectConfig, ft_hqr, hessenberg_eigvals
    from repro.linalg.verify import extract_hessenberg

    a = random_matrix(n, seed=3)
    qcfg = QRProtectConfig(want_z=False)

    def unprotected():
        res = hybrid_gehrd(a, HybridConfig(nb=nb))
        return hessenberg_eigvals(extract_hessenberg(res.a), check_input=False)

    def protected():
        res = ft_gehrd(a, FTConfig(nb=nb))
        return ft_hqr(extract_hessenberg(res.a), qcfg, check_input=False).eigvals

    ref = np.sort_complex(unprotected())
    got = np.sort_complex(protected())
    spectrum_err = float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1.0))
    t_plain = _best_of(unprotected, repeats=repeats)
    t_ft = _best_of(protected, repeats=repeats)
    fr = ft_hqr(extract_hessenberg(
        ft_gehrd(a, FTConfig(nb=nb)).a), qcfg, check_input=False)
    return {
        "n": n, "nb": nb,
        "verify_every": qcfg.verify_every,
        "unprotected_ms": t_plain * 1e3,
        "ft_eig_ms": t_ft * 1e3,
        "overhead_pct": (t_ft / t_plain - 1.0) * 100.0,
        "spectrum_err_vs_unprotected": spectrum_err,
        "qr_sweeps": fr.sweeps,
        "qr_verifications": fr.verifications,
        "checkpoint_saves": fr.checkpoint_saves,
        "checkpoint_peak_bytes": fr.checkpoint_peak_bytes,
    }


def main() -> None:
    from repro.backend import backend_probe, canonical_backend_name

    # the host's default backend (REPRO_BACKEND or "numpy") and its
    # version stamp the run, so rows are attributable to the lane that
    # actually produced them
    active = canonical_backend_name(None)
    _, active_version, _ = backend_probe(active)
    payload = {
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "backend": active,
            "backend_version": active_version,
        },
        "panel": bench_panel(),
        "encoded_updates": bench_encoded_updates(),
        "encoded_updates_fp32": bench_encoded_updates_fp32(),
        "campaign": bench_campaign(96, 3),
        "campaign_fp32": bench_campaign(96, 3, dtype=np.float32),
        "campaign_n256": bench_campaign(256, 2, repeats=1),
        "serve": bench_serve(),
        "serve_batched": bench_serve_batched(),
        "serve_batched_fp32": bench_serve_batched_lanes(),
        "serve_dataplane": bench_serve_dataplane(),
        "cluster": bench_cluster(),
        "ft_eig": bench_ft_eig(),
        "ft_overhead": bench_ft_overhead(),
        "backend_gehrd": bench_backend_gehrd(),
    }
    payload["campaign_fp32"]["bytes_copied_vs_fp64"] = (
        payload["campaign"]["bytes_copied_shm"]
        / payload["campaign_fp32"]["bytes_copied_shm"]
    )
    text = json.dumps(payload, indent=2)
    # Single writer: the root file is the only real copy. The results/
    # entry is a relative symlink so the two can never disagree.
    (ROOT / "BENCH_kernels.json").write_text(text + "\n")
    results = ROOT / "benchmarks" / "results"
    results.mkdir(exist_ok=True)
    link = results / "BENCH_kernels.json"
    target = pathlib.Path("..") / ".." / "BENCH_kernels.json"
    if not (link.is_symlink() and link.readlink() == target):
        link.unlink(missing_ok=True)
        link.symlink_to(target)
    print(text)


if __name__ == "__main__":
    main()
