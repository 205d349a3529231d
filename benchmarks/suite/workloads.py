"""The three workloads of the FT-Hess benchmark suite.

* ``reduce`` — closed loop, one caller, the paper's operating point
  (n=512, nb=32). Each group runs, in an order that rotates per group,
  the yardstick, ``ft_gehrd`` and ``hybrid_gehrd`` at fp64 and fp32, and
  ``repro.linalg.gehrd`` at fp64, cycling over 8 uniform matrices.
* ``recover`` — closed loop, one caller: one fp64 ``ft_gehrd`` run
  (n=512, nb=32, one checksum channel) under one fault plan, then one
  yardstick sample. The plans cover the Fig-2 matrix areas 1/2/3 and
  every FT-machinery space and phase, trigger faults included.
* ``serve`` — batch arrival: each round, a fresh ``HessService`` takes
  a seeded 250-job fp64 file in waves of 12 (submit the wave, wait for
  all of it).

Inputs come from ``numpy.random.default_rng`` seeded by the CLI seed,
and fault plans and job files are built here from the public
``FaultSpec``/``JobSpec`` constructors, so no change under ``src/`` can
change a workload. Every output is checked; a failed check or an
exception counts as a failed operation.

Run as a script, this module is the child process ``run.py`` starts for
one workload. It prints one JSON line: when set-up finished, the
operation counts, and every metric the run produced.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import multiprocessing
import os
import resource
import sys
import time
import warnings
import zlib
from contextlib import nullcontext
from pathlib import Path

SUITE = Path(__file__).resolve().parent
SRC = SUITE.parent.parent / "src"
sys.path[:0] = [str(SUITE), str(SRC)]

import numpy as np  # noqa: E402

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != SRC / "repro":
    # measure the checkout's program, never an installed copy
    raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")

import repro.core as core  # noqa: E402
import repro.linalg as linalg  # noqa: E402
from repro.core import FTConfig, HybridConfig  # noqa: E402
from repro.faults import FaultInjector, FaultSpec  # noqa: E402
from repro.serve import HessService, JobSpec  # noqa: E402

import yardstick  # noqa: E402
from probes import Recorder  # noqa: E402

N = 512
NB = 32
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIERS = ("none", "in_place", "reverse_redo", "deep_rollback", "restart")
SHM_GLOB = "/dev/shm/repro-shm-*"

#: per-layer self-time metrics: metric -> probe layers it sums
LAYER_METRICS = {
    "linalg.panel_yu": ("linalg.panel",),
    "linalg.update_yu": ("linalg.update",),
    "abft.update_yu": ("abft.update",),
    "abft.checksum_yu": ("abft.checksum",),
    "abft.detect_yu": ("abft.detect",),
    "abft.qprotect_yu": ("abft.qprotect",),
    "abft.checkpoint_yu": ("abft.checkpoint",),
    "abft.locate_yu": ("abft.locate",),
    "abft.unwind_yu": ("abft.unwind",),
    "resilience.tau_guard_yu": ("resilience.tau_guard",),
    "resilience.restore_yu": ("resilience.restore",),
    "hybrid.runtime_yu": ("hybrid.runtime",),
    "core.ft_self_yu": ("core.ft",),
    "core.hybrid_self_yu": ("core.hybrid",),
    "serve.execute_yu": ("serve.execute", "serve.pool_submit"),
}


# -- shared helpers -----------------------------------------------------------


def stream(seed: int, tag: str) -> np.random.Generator:
    """An independent generator per (seed, purpose): adding a draw to one
    input never shifts another's."""
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def uniform(rng: np.random.Generator, n: int, dtype=np.float64) -> np.ndarray:
    """A uniform [-1, 1) matrix in Fortran order (the drivers' layout)."""
    return np.asfortranarray(rng.uniform(-1.0, 1.0, size=(n, n)).astype(dtype, copy=False))


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def check_yardstick() -> float:
    """The yardstick's H must match LAPACK's to 1e-12·‖A‖_F."""
    import scipy.linalg

    a = yardstick.make_input()
    err = float(np.max(np.abs(yardstick.hessenberg(a) - scipy.linalg.hessenberg(a))))
    if not err <= 1e-12 * float(np.linalg.norm(a)):
        raise RuntimeError(f"yardstick disagrees with scipy.linalg.hessenberg: {err:.3e}")
    return err


def apply_q(packed: np.ndarray, taus: np.ndarray, x: np.ndarray, *,
            transpose: bool) -> np.ndarray:
    """``Q x`` (or ``Qᵀ x``) for the reflectors in LAPACK packed storage:
    ``Q = H_0 ⋯ H_{n-2}``, ``H_j = I − τ_j u uᵀ``, ``u = [1; packed[j+2:, j]]``
    acting on rows ``j+1:``. O(n²), no Q formed."""
    n = packed.shape[0]
    y = x.copy()
    for j in range(n - 1) if transpose else range(n - 2, -1, -1):
        tau = taus[j]
        if tau == 0.0:
            continue
        v = packed[j + 2 :, j]
        w = tau * (y[j + 1] + v @ y[j + 2 :])
        y[j + 1] -= w
        y[j + 2 :] -= w * v
    return y


class Check:
    """Output check for one input: a sketched backward error.

    With a fixed random probe x, ``‖A x − Q H Qᵀ x‖ / (‖A‖_F ‖x‖)`` must
    stay within ``4·eps(lane)``. Clean and recovered fp64/fp32 outputs
    read at most 0.42 eps over 120 matrices, while a 1.0 error in one H
    entry reads at least 27 eps on fp32 (a 1e-6 error: 1.8e3 eps on fp64)
    and a 1.0 error in a reflector 5.7e3 eps. An element-wise comparison
    with a reference H is no check at all here: the forward error of a
    Hessenberg reduction ran to 8.5·n·eps·‖A‖_F (fp64, recovered) and
    267·n·eps·‖A‖_F (fp32, clean) on the same matrices.
    """

    def __init__(self, a: np.ndarray, rng: np.random.Generator) -> None:
        a64 = np.asarray(a, dtype=np.float64)
        self.x = rng.standard_normal(a.shape[0])
        self.ax = a64 @ self.x
        self.scale = float(np.linalg.norm(a64) * np.linalg.norm(self.x))
        self.tol = 4 * float(np.finfo(a.dtype).eps)

    def residual(self, packed: np.ndarray, taus: np.ndarray) -> float:
        p = np.asarray(packed, dtype=np.float64)
        t = np.asarray(taus, dtype=np.float64)
        y = apply_q(p, t, self.x, transpose=True)
        y = apply_q(p, t, np.triu(p, -1) @ y, transpose=False)
        return float(np.linalg.norm(self.ax - y)) / self.scale

    def ok(self, packed: np.ndarray, taus: np.ndarray) -> bool:
        return bool(self.residual(packed, taus) <= self.tol)  # False for NaN too


class Yardstick:
    """Times the frozen reduction; one sample is one ``yu``."""

    def __init__(self) -> None:
        self.a = yardstick.make_input()
        self.samples: list[float] = []

    def sample(self) -> float:
        work = self.a.copy(order="F")
        # the cyclic collector stays off while timing: the reduction makes
        # no cycles, and a full collection over a large heap (a serve
        # round's results) would otherwise land in some samples and not
        # in others
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            yardstick.reduce(work)
            dt = time.perf_counter() - t0
        finally:
            if gc_was_on:
                gc.enable()
        self.samples.append(dt)
        return dt


def host_stamp(ys: Yardstick) -> dict:
    """What the numbers were measured on."""
    import scipy

    libs: set[str] = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                name = os.path.basename(line.split()[-1])
                if name.startswith("lib") and ".so" in name and any(
                    k in name.lower() for k in ("blas", "lapack", "mkl")
                ):
                    libs.add(name)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_libs": sorted(libs),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "affinity": len(os.sched_getaffinity(0)),
        "yardstick_ms": 1e3 * pct(ys.samples, 50),
    }


class Workload:
    """Set-up in ``__init__`` (everything before the first timed
    operation), the timed loop in :meth:`run`, results in :meth:`metrics`.

    A ``--trace`` run alternates blocks of untraced and traced units
    (groups, runs or rounds), each traced block repeating the inputs of
    the untraced block before it: the untraced units give the counts
    and the latencies, the traced ones the per-layer self times, and
    the two together the tracing overhead.
    """

    name = ""
    #: traced and untraced units alternate in blocks of this many
    trace_block = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ys = Yardstick()
        self.rec: Recorder | None = None
        self.traced_ops = 0
        check_yardstick()

    def forget_warmup(self) -> None:
        """Drop what set-up's warm-up run counted and timed."""
        self.attempted = self.failed = 0
        self.failures.clear()
        self.ys.samples.clear()

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def probing(self, traced: bool):
        return self.rec.probing() if traced else nullcontext()

    def root(self, name: str, traced: bool):
        """The suite's own span around one call into the program."""
        return self.rec.span("suite", name) if traced else nullcontext()

    def run(self, seconds: float, *, trace: bool = False) -> None:
        self.rec = Recorder() if trace else None
        deadline = time.perf_counter() + seconds
        unit = 0
        while True:
            t0 = time.perf_counter()
            k, traced = unit, False
            if trace:
                pair, pos = divmod(unit, 2 * self.trace_block)
                k = pair * self.trace_block + pos % self.trace_block
                traced = pos >= self.trace_block
            self.unit(k, traced=traced)
            unit += 1
            # stop before a unit that would overrun the budget
            if time.perf_counter() + (time.perf_counter() - t0) > deadline and unit >= 2:
                break

    def unit(self, k: int, *, traced: bool) -> None:
        """Run the unit whose inputs index *k* picks."""
        raise NotImplementedError

    def metrics(self) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def layer_metrics(self, per: int) -> dict[str, tuple[float, str]]:
        """Self time per operation of each probed layer, in yu."""
        if self.rec is None or per == 0:
            return {}
        yu_ns = 1e9 * pct(self.ys.samples, 50)
        self_ns = self.rec.self_ns()
        return {
            name: (sum(self_ns.get(layer, 0) for layer in layers) / per / yu_ns, "yu")
            for name, layers in LAYER_METRICS.items()
        }


# -- reduce -------------------------------------------------------------------

#: every group runs the yardstick, the headline fp64 ft_gehrd and one of
#: these in turn, so the headline op gets a sample per group
SIDE_OPS = ("hybrid64", "ft32", "hybrid32", "gehrd")


def reduce_inputs(seed: int) -> list[np.ndarray]:
    rng = stream(seed, "reduce")
    return [uniform(rng, N) for _ in range(8)]


class Reduce(Workload):
    name = "reduce"
    trace_block = len(SIDE_OPS)  # both halves see every side op

    def __init__(self, seed: int, *, quick: bool = False) -> None:
        super().__init__(seed)
        self.mats = {"64": reduce_inputs(seed)}
        self.mats["32"] = [m.astype(np.float32, order="F") for m in self.mats["64"]]
        probe = stream(seed, "reduce.probe")
        self.checks = {lane: [Check(m, probe) for m in ms] for lane, ms in self.mats.items()}
        self.ft_cfg = FTConfig(nb=NB)
        self.hy_cfg = HybridConfig(nb=NB)
        self.groups: list[dict] = []
        self.traced_groups: list[dict] = []
        self.ft_result = None
        self.unit(0, traced=False)  # warm-up: lazy set-up and caches
        self.groups.clear()
        self.forget_warmup()

    def _op(self, op: str, i: int, traced: bool) -> float | None:
        if op == "yardstick":
            return self.ys.sample()
        lane = "32" if op.endswith("32") else "64"
        try:
            if op == "gehrd":
                work = self.mats["64"][i].copy(order="F")  # gehrd reduces in place
                with self.root(op, traced):
                    t0 = time.perf_counter()
                    f = linalg.gehrd(work, nb=NB)
                    dt = time.perf_counter() - t0
                packed, taus = f.a, f.taus
            else:
                a = self.mats[lane][i]
                if op.startswith("ft"):
                    driver, cfg = core.ft_gehrd, self.ft_cfg
                else:
                    driver, cfg = core.hybrid_gehrd, self.hy_cfg
                with self.root(op, traced):
                    t0 = time.perf_counter()
                    res = driver(a, cfg)
                    dt = time.perf_counter() - t0
                packed, taus = res.a, res.taus
                if op == "ft64" and self.ft_result is None:
                    self.ft_result = res
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            self.record(False, f"{op} on matrix {i}: {type(exc).__name__}: {exc}")
            return None
        ok = self.checks[lane][i].ok(packed, taus)
        self.record(ok, f"{op} on matrix {i}: A ≠ Q H Qᵀ")
        return dt if ok else None

    def unit(self, k: int, *, traced: bool) -> None:
        i = (k // len(SIDE_OPS)) % len(self.mats["64"])
        ops = ("yardstick", "ft64", SIDE_OPS[k % len(SIDE_OPS)])
        r = k % len(ops)
        with self.probing(traced):
            times = {op: self._op(op, i, traced) for op in ops[r:] + ops[:r]}
        (self.traced_groups if traced else self.groups).append(times)
        if traced:
            self.traced_ops += 1

    @staticmethod
    def _yu(groups, op: str) -> list[float]:
        return [g[op] / g["yardstick"] for g in groups if g.get(op) is not None]

    def metrics(self) -> dict[str, tuple[float, str]]:
        ft = self._yu(self.groups, "ft64")
        med = {op: pct(self._yu(self.groups, op), 50) for op in ("ft64",) + SIDE_OPS}

        def over(a: str, b: str) -> float:
            return 100 * (med[a] / med[b] - 1) if med[b] else 0.0

        m = {
            "latency_yu_p50": (med["ft64"], "yu"),
            "latency_yu_p90": (pct(ft, 90), "yu"),
            "core.ft32_yu_p50": (med["ft32"], "yu"),
            "core.hybrid_yu_p50": (med["hybrid64"], "yu"),
            "linalg.gehrd_yu_p50": (med["gehrd"], "yu"),
            "abft.protect_yu_p50": (med["ft64"] - med["hybrid64"], "yu"),
            "abft.overhead_pct": (over("ft64", "hybrid64"), "%"),
            "abft.overhead32_pct": (over("ft32", "hybrid32"), "%"),
            "hybrid.ladder_yu_p50": (med["hybrid64"] - med["gehrd"], "yu"),
        }
        res = self.ft_result
        if res is not None:
            flops = res.counter.by_category
            abft = sum(v for c, v in flops.items() if c.startswith("abft"))
            m["abft.flop_share_pct"] = (100 * abft / res.counter.total, "%")
            m["core.flops"] = (res.counter.total, "flop")
            m["hybrid.ops"] = (len(res.timeline.ops), "count")
            m["hybrid.sim_seconds"] = (res.seconds, "s")
        if self.traced_groups and med["ft64"]:
            traced = pct(self._yu(self.traced_groups, "ft64"), 50)
            m["trace.overhead_pct"] = (100 * (traced / med["ft64"] - 1), "%")
            m.update(self.layer_metrics(self.traced_ops))
        return m


# -- recover ------------------------------------------------------------------

#: FT-machinery spaces and the phases each is struck at (the driver
#: exposes no live V block at the recovery hook, so panel_v skips it)
MACHINERY = (
    ("matrix", ("post_panel", "post_right", "during_recovery")),
    ("row_checksum", ("boundary", "post_panel", "post_right", "during_recovery")),
    ("col_checksum", ("boundary", "post_panel", "post_right", "during_recovery")),
    ("checkpoint", ("post_panel", "post_right", "during_recovery")),
    ("tau", ("boundary", "post_panel", "post_right", "during_recovery")),
    ("panel_v", ("post_panel", "post_right")),
    ("q_checksum", ("boundary", "post_panel", "post_right", "during_recovery")),
)
AREA_MOMENTS = 8
RECOVER_MATRICES = 4


def _area_element(area: int, p: int, n: int, rng: np.random.Generator) -> tuple[int, int]:
    """A uniform element of Fig-2 area 1, 2 or 3 with p finished columns
    (area 3 aims at the reflectors below the subdiagonal, which the
    end-of-run Q check covers)."""
    if area == 1:
        return int(rng.integers(0, p + 1)), int(rng.integers(p, n))
    if area == 2:
        return int(rng.integers(p + 1, n)), int(rng.integers(p, n))
    j = int(rng.integers(0, min(p, n - 2)))
    return int(rng.integers(j + 2, n)), j


def _machinery_target(space: str, p: int, ib: int, n: int,
                      rng: np.random.Generator, flip: bool) -> dict:
    """A target in the live, consequential part of *space*: state the
    iteration retires (the panel columns) is never read again, so a
    strike there would be vacuously silent."""
    if space == "matrix":
        return {"row": int(rng.integers(p + 1, n)), "col": int(rng.integers(p + ib, n))}
    if space == "row_checksum":
        return {"row": int(rng.integers(0, n)), "col": 0}
    if space == "col_checksum":
        return {"row": 0, "col": int(rng.integers(p + ib, n))}
    if space == "checkpoint":
        return {"row": int(rng.integers(0, n)), "col": int(rng.integers(0, ib))}
    if space == "tau":
        return {"row": int(rng.integers(0, p)), "col": 0}
    if space == "panel_v":
        return {"row": int(rng.integers(0, n - p - 1)), "col": int(rng.integers(0, ib))}
    if flip:  # q_checksum: alternate between the row and column vectors
        return {"row": int(rng.integers(2, n)), "col": -1}
    return {"row": -1, "col": int(rng.integers(0, p))}


def recover_plans(seed: int) -> list[tuple[str, tuple[dict, ...]]]:
    """One pass of fault plans: ``(class, faults)`` pairs, where faults is
    a tuple of ``FaultSpec`` kwargs and class is ``area1``/``area2``/
    ``area3`` or the machinery space struck.

    Matrix-data plans: areas 1/2/3 × 8 moments at iteration boundaries.
    Machinery plans: every (space, phase) above at 1/3 and 2/3 of the
    run; ``during_recovery`` and checkpoint plans carry a detectable
    area-2 trigger fault, without which no recovery reads them (never in
    the column of a struck column checksum). The
    classes are interleaved so that every prefix of the list holds each
    in proportion — a time-bounded run stops at an arbitrary prefix.
    """
    rng = stream(seed, "recover.plans")
    total = -(-(N - 1) // NB)  # blocked iterations at (N, NB)
    groups: list[list[tuple[str, tuple[dict, ...]]]] = []
    for area in (1, 2, 3):
        group = []
        for k in range(AREA_MOMENTS):
            it = round(k * (total - 1) / (AREA_MOMENTS - 1))
            if area == 3:
                it = max(it, 1)  # area 3 is empty before the first panel
            i, j = _area_element(area, min(it * NB, N - 1), N, rng)
            group.append((f"area{area}", ({"iteration": it, "row": i, "col": j},)))
        groups.append(group)
    flip = False
    for space, phases in MACHINERY:
        group = []
        for phase in phases:
            for frac in (1 / 3, 2 / 3):
                it = max(1, round(frac * (total - 1)))
                p = it * NB
                ib = min(NB, N - 1 - p)
                target = _machinery_target(space, p, ib, N, rng, flip)
                if space == "q_checksum":
                    flip = not flip
                plan = [{"iteration": it, "space": space, "phase": phase, **target}]
                if phase == "during_recovery" or space == "checkpoint":
                    ti, tj = _area_element(2, p, N, rng)
                    while space == "col_checksum" and tj == target["col"]:
                        # a column checksum struck while the trigger in its
                        # own column is recovered gives a wrong H (README,
                        # Findings): a program defect, kept out of the workload
                        ti, tj = _area_element(2, p, N, rng)
                    plan.append({"iteration": it, "row": ti, "col": tj})
                group.append((space, tuple(plan)))
        groups.append(group)
    keyed = [
        ((k + 0.5) / len(group), g, plan)
        for g, group in enumerate(groups)
        for k, plan in enumerate(group)
    ]
    return [plan for _, _, plan in sorted(keyed, key=lambda x: x[:2])]


def recover_inputs(seed: int) -> list[np.ndarray]:
    rng = stream(seed, "recover")
    return [uniform(rng, N) for _ in range(RECOVER_MATRICES)]


class Recover(Workload):
    name = "recover"

    def __init__(self, seed: int, *, quick: bool = False) -> None:
        super().__init__(seed)
        self.mats = recover_inputs(seed)
        probe = stream(seed, "recover.probe")
        self.checks = [Check(m, probe) for m in self.mats]
        self.plans = recover_plans(seed)
        self.cfg = FTConfig(nb=NB)
        self.runs: list[dict] = []
        self.unit(0, traced=False)  # warm-up
        self.runs.clear()
        self.forget_warmup()

    def unit(self, k: int, *, traced: bool) -> None:
        cls, plan = self.plans[k % len(self.plans)]
        i = (k + k // len(self.plans)) % RECOVER_MATRICES  # each pass shifts the matrices
        a = self.mats[i]
        injector = FaultInjector(faults=[FaultSpec(**kw) for kw in plan])
        what = f"{cls} plan {k % len(self.plans)} on matrix {i}"
        with warnings.catch_warnings():
            # a plan whose phase never occurs (detection lagged past its
            # iteration) is a plan that exercised less, not a wrong output
            warnings.simplefilter("ignore", RuntimeWarning)
            with self.probing(traced), self.root("recover.ft64", traced):
                t0 = time.perf_counter()
                try:
                    res = core.ft_gehrd(a, self.cfg, injector=injector)
                except Exception as exc:  # noqa: BLE001 - a failed run is counted
                    res = exc
                dt = time.perf_counter() - t0
        ys = self.ys.sample()
        if traced:
            self.traced_ops += 1
        if isinstance(res, Exception):
            self.record(False, f"{what}: {type(res).__name__}: {res}")
            return
        correct = self.checks[i].ok(res.a, res.taus)
        self.record(correct, f"{what}: A ≠ Q H Qᵀ")
        tiers = {r.tier for r in res.recoveries if r.tier in TIERS}
        if res.restarts:
            tiers.add("restart")
        q_fixed = res.q_report.count if res.q_report is not None else 0
        signalled = res.detections > 0 or q_fixed > 0 or res.tau_repairs > 0
        self.runs.append({
            "yu": dt / ys,
            "traced": traced,
            "tier": max(tiers, key=TIERS.index, default="none"),
            "ok": correct,
            "silent": not correct and not signalled,
            "detections": res.detections,
            "restarts": res.restarts,
            "tau_repairs": res.tau_repairs,
            "q_fixed": q_fixed,
        })

    def metrics(self) -> dict[str, tuple[float, str]]:
        plain = [r for r in self.runs if not r["traced"]]
        ok = [r for r in plain if r["ok"]]
        lat = [r["yu"] for r in ok]
        runs = max(len(plain), 1)
        m = {
            "latency_yu_p50": (pct(lat, 50), "yu"),
            "latency_yu_p90": (pct(lat, 90), "yu"),
            "resilience.redo_yu_p50": (pct(
                [r["yu"] for r in ok if TIERS.index(r["tier"]) <= 2], 50), "yu"),
            "resilience.restart_yu_p50": (pct(
                [r["yu"] for r in ok if TIERS.index(r["tier"]) > 2], 50), "yu"),
            "resilience.silent": (sum(r["silent"] for r in self.runs), "count"),
            "resilience.detections": (sum(r["detections"] for r in plain) / runs, "1/run"),
            "resilience.restarts": (sum(r["restarts"] for r in plain) / runs, "1/run"),
            "resilience.tau_repairs": (sum(r["tau_repairs"] for r in plain) / runs, "1/run"),
            "abft.q_corrections": (sum(r["q_fixed"] for r in plain) / runs, "1/run"),
        }
        for tier in TIERS:
            share = sum(r["tier"] == tier for r in plain) / runs
            m[f"resilience.share.{tier}"] = (100 * share, "%")
        traced = [r["yu"] for r in self.runs if r["traced"] and r["ok"]]
        if traced and lat:
            m["trace.overhead_pct"] = (100 * (pct(traced, 50) / pct(lat, 50) - 1), "%")
            m.update(self.layer_metrics(self.traced_ops))
        return m


# -- serve --------------------------------------------------------------------

SERVE_JOBS = 250
SERVE_JOBS_QUICK = 80
SMALL_N = (32, 64, 96)
POOL_N = (192, 256)
#: the unique-job mix (shares of the 80% of submissions that are not repeats)
SERVE_MIX = (
    ("ft_small", 0.60),     # batch lane
    ("unprotected", 0.10),  # gehrd (batch lane) and hybrid_gehrd (in-thread lane) in turn
    ("ft_fault", 0.05),     # batch lane, ejected to the scalar ladder
    ("ft_pool", 0.20),      # pool lane, input through shm
    ("ft_factors", 0.05),   # pool lane at n=256, H and Q back through shm too
)
#: jobs the client submits at once (a wave); it waits for all of them
SERVE_WAVE = 12
SERVICE = {"workers": 1, "small_n_threshold": 128, "batch_max": 16, "batch_linger_ms": 5.0}


def serve_jobs(seed: int, jobs: int = SERVE_JOBS) -> list[JobSpec]:
    """The seeded job file: 80% unique specs in the mix above, with fixed
    counts per kind and order n so that every seed carries the same work,
    then every fourth unique spec once more (20% repeats: cache hits and
    in-flight coalescing). Every matrix is inline, fp64, and drawn here."""
    rng = stream(seed, "serve")
    uniques = round(0.8 * jobs)
    specs: list[JobSpec] = []
    for kind, share in SERVE_MIX:
        for idx in range(round(share * uniques)):
            if kind == "ft_factors":
                n = 256
            elif kind == "ft_pool":
                n = POOL_N[idx % len(POOL_N)]
            else:
                n = SMALL_N[idx % len(SMALL_N)]
            a = uniform(rng, n)
            if kind == "unprotected":
                spec = JobSpec(driver=("gehrd", "hybrid_gehrd")[idx % 2], n=n, matrix=a)
            elif kind == "ft_fault":
                fault = {"iteration": 0, "row": n // 2, "col": n - 2, "magnitude": 2.0}
                spec = JobSpec(driver="ft_gehrd", n=n, matrix=a, faults=(fault,))
            else:
                spec = JobSpec(driver="ft_gehrd", n=n, matrix=a,
                               return_factors=kind == "ft_factors")
            specs.append(spec)
    return specs + specs[::4][: jobs - len(specs)]


def _factor_ok(spec: JobSpec, result) -> bool:
    """Check returned factors directly: H Hessenberg and A ≈ Q H Qᵀ."""
    a = np.asarray(spec.matrix, dtype=np.float64)
    h = result.factor("h").astype(np.float64)
    q = result.factor("q").astype(np.float64)
    n = a.shape[0]
    resid = np.linalg.norm(a - q @ h @ q.T, 1) / (n * np.linalg.norm(a, 1))
    return bool(not np.tril(h, -2).any() and resid <= 1e-13)


def _check_job(spec: JobSpec, result) -> str:
    """'' when the job's output checks out, else why not."""
    if result is None or result.status != "done":
        return f"status {getattr(result, 'status', None)}: {getattr(result, 'error', '')}"
    payload = result.payload or {}
    if not payload.get("residual", np.inf) <= 1e-13:
        return f"residual {payload.get('residual')}"
    if spec.faults and payload.get("detections", 0) < 1:
        return "injected fault not detected"
    if spec.return_factors and not _factor_ok(spec, result):
        return "returned factors do not reproduce A"
    return ""


def serve_waves(jobs: list[JobSpec], rng: np.random.Generator) -> list[list[JobSpec]]:
    """One round's submissions as waves of at most ``SERVE_WAVE`` jobs.

    The jobs are dealt out by kind, so that every wave carries the same
    mix (and makespans compare); *rng* picks which job of a kind lands
    in which wave and the submission order inside each wave.
    """
    dealt = [jobs[i] for i in rng.permutation(len(jobs))]
    dealt.sort(key=lambda s: (s.order, s.driver, bool(s.faults), s.return_factors))
    parts = -(-len(dealt) // SERVE_WAVE)
    waves = [dealt[i::parts] for i in range(parts)]
    return [[wave[j] for j in rng.permutation(len(wave))] for wave in waves]


def _join_children(timeout: float = 30.0) -> None:
    """Wait for every process this one started (the service's pool
    workers exit asynchronously after close)."""
    for proc in multiprocessing.active_children():
        proc.join(timeout)


class Serve(Workload):
    name = "serve"

    def __init__(self, seed: int, *, quick: bool = False) -> None:
        super().__init__(seed)
        self.jobs = serve_jobs(seed, SERVE_JOBS_QUICK if quick else SERVE_JOBS)
        self.rounds: list[dict] = []
        self.waves: list[dict] = []
        self.start_ms: list[float] = []
        # no warm-up round: every round starts a fresh service anyway, and
        # round 0's waves read no slower than later rounds' without one

    def unit(self, k: int, *, traced: bool) -> None:
        """One round: a fresh service (cold cache) takes the file wave by
        wave, with a yardstick sample between waves; each wave's makespan
        is normalised by the mean of the samples either side of it."""
        before = set(glob.glob(SHM_GLOB))
        # the first sample precedes the pool's fork: right after it, the
        # parent's copy-on-write faults slow the yardstick down
        ys = self.ys.sample()
        t0 = time.perf_counter()
        svc = HessService(**SERVICE, max_queue=len(self.jobs))
        self.start_ms.append(1e3 * (time.perf_counter() - t0))
        done: list[tuple[JobSpec, object]] = []
        walls = []
        try:
            for wave in serve_waves(self.jobs, stream(self.seed, f"serve.round.{k}")):
                with self.probing(traced):
                    t0 = time.perf_counter()
                    subs = svc.submit_batch(wave)
                    svc.drain(timeout=600)
                    wall = time.perf_counter() - t0
                ys_after = self.ys.sample()
                self.waves.append({"traced": traced, "yu": wall / ((ys + ys_after) / 2)})
                ys = ys_after
                walls.append(wall)
                done += [(spec, svc.peek(sub.job_id) if sub.accepted else None)
                         for spec, sub in zip(wave, subs)]
            problems = [_check_job(spec, res) for spec, res in done]
            stats = svc.stats()
        finally:
            svc.close()
            _join_children()
        leaked = len(set(glob.glob(SHM_GLOB)) - before)
        for (spec, _), why in zip(done, problems):
            self.record(not why, f"round {k} {spec.driver} n={spec.order}: {why}")
        self.record(leaked == 0, f"round {k}: {leaked} shm segments leaked")
        executed = [(spec, r) for spec, r in done
                    if r is not None and r.started_at > 0 and not r.cache_hit]
        self.rounds.append({
            "traced": traced,
            "jobs_per_s": len(self.jobs) / sum(walls),
            "queue_ms": [1e3 * (r.started_at - r.submitted_at) for _, r in executed],
            "service_ms": [1e3 * (r.finished_at - r.started_at) for _, r in executed],
            "pool_overhead_ms": [
                1e3 * (r.finished_at - r.started_at - r.payload.get("elapsed_s", 0.0))
                for spec, r in executed if spec.order > SERVICE["small_n_threshold"]
            ],
            "stats": stats,
            "leaked": leaked,
        })
        if traced:
            self.traced_ops += len(self.jobs)

    def metrics(self) -> dict[str, tuple[float, str]]:
        plain = [r for r in self.rounds if not r["traced"]]
        n = max(len(plain), 1)

        def waves(traced):
            return [w["yu"] for w in self.waves if w["traced"] == traced]

        def cat(key):
            return [v for r in plain for v in r[key]]

        def per_round(fn):
            return sum(fn(r["stats"]) for r in plain) / n

        lat = waves(False)
        m = {
            "latency_yu_p50": (pct(lat, 50), "yu"),
            "latency_yu_p90": (pct(lat, 90), "yu"),
            "serve.jobs_per_s": (pct([r["jobs_per_s"] for r in plain], 50), "1/s"),
            "serve.queue_ms_p50": (pct(cat("queue_ms"), 50), "ms"),
            "serve.queue_ms_p99": (pct(cat("queue_ms"), 99), "ms"),
            "serve.service_ms_p50": (pct(cat("service_ms"), 50), "ms"),
            "serve.pool_overhead_ms_p50": (pct(cat("pool_overhead_ms"), 50), "ms"),
            "serve.hit_rate": (per_round(lambda s: s["hit_rate"]), "ratio"),
            "serve.executions": (per_round(lambda s: s["counts"].get("executed", 0)), "1/round"),
            "serve.retries": (per_round(lambda s: s["counts"].get("retries", 0)), "1/round"),
            "serve.start_ms": (pct(self.start_ms, 50), "ms"),
            "batch.batches": (per_round(lambda s: s["batch_lane"]["batches"]), "1/round"),
            "batch.occupancy": (per_round(lambda s: s["batch_lane"]["mean_occupancy"]),
                                "jobs/batch"),
            "batch.ejections": (per_round(lambda s: s["batch_lane"]["ejections"]), "1/round"),
            "shm.bytes_shared": (per_round(lambda s: s["data_plane"]["bytes_shared"]),
                                 "bytes/round"),
            "shm.leaked": (sum(r["leaked"] for r in self.rounds), "count"),
        }
        traced = waves(True)
        if traced and lat:
            m["trace.overhead_pct"] = (100 * (pct(traced, 50) / pct(lat, 50) - 1), "%")
            m["batch.exec_ms_p50"] = (pct(self.rec.durations_ns("batch.exec"), 50) / 1e6, "ms")
            m.update(self.layer_metrics(self.traced_ops))
        return m


WORKLOADS = {w.name: w for w in (Reduce, Recover, Serve)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one FT-Hess workload (child of run.py).")
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit once set-up is done (run.py times several set-ups)")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, quick=args.quick)
    out: dict = {"workload": wl.name, "ready_at": time.monotonic()}
    if not args.setup_only:
        wl.run(args.seconds, trace=bool(args.trace))
        metrics = wl.metrics()
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        out.update(
            attempted=wl.attempted,
            failed=wl.failed,
            failures=wl.failures,
            metrics={k: list(v) for k, v in metrics.items()},
            host=host_stamp(wl.ys),
        )
        if wl.rec is not None and args.trace_file:
            wl.rec.write_chrome(args.trace_file)
            out["trace_file"] = args.trace_file
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
