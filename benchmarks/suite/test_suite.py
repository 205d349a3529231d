"""Tests of the benchmark suite itself.

Not named ``bench_*.py``/``tests/``, so the repository's tier-1 run does
not collect it. Run it directly:

    python3 -m pytest benchmarks/suite/test_suite.py -q
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path.insert(0, str(SUITE))

import probes  # noqa: E402
import workloads as W  # noqa: E402
import yardstick  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _quick(trace: int) -> tuple[float, str, dict]:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--quick", "--seed", "5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return time.monotonic() - t0, proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,table", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_prints_every_metric_with_its_unit(trace, table):
    elapsed, out, res = _quick(trace)
    assert elapsed < 60
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    for w in WORKLOADS:
        for m in SPEC[table]:
            got = res["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert any(
                line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                for line in out.splitlines()
            ), f"{m['name']} not printed with its unit"
            if table == "end_to_end":
                assert got["value"] > 0
    if table == "per_layer":
        # every per-layer metric is measured by some workload (a typo in
        # BENCHMARK.json would otherwise read as a silent zero)
        unmeasured = [
            m["name"] for m in SPEC[table]
            if m["name"] not in ("resilience.silent", "shm.leaked", "serve.retries")
            and not any(res["metrics"][f"{w}.{m['name']}"]["value"] for w in WORKLOADS)
        ]
        assert unmeasured == []
        for w in WORKLOADS:
            assert res["metrics"][f"{w}.resilience.silent"]["value"] == 0
            assert res["metrics"][f"{w}.shm.leaked"]["value"] == 0
            trace_file = SUITE / "results" / f"{w}-seed5.trace.json"
            events = json.loads(trace_file.read_text())["traceEvents"]
            ids = {e["args"]["id"] for e in events}
            children = [e for e in events if e["args"]["parent"]]
            assert children and all(e["args"]["parent"] in ids for e in children)


def _perturb(real):
    def driver(a, config=None, **kwargs):
        res = real(a, config, **kwargs)
        res.a[5, 7] += 1e-6  # one H entry: ~1e3 eps against the 4 eps bar
        res.detections = res.tau_repairs = 0
        res.q_report = None
        return res

    return driver


@pytest.mark.parametrize("cls", [W.Reduce, W.Recover])
def test_a_perturbed_h_entry_counts_as_failed(monkeypatch, cls):
    wl = cls(0, quick=True)
    monkeypatch.setattr(W.core, "ft_gehrd", _perturb(W.core.ft_gehrd))
    wl.run(0.5)
    assert wl.attempted > 0 and wl.failed > 0
    assert any("A ≠ Q H Qᵀ" in f for f in wl.failures)
    if cls is W.Recover:
        assert wl.metrics()["resilience.silent"][0] == wl.failed


def _fingerprint(seed: int) -> dict[str, str]:
    def h(*chunks: bytes) -> str:
        d = hashlib.sha256()
        for c in chunks:
            d.update(c)
        return d.hexdigest()

    jobs = W.serve_jobs(seed, 40)
    return {
        "reduce": h(*(m.tobytes() for m in W.reduce_inputs(seed))),
        "recover": h(*(m.tobytes() for m in W.recover_inputs(seed))),
        "plans": h(json.dumps(W.recover_plans(seed)).encode()),
        "jobs": h(*(json.dumps(s.content_dict(), sort_keys=True).encode() for s in jobs),
                  *(np.asarray(s.matrix).tobytes() for s in jobs)),
    }


def test_inputs_and_plans_depend_only_on_the_seed():
    a, b, c = _fingerprint(3), _fingerprint(3), _fingerprint(4)
    assert a == b
    assert all(a[k] != c[k] for k in a)


def test_no_trigger_lands_in_a_struck_column_checksums_column():
    # without the redraw, seeds 63, 175 and 206 draw one (README, Findings)
    pairs = [plan for seed in range(250) for cls, plan in W.recover_plans(seed)
             if cls == "col_checksum" and len(plan) == 2]
    assert pairs and all(trigger["col"] != struck["col"] for struck, trigger in pairs)


def test_an_untraced_run_installs_no_probes(monkeypatch):
    installs = []
    monkeypatch.setattr(probes.Recorder, "install", lambda self: installs.append(self))
    originals = {
        (owner, attr): vars(probes._resolve(owner))[attr] for owner, attr, _ in probes.TARGETS
    }
    wl = W.Recover(0, quick=True)
    wl.run(0.5, trace=False)
    assert installs == [] and wl.rec is None
    for (owner, attr), fn in originals.items():
        assert vars(probes._resolve(owner))[attr] is fn


def test_traced_blocks_repeat_the_untraced_inputs():
    class Units(W.Workload):
        trace_block = 3

        def __init__(self) -> None:
            self.calls = []

        def unit(self, k, *, traced):
            self.calls.append((k, traced))
            time.sleep(0.001)

    wl = Units()
    wl.run(0.1, trace=True)
    assert wl.calls[:12] == [(k, t) for base in (0, 3) for t in (False, True)
                             for k in range(base, base + 3)]


def test_probes_restore_the_originals_and_attribute_self_time():
    rec = probes.Recorder()
    originals = {(o, a): vars(probes._resolve(o))[a] for o, a, _ in probes.TARGETS}
    with rec.probing():
        assert rec.installed == len(probes.TARGETS)
        assert W.core.ft_gehrd is not originals[("repro.core", "ft_gehrd")]
        with rec.span("suite", "root"):
            W.core.ft_gehrd(W.uniform(W.stream(0, "t"), 64), W.FTConfig(nb=16))
    assert rec.installed == 0
    for (owner, attr), fn in originals.items():
        assert vars(probes._resolve(owner))[attr] is fn
    self_ns = rec.self_ns()
    total = max(s[6] - s[5] for s in rec.spans)  # the root span
    assert sum(self_ns.values()) == total  # self times partition the root
    assert self_ns["linalg.panel"] > 0 and self_ns["abft.update"] > 0
    runs = {s[2] for s in rec.spans}
    assert len(runs) == 1  # one root: every span shares its run id


@pytest.mark.parametrize("n,nb", [(40, 8), (97, 16), (256, 32)])
def test_yardstick_matches_lapack(n, nb):
    import scipy.linalg

    a = W.uniform(W.stream(n, "yardstick-test"), n)
    packed, _ = yardstick.reduce(a.copy(order="F"), nb=nb)
    err = np.max(np.abs(np.triu(packed, -1) - scipy.linalg.hessenberg(a)))
    assert err <= 1e-12 * np.linalg.norm(a)
    assert W.check_yardstick() <= 1e-12 * np.linalg.norm(yardstick.make_input())
