"""The scratch arena and the one GEMM provider behind every update kernel.

Every trailing-update GEMM goes through ``repro.perf.gemm.fold`` (one
in-place ``β = 1`` call for a matrix; a stack's product in one pooled
buffer per dtype), so the arena must cover the whole hot path once
presized, and NumPy must be the only BLAS the package loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd
from repro.faults import FaultInjector, FaultSpec
from repro.perf.gemm import fold
from repro.perf.workspace import Workspace
from repro.utils.rng import random_matrix

SRC = Path(repro.__file__).resolve().parents[1]


class TestFold:
    def test_fold_adds_a_at_b_into_a_fortran_c(self):
        rng = np.random.default_rng(0)
        a = np.asfortranarray(rng.standard_normal((7, 3)))
        b = np.asfortranarray(rng.standard_normal((3, 5)))
        c0 = np.asfortranarray(rng.standard_normal((7, 5)))
        c = c0.copy(order="F")
        fold(c, a, b, -1.0, Workspace())
        assert c.flags.f_contiguous
        np.testing.assert_allclose(c, c0 - a @ b, rtol=1e-14)

    def test_products_share_one_pooled_buffer_per_dtype(self):
        rng = np.random.default_rng(1)
        ws = Workspace()
        for m, n in ((9, 4), (3, 11), (6, 6)):
            c = np.zeros((2, m, n))
            fold(c, rng.standard_normal((2, m, 2)), rng.standard_normal((2, 2, n)), -1.0, ws)
            c = np.zeros((m, n), order="F")
            fold(c, rng.standard_normal((m, 2)), rng.standard_normal((2, n)), -1.0, ws)
        c = np.zeros((2, 4, 4), np.float32)
        fold(c, np.ones((2, 4, 2), np.float32), np.ones((2, 2, 4), np.float32), 1.0, ws)
        assert ws.buffers == 2  # gemm.prod and gemm.prod@float32

    def test_stacked_items_match_scalar_bytes(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 40, 8))
        b = rng.standard_normal((3, 8, 30))
        c0 = np.asfortranarray(rng.standard_normal((40, 30, 3))).transpose(2, 0, 1)
        stacked = c0.copy()
        fold(stacked, a, b, -1.0, Workspace())
        for i in range(3):
            item = np.asfortranarray(c0[i])
            fold(item, a[i], b[i], -1.0)
            assert np.array_equal(stacked[i], item)


class TestBufKeys:
    def test_dtype_spellings_share_one_pool_per_lane(self):
        ws = Workspace()
        a = ws.buf("x", (4, 3), dtype=np.float32)
        b = ws.buf("x", (4, 3), dtype="float32")
        c = ws.buf("x", (3, 4), order="C", dtype=np.dtype(np.float32))
        assert a.dtype == b.dtype == c.dtype == np.float32
        assert a.flags.f_contiguous and c.flags.c_contiguous
        assert a.ctypes.data == b.ctypes.data == c.ctypes.data
        d = ws.buf("x", (4, 3), dtype="float64")
        e = ws.buf("x", (2, 2))
        assert d.ctypes.data == e.ctypes.data and d.dtype == np.float64
        assert sorted(ws._pools) == ["x", "x@float32"]


class TestBufViews:
    def test_repeated_request_gets_the_same_view(self):
        ws = Workspace()
        a = ws.buf("x", (4, 3))
        a[...] = 7.0
        assert ws.buf("x", (4, 3)) is a
        assert not ws.buf("x", (4, 3), zero=True).any()
        assert ws.buf("x", (3, 4), order="C") is not a

    def test_a_grown_pool_hands_out_fresh_views(self):
        ws = Workspace()
        small = ws.buf("x", (4, 3))
        ws.buf("x", (40, 30))  # grows the pool
        again = ws.buf("x", (4, 3))
        assert again is not small
        assert not np.shares_memory(again, small)
        assert np.shares_memory(again, ws._pools["x"])


class TestPresizeCoversHotPath:
    N, NB = 96, 16

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_clean_and_faulted_ft_gehrd_allocate_nothing(self, dtype):
        ws = Workspace()
        ws.presize(self.N, self.NB, 1, dtype=dtype)
        presized = (ws.nbytes, ws.buffers)
        a = random_matrix(self.N, seed=3, dtype=dtype)
        cfg = FTConfig(nb=self.NB)
        ft_gehrd(a.copy(order="F"), cfg, workspace=ws)
        assert (ws.nbytes, ws.buffers) == presized
        inj = FaultInjector().add(
            FaultSpec(iteration=1, row=self.N // 2, col=self.N - 3, magnitude=3.0)
        )
        res = ft_gehrd(a.copy(order="F"), cfg, injector=inj, workspace=ws)
        # the reverse kernels ran: recovery is allocation-free too
        assert [e.tier for e in res.recoveries] == ["reverse_redo"]
        assert (ws.nbytes, ws.buffers) == presized

    def test_second_hybrid_gehrd_run_allocates_nothing(self):
        ws = Workspace()
        a = random_matrix(self.N, seed=4)
        cfg = HybridConfig(nb=self.NB)
        hybrid_gehrd(a.copy(order="F"), cfg, workspace=ws)
        warm = (ws.nbytes, ws.buffers)
        hybrid_gehrd(a.copy(order="F"), cfg, workspace=ws)
        assert (ws.nbytes, ws.buffers) == warm


_ONE_BLAS = """
import os
import sys
import numpy as np
from repro.batch import ft_gehrd_batched
from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd
from repro.faults import FaultInjector, FaultSpec
from repro.linalg import gehrd
from repro.serve import HessService, JobSpec
from repro.utils.rng import random_matrix

n = 48
a = random_matrix(n, seed=0)
cfg = FTConfig(nb=16)
gehrd(a.copy(order="F"), nb=16)
hybrid_gehrd(a.copy(order="F"), HybridConfig(nb=16))
ft_gehrd(a.copy(order="F"), cfg)
ft_gehrd(random_matrix(n, seed=0, dtype=np.float32), cfg)
inj = FaultInjector().add(FaultSpec(iteration=1, row=n // 2, col=n - 3, magnitude=3.0))
assert ft_gehrd(a.copy(order="F"), cfg, injector=inj).recoveries
ft_gehrd_batched([a, random_matrix(n, seed=1)], cfg)
with HessService(workers=1, small_n_threshold=64) as svc:
    sub = svc.submit(JobSpec(driver="ft_gehrd", n=32, seed=0))
    assert svc.result(sub.job_id, timeout=120).status == "done"
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
from repro.perf import gemm
# one BLAS mapped, and the in-place GEMM bound to it (binding maps no copy)
with open("/proc/self/maps") as fh:
    blas = {os.path.realpath(line.split()[-1]) for line in fh
            if "blas" in os.path.basename(line.split()[-1]).lower()}
assert len(blas) <= 1, blas
assert gemm.LIBRARY is None or {os.path.realpath(gemm.LIBRARY)} == blas, (gemm.LIBRARY, blas)
print("one blas ok")
"""


def test_drivers_load_no_second_blas():
    """NumPy's BLAS is the only GEMM provider: the drivers, the recovery
    ladder, the batch lane and an in-thread serve job never import SciPy
    (whose bundled OpenBLAS would run its own thread pool next to
    NumPy's), and the in-place GEMM binds the one BLAS mapped."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_BLAS],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "one blas ok" in proc.stdout
