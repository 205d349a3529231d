"""The scratch arena and the one GEMM provider behind every update kernel.

Every trailing-update product goes through ``Workspace.product`` (one
``np.matmul`` into one pooled buffer per dtype), so the arena must cover
the whole hot path once presized, and NumPy must be the only BLAS the
package loads.
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
from repro.perf.workspace import Workspace
from repro.utils.rng import random_matrix

SRC = Path(repro.__file__).resolve().parents[1]


class TestProduct:
    def test_product_is_a_fortran_view_of_a_at_b(self):
        rng = np.random.default_rng(0)
        a = np.asfortranarray(rng.standard_normal((7, 3)))
        b = np.asfortranarray(rng.standard_normal((3, 5)))
        ws = Workspace()
        got = ws.product(a, b)
        assert got.shape == (7, 5) and got.flags.f_contiguous
        np.testing.assert_allclose(got, a @ b, rtol=1e-14)

    def test_one_pooled_buffer_per_dtype(self):
        rng = np.random.default_rng(1)
        ws = Workspace()
        for m, n in ((9, 4), (3, 11), (6, 6)):
            ws.product(rng.standard_normal((m, 2)), rng.standard_normal((2, n)))
        ws.product(np.ones((4, 2), np.float32), np.ones((2, 4), np.float32))
        assert ws.buffers == 2  # gemm.prod and gemm.prod@float32

    def test_stacked_items_match_scalar_bytes(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 40, 8))
        b = rng.standard_normal((3, 8, 30))
        stacked = Workspace().product(a, b).copy()
        for i in range(3):
            assert np.array_equal(stacked[i], Workspace().product(a[i], b[i]))


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
print("one blas ok")
"""


def test_drivers_load_no_second_blas():
    """NumPy is the only GEMM provider: the drivers, the recovery ladder,
    the batch lane and an in-thread serve job never import SciPy (whose
    bundled OpenBLAS would run its own thread pool next to NumPy's)."""
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
