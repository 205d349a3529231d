"""Tests for the array-namespace backend seam (``repro.backend``).

Registry resolution, the adapter contracts (in-place vs functional),
the whole-stack kernels' ≤ c·n·eps parity against the scalar engine,
the FT lane's ejection invariant (a fault never silently rides the
fast path), and the compile cache. The ``numpy_functional``
adapter exercises the exact code path the JAX backend jits, so the
functional contract is fully covered without an optional install;
JAX-only parity runs when ``jax`` is importable (the CI backend-smoke
runner) and skips cleanly otherwise.
"""

import numpy as np
import pytest

import repro.backend as B
from repro.backend import (
    BACKEND_NAMES,
    BackendUnavailableError,
    NumpyBackend,
    NumpyFunctionalBackend,
    available_backends,
    backend_available,
    backend_probe,
    canonical_backend_name,
    get_backend,
    is_known_backend,
)
from repro.backend.kernels import (
    checksum_banks,
    clear_compiled_cache,
    compiled_cache_info,
    encode_stack,
    get_chunk_kernel,
    identity_stack,
)
from repro.batch import ft_gehrd_stack, gehrd_stack
from repro.core import FTConfig, ft_gehrd
from repro.faults import FaultInjector, FaultSpec
from repro.linalg import (
    extract_hessenberg,
    factorization_residual,
    gehrd,
    orghr,
)
from repro.utils import random_matrix

HAS_JAX = backend_available("jax")


def _stack(b: int, n: int, *, seed0: int = 0, dtype=np.float64) -> np.ndarray:
    return np.stack([random_matrix(n, seed=seed0 + i, dtype=dtype) for i in range(b)])


class TestRegistry:
    def test_default_resolution(self, monkeypatch):
        monkeypatch.delenv(B.ENV_VAR, raising=False)
        assert canonical_backend_name(None) == "numpy"
        assert canonical_backend_name("") == "numpy"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(B.ENV_VAR, "numpy_functional")
        assert canonical_backend_name(None) == "numpy_functional"
        # an explicit name still wins over the env default
        assert canonical_backend_name("numpy") == "numpy"

    def test_canonicalization(self):
        assert canonical_backend_name("  NumPy-Functional ") == "numpy_functional"

    def test_known_names(self):
        assert BACKEND_NAMES == ("numpy", "numpy_functional", "jax")
        for name in BACKEND_NAMES:
            assert is_known_backend(name)
        assert not is_known_backend("torch")

    def test_numpy_always_available(self):
        ok, version, reason = backend_probe("numpy")
        assert ok and version == np.__version__ and reason is None
        assert backend_available("numpy_functional")

    def test_get_backend_caches_instance(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_name_raises_typed(self):
        with pytest.raises(BackendUnavailableError, match="unknown backend"):
            get_backend("torch")

    def test_disabled_backend_raises_with_hint(self, monkeypatch):
        # the CI backend-smoke host has jax installed; the _DISABLED hook
        # makes the degradation path testable everywhere
        monkeypatch.setattr(B, "_DISABLED", {"jax"})
        assert not backend_available("jax")
        with pytest.raises(BackendUnavailableError, match=r"repro\[jax\]"):
            get_backend("jax")

    def test_available_backends_rows(self):
        rows = {r["name"]: r for r in available_backends()}
        assert set(rows) == set(BACKEND_NAMES)
        assert rows["numpy"]["available"] and rows["numpy"]["contract"] == "in-place"
        assert rows["numpy_functional"]["contract"] == "functional"
        assert rows["jax"]["contract"] == "functional"
        for r in rows.values():
            assert r["available"] or r["reason"]

    def test_exactly_one_default(self, monkeypatch):
        monkeypatch.delenv(B.ENV_VAR, raising=False)
        defaults = [r["name"] for r in available_backends() if r["default"]]
        assert defaults == ["numpy"]


class TestAdapterContracts:
    def test_numpy_backend_is_inplace(self):
        bk = NumpyBackend()
        assert bk.inplace_updates and bk.name == "numpy"
        a = np.zeros((3, 3))
        out = bk.at_set(a, (1, 2), 5.0)
        assert out is a and a[1, 2] == 5.0

    def test_functional_at_set_does_not_mutate(self):
        bk = NumpyFunctionalBackend()
        assert not bk.inplace_updates
        a = np.zeros((3, 3))
        out = bk.at_set(a, (1, 2), 5.0)
        assert out is not a and a[1, 2] == 0.0 and out[1, 2] == 5.0

    def test_eps_and_dtype_helpers(self):
        bk = NumpyBackend()
        assert bk.eps(np.float32) == np.finfo(np.float32).eps
        assert bk.canonical_dtype(np.zeros(2, dtype=np.float64)) == np.dtype(np.float64)

    def test_default_jit_and_fori_loop(self):
        bk = NumpyFunctionalBackend()
        f = bk.jit(lambda x, y: x + y)
        assert f(1, 2) == 3
        total = bk.fori_loop(0, 5, lambda i, acc: acc + i, 0)
        assert total == 10


def _parity_tol(n: int, dtype=np.float64, c: float = 50.0) -> float:
    return c * n * float(np.finfo(dtype).eps)


class TestGehrdStackParity:
    @pytest.mark.parametrize("backend", ["numpy_functional"] + (["jax"] if HAS_JAX else []))
    def test_parity_vs_scalar(self, backend):
        b, n = 3, 48
        stack = _stack(b, n, seed0=10)
        hs, qs = gehrd_stack(stack, backend=backend, nb=8)
        scale = max(float(np.max(np.abs(stack))), 1.0)
        for i in range(b):
            fac = gehrd(stack[i].copy(order="F"), nb=8)
            h_ref = extract_hessenberg(fac.a)
            q_ref = orghr(fac.a, fac.taus)
            # reflector signs are pinned by the dlarfg convention, so H
            # itself (not just the factorization) must agree to roundoff
            assert np.max(np.abs(hs[i] - h_ref)) / scale <= _parity_tol(n)
            assert np.max(np.abs(np.abs(qs[i]) - np.abs(q_ref))) <= _parity_tol(n)
            assert factorization_residual(stack[i], qs[i], hs[i]) < 1e-14

    @pytest.mark.parametrize("backend", ["numpy_functional"] + (["jax"] if HAS_JAX else []))
    def test_orthogonality_and_structure(self, backend):
        b, n = 2, 32
        stack = _stack(b, n, seed0=3)
        hs, qs = gehrd_stack(stack, backend=backend)
        for i in range(b):
            assert np.max(np.abs(qs[i].T @ qs[i] - np.eye(n))) <= _parity_tol(n)
            assert np.allclose(np.tril(hs[i], -2), 0.0)

    def test_fp32_lane(self):
        b, n = 2, 32
        stack = _stack(b, n, seed0=5, dtype=np.float32)
        hs, qs = gehrd_stack(stack, backend="numpy_functional")
        for i in range(b):
            assert hs[i].dtype == np.float32
            res = factorization_residual(
                stack[i].astype(np.float64),
                qs[i].astype(np.float64),
                hs[i].astype(np.float64),
            )
            assert res <= _parity_tol(n, np.float32)

    def test_degenerate_item_cannot_poison_batch(self):
        # item 0 is already Hessenberg (every reflector degenerates to
        # the tau=0 identity branch); item 1 is dense — the masked
        # kernel must reduce both correctly in one stacked sweep
        n = 24
        dense = random_matrix(n, seed=1)
        already = np.triu(random_matrix(n, seed=2), -1)
        hs, qs = gehrd_stack(np.stack([already, dense]), backend="numpy_functional")
        np.testing.assert_allclose(hs[0], already, atol=1e-13)
        np.testing.assert_allclose(qs[0], np.eye(n), atol=1e-13)
        assert factorization_residual(dense, qs[1], hs[1]) < 1e-14


class TestCompiledCache:
    def test_one_entry_per_shape_key(self):
        clear_compiled_cache()
        bk = get_backend("numpy_functional")
        k1 = get_chunk_kernel(bk, 2, 16, encoded=False, dtype=np.dtype(np.float64))
        k2 = get_chunk_kernel(bk, 2, 16, encoded=False, dtype=np.dtype(np.float64))
        assert k1 is k2 and compiled_cache_info()[0] == 1
        get_chunk_kernel(bk, 2, 16, encoded=True, dtype=np.dtype(np.float64))
        get_chunk_kernel(bk, 3, 16, encoded=False, dtype=np.dtype(np.float64))
        assert compiled_cache_info()[0] == 3

    def test_chunking_reuses_one_kernel(self):
        clear_compiled_cache()
        gehrd_stack(_stack(2, 24), backend="numpy_functional", nb=4)
        gehrd_stack(_stack(2, 24), backend="numpy_functional", nb=8)
        # dynamic (lo, hi) bounds: different chunkings share one compile
        assert compiled_cache_info()[0] == 1


class TestEncodedKernels:
    def test_encode_and_banks_roundtrip(self):
        bk = get_backend("numpy_functional")
        stack = _stack(2, 16, seed0=20)
        ext = encode_stack(bk, stack)
        assert ext.shape == (2, 17, 17)
        rc, cc = checksum_banks(bk, ext)
        np.testing.assert_allclose(rc, stack.sum(axis=2), atol=1e-12)
        np.testing.assert_allclose(cc, stack.sum(axis=1), atol=1e-12)

    def test_fused_sweep_maintains_banks(self):
        bk = get_backend("numpy_functional")
        b, n = 2, 24
        stack = _stack(b, n, seed0=30)
        ext = encode_stack(bk, stack)
        q = identity_stack(bk, b, n, stack.dtype)
        kern = get_chunk_kernel(bk, b, n, encoded=True, dtype=stack.dtype)
        ext, q = kern(ext, q, 0, n - 1)
        ext_h = bk.to_numpy(ext)
        data = ext_h[:, :n, :n]
        # both banks must still equal the true sums of the updated data
        np.testing.assert_allclose(ext_h[:, n, :n], data.sum(axis=1), atol=1e-10)
        np.testing.assert_allclose(ext_h[:, :n, n], data.sum(axis=2), atol=1e-10)


class TestFtGehrdStack:
    def test_clean_batch_fast_path(self):
        b, n = 3, 48
        stack = _stack(b, n, seed0=40)
        res = ft_gehrd_stack(stack, FTConfig(nb=8),
                             backend="numpy_functional")
        assert res.backend == "numpy_functional"
        assert res.fast_path == b and not res.ejected and not res.errors
        assert res.lane_detections == 0 and res.checks > 0
        assert res.seconds is not None and res.seconds > 0
        for i in range(b):
            assert res.residuals[i] < 1e-14
            ref = ft_gehrd(stack[i].copy(order="F"), FTConfig(nb=8))
            h_ref = extract_hessenberg(ref.a)
            scale = max(float(np.max(np.abs(h_ref))), 1.0)
            assert np.max(np.abs(res.h[i] - h_ref)) / scale <= _parity_tol(n)

    def test_active_region_fault_trips_and_ejects(self):
        b, n = 3, 48
        stack = _stack(b, n, seed0=50)
        inj = FaultInjector().add(
            FaultSpec(space="matrix", iteration=1, phase="boundary",
                      row=20, col=25, magnitude=7.0)
        )
        res = ft_gehrd_stack(stack, FTConfig(nb=8),
                             backend="numpy_functional",
                             injectors=[None, inj, None])
        assert res.ejected == [1]
        assert res.lane_detections == 1
        assert 0 <= res.ejected_at[1] < res.iterations
        # the ejected item re-ran on the scalar ladder and recovered
        assert 1 in res.scalar_results
        assert res.scalar_results[1].recoveries
        # zero silent corruptions: every item's residual is at roundoff
        assert all(r < 1e-13 for r in res.residuals)

    def test_untripped_fault_is_escorted_out(self):
        # an injector whose faults never fire in-lane (empty plan after
        # cloning is impossible here, so use a late boundary fault on
        # the finished region — structurally Σ-blind) must still finish
        # on the scalar ladder: no fault plan rides the fast path
        b, n = 2, 48
        stack = _stack(b, n, seed0=60)
        inj = FaultInjector().add(
            FaultSpec(space="matrix", iteration=2, phase="boundary",
                      row=2, col=4, magnitude=1e-300)
        )
        res = ft_gehrd_stack(stack, FTConfig(nb=8),
                             backend="numpy_functional", injectors=[inj, None])
        assert 0 in res.ejected
        assert res.ejected_at[0] in (res.iterations, *range(res.iterations))
        assert 0 in res.scalar_results
        assert res.residuals[1] is not None and res.residuals[1] < 1e-14

    def test_bank_fault_trips(self):
        b, n = 2, 48
        stack = _stack(b, n, seed0=70)
        inj = FaultInjector().add(
            FaultSpec(space="row_checksum", iteration=2, phase="boundary",
                      row=0, col=12, magnitude=50.0)
        )
        res = ft_gehrd_stack(stack, FTConfig(nb=8),
                             backend="numpy_functional", injectors=[None, inj])
        assert res.ejected == [1] and res.lane_detections == 1
        assert all(r < 1e-13 for r in res.residuals)

    def test_rejects_nonfunctional_and_multichannel(self):
        from repro.errors import ShapeError

        stack = _stack(2, 16)
        with pytest.raises(ShapeError, match="channels"):
            ft_gehrd_stack(stack, FTConfig(nb=8, channels=2),
                           backend="numpy_functional")


@pytest.mark.skipif(not HAS_JAX, reason="jax not installed")
class TestJaxLane:
    """Extra coverage that only runs on the CI backend-smoke host."""

    def test_ft_stack_parity_and_ejection(self):
        b, n = 2, 32
        stack = _stack(b, n, seed0=80)
        inj = FaultInjector().add(
            FaultSpec(space="matrix", iteration=1, phase="boundary",
                      row=12, col=16, magnitude=5.0)
        )
        res = ft_gehrd_stack(stack, FTConfig(nb=8),
                             backend="jax", injectors=[None, inj])
        assert res.backend == "jax"
        assert 1 in res.ejected
        assert all(r < 1e-13 for r in res.residuals)

    def test_x64_enabled(self):
        bk = get_backend("jax")
        out = bk.asarray(np.ones(3))
        assert bk.to_numpy(out).dtype == np.float64
