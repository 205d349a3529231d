"""Golden fault-free parity of the eigensolver pipelines vs numpy.

Every driver path that produces a spectrum — unprotected Francis QR,
the protected ``ft_hqr``, and the end-to-end ``ft_eig``/``ft_schur``
serve drivers — must agree with ``numpy.linalg.eigvals`` on clean
inputs, across sizes, seeds and precision lanes, and must leave the
Schur factor in standardized real Schur form.
"""

import numpy as np
import pytest

from repro.core import FTConfig, ft_gehrd
from repro.eigen import (
    ft_hqr,
    hessenberg_eigvals,
    is_quasi_triangular,
    standardized_blocks_ok,
)
from repro.linalg import extract_hessenberg
from repro.utils.precision import lane_scale
from repro.utils.rng import random_matrix


def _tol(dtype, n):
    # numpy's LAPACK path and our pure-python QR accumulate roundoff
    # differently; the agreement bar scales with lane eps and size
    return 5e-11 * float(lane_scale(np.dtype(dtype))) * max(n / 24.0, 1.0)


def _spectrum_dist(got, ref):
    got, ref = np.sort_complex(got), np.sort_complex(ref)
    return float(np.max(np.abs(got - ref))) / max(float(np.max(np.abs(ref))), 1.0)


GRID = [(n, seed) for n in (8, 24, 48) for seed in (0, 1, 2)]


class TestNumpyParity:
    @pytest.mark.parametrize("n,seed", GRID)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_ft_pipeline_matches_numpy(self, n, seed, dtype):
        a = random_matrix(n, seed=seed, dtype=dtype)
        ref = np.linalg.eigvals(a.astype(np.float64))
        res = ft_gehrd(a, FTConfig(nb=8))
        fr = ft_hqr(extract_hessenberg(res.a), check_input=False)
        assert fr.detections == 0
        assert _spectrum_dist(fr.eigvals, ref) < _tol(dtype, n)

    @pytest.mark.parametrize("n,seed", GRID)
    def test_protected_matches_unprotected(self, n, seed):
        from repro.eigen import hessenberg_schur, schur_eigvals

        h = np.triu(random_matrix(n, seed=seed), -1)
        eig = np.sort_complex(ft_hqr(h).eigvals)
        # byte-identical to the accumulating Schur driver it wraps...
        np.testing.assert_array_equal(
            eig, np.sort_complex(schur_eigvals(hessenberg_schur(h)[0])))
        # ...and within roundoff of the accumulation-free HQR driver
        np.testing.assert_allclose(
            eig, np.sort_complex(hessenberg_eigvals(h)), atol=1e-10)

    @pytest.mark.parametrize("n,seed", GRID)
    def test_complex_eigvals_come_in_conjugate_pairs(self, n, seed):
        h = np.triu(random_matrix(n, seed=seed), -1)
        eig = ft_hqr(h).eigvals
        complex_part = np.sort_complex(eig[eig.imag != 0])
        np.testing.assert_allclose(
            complex_part, np.sort_complex(np.conj(complex_part)))

    @pytest.mark.parametrize("n,seed", GRID)
    def test_schur_form_invariants(self, n, seed):
        h = np.triu(random_matrix(n, seed=seed), -1)
        fr = ft_hqr(h)
        assert is_quasi_triangular(fr.t, tol=1e-12)
        assert standardized_blocks_ok(fr.t)
        # Z reproduces H: the similarity the invariants certify
        err = np.linalg.norm(fr.z @ fr.t @ fr.z.T - h, 1)
        assert err / max(np.linalg.norm(h, 1), 1.0) < 1e-12


class TestServeDriverParity:
    @pytest.mark.parametrize("n,seed", [(16, 0), (24, 3), (48, 5)])
    @pytest.mark.parametrize("driver", ["ft_eig", "ft_schur"])
    def test_payload_spectrum_matches_numpy(self, n, seed, driver):
        from repro.serve import JobSpec, execute_job

        payload = execute_job(JobSpec(driver=driver, n=n, seed=seed, nb=8))
        a = random_matrix(n, seed=seed)
        ref = np.linalg.eigvals(a)
        got = np.array([complex(re, im) for re, im in payload["eigvals"]])
        assert _spectrum_dist(got, ref) < _tol("float64", n)
        assert payload["detections"] == 0

    def test_schur_payload_residual(self):
        from repro.serve import JobSpec, execute_job

        payload = execute_job(JobSpec(driver="ft_schur", n=32, seed=9, nb=8))
        assert payload["schur_residual"] < 1e-12

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_lanes_through_serve(self, dtype):
        from repro.serve import JobSpec, execute_job

        payload = execute_job(
            JobSpec(driver="ft_eig", n=24, seed=1, nb=8, dtype=dtype))
        assert payload["dtype"] == dtype
        a = random_matrix(24, seed=1, dtype=dtype)
        ref = np.linalg.eigvals(a.astype(np.float64))
        got = np.array([complex(re, im) for re, im in payload["eigvals"]])
        assert _spectrum_dist(got, ref) < _tol(dtype, 24)
