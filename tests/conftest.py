"""Shared fixtures for the test suite."""

import glob
import os

import numpy as np
import pytest

from repro.utils.rng import MatrixKind, random_matrix


@pytest.fixture(autouse=True)
def _shm_leak_guard():
    """Fail any test that leaks a shared-memory data-plane segment.

    Segment hygiene is a hard acceptance criterion for the zero-copy
    transport (see docs/performance.md): no test — crash-chaos,
    cancellation, pool rebuild, none — may leave a ``repro-shm-*``
    entry in /dev/shm behind. Pre-existing segments (a concurrent
    pytest-xdist worker's live pool) are tolerated; only segments that
    *appear* during the test and survive it are a failure.
    """
    if not os.path.isdir("/dev/shm"):
        yield
        return
    before = set(glob.glob("/dev/shm/repro-shm-*"))
    yield
    leaked = [p for p in set(glob.glob("/dev/shm/repro-shm-*")) - before
              if os.path.exists(p)]
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_matrix():
    """A 24x24 uniform test matrix (fast path for kernel tests)."""
    return random_matrix(24, seed=7)


@pytest.fixture
def medium_matrix():
    """A 96x96 uniform test matrix (multi-panel blocked runs)."""
    return random_matrix(96, seed=11)


@pytest.fixture
def paper_small_matrix():
    """The paper's Fig. 2 configuration: N=158, nb=32."""
    return random_matrix(158, seed=42)


@pytest.fixture
def symmetric_matrix():
    return random_matrix(64, MatrixKind.SYMMETRIC, seed=3)


@pytest.fixture
def storm_injector():
    """A ``FaultInjector`` class that re-arms its plan at every boundary
    of a struck iteration, so each re-execution is struck again: an error
    storm, outside the paper's one-error-at-a-time model."""
    from repro.faults import FaultInjector

    class StormInjector(FaultInjector):
        def apply_phase(self, iteration, phase, targets):
            if phase == "boundary" and any(f.iteration == iteration for f in self.faults):
                self._fired.clear()
            return super().apply_phase(iteration, phase, targets)

    return StormInjector
