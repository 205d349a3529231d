"""The restart tier's substrate: the read-only input and its checksums.

``ft_gehrd`` keeps no n² snapshot. Its restart tier copies the input
back into the encoded storage and re-encodes it, after checking the
re-encoded checksum blocks, bytewise, against the ones kept at encode
time. So the driver must never write its input, a restart must rebuild
exactly the state a fresh encode builds, and an input that changed
during the run must stop the restart instead of being reduced.
"""

import tracemalloc

import numpy as np
import pytest

from repro.abft import DisklessCheckpointStore, EncodedMatrix
from repro.core import FTConfig, ft_gehrd
from repro.errors import UncorrectableError
from repro.faults import FaultInjector, FaultSpec
from repro.perf.workspace import Workspace
from repro.utils.rng import random_matrix

N, NB = 96, 16

#: ladder outcome -> (FTConfig kwargs, fault plan)
LADDER = {
    "in_place": ({}, (dict(iteration=2, row=0, col=50, space="col_checksum"),)),
    "reverse_redo": ({}, (dict(iteration=2, row=60, col=70),)),
    # a struck V block: two channels unwind every finished iteration in
    # the deep rollback, refuse, and restart
    "restart": ({"channels": 2},
                (dict(iteration=2, row=30, col=5, space="panel_v", phase="post_panel"),)),
    "audit": ({"audit_every": 2}, (dict(iteration=3, row=5, col=20),)),
    "q": ({}, (dict(iteration=3, row=70, col=20),)),
    "tau": (
        {},
        (dict(iteration=2, row=10, col=0, space="tau", phase="during_recovery"),
         dict(iteration=2, row=60, col=70)),
    ),
}


def _injector(plan):
    return FaultInjector(faults=[FaultSpec(**kw) for kw in plan])


def _outcome(res) -> set[str]:
    seen = {r.tier for r in res.recoveries}
    if res.restarts:
        seen.add("restart")
    if res.tau_repairs:
        seen.add("tau")
    if res.q_report is not None and res.q_report.errors:
        seen.add("q")
    return seen


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", sorted(LADDER))
def test_read_only_input_through_every_ladder_outcome(case, dtype):
    kwargs, plan = LADDER[case]
    cfg = FTConfig(nb=NB, **kwargs)
    a = random_matrix(N, seed=5, dtype=dtype)
    before = a.tobytes(order="A")
    a.flags.writeable = False
    res = ft_gehrd(a, cfg, injector=_injector(plan))
    assert case in _outcome(res)
    assert a.tobytes(order="A") == before
    # the same run on a writable copy reduces to the same bytes
    twin = ft_gehrd(a.copy(order="F"), cfg, injector=_injector(plan))
    assert res.a.tobytes(order="F") == twin.a.tobytes(order="F")
    assert res.taus.tobytes() == twin.taus.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_restore_initial_rebuilds_a_fresh_encode(dtype, k):
    n = 70
    a = random_matrix(n, seed=k, dtype=dtype)
    em = EncodedMatrix(a, channels=k)
    store = DisklessCheckpointStore()
    store.save_initial(em, a)
    # the run scribbles over everything, the scratch corner included
    em.ext[...] = np.random.default_rng(k).standard_normal(em.ext.shape)
    store.restore_initial(em)
    fresh = EncodedMatrix(a, channels=k)
    # everything but the (k x k) corner, which is scratch by contract
    assert em.ext[:n, :].tobytes(order="F") == fresh.ext[:n, :].tobytes(order="F")
    assert em.ext[n:, :n].tobytes(order="F") == fresh.ext[n:, :n].tobytes(order="F")
    assert store.initial_restores == 1


def test_save_initial_keeps_a_read_only_view_and_checksum_copies():
    a = random_matrix(40, seed=1)
    em = EncodedMatrix(a, channels=2)
    store = DisklessCheckpointStore()
    store.save_initial(em, a)
    assert np.shares_memory(store.source, a) and not store.source.flags.writeable
    assert a.flags.writeable  # the caller's array itself is left alone
    rows, cols = store.source_checksums
    assert rows.shape == (40, 2) and cols.shape == (2, 40)
    assert not np.shares_memory(rows, em.ext) and not np.shares_memory(cols, em.ext)
    assert store.peak_bytes == 0  # only the panel checkpoint is counted


class _WritesTheInput(FaultInjector):
    """A fault-plan hook that also writes the caller's array during
    recovery, as a careless caller thread could."""

    def __init__(self, victim: np.ndarray, **kw):
        super().__init__(**kw)
        self.victim = victim

    def apply_phase(self, iteration, phase, targets):
        if phase == "during_recovery":
            self.victim[7, 3] += 1.0
        return super().apply_phase(iteration, phase, targets)


def test_restart_refuses_an_input_that_changed_during_the_run():
    kwargs, plan = LADDER["restart"]
    a = random_matrix(N, seed=5)
    injector = _WritesTheInput(a, faults=[FaultSpec(**kw) for kw in plan])
    with pytest.raises(UncorrectableError, match="input matrix changed"):
        ft_gehrd(a, FTConfig(nb=NB, **kwargs), injector=injector)


def test_checksums_compare_as_bytes():
    """NaN checksums of an unchanged input match (a float comparison
    would refuse them); a changed entry does not."""
    a = random_matrix(24, seed=2)
    a[4, 4] = np.nan
    em = EncodedMatrix(a)
    store = DisklessCheckpointStore()
    store.save_initial(em, a)
    em.ext[...] = 0.0
    store.restore_initial(em)
    assert np.isnan(em.ext[4, 24]) and np.isnan(em.ext[24, 4])
    a[0, 0] += 1.0
    with pytest.raises(UncorrectableError, match="input matrix changed"):
        store.restore_initial(em)


@pytest.mark.parametrize("axis", [0, 1])
def test_both_checksum_blocks_verify_the_input(axis):
    """A change that keeps every column sum (or every row sum) exact is
    still caught, by the other block."""
    a = np.asfortranarray(np.arange(36.0).reshape(6, 6))
    em = EncodedMatrix(a)  # unit weights: the other line's sums stay exact
    store = DisklessCheckpointStore()
    store.save_initial(em, a)
    # integers: +1 and -1 along one line leave its sums exact
    if axis == 0:
        a[0, 0] += 1.0
        a[1, 0] -= 1.0
    else:
        a[0, 0] += 1.0
        a[0, 1] -= 1.0
    with pytest.raises(UncorrectableError, match="input matrix changed"):
        store.restore_initial(em)


def test_clean_run_allocates_no_n2_block_beyond_ext_and_the_arena():
    n = 256
    a = random_matrix(n, seed=1)
    cfg = FTConfig(nb=32)
    ws = Workspace()
    ft_gehrd(a, cfg, workspace=ws)  # grows the arena to its steady state
    tracemalloc.start()
    try:
        ft_gehrd(a, cfg, workspace=ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ext_bytes = (n + 1) ** 2 * 8
    assert peak - ext_bytes < n * n * 8


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("channels", [1, 2])
def test_checkpoint_peak_bytes_counts_the_panel_checkpoint_only(dtype, channels):
    n, nb = 256, 32
    res = ft_gehrd(random_matrix(n, seed=1, dtype=dtype), FTConfig(nb=nb, channels=channels))
    assert res.checkpoint_peak_bytes == np.dtype(dtype).itemsize * (n + channels) * nb
