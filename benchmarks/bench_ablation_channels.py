"""Ablation 5 — checksum channels: the paper's unit encoding vs the
Huang-Abraham two-channel (unit + linear weights) extension.

Coverage: the second channel decodes simultaneous-error patterns the
unit scheme provably cannot (the L-shaped triple; see EXPERIMENTS.md),
and equal-magnitude pairs the unit peeler cannot match.
Cost: one extra GEMV pair per iteration — a fraction of the already
sub-percent FT overhead.
"""

import numpy as np
from conftest import emit

from repro.abft import EncodedMatrix, correct_all, locate_errors
from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd, overhead_percent
from repro.errors import UncorrectableError
from repro.linalg import one_norm
from repro.utils.fmt import Table
from repro.utils.rng import random_matrix


def _pattern_coverage(channels: int, trials: int = 6) -> dict[str, float]:
    """Fraction of injected patterns located+corrected exactly."""
    patterns = {
        "single": [(7, 11, 2.0)],
        "pair, equal magnitudes": [(3, 10, 1.0), (14, 20, 1.0)],
        "same-row pair": [(5, 2, 1.0), (5, 9, 2.0)],
        "L-shape triple": [(1, 1, 1.0), (1, 8, 2.0), (12, 8, 4.0)],
    }
    out = {}
    for name, cells in patterns.items():
        ok = 0
        for s in range(trials):
            a = random_matrix(32, seed=100 + s)
            em = EncodedMatrix(a, channels=channels)
            for (i, j, m) in cells:
                em.data[i, j] += m
            try:
                rep = locate_errors(em, 0, one_norm(a))
                correct_all(em, rep.errors, 0)
                ok += bool(np.max(np.abs(em.data - a)) < 1e-9)
            except UncorrectableError:
                pass
        out[name] = ok / trials
    return out


def test_ablation_checksum_channels(benchmark, results_dir):
    def study():
        cov1 = _pattern_coverage(1)
        cov2 = _pattern_coverage(2)
        base = hybrid_gehrd(10110, HybridConfig(nb=32))
        o1 = overhead_percent(
            ft_gehrd(10110, FTConfig(nb=32, channels=1)), base
        )
        o2 = overhead_percent(
            ft_gehrd(10110, FTConfig(nb=32, channels=2)), base
        )
        return cov1, cov2, o1, o2

    cov1, cov2, o1, o2 = benchmark.pedantic(study, rounds=1, iterations=1)
    t = Table(
        ["error pattern", "unit (paper)", "unit+weighted"],
        title="Ablation: checksum channels — pattern coverage (exact recovery rate)",
    )
    for name in cov1:
        t.add_row([name, f"{cov1[name]:.0%}", f"{cov2[name]:.0%}"])
    text = t.render() + (
        f"\n\nno-error overhead at N=10110: unit {o1:.3f}% vs two-channel {o2:.3f}%"
    )
    emit(results_dir, "ablation_channels", text)

    assert cov1["single"] == 1.0 and cov2["single"] == 1.0
    assert cov1["L-shape triple"] == 0.0      # provably ambiguous for unit sums
    assert cov2["L-shape triple"] == 1.0      # ratio decode resolves it
    assert cov2["pair, equal magnitudes"] == 1.0
    assert o2 - o1 < 0.2
