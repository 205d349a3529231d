"""Tests for the empirical protection-coverage map."""

import numpy as np
import pytest

from repro.analysis import coverage_map
from repro.faults import finished_cols_at


class TestCoverageMap:
    @pytest.fixture(scope="class")
    def cmap(self):
        return coverage_map(n=96, nb=32, iteration=1, grid=10)

    def test_no_refusals_or_unknowns(self, cmap):
        assert cmap.count("F") == 0
        assert not np.any(cmap.grid == "?")

    def test_silent_cells_confined_to_finished_h_wedge(self, cmap):
        """The only silent-corruption cells are the paper's unprotected
        finished-H region: j < p and i <= j+1."""
        p = finished_cols_at(1, 96, 32)
        for (i, j) in cmap.silent_corruption_cells:
            assert j < p and i <= j + 1, f"unexpected hole at ({i}, {j})"

    def test_everything_outside_the_wedge_recovers(self, cmap):
        p = finished_cols_at(1, 96, 32)
        for a, i in enumerate(cmap.rows):
            for b, j in enumerate(cmap.cols):
                if not (j < p and i <= j + 1):
                    assert cmap.grid[a, b] == "R", f"({i}, {j}) = {cmap.grid[a, b]}"

    def test_render_contains_counts(self, cmap):
        out = cmap.render()
        assert "recovered" in out and "SILENT" in out

    def test_late_iteration_shrinks_coverage_hole_relative_shape(self):
        """Injecting later → more finished columns → a larger wedge (the
        hole grows with p, exactly as the mask predicts)."""
        early = coverage_map(n=96, nb=32, iteration=1, grid=8)
        late = coverage_map(n=96, nb=32, iteration=2, grid=8)
        assert late.count("X") >= early.count("X")


class TestAuditExtension:
    def test_audit_closes_the_hole(self):
        """FTConfig(audit_every=k) eliminates the finished-H silent
        region entirely."""
        cmap = coverage_map(n=96, nb=32, iteration=1, grid=8, audit_every=2)
        assert cmap.count("X") == 0
        assert cmap.count("R") == cmap.grid.size

    def test_audit_no_false_positives(self):
        from repro.core import FTConfig, ft_gehrd
        from repro.utils.rng import random_matrix

        a0 = random_matrix(128, seed=50)
        res = ft_gehrd(a0, FTConfig(nb=32, audit_every=1))
        assert res.detections == 0
        assert not res.recoveries

    def test_audit_cost_quantified(self):
        """Modeled: the audit sweeps are bandwidth-bound GEMVs, so full
        coverage costs mid-single-digit percent at every-2 cadence (vs
        sub-1%% for the paper-faithful mode) — the price of closing the
        finished-H hole, and the reason the paper's Σ-test design keeps
        its O(N) per-iteration check."""
        from repro.core import FTConfig, HybridConfig, ft_gehrd, hybrid_gehrd, overhead_percent

        base = hybrid_gehrd(4030, HybridConfig(nb=32))
        plain = ft_gehrd(4030, FTConfig(nb=32))
        audited = ft_gehrd(4030, FTConfig(nb=32, audit_every=2))
        sparse = ft_gehrd(4030, FTConfig(nb=32, audit_every=8))
        o1 = overhead_percent(plain, base)
        o2 = overhead_percent(audited, base)
        o3 = overhead_percent(sparse, base)
        assert o1 < o3 < o2 < o1 + 10.0
