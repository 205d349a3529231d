"""Tests for the Section-V analytic overhead model."""

import pytest

from repro.analysis import (
    breakdown,
    flop_correct,
    flop_extra_no_error,
    flop_extra_one_error,
    flop_init,
    flop_locate,
    flop_orig,
    flop_redo,
    overhead_ratio,
    storage_extra,
)


class TestClosedForms:
    def test_flop_init_formula(self):
        # 2N(N + N - 1) = 4N² − 2N
        assert flop_init(100) == 4 * 100**2 - 2 * 100

    def test_flop_locate_formula(self):
        assert flop_locate(100) == 4 * 100**2 - 2 * 100

    def test_flop_correct_formula(self):
        assert flop_correct(100) == 99

    def test_extra_is_order_n_squared(self):
        """FLOP_extra = O(N²): quadrupling under doubling N."""
        e1 = flop_extra_no_error(1000, 32)
        e2 = flop_extra_no_error(2000, 32)
        assert 3.5 < e2 / e1 < 4.5

    def test_overhead_ratio_tends_to_zero(self):
        """The paper's §V headline: overhead = O(1/N) → 0."""
        r = [overhead_ratio(n, 32) for n in (1000, 2000, 4000, 8000)]
        assert r[0] > r[1] > r[2] > r[3]
        assert r[1] == pytest.approx(r[0] / 2, rel=0.2)

    def test_overhead_below_one_percent_at_paper_sizes(self):
        assert overhead_ratio(10110, 32) < 0.01

    def test_storage_formula(self):
        # S = nb·N + 4N
        assert storage_extra(1000, 32) == 32 * 1000 + 4 * 1000

    def test_redo_decreases_with_later_iteration(self):
        n, nb = 4000, 32
        assert flop_redo(n, nb, 1) > flop_redo(n, nb, 60) > flop_redo(n, nb, 120)

    def test_redo_is_order_n_squared(self):
        assert flop_redo(4000, 32, 1) / flop_orig(4000) < 0.05

    def test_one_error_total_still_vanishing(self):
        n = 10110
        assert flop_extra_one_error(n, 32, 1) / flop_orig(n) < 0.02

    def test_breakdown_consistency(self):
        b = breakdown(2048, 32)
        assert b.total == pytest.approx(flop_extra_no_error(2048, 32))
        assert b.ratio == pytest.approx(overhead_ratio(2048, 32))


class TestModelVsMeasured:
    def test_measured_abft_flops_same_order_as_model(self):
        """The instrumented functional driver's ABFT flop counts must sit
        within a small factor of the §V closed forms (the model tracks
        the paper's op set; our implementation adds the segment
        refreshes, same O(N²) class)."""
        from repro.core import FTConfig, ft_gehrd
        from repro.utils.rng import random_matrix

        n, nb = 128, 32
        res = ft_gehrd(random_matrix(n, seed=1), FTConfig(nb=nb))
        measured = res.counter.category_total(
            "abft_init", "abft_maintain", "abft_detect"
        )
        model = flop_extra_no_error(n, nb)
        assert measured / model < 6.0
        assert model / measured < 6.0

    def test_measured_total_matches_flop_orig(self):
        from repro.core import FTConfig, ft_gehrd
        from repro.utils.rng import random_matrix

        n = 160
        res = ft_gehrd(random_matrix(n, seed=2), FTConfig(nb=32))
        base = res.counter.category_total("panel", "right_update", "left_update")
        assert base == pytest.approx(flop_orig(n), rel=0.3)


class TestExactMaintainModel:
    """``flop_abft_maintain`` is not an order-of-magnitude §V form: it
    must equal the instrumented functional driver's ``abft_maintain``
    counter EXACTLY, under the fused FT-GEMM accounting (checksum rows
    charged as operand extensions of the apply GEMMs)."""

    @pytest.mark.parametrize("n,nb,channels", [(64, 16, 1), (96, 32, 2), (128, 32, 3)])
    def test_model_matches_measured_counter_exactly(self, n, nb, channels):
        from repro.analysis import flop_abft_maintain
        from repro.core import FTConfig, ft_gehrd
        from repro.utils.rng import random_matrix

        res = ft_gehrd(
            random_matrix(n, seed=7), FTConfig(nb=nb, channels=channels, functional=True)
        )
        assert res.detections == 0
        measured = res.counter.by_category["abft_maintain"]
        assert flop_abft_maintain(n, nb, channels) == measured

    def test_model_matches_fp32_lane_too(self):
        import numpy as np

        from repro.analysis import flop_abft_maintain
        from repro.core import FTConfig, ft_gehrd
        from repro.utils.rng import random_matrix

        n, nb = 96, 16
        res = ft_gehrd(
            random_matrix(n, seed=9, dtype=np.float32), FTConfig(nb=nb, functional=True)
        )
        # flop accounting is dtype-independent: same counts on both lanes
        assert flop_abft_maintain(n, nb, 1) == res.counter.by_category["abft_maintain"]


class TestOperatingPointPins:
    """The paper's operating point (n=512, nb=32): the per-category flop
    charges and the simulated seconds of a clean run are pinned, so a
    change to how the kernels count or price their work cannot move
    them unnoticed."""

    FLOPS = {
        "abft_init": 1047552,
        "panel": 159447643,
        "abft_maintain": 1849278,
        "right_update": 129537139,
        "left_update": 182274570,
        "abft_detect": 32736,
        "abft_qprotect": 1567754,
    }
    SECONDS = {"float64": 0.017902660146419867, "float32": 0.017470643573207194}

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_ft_gehrd_flops_and_sim_seconds(self, dtype):
        from repro.core import FTConfig, ft_gehrd
        from repro.utils.rng import random_matrix

        res = ft_gehrd(random_matrix(512, seed=0, dtype=dtype), FTConfig(nb=32))
        assert res.counter.snapshot() == self.FLOPS
        assert res.counter.total == 475756672
        assert res.seconds == self.SECONDS[dtype]
        assert len(res.timeline.ops) == 244
