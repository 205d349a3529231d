"""§V — the analytic overhead model vs. the instrumented measurement.

Regenerates the paper's closed-form table (FLOP_extra, the O(1/N) ratio,
and the S = nb·N + 4N storage bound) and cross-checks it against the
flop counts measured by the FT driver run on a matrix.
"""

from conftest import emit

from repro.analysis import (
    flop_extra_no_error,
    overhead_ratio,
    render_section5,
    storage_extra,
)
from repro.core import FTConfig, ft_gehrd
from repro.utils.fmt import Table, format_float
from repro.utils.rng import random_matrix

PAPER_SIZES = [1022, 2046, 3070, 4030, 5182, 6014, 7038, 8062, 9086, 10110]
MEASURE_SIZES = [96, 160, 256]


def test_section5_model(benchmark, results_dir):
    text = render_section5(PAPER_SIZES, nb=32)

    def measure():
        t = Table(
            ["N", "measured ABFT flops", "model", "measured/model"],
            title="Model vs instrumented functional driver",
        )
        for n in MEASURE_SIZES:
            res = ft_gehrd(random_matrix(n, seed=n), FTConfig(nb=32))
            measured = res.counter.category_total(
                "abft_init", "abft_maintain", "abft_detect"
            )
            model = flop_extra_no_error(n, 32)
            t.add_row([n, format_float(measured), format_float(model),
                       f"{measured/model:.2f}"])
        return t.render()

    measured_text = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(results_dir, "section5_model", text + "\n\n" + measured_text)

    # the paper's asymptotic claims
    assert overhead_ratio(10110, 32) < 0.01
    assert overhead_ratio(1022, 32) > overhead_ratio(10110, 32)
    assert storage_extra(10110, 32) == 36 * 10110
