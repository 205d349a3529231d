#!/usr/bin/env python
"""Reproduce Fig. 6 — FT-Hess overhead on the simulated Table-I machine,
at the paper's full matrix sizes (1022 … 10110), in seconds of wall time.

Prices the schedule from the order N alone (no data is touched),
sweeping the single-error injection moment to build the
paper's gray uncertainty band per area, plus an ASCII rendering of one
iteration's overlap structure (Fig. 1 / Fig. 4 anatomy).

Run:  python examples/overhead_study.py
"""

from repro.analysis import fig6_series, render_fig6
from repro.core import FTConfig, ft_gehrd
from repro.hybrid import paper_testbed


def main() -> None:
    print(f"machine model: {paper_testbed().description}\n")

    for area in (1, 2, 3):
        series = fig6_series(area, moments=5, seed=area)
        print(render_fig6(series))
        print()

    # the anatomy of one FT iteration: Gantt of the simulated schedule
    print("one FT-Hess run at N=1022 — simulated schedule (Gantt, first chars")
    print("of op categories: p=panel, r=right, l=left, a=abft, t=transfer):")
    res = ft_gehrd(1022, FTConfig(nb=128))
    print(res.timeline.gantt(width=100))
    print(f"\nCPU utilization {res.timeline.by_resource()[1].utilization:.0%} — "
          "the Q-checksum GEMVs ride the otherwise idle host, which is the\n"
          "paper's overlap trick keeping FT overhead under 2%.")


if __name__ == "__main__":
    main()
