"""Supplementary experiment: the empirical protection-coverage map.

One FT run per lattice point of fault positions; the outcome grid makes
the protection domains visible. Shape target: every cell outside the
finished-H wedge recovers; the wedge (never re-read, never re-checked —
the paper's final check covers Q only) is the *only* silent-corruption
region, and a weighted-channel run does not change that (the hole is
about what is checked, not how location decodes).
"""

import os

from conftest import emit

from repro.analysis import coverage_map
from repro.faults import finished_cols_at

N, NB, IT = 96, 32, 1
# fan the per-position FT runs over a process pool (same grid either way)
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def test_coverage_map(benchmark, results_dir):
    def both():
        plain = coverage_map(n=N, nb=NB, iteration=IT, grid=12, workers=WORKERS)
        audited = coverage_map(
            n=N, nb=NB, iteration=IT, grid=12, audit_every=2, workers=WORKERS
        )
        return plain, audited

    plain, audited = benchmark.pedantic(both, rounds=1, iterations=1)
    text = (
        plain.render()
        + "\n\nwith the audit extension (FTConfig(audit_every=2)):\n\n"
        + audited.render()
    )
    emit(results_dir, "coverage_map", text)

    p = finished_cols_at(IT, N, NB)
    assert plain.count("F") == 0, "no fail-stop refusals expected"
    for (i, j) in plain.silent_corruption_cells:
        assert j < p and i <= j + 1, f"hole outside the finished-H wedge: ({i}, {j})"
    total = plain.grid.size
    assert plain.count("R") / total > 0.85
    # the audit extension closes the hole completely
    assert audited.count("X") == 0
    assert audited.count("R") == total
