"""Batched FT-Hessenberg engine: stacked small-n kernels.

Reduces a stack of B same-shape matrices through 3-D NumPy ops,
amortizing the per-column Python overhead that dominates small-n
throughput (the MAGMA-lineage "batched execution" answer to
small-problem traffic on hybrid machines).  The stacked kernels mirror
the scalar ones call for call and reproduce them **byte for byte** on
the fault-free fast path; anything needing recovery is ejected to the
scalar resilience ladder.  See :mod:`repro.batch.driver` for the full
ejection contract.
"""

from repro.batch.stack import (
    EncodedMatrixBatch,
    as_item_f_stack,
    fstack,
    stack_buf,
)
from repro.batch.panel import PanelFactorsBatch, lahr2_batched, larfg_batched
from repro.batch.updates import (
    apply_left_update_batched,
    apply_right_updates_batched,
    gehd2_batched,
    left_update_encoded_batched,
    right_update_encoded_batched,
    v_col_checksums_batched,
    y_col_checksums_batched,
)
from repro.batch.driver import BatchResult, ft_gehrd_batched, gehrd_batched
from repro.batch.qform import (
    extract_hessenberg_batched,
    factorization_residuals_batched,
    orghr_batched,
)

__all__ = [
    "EncodedMatrixBatch",
    "as_item_f_stack",
    "fstack",
    "stack_buf",
    "PanelFactorsBatch",
    "lahr2_batched",
    "larfg_batched",
    "apply_left_update_batched",
    "apply_right_updates_batched",
    "gehd2_batched",
    "left_update_encoded_batched",
    "right_update_encoded_batched",
    "v_col_checksums_batched",
    "y_col_checksums_batched",
    "BatchResult",
    "ft_gehrd_batched",
    "gehrd_batched",
    "extract_hessenberg_batched",
    "factorization_residuals_batched",
    "orghr_batched",
]
