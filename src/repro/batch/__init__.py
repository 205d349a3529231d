"""Batched FT-Hessenberg engine: B same-shape matrices in one stack.

Reduces a stack of B same-shape matrices through 3-D NumPy ops,
amortizing the per-call Python overhead that dominates small-n
throughput (the MAGMA-lineage "batched execution" answer to
small-problem traffic on hybrid machines).  The trailing updates, the
checksum kernels, the encoding and the Σ detector are the scalar ones,
which take a per-item-F stack and reproduce B matrix calls **byte for
byte**; what stays here is the stacked panel (:mod:`repro.batch.panel`),
the stacked DGEHD2 clean-up (:mod:`repro.batch.updates`), the stack
storage (:mod:`repro.batch.stack`), the batch residuals and the two
drivers.  Anything needing recovery is ejected to the scalar resilience
ladder; see :mod:`repro.batch.driver` for the full ejection contract.
"""

from repro.batch.stack import EncodedMatrixBatch, as_item_f_stack, fstack
from repro.batch.panel import PanelFactorsBatch, lahr2_batched, larfg_batched
from repro.batch.updates import gehd2_batched
from repro.batch.driver import BatchResult, ft_gehrd_batched, gehrd_batched
from repro.batch.qform import factorization_residuals_batched

__all__ = [
    "EncodedMatrixBatch",
    "as_item_f_stack",
    "fstack",
    "PanelFactorsBatch",
    "lahr2_batched",
    "larfg_batched",
    "gehd2_batched",
    "BatchResult",
    "ft_gehrd_batched",
    "gehrd_batched",
    "factorization_residuals_batched",
]
