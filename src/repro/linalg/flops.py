"""Floating-point operation counts for the kernels used by the reduction.

These closed-form counts serve two purposes:

1. The :class:`FlopCounter` lets the functional layer *measure* the extra
   work done by the fault-tolerant algorithm, which the Section-V analysis
   benchmark compares against the paper's closed-form overhead model.
2. The hybrid-machine performance model (:mod:`repro.hybrid.perfmodel`)
   converts these counts into kernel durations at paper-scale matrix sizes
   without touching any data.

Conventions follow the standard LAPACK working notes: a fused
multiply-add counts as two flops; `gemm` on (m x k)(k x n) costs
``2*m*n*k`` (the paper's own Section V uses ``m*(2k-1)*n``-style exact
counts for dot products, which we expose via :func:`dot_flops`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


def gemm_flops(m: int, n: int, k: int) -> int:
    """Flops for ``C <- alpha*A@B + beta*C`` with A (m x k), B (k x n)."""
    return 2 * m * n * k


def gemv_flops(m: int, n: int) -> int:
    """Flops for ``y <- alpha*A@x + beta*y`` with A (m x n)."""
    return 2 * m * n


def dot_flops(n: int) -> int:
    """Exact flops for an n-term dot product (n multiplies, n-1 adds)."""
    return max(0, 2 * n - 1)


def scal_flops(n: int) -> int:
    """Flops for ``x <- a*x``."""
    return n


def trmm_flops(side_m: int, side_n: int, left: bool) -> int:
    """Flops for a triangular matrix-matrix multiply.

    For ``B <- op(T) @ B`` with T (m x m): ``n*m^2``; for the right side
    with T (n x n): ``m*n^2``.
    """
    m, n = side_m, side_n
    return n * m * m if left else m * n * n


def trmv_flops(n: int) -> int:
    """Flops for a triangular matrix-vector multiply with T (n x n)."""
    return n * n


def larfg_flops(n: int) -> int:
    """Flops to generate a Householder reflector on an n-vector.

    Dominated by the norm (2n) and the scaling (n).
    """
    return 3 * n


def lahr2_flops(n: int, p: int, ib: int) -> int:
    """Exact flops of one panel factorization ``lahr2(a, p, ib, n)``.

    With ``m = n - p - 1`` rows below the panel's first pivot, column
    ``j`` of the panel costs its right-update GEMV ``2mj``, the left-update
    chain ``3j² + 4(m-j)j``, DLARFG on ``m-j`` entries ``3(m-j)``, the Y
    GEMV ``2m(m-j)``, the Y/T correction ``2(m-j)j + 2mj + j²`` and the Y
    scaling ``m`` — ``2m² + 4m + (8m-3)j - 2j²`` in all, summed here in
    closed form — and the top rows of Y add two TRMMs and one GEMM.
    """
    m = n - p - 1
    s1 = ib * (ib - 1) // 2  # sum of j over the panel
    s2 = (ib - 1) * ib * (2 * ib - 1) // 6  # sum of j²
    columns = ib * (2 * m * m + 4 * m) + (8 * m - 3) * s1 - 2 * s2
    top = 2 * trmm_flops(p + 1, ib, False) + gemm_flops(p + 1, ib, max(0, m - ib))
    return columns + top


def q_segment_flops(n: int, p: int, ib: int, offset: int) -> int:
    """Flops to fold reflector columns ``[p, p+ib)`` into the Q checksums.

    Column ``j`` contributes two dot products (its row-sum share and its
    column sum) over its ``n - j - offset`` protected entries, charged as
    at least one entry each.
    """
    first = n - offset - p  # protected entries of column p
    full = min(max(first, 0), ib)  # columns with at least one entry
    entries = full * first - full * (full - 1) // 2 + (ib - full)
    return 2 * (2 * entries - ib)


def segment_refresh_flops(n: int, p: int, ib: int) -> int:
    """Flops per checksum channel to freeze finished columns ``[p, p+ib)``:
    one ``min(j + 2, n)``-term dot product per column ``j < n``."""
    cols = max(0, min(p + ib, n) - p)
    short = max(0, min(p + ib, n - 1) - p)  # columns with j + 2 <= n
    terms = short * (p + 2) + short * (short - 1) // 2 + (cols - short) * n
    return 2 * terms - cols


def abft_fused_rows_flops(k: int, n: int, ib: int) -> int:
    """Flops charged to *k* checksum rows riding a fused FT-GEMM apply.

    In the FT-GEMM style updates (:mod:`repro.abft.checksums`) the
    checksum rows are not maintained by separate per-channel GEMVs; they
    are *k* extra operand rows of the same rank-*ib* apply GEMM over
    *n* columns.  The honest charge is therefore the GEMM-row extension
    ``gemm_flops(k, n, ib)`` — numerically equal to the old
    ``k * gemv_flops(n, ib)`` phantom-GEMV charge, so re-deriving the
    categories preserves every total.
    """
    return gemm_flops(k, n, ib)


def batched_flops(b: int, per_item: int | float) -> int | float:
    """Flops for a batched op: *b* independent items, each *per_item* flops.

    The batched engine (:mod:`repro.batch`) performs the same arithmetic
    as *b* scalar calls — stacking changes the dispatch, not the math —
    so honest accounting is simply the per-item count times the batch
    size.
    """
    if b < 0:
        raise ValueError(f"negative batch size {b}")
    return b * per_item


def gemm_batched_flops(b: int, m: int, n: int, k: int) -> int:
    """Flops for a batched gemm: *b* independent (m x k)(k x n) products."""
    return batched_flops(b, gemm_flops(m, n, k))


def gemv_batched_flops(b: int, m: int, n: int) -> int:
    """Flops for a batched gemv: *b* independent (m x n) matrix-vectors."""
    return batched_flops(b, gemv_flops(m, n))


def gehrd_flops(n: int) -> float:
    """Total flops of the blocked Hessenberg reduction, ~10/3 n^3.

    This is the paper's ``FLOP_orig`` (Section V).
    """
    return 10.0 / 3.0 * n**3


@dataclass
class FlopCounter:
    """Accumulates flop counts, bucketed by a free-form category label.

    The FT algorithm tags ABFT-related work (checksum maintenance,
    detection, recovery) separately from the baseline factorization work so
    the measured overhead ratio can be reported directly.
    """

    by_category: Counter = field(default_factory=Counter)

    def add(self, category: str, flops: int | float) -> None:
        """Record *flops* under *category* (negative counts are rejected)."""
        if flops < 0:
            raise ValueError(f"negative flop count {flops} for {category!r}")
        self.by_category[category] += flops

    @property
    def total(self) -> float:
        """Total flops across every category."""
        return float(sum(self.by_category.values()))

    def category_total(self, *categories: str) -> float:
        """Sum of the named categories (missing categories count as zero)."""
        return float(sum(self.by_category.get(c, 0) for c in categories))

    def merge(self, other: "FlopCounter") -> None:
        """Fold *other*'s counts into this counter."""
        self.by_category.update(other.by_category)

    def snapshot(self) -> dict[str, float]:
        """Return a plain-dict copy of the per-category totals."""
        return {k: float(v) for k, v in self.by_category.items()}
