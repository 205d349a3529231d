"""Eigenvalue substrate: Francis double-shift QR on Hessenberg form —
the application the reduction feeds (paper §III) — plus the protected
driver :func:`ft_hqr` (checkpoint/rollback transient-error
resilience)."""

from repro.eigen.hqr import hessenberg_eigvals, eigvals_via_hessenberg
from repro.eigen.schur import (
    hessenberg_schur,
    qr_outer_step,
    schur_eigvals,
    is_quasi_triangular,
    standardized_blocks_ok,
)
from repro.eigen.eigvec import hessenberg_solve, hessenberg_eigvecs, eig_via_hessenberg
from repro.eigen.ft_hqr import (
    FTQRResult,
    QRCheckpoint,
    QRCheckpointStore,
    QRProtectConfig,
    ft_hqr,
    measure_invariants,
)

__all__ = [
    "hessenberg_eigvals",
    "eigvals_via_hessenberg",
    "hessenberg_schur",
    "qr_outer_step",
    "schur_eigvals",
    "is_quasi_triangular",
    "standardized_blocks_ok",
    "hessenberg_solve",
    "hessenberg_eigvecs",
    "eig_via_hessenberg",
    "FTQRResult",
    "QRCheckpoint",
    "QRCheckpointStore",
    "QRProtectConfig",
    "ft_hqr",
    "measure_invariants",
]
