"""From-scratch dense linear-algebra kernel layer (mini-LAPACK on NumPy).

Everything the paper's algorithms call — DLARFG, DLAHR2, DLARFB, DGEHD2,
DGEHRD, DORGHR — implemented as faithful 0-based translations with
pluggable flop accounting. See DESIGN.md §3.
"""

from repro.linalg.flops import FlopCounter
from repro.linalg.householder import Reflector, larfg, larf_left, larf_right
from repro.linalg.wy import larft, larfb, block_reflector
from repro.linalg.lahr2 import PanelFactors, lahr2
from repro.linalg.gehd2 import gehd2
from repro.linalg.gehrd import (
    DEFAULT_NB,
    HessenbergFactorization,
    apply_left_update,
    apply_right_updates,
    gehrd,
)
from repro.linalg.orghr import orghr, apply_q
from repro.linalg.sytd2 import sytd2, tridiagonal_of, orgtr
from repro.linalg.verify import (
    factorization_residual,
    orthogonality_residual,
    hessenberg_defect,
    is_hessenberg,
    extract_hessenberg,
    eigenvalue_drift,
    one_norm,
)

__all__ = [
    "FlopCounter",
    "Reflector",
    "larfg",
    "larf_left",
    "larf_right",
    "larft",
    "larfb",
    "block_reflector",
    "PanelFactors",
    "lahr2",
    "gehd2",
    "DEFAULT_NB",
    "HessenbergFactorization",
    "apply_left_update",
    "apply_right_updates",
    "gehrd",
    "orghr",
    "apply_q",
    "sytd2",
    "tridiagonal_of",
    "orgtr",
    "factorization_residual",
    "orthogonality_residual",
    "hessenberg_defect",
    "is_hessenberg",
    "extract_hessenberg",
    "eigenvalue_drift",
    "one_norm",
]
