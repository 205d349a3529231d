"""CuPy adapter stub: the in-place contract on a CUDA namespace.

CuPy mirrors NumPy's mutable-buffer semantics, so the adapter is almost
entirely inherited behavior with the namespace swapped — it satisfies
the same seam the kernels are written against and is gated on import
exactly like :class:`~repro.backend.jax_backend.JaxBackend`. It ships
as a stub: constructed and listed, but not golden-tested in CI (no CUDA
runner); the parity suite is what must pass before trusting results
from it.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import Backend


class CupyBackend(Backend):
    """``cupy`` namespace with NumPy-style in-place updates."""

    name = "cupy"
    inplace_updates = True

    def __init__(self) -> None:
        import cupy  # noqa: PLC0415 - lazy by design (optional dependency)

        self._cp = cupy

    @property
    def xp(self):
        return self._cp

    def asarray(self, a, dtype=None):
        return self._cp.asarray(a, dtype=dtype)

    def to_numpy(self, a) -> np.ndarray:
        return self._cp.asnumpy(a)

    def block_until_ready(self, x):
        self._cp.cuda.get_current_stream().synchronize()
        return x

    def to_host_float(self, x) -> float:  # pragma: no cover - CUDA only
        return float(self._cp.asnumpy(x))
