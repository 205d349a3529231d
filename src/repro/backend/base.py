"""The ``Backend`` protocol and its NumPy adapters.

A backend is a thin array-namespace seam: it owns the namespace object
(``xp``), host/device transfer (:meth:`asarray` / :meth:`to_numpy`),
and the two execution primitives the whole-stack kernels need
(:meth:`jit`, :meth:`fori_loop`).

The one semantic fork between adapters is the **update contract**,
declared by :attr:`Backend.inplace_updates`:

* in-place backends (NumPy) expose mutable buffers —
  ``at_set`` writes through and returns the same array;
* functional backends (JAX) have immutable arrays — ``at_set``
  returns a new array (``x.at[idx].set(v)``).

Kernels written against ``at_set``'s *return value* (never the
argument) run correctly under both contracts; that is the only rule.
:class:`NumpyFunctionalBackend` exists to enforce it — a pure-NumPy
adapter with the functional contract, so the JAX code path is exercised
(and parity-tested) even on hosts without jax installed.
"""

from __future__ import annotations

import numpy as np


class Backend:
    """Base adapter: the NumPy in-place contract.

    Subclasses override the namespace and whichever primitives differ;
    the defaults here are plain NumPy semantics.
    """

    #: Registry name (also what ``JobSpec.backend`` stores).
    name: str = "numpy"
    #: True → arrays are mutable buffers that kernels update in place.
    inplace_updates: bool = True

    # -- namespace & transfer -------------------------------------------------

    @property
    def xp(self):
        """The array namespace (``numpy``, ``jax.numpy``)."""
        return np

    def asarray(self, a, dtype=None):
        """Bring a host array onto this backend."""
        return np.asarray(a, dtype=dtype)

    def to_numpy(self, a) -> np.ndarray:
        """Bring a backend array back to host NumPy."""
        return np.asarray(a)

    # -- mutation -------------------------------------------------------------

    def at_set(self, arr, index, value):
        """Functional-update seam: ``arr[index] = value``, returned.

        The in-place contract mutates and returns *arr* itself; the
        functional contract returns a modified copy. Kernel code must
        keep using the returned array.
        """
        arr[index] = value
        return arr

    # -- execution primitives ---------------------------------------------------

    def jit(self, fn, *, static_argnums=()):
        """Compile *fn* (identity for eager backends)."""
        return fn

    def fori_loop(self, lo, hi, body, init):
        """``carry = body(i, carry)`` for i in [lo, hi) — the
        ``jax.lax.fori_loop`` contract, eager here."""
        carry = init
        for i in range(int(lo), int(hi)):
            carry = body(i, carry)
        return carry

    def block_until_ready(self, x):
        """Synchronize async dispatch (identity for eager backends)."""
        return x

    # -- dtype helpers --------------------------------------------------------

    def canonical_dtype(self, x) -> np.dtype:
        """The host-NumPy dtype of a backend array."""
        return np.dtype(x.dtype)

    def eps(self, dtype) -> float:
        """Machine epsilon of *dtype* as this backend computes it."""
        return float(np.finfo(np.dtype(dtype)).eps)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r} inplace={self.inplace_updates}>"


class NumpyBackend(Backend):
    """The default backend: today's code paths, bit for bit.

    Carries no behavior of its own — every driver treats
    ``backend=None`` and ``backend=NumpyBackend()`` identically, and the
    serve layer routes ``backend == "numpy"`` jobs through the exact
    same scalar/batched kernels as before the seam existed.
    """

    name = "numpy"
    inplace_updates = True


class NumpyFunctionalBackend(Backend):
    """NumPy namespace under the *functional* update contract.

    The reference adapter for the whole-stack functional lane: same
    numerics as NumPy, same immutability rules as JAX (``at_set``
    copies), no jit. It keeps the JAX code path testable on hosts
    without jax and documents the contract an accelerator adapter must
    satisfy.
    """

    name = "numpy_functional"
    inplace_updates = False

    def at_set(self, arr, index, value):
        out = np.array(arr)  # always a fresh buffer, like x.at[idx].set(v)
        out[index] = value
        return out
