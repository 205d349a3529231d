"""JAX adapter: CPU jit over the functional update contract.

Import of ``jax`` is deferred to construction time — the module itself
imports cleanly on hosts without jax, and :func:`repro.backend.get_backend`
turns the missing wheel into a typed
:class:`~repro.errors.BackendUnavailableError` at submit/CLI time.

Two process-wide settings are applied on first construction:

* ``jax_enable_x64`` — the repo's goldens are float64; without x64 JAX
  silently truncates to float32 and every parity test fails;
* ``jax_platform_name = "cpu"`` — this lane targets deterministic CPU
  jit (the GPU story goes through the same seam but is benchmarked,
  not golden-tested).
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import Backend

_CONFIGURED = False


def _configure(jax) -> None:
    global _CONFIGURED
    if _CONFIGURED:
        return
    jax.config.update("jax_enable_x64", True)
    try:
        jax.config.update("jax_platform_name", "cpu")
    except Exception:  # pragma: no cover - older jax spells it differently
        pass
    _CONFIGURED = True


class JaxBackend(Backend):
    """``jax.numpy`` namespace, functional updates, ``jax.jit`` compile."""

    name = "jax"
    inplace_updates = False

    def __init__(self) -> None:
        import jax  # noqa: PLC0415 - lazy by design (optional dependency)
        import jax.numpy as jnp

        _configure(jax)
        self._jax = jax
        self._jnp = jnp

    @property
    def xp(self):
        return self._jnp

    def asarray(self, a, dtype=None):
        return self._jnp.asarray(a, dtype=dtype)

    def to_numpy(self, a) -> np.ndarray:
        return np.asarray(self._jax.device_get(a))

    def at_set(self, arr, index, value):
        return arr.at[index].set(value)

    def jit(self, fn, *, static_argnums=()):
        return self._jax.jit(fn, static_argnums=static_argnums)

    def fori_loop(self, lo, hi, body, init):
        return self._jax.lax.fori_loop(lo, hi, body, init)

    def block_until_ready(self, x):
        if hasattr(x, "block_until_ready"):
            return x.block_until_ready()
        for leaf in self._jax.tree_util.tree_leaves(x):
            if hasattr(leaf, "block_until_ready"):
                leaf.block_until_ready()
        return x

    def eps(self, dtype) -> float:
        return float(self._jnp.finfo(np.dtype(dtype)).eps)
