"""``repro.backend`` — the array-namespace seam and its adapter registry.

Three adapters are registered:

========================  =========  ==========  ==============================
name                      contract   requires    role
========================  =========  ==========  ==============================
``numpy``                 in-place   (nothing)   default; today's code paths
``numpy_functional``      functional (nothing)   reference for the JAX contract
``jax``                   functional ``jax``     CPU jit whole-stack lane
========================  =========  ==========  ==============================

Resolution order for "which backend does this run use": an explicit
name (``JobSpec.backend``, CLI ``--backend``) wins; otherwise the
``REPRO_BACKEND`` environment variable; otherwise ``numpy``.

:func:`get_backend` raises :class:`~repro.errors.BackendUnavailableError`
with an install hint when the adapter's runtime is missing — callers
(spec validation, the CLI) surface that *before* any work is queued.
"""

from __future__ import annotations

import os

from repro.backend.base import Backend, NumpyBackend, NumpyFunctionalBackend
from repro.errors import BackendUnavailableError

#: Environment variable giving the default backend name.
ENV_VAR = "REPRO_BACKEND"

#: The built-in default.
DEFAULT_BACKEND = "numpy"

#: name -> (constructor path, pip hint). Constructors are resolved
#: lazily so importing this package never imports an optional runtime.
_SPECS: dict[str, tuple[str, str | None]] = {
    "numpy": ("repro.backend.base:NumpyBackend", None),
    "numpy_functional": ("repro.backend.base:NumpyFunctionalBackend", None),
    "jax": ("repro.backend.jax_backend:JaxBackend", 'pip install "repro[jax]" (or: pip install "jax[cpu]")'),
}

#: Registered backend names, resolution-stable order.
BACKEND_NAMES = tuple(_SPECS)

#: Test hook: names forced unavailable regardless of what is importable.
#: The degradation tests use this to exercise the jax-missing path on
#: hosts where jax *is* installed (the CI backend-smoke runner).
_DISABLED: set[str] = set()

_INSTANCES: dict[str, Backend] = {}


def canonical_backend_name(name: str | None) -> str:
    """Normalize a backend name (default resolution included)."""
    if name is None or name == "":
        name = os.environ.get(ENV_VAR, "") or DEFAULT_BACKEND
    return str(name).strip().lower().replace("-", "_")


def is_known_backend(name: str | None) -> bool:
    """Is *name* (after canonicalization) a registered adapter?"""
    return canonical_backend_name(name) in _SPECS


def _construct(name: str) -> Backend:
    path, _hint = _SPECS[name]
    mod_name, _, cls_name = path.partition(":")
    import importlib

    mod = importlib.import_module(mod_name)
    return getattr(mod, cls_name)()


def backend_probe(name: str) -> tuple[bool, str | None, str | None]:
    """``(available, version, reason)`` for one registered adapter.

    Never raises for registered names; an unimportable runtime comes
    back as ``(False, None, "<why>")``.
    """
    name = canonical_backend_name(name)
    if name not in _SPECS:
        return False, None, f"unknown backend {name!r}"
    if name in _DISABLED:
        return False, None, "disabled for this process"
    if name in ("numpy", "numpy_functional"):
        import numpy

        return True, numpy.__version__, None
    try:
        import importlib

        mod = importlib.import_module("jax")
    except Exception as exc:  # ImportError and runtime init failures alike
        return False, None, f"{type(exc).__name__}: {exc}"
    return True, getattr(mod, "__version__", "unknown"), None


def backend_available(name: str | None = None) -> bool:
    """Can :func:`get_backend` succeed for *name* right now?"""
    return backend_probe(canonical_backend_name(name))[0]


def get_backend(name: str | None = None) -> Backend:
    """The (cached) adapter instance for *name*.

    ``None``/empty resolves through ``REPRO_BACKEND`` then the default.
    Unknown or unavailable names raise
    :class:`~repro.errors.BackendUnavailableError` with a clear message
    and, for missing optional runtimes, the install hint.
    """
    name = canonical_backend_name(name)
    if name not in _SPECS:
        raise BackendUnavailableError(
            f"unknown backend {name!r} (registered: {', '.join(BACKEND_NAMES)})"
        )
    cached = _INSTANCES.get(name)
    if cached is not None and name not in _DISABLED:
        return cached
    ok, _version, reason = backend_probe(name)
    if not ok:
        _hint = _SPECS[name][1]
        msg = f"backend {name!r} is unavailable on this host: {reason}"
        if _hint:
            msg += f" — install it with: {_hint}"
        raise BackendUnavailableError(msg)
    inst = _construct(name)
    _INSTANCES[name] = inst
    return inst


def available_backends() -> list[dict]:
    """Registry listing for the CLI and the bench host block.

    One row per registered adapter:
    ``{"name", "available", "version", "default", "contract", "reason"}``.
    """
    default = canonical_backend_name(None)
    rows = []
    for name in BACKEND_NAMES:
        ok, version, reason = backend_probe(name)
        contract = "functional" if name in ("jax", "numpy_functional") else "in-place"
        rows.append(
            {
                "name": name,
                "available": ok,
                "version": version,
                "default": name == default,
                "contract": contract,
                "reason": reason,
            }
        )
    return rows


__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "BackendUnavailableError",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "NumpyBackend",
    "NumpyFunctionalBackend",
    "available_backends",
    "backend_available",
    "backend_probe",
    "canonical_backend_name",
    "get_backend",
    "is_known_backend",
]
