"""Outside-in layer probes for the ``--trace`` run.

The program has no spans of its own yet, so the suite records them from
outside: :meth:`Recorder.install` replaces the public functions each
driver calls — at the name the caller looks up, e.g.
``repro.core.ft_hessenberg.lahr2`` rather than ``repro.linalg.lahr2`` —
with a wrapper that records one span per call, and
:meth:`Recorder.uninstall` puts the originals back. Nothing under
``src/`` changes, and an untraced run installs nothing.

A span is ``(id, parent, run, layer, name, start_ns, end_ns, thread)``.
``parent`` is the enclosing span on the same thread; ``run`` is the
outermost one, so every span of one driver call (or one serve job on a
scheduler thread) shares it. Spans stay in memory; :meth:`write_chrome`
dumps them once, at the end, as a chrome-trace JSON file.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

#: (owner, attribute, layer). The owner is a module path, or
#: ``module:Class`` for a method; each entry is the name a caller
#: resolves at call time, so patching it intercepts that caller.
TARGETS = (
    # linalg: the panel and the unprotected updates, per calling driver
    ("repro.core.ft_hessenberg", "lahr2", "linalg.panel"),
    ("repro.core.hybrid_hessenberg", "lahr2", "linalg.panel"),
    ("repro.linalg.gehrd", "lahr2", "linalg.panel"),
    ("repro.core.hybrid_hessenberg", "apply_right_updates", "linalg.update"),
    ("repro.core.hybrid_hessenberg", "apply_left_update", "linalg.update"),
    ("repro.linalg.gehrd", "apply_right_updates", "linalg.update"),
    ("repro.linalg.gehrd", "apply_left_update", "linalg.update"),
    # abft: everything the protected driver adds to the reduction
    ("repro.core.ft_hessenberg", "right_update_encoded", "abft.update"),
    ("repro.core.ft_hessenberg", "left_update_encoded", "abft.update"),
    ("repro.core.ft_hessenberg", "v_col_checksums", "abft.checksum"),
    ("repro.core.ft_hessenberg", "y_col_checksums", "abft.checksum"),
    ("repro.abft.encoding:EncodedMatrix", "encode", "abft.checksum"),
    ("repro.abft.encoding:EncodedMatrix", "refresh_finished_segment", "abft.checksum"),
    ("repro.abft.detection:Detector", "check", "abft.detect"),
    ("repro.abft.qprotect:QProtector", "update_for_panel", "abft.qprotect"),
    ("repro.abft.qprotect:QProtector", "rollback_panel", "abft.qprotect"),
    ("repro.abft.qprotect:QProtector", "verify_and_correct", "abft.qprotect"),
    ("repro.abft.checkpoint:DisklessCheckpointStore", "save", "abft.checkpoint"),
    ("repro.abft.checkpoint:DisklessCheckpointStore", "save_initial", "abft.checkpoint"),
    ("repro.core.ft_hessenberg", "locate_errors", "abft.locate"),
    ("repro.core.ft_hessenberg", "locate_errors_rowonly", "abft.locate"),
    ("repro.core.ft_hessenberg", "correct_all", "abft.locate"),
    ("repro.core.ft_hessenberg", "reverse_left_update_encoded", "abft.unwind"),
    ("repro.core.ft_hessenberg", "reverse_right_update_encoded", "abft.unwind"),
    ("repro.core.ft_hessenberg", "unwind_iteration", "abft.unwind"),
    ("repro.core.ft_hessenberg", "rebuild_col_checksums", "abft.unwind"),
    # resilience: the ladder's guards and state restores
    ("repro.resilience.tau_guard:TauGuard", "record", "resilience.tau_guard"),
    ("repro.resilience.tau_guard:TauGuard", "rollback", "resilience.tau_guard"),
    ("repro.resilience.tau_guard:TauGuard", "verify_and_repair", "resilience.tau_guard"),
    ("repro.abft.checkpoint:DisklessCheckpointStore", "restore", "resilience.restore"),
    ("repro.abft.checkpoint:DisklessCheckpointStore", "restore_initial", "resilience.restore"),
    # hybrid: the simulated runtime's submission path
    ("repro.hybrid.runtime:HybridRuntime", "submit", "hybrid.runtime"),
    # core: the driver bodies (looked up through the package by the
    # suite and by repro.serve.jobs alike)
    ("repro.core", "ft_gehrd", "core.ft"),
    ("repro.core", "hybrid_gehrd", "core.hybrid"),
    ("repro.linalg", "gehrd", "linalg.gehrd"),
    # batch, serve and the shm data plane
    ("repro.serve.scheduler", "execute_jobs_batched", "batch.exec"),
    ("repro.serve.scheduler", "execute_job", "serve.execute"),
    ("repro.utils.procpool:ResilientProcessPool", "submit", "serve.pool_submit"),
    ("repro.utils.shm:SharedMatrix", "create", "shm.create"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Recorder:
    """In-memory span recorder plus the probe installer."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, name: str | None = None):
        """Record the enclosed block as one span (the suite's own calls)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        run = getattr(self._tls, "run", 0) if stack else sid
        if not stack:
            self._tls.run = sid
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (sid, parent, run, layer, name or layer, t0, t1, threading.get_ident())
            )

    def _wrap(self, fn, layer: str, name: str):
        span = self.span

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            with span(layer, name):
                return fn(*args, **kwargs)

        return probe

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, layer in TARGETS:
            obj = _resolve(owner)
            # vars(): a class attribute must be replaced as the plain
            # function (or staticmethod/classmethod object) it is stored as
            original = vars(obj)[attr]
            if isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(
                    self._wrap(original.__func__, layer, f"{owner}.{attr}")
                )
            else:
                wrapped = self._wrap(original, layer, f"{owner}.{attr}")
            setattr(obj, attr, wrapped)
            self._saved.append((obj, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    @property
    def installed(self) -> int:
        return len(self._saved)

    @contextmanager
    def probing(self):
        """The probes, installed for the enclosed block only."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Self time per layer: each span's duration minus its children's."""
        child: dict[int, int] = {}
        for sid, parent, *_rest, t0, t1, _tid in self.spans:
            if parent:
                child[parent] = child.get(parent, 0) + (t1 - t0)
        out: dict[str, int] = {}
        for sid, _parent, _run, layer, _name, t0, t1, _tid in self.spans:
            out[layer] = out.get(layer, 0) + (t1 - t0) - child.get(sid, 0)
        return out

    def durations_ns(self, layer: str) -> list[int]:
        return [s[6] - s[5] for s in self.spans if s[3] == layer]

    def write_chrome(self, path: str) -> None:
        """Write every span as a chrome-trace ``X`` event (µs timestamps)."""
        pid = os.getpid()
        t_base = min((s[5] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (t0 - t_base) / 1e3,
                "dur": (t1 - t0) / 1e3,
                "pid": pid,
                "tid": tid,
                "args": {"id": sid, "parent": parent, "run": run},
            }
            for sid, parent, run, layer, name, t0, t1, tid in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
