"""Timeline analysis and export for simulated runs.

Wraps the flat op list of a :class:`~repro.hybrid.engine.SimEngine` into
per-resource/per-category summaries, an ASCII Gantt view (handy in a
terminal-only reproduction), and CSV export for external plotting.
"""

from __future__ import annotations

import io
from collections import defaultdict
from dataclasses import dataclass

from repro.hybrid.engine import SimEngine, SimOp


@dataclass(frozen=True)
class ResourceSummary:
    resource: str
    busy: float
    utilization: float
    ops: int


class Timeline:
    """Post-run view over a simulation's operations.

    Read-only: ``ops`` is a tuple of immutable :class:`SimOp` records,
    so one priced timeline can be shared by every run with the same
    schedule (:class:`~repro.hybrid.runtime.PriceCache`).
    """

    def __init__(self, engine: SimEngine):
        self.ops: tuple[SimOp, ...] = tuple(engine.ops)
        self.makespan: float = engine.makespan

    # -- summaries ----------------------------------------------------------

    def by_resource(self) -> list[ResourceSummary]:
        """Busy time and utilization per resource."""
        agg: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        for op in self.ops:
            agg[op.resource][0] += op.duration
            agg[op.resource][1] += 1
        out = []
        for res in sorted(agg):
            busy, count = agg[res]
            util = busy / self.makespan if self.makespan > 0 else 0.0
            out.append(ResourceSummary(res, busy, util, int(count)))
        return out

    def by_category(self) -> dict[str, float]:
        """Total duration per op category (panel, right_update, abft_*, ...)."""
        agg: dict[str, float] = defaultdict(float)
        for op in self.ops:
            agg[op.category or op.name] += op.duration
        return dict(agg)

    def category_time(self, *categories: str) -> float:
        agg = self.by_category()
        return sum(agg.get(c, 0.0) for c in categories)

    def overlap_saved(self) -> float:
        """Seconds saved by overlap = Σ busy − makespan (0 if fully serial)."""
        total = sum(op.duration for op in self.ops)
        return max(0.0, total - self.makespan)

    # -- export ---------------------------------------------------------------

    def to_csv(self) -> str:
        """One row per op: index,name,resource,category,start,end,duration."""
        buf = io.StringIO()
        buf.write("index,name,resource,category,start,end,duration\n")
        for op in self.ops:
            buf.write(
                f"{op.index},{op.name},{op.resource},{op.category},"
                f"{op.start:.9f},{op.end:.9f},{op.duration:.9f}\n"
            )
        return buf.getvalue()

    def to_chrome_trace(self) -> str:
        """Chrome-trace JSON (open in chrome://tracing or Perfetto).

        Resources map to thread ids; durations are exported in
        microseconds of *simulated* time. Each span carries its op index
        in ``args`` (so a bar in the viewer links back to
        :meth:`to_csv` rows), and the document's ``otherData`` block
        records the makespan and per-category totals for tooling that
        consumes the file without rendering it.
        """
        import json

        resources = sorted({op.resource for op in self.ops})
        tid = {r: i for i, r in enumerate(resources)}
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "repro simulated hybrid machine"},
                "cat": "__metadata",
            }
        ]
        events += [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid[r],
                "args": {"name": r},
                "cat": "__metadata",
            }
            for r in resources
        ]
        for op in self.ops:
            events.append(
                {
                    "name": op.name,
                    "cat": op.category or "op",
                    "ph": "X",
                    "pid": 0,
                    "tid": tid[op.resource],
                    "ts": op.start * 1e6,
                    "dur": op.duration * 1e6,
                    "args": {"index": op.index},
                }
            )
        return json.dumps(
            {
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {
                    "makespan_s": self.makespan,
                    "ops": len(self.ops),
                    "category_seconds": self.by_category(),
                },
            }
        )

    def gantt(self, width: int = 100, max_rows: int | None = None) -> str:
        """ASCII Gantt chart: one row per resource, time left→right."""
        if self.makespan <= 0:
            return "(empty timeline)"
        rows: dict[str, list[str]] = {}
        for op in self.ops:
            rows.setdefault(op.resource, [" "] * width)
        for op in self.ops:
            lo = int(op.start / self.makespan * (width - 1))
            hi = max(lo + 1, int(op.end / self.makespan * (width - 1)) + 1)
            mark = (op.category or op.name or "#")[0]
            row = rows[op.resource]
            for x in range(lo, min(hi, width)):
                row[x] = mark
        lines = [f"makespan = {self.makespan:.6f} s"]
        for res in sorted(rows)[: (max_rows or len(rows))]:
            lines.append(f"{res:>4} |{''.join(rows[res])}|")
        return "\n".join(lines)
