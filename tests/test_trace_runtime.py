"""Tests for timeline analysis and the hybrid runtime."""

import numpy as np
import pytest

from repro.hybrid import HybridRuntime, SimEngine, Timeline, laptop_sim


class TestTimeline:
    def _engine(self):
        eng = SimEngine()
        a = eng.submit("a", "gpu", 2.0, category="right_update")
        eng.submit("s", "d2h", 1.0, deps=[a], category="transfer")
        eng.submit("b", "gpu", 3.0, deps=[a], category="left_update")
        eng.submit("c", "cpu", 1.5, category="panel")
        return eng

    def test_by_resource(self):
        tl = Timeline(self._engine())
        res = {r.resource: r for r in tl.by_resource()}
        assert res["gpu"].busy == 5.0 and res["gpu"].ops == 2
        assert res["cpu"].busy == 1.5
        assert res["gpu"].utilization == pytest.approx(1.0)

    def test_by_category(self):
        tl = Timeline(self._engine())
        cats = tl.by_category()
        assert cats["right_update"] == 2.0
        assert cats["left_update"] == 3.0
        assert tl.category_time("right_update", "left_update") == 5.0

    def test_overlap_saved(self):
        tl = Timeline(self._engine())
        # total busy = 7.5, makespan = 5 → 2.5 s saved by overlap
        assert tl.overlap_saved() == pytest.approx(2.5)

    def test_csv_export(self):
        tl = Timeline(self._engine())
        csv = tl.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("index,name,resource")
        assert len(lines) == 5

    def test_gantt_renders(self):
        tl = Timeline(self._engine())
        g = tl.gantt(width=40)
        assert "makespan" in g
        assert " gpu |" in g and " cpu |" in g

    def test_empty_gantt(self):
        assert "(empty timeline)" in Timeline(SimEngine()).gantt()


class TestHybridRuntime:
    def test_submit_only_prices(self):
        """The runtime schedules what it is told and nothing else: a
        submission returns its priced op and advances simulated time."""
        rt = HybridRuntime(laptop_sim())
        op = rt.submit("x", "cpu", 1.0, category="panel")
        assert (op.name, op.resource, op.category) == ("x", "cpu", "panel")
        assert (op.start, op.end) == (0.0, 1.0)
        assert rt.elapsed == 1.0
        assert [o.name for o in rt.timeline().ops] == ["x"]

    def test_kernel_wrappers_price_by_cost_model(self):
        rt = HybridRuntime(laptop_sim())
        op = rt.gemm("gpu", 100, 100, 100)
        assert op.duration == pytest.approx(rt.cost.gemm("gpu", 100, 100, 100))
        op = rt.copy_h2d(1e6)
        assert op.resource == "h2d"
        assert op.duration == pytest.approx(rt.cost.copy(1e6))

    def test_panel_occupies_both_devices(self):
        rt = HybridRuntime(laptop_sim())
        rt.panel(512, 32)
        tl = rt.timeline()
        res = {r.resource for r in tl.by_resource()}
        assert {"cpu", "gpu"} <= res

    def test_elapsed_tracks_makespan(self):
        rt = HybridRuntime(laptop_sim())
        rt.submit("a", "gpu", 2.0)
        rt.submit("b", "cpu", 5.0)
        assert rt.elapsed == 5.0


class TestExports:
    def test_chrome_trace_json(self):
        import json

        eng = SimEngine()
        a = eng.submit("a", "gpu", 2.0, category="right_update")
        eng.submit("b", "cpu", 1.0, deps=[a], category="panel")
        doc = json.loads(Timeline(eng).to_chrome_trace())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 2
        assert spans[0]["dur"] == pytest.approx(2e6)

    def test_fig6_csv(self):
        from repro.analysis import fig6_series

        s = fig6_series(3, sizes=(1022,), moments=2)
        csv = s.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("n,base_gflops")
        assert lines[1].startswith("1022,")
