"""Tests for the experiment CLI (``python -m repro``)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_parse(self):
        p = build_parser()
        for args in (
            ["table1"],
            ["fig2", "--n", "64", "--heatmap"],
            ["fig6", "--area", "2", "--sizes", "1022,2046"],
            ["table2", "--sizes", "96"],
            ["table3", "--sizes", "96"],
            ["section5"],
            ["campaign", "--n", "96", "--channels", "2"],
            ["demo", "--n", "96"],
            ["submit", "--jobs", "jobs.jsonl", "--workers", "4"],
            ["serve", "--jobs", "-", "--max-queue", "8", "--cache-mb", "16"],
            ["trace", "--n", "256", "--out", "t.json", "--csv", "t.csv"],
        ):
            assert p.parse_args(args).command == args[0]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_sizes_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--sizes", "1022,abc"])

    @pytest.mark.parametrize("sizes", ["0", "-96", "96,0", "96,-1,128"])
    def test_nonpositive_sizes_rejected(self, sizes, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--sizes", sizes])
        assert "sizes must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("channels", ["0", "-1", "two"])
    def test_bad_campaign_channels_rejected(self, channels, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--n", "32", "--channels", channels])
        assert exc.value.code == 2
        assert "--channels" in capsys.readouterr().err

    def test_submit_requires_jobs_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Tesla K40c" in out

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--n", "96", "--nb", "32", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "pattern" in out

    def test_fig6_small(self, capsys):
        assert main(["fig6", "--area", "3", "--sizes", "1022", "--moments", "2"]) == 0
        out = capsys.readouterr().out
        assert "ovh no-err %" in out and "1022" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--sizes", "96"]) == 0
        out = capsys.readouterr().out
        assert "residual" in out

    def test_section5(self, capsys):
        assert main(["section5", "--sizes", "1022,2046"]) == 0
        out = capsys.readouterr().out
        assert "FLOP_extra" in out

    def test_campaign_small(self, capsys):
        assert main(["campaign", "--n", "96", "--moments", "2"]) == 0
        out = capsys.readouterr().out
        assert "recovery rate: 100%" in out

    def test_campaign_weighted(self, capsys):
        assert main(["campaign", "--n", "96", "--moments", "2", "--channels", "2"]) == 0
        out = capsys.readouterr().out
        assert "channels=2" in out

    @pytest.mark.parametrize(
        "flags, channels",
        [(["--channels", "1"], 1), ([], 2)],
        ids=["explicit", "default"],
    )
    def test_adversarial_campaign_channels(self, flags, channels, capsys, monkeypatch):
        # an explicit --channels runs that many; only its absence defaults to 2
        import repro.faults

        seen = []
        real = repro.faults.run_campaign

        def spy(a, **kw):
            seen.append(kw["config"].channels)
            return real(a, **kw)

        monkeypatch.setattr(repro.faults, "run_campaign", spy)
        argv = ["campaign", "--n", "32", "--nb", "8", "--moments", "1", "--adversarial"]
        assert main(argv + flags) == 0
        assert seen == [channels]
        out = capsys.readouterr().out
        assert f"channels={channels}," in out
        assert "aborted=0" in out

    def test_demo(self, capsys):
        assert main(["demo", "--n", "96"]) == 0
        out = capsys.readouterr().out
        assert "corrected" in out and "residual after recovery" in out


class TestTraceCommand:
    def test_trace_export(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "--n", "512", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        import json

        doc = json.loads(out_file.read_text())
        assert len(doc["traceEvents"]) > 10

    def test_trace_chrome_and_csv_flags(self, capsys, tmp_path, monkeypatch):
        chrome = tmp_path / "trace.json"
        csv = tmp_path / "trace.csv"
        # every output goes where the flags say, none into the working directory
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["trace", "--n", "512", "--out", str(chrome), "--csv", str(csv)]) == 0
        assert list(cwd.iterdir()) == []
        out = capsys.readouterr().out
        assert str(chrome) in out and str(csv) in out
        import json

        doc = json.loads(chrome.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert spans and meta
        assert doc["otherData"]["ops"] == len(spans)
        assert csv.read_text().startswith("index,name,resource,category")


class TestSubmitCommand:
    def test_submit_runs_jsonl_batch(self, capsys, tmp_path):
        import json

        jobs = tmp_path / "jobs.jsonl"
        lines = ["# duplicate-heavy demo batch"]
        for seed in (0, 1, 0, 1, 0, 1):
            lines.append(json.dumps({"driver": "gehrd", "n": 32, "seed": seed}))
        jobs.write_text("\n".join(lines) + "\n")
        stats_file = tmp_path / "stats.json"
        results_file = tmp_path / "results.jsonl"
        assert main(
            [
                "submit", "--jobs", str(jobs), "--workers", "1",
                "--small-n", "512", "--stats", str(stats_file),
                "--results", str(results_file),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out and "jobs/sec" in out

        stats = json.loads(stats_file.read_text())
        assert stats["jobs"] == 6
        assert stats["stats"]["hit_rate"] >= 0.3

        results = [json.loads(s) for s in results_file.read_text().splitlines()]
        assert len(results) == 6
        assert all(r["status"] == "done" for r in results)

    def test_submit_rejects_malformed_jobs_file(self, tmp_path):
        jobs = tmp_path / "bad.jsonl"
        jobs.write_text('{"driver": "gehrd", "n": 32}\n{not json}\n')
        with pytest.raises(SystemExit):
            main(["submit", "--jobs", str(jobs)])


class TestCoverageCommand:
    def test_coverage_plain(self, capsys):
        assert main(["coverage", "--n", "64", "--grid", "5"]) == 0
        out = capsys.readouterr().out
        assert "coverage map" in out and "recovered" in out

    def test_coverage_audited(self, capsys):
        assert main(["coverage", "--n", "64", "--grid", "5", "--audit-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "SILENT CORRUPTION (undetected, result wrong): 0" in out

