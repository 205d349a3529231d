"""Smoke tests: every example script must run clean against the current
API (the examples are part of the public deliverable)."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _run(name: str, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = _run("quickstart.py", capsys)
        assert "residual after recovery" in out
        assert "corrected" in out

    def test_propagation_heatmap(self, capsys):
        out = _run("propagation_heatmap.py", capsys)
        assert "pattern" in out

    def test_ft_tridiagonal(self, capsys):
        out = _run("ft_tridiagonal.py", capsys)
        assert "diagonal error" in out

    def test_eigenvalue_pipeline(self, capsys):
        out = _run("eigenvalue_pipeline.py", capsys)
        assert "trustworthy" in out

    def test_fault_campaign(self, capsys):
        out = _run("fault_campaign.py", capsys)
        assert "recovery rate: 100%" in out

    @pytest.mark.slow
    def test_overhead_study(self, capsys):
        out = _run("overhead_study.py", capsys)
        assert "makespan" in out

    @pytest.mark.slow
    def test_adversarial_resilience(self, capsys):
        out = _run("adversarial_resilience.py", capsys)
        assert "escalation exhausted" in out
        assert "outcome table identical: True" in out
        assert "aborted=0" in out
