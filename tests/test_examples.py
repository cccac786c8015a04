"""Smoke tests: the fast example scripts run end to end."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


class TestExamples:
    def test_quickstart(self, capsys):
        _run("quickstart.py")
        out = capsys.readouterr().out
        assert "EMF-filtered similarity" in out
        assert "CEGMA" in out

    def test_paper_walkthrough(self, capsys):
        _run("paper_walkthrough.py")
        out = capsys.readouterr().out
        assert "RecordSet" in out
        assert "coordinated" in out

    @pytest.mark.slow
    def test_code_clone_search(self, capsys):
        _run("code_clone_search.py")
        out = capsys.readouterr().out
        assert "planted clone" in out
