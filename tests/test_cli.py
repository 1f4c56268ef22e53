"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.pcr import PcrParameters

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_pcr_defaults(self):
        args = build_parser().parse_args(["pcr"])
        assert args.alpha == 4.0
        assert args.zeta_bound == "paper"
        defaults = PcrParameters()
        for field in fields(PcrParameters):
            assert getattr(args, field.name) == getattr(defaults, field.name)

    def test_fig6_subfigure_choices(self):
        args = build_parser().parse_args(["fig6", "c"])
        assert args.subfigure == "c"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "z"])


class TestCommands:
    def test_pcr_output(self, capsys):
        assert main(["pcr"]) == 0
        out = capsys.readouterr().out
        assert "kappa" in out and "3.1282" in out

    def test_pcr_safe_bound(self, capsys):
        assert main(["pcr", "--zeta-bound", "safe"]) == 0
        out = capsys.readouterr().out
        assert "kappa" in out

    def test_fig4_output(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out

    def test_bounds_output(self, capsys):
        assert main(["bounds", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 2" in out and "p_o" in out

    def test_collect_runs(self, capsys):
        assert main(["collect", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out

    def test_collect_ablation_flags(self, capsys):
        code = main(["collect", "--scale", "quick", "--no-fairness", "--bfs-tree"])
        assert code == 0
        assert "completed" in capsys.readouterr().out

    def test_compare_runs(self, capsys):
        assert main(["compare", "--scale", "quick", "--repetitions", "1"]) == 0
        out = capsys.readouterr().out
        assert "ADDC" in out and "Coolest" in out and "less delay" in out


def test_a_reader_that_went_away_gets_no_traceback():
    # The pipe's read end is closed before the child starts, so every
    # write the child makes to stdout fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        child = subprocess.run(
            [sys.executable, "-m", "repro", "pcr"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    stderr = child.stderr.decode("utf-8", "replace")
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
    assert child.returncode == 1
