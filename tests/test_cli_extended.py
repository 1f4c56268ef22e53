"""Tests for the scenario and save-sweep CLI surfaces."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestScenarioCommand:
    def test_listing(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert "paper-default" in out
        assert "whitespace-4ch" in out

    def test_run_quiet_rural(self, capsys):
        assert main(["scenario", "quiet-rural"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out

    def test_unknown_scenario(self, capsys):
        assert main(["scenario", "atlantis"]) == 1
        assert "ERROR [config]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "stats", "no-such-trace.ndjson"],
        ["bounds", "--p-t", "1.5"],
        ["scenario", "atlantis"],
    ],
    ids=["trace-stats-missing-path", "bounds-bad-p-t", "scenario-unknown"],
)
def test_bad_input_exits_1_without_traceback(argv, capsys, tmp_path, monkeypatch):
    """Outside input that the library rejects with a ReproError ends in one
    ``ERROR [code]`` line and exit 1, never a Python traceback."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR [")
    assert "Traceback" not in err


class TestFig6Save:
    def test_save_round_trip(self, capsys, tmp_path):
        from repro.experiments.io import load_sweep

        target = tmp_path / "fig6c.json"
        code = main(
            [
                "fig6",
                "c",
                "--scale",
                "quick",
                "--repetitions",
                "1",
                "--save",
                str(target),
            ]
        )
        assert code == 0
        assert "saved to" in capsys.readouterr().out
        name, points = load_sweep(target)
        assert name == "fig6c"
        assert len(points) == 4
        for _, point in points:
            assert point.addc_delay_ms.mean > 0
