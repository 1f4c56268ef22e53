"""Tests for JSON persistence of experiment results."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, ExperimentIOError
from repro.experiments.config import ExperimentConfig
from repro.experiments.io import (
    comparison_point_from_dict,
    comparison_point_to_dict,
    load_sweep,
    sweep_payload,
    write_artifact,
)
from repro.experiments.runner import ComparisonPoint
from repro.metrics.aggregate import summarize_delays


def make_point(p_t: float = 0.3) -> ComparisonPoint:
    return ComparisonPoint(
        config=ExperimentConfig.quick_scale().with_overrides(p_t=p_t),
        addc_delay_ms=summarize_delays([100.0, 110.0]),
        coolest_delay_ms=summarize_delays([320.0, 350.0]),
        addc_delays=[100.0, 110.0],
        coolest_delays=[320.0, 350.0],
    )


class TestRoundTrip:
    def test_point_round_trip(self):
        original = make_point()
        rebuilt = comparison_point_from_dict(
            comparison_point_to_dict(original)
        )
        assert rebuilt.config == original.config
        assert rebuilt.addc_delays == original.addc_delays
        assert rebuilt.coolest_delays == original.coolest_delays
        assert rebuilt.addc_delay_ms.mean == original.addc_delay_ms.mean
        assert rebuilt.speedup == pytest.approx(original.speedup)

    def test_sweep_round_trip(self, tmp_path):
        path = tmp_path / "fig6c.json"
        points = [(0.1, make_point(0.1)), (0.3, make_point(0.3))]
        write_artifact(path, sweep_payload("fig6c", points))
        name, loaded = load_sweep(path)
        assert name == "fig6c"
        assert [x for x, _ in loaded] == [0.1, 0.3]
        assert loaded[1][1].config.p_t == 0.3

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "sweep.json"
        write_artifact(path, sweep_payload("demo", [(1.0, make_point())]))
        payload = json.loads(path.read_text())
        assert payload["name"] == "demo"
        assert payload["points"][0]["x"] == 1.0


class TestErrors:
    def test_missing_keys(self):
        with pytest.raises(ConfigurationError):
            comparison_point_from_dict({"config": {}})

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ExperimentIOError) as excinfo:
            load_sweep(tmp_path / "missing.json")
        assert "missing.json" in str(excinfo.value)

    def test_not_a_sweep(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"something": 1}))
        with pytest.raises(ExperimentIOError) as excinfo:
            load_sweep(path)
        assert "bad.json" in str(excinfo.value)

    def test_corrupt_point_names_path(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text(
            json.dumps({"name": "fig6c", "points": [{"x": 0.1}]})
        )
        with pytest.raises(ExperimentIOError) as excinfo:
            load_sweep(path)
        assert "corrupt.json" in str(excinfo.value)

    def test_truncated_json_names_path(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text('{"name": "fig6c", "points": [')
        with pytest.raises(ExperimentIOError) as excinfo:
            load_sweep(path)
        assert "truncated.json" in str(excinfo.value)

    def test_atomic_save_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        write_artifact(path, sweep_payload("fig6c", [(0.1, make_point(0.1))]))
        assert path.exists()
        assert list(tmp_path.iterdir()) == [path]

    def test_save_overwrites_previous_artifact(self, tmp_path):
        path = tmp_path / "sweep.json"
        write_artifact(path, sweep_payload("fig6c", [(0.1, make_point(0.1))]))
        write_artifact(path, sweep_payload("fig6c", [(0.2, make_point(0.2))]))
        name, points = load_sweep(path)
        assert name == "fig6c"
        assert [x for x, _ in points] == [0.2]

    def test_save_fsyncs_the_parent_directory(self, tmp_path, monkeypatch):
        """Regression: ``os.replace`` alone can be undone by a power loss
        unless the parent directory entry is flushed too — every saved
        artifact must be sealed with a directory fsync."""
        import os
        import stat

        dir_fsyncs = []
        real_fsync = os.fsync

        def spying_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                dir_fsyncs.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spying_fsync)
        write_artifact(
            tmp_path / "sweep.json", sweep_payload("fig6c", [(0.1, make_point(0.1))])
        )
        assert dir_fsyncs, "write_artifact never fsynced the parent directory"
