"""Tests for the base-vs-change e2ebench gate's verdict (benchmarks/e2e_gate.py)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e_gate.py"
_spec = importlib.util.spec_from_file_location("e2e_gate", GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]


def run(wall=1.0, ops=1.0, correct=True, attempted=100, failed=0):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": ops, "unit": "1/s"},
        },
    }


def flagged(problems):
    regressions = [p for p in problems if p.startswith("REGRESSION")]
    return sorted(p.split()[1].rstrip(":") for p in regressions)


class TestVerdict:
    def test_identical_runs_pass(self):
        runs = [run(), run(), run()]
        assert gate.verdict(METRICS, runs, runs) == []

    def test_the_gate_imports_nothing_from_the_program(self):
        source = GATE_PATH.read_text()
        assert "import repro" not in source and "from repro" not in source

    @pytest.mark.parametrize(
        "change, expected",
        [
            # lower is better: a larger wall is worse.
            (run(wall=1.3), ["wall_s"]),
            (run(wall=0.5), []),
            # higher is better: fewer ops per second is worse.
            (run(ops=0.7), ["ops_per_s"]),
            (run(ops=2.0), []),
        ],
    )
    def test_each_direction(self, change, expected):
        assert flagged(gate.verdict(METRICS, [run()] * 3, [change] * 3)) == expected

    def test_a_median_exactly_at_the_bound_passes(self):
        at_bound = run(wall=1.25, ops=0.75)
        assert gate.verdict(METRICS, [run()] * 3, [at_bound] * 3) == []
        past = run(wall=1.2500001, ops=0.7499999)
        assert flagged(gate.verdict(METRICS, [run()] * 3, [past] * 3)) == [
            "ops_per_s",
            "wall_s",
        ]

    def test_the_median_not_the_worst_run_decides(self):
        change = [run(wall=1.0), run(wall=9.0), run(wall=1.1)]
        assert gate.verdict(METRICS, [run()] * 3, change) == []

    def test_an_incorrect_run_fails_on_either_side(self):
        wrong = [run(), run(correct=False), run()]
        for base, change in (([run()] * 3, wrong), (wrong, [run()] * 3)):
            problems = gate.verdict(METRICS, base, change)
            assert [p for p in problems if p.startswith("INCORRECT")]

    def test_a_higher_failed_share_fails(self):
        base = [run(failed=1), run(), run()]
        problems = gate.verdict(METRICS, base, [run(failed=1), run(failed=1), run()])
        assert [p for p in problems if p.startswith("FAILED SHARE")]
        # The same share, or a lower one, passes.
        assert gate.verdict(METRICS, base, base) == []
        assert gate.verdict(METRICS, base, [run()] * 3) == []

    def test_a_run_without_a_result_line_fails(self):
        silent = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        problems = gate.verdict(METRICS, [run()] * 3, [run(), silent, run()])
        assert any(p.startswith("MISSING wall_s") for p in problems)
        assert any(p.startswith("INCORRECT") for p in problems)


def test_worse_by_is_signed_by_direction():
    assert gate.worse_by("lower", 2.0, 3.0) == pytest.approx(0.5)
    assert gate.worse_by("higher", 2.0, 3.0) == pytest.approx(-0.5)
