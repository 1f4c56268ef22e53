"""Tests for repro.chaos.gate: manifest, ratchet, and CLI wiring.

These tests build synthetic :class:`GateReport` objects instead of
running the scenario grid, so they pin the gate's *mechanics*: the
manifest round-trips through the perf-ratchet differ, a gated figure
moving the wrong way is a regression, ungated figures never gate, and
the synthetic-violation canary actually fails a contract.  The grid
itself is exercised by ``test_chaos_scenarios`` and the CI smoke run.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    ContractCheck,
    GateReport,
    apply_synthetic_violation,
    diff_against_baseline,
    evaluate_contracts,
    gate_manifest,
    render_gate,
    require_passed,
    write_gate_baseline,
)
from repro.chaos.scenarios import figure
from repro.errors import ObservabilityError, ResilienceContractError
from repro.obs.manifest import build_manifest, write_manifest


def make_report(
    delivery: float = 0.9,
    repair: float = 140.0,
    fault_events: float = 4.0,
    passed: bool = True,
) -> GateReport:
    figures = {
        "delivery_ratio_heaviest": figure(delivery, higher_better=True),
        "availability_heaviest": figure(0.95, higher_better=True),
        "repair_worst_slots": figure(repair, higher_better=False),
        "fault_events_heaviest": figure(
            fault_events, higher_better=False, gated=False
        ),
    }
    checks = [
        ContractCheck(
            "empty-schedule-purity", "degradation", passed, "synthetic"
        )
    ]
    return GateReport(
        figures=figures,
        evidence={},
        checks=checks,
        seed=101,
        smoke=True,
        include_service=False,
        wall_time_s=12.5,
    )


class TestGateManifest:
    def test_resilience_block_carries_figures_and_verdicts(self):
        manifest = gate_manifest(make_report()).to_dict()
        resilience = manifest["extra"]["resilience"]
        assert resilience["figures"]["delivery_ratio_heaviest"] == {
            "value": 0.9,
            "higher_better": True,
            "gated": True,
        }
        assert resilience["contracts"] == [
            {
                "contract": "empty-schedule-purity",
                "scenario": "degradation",
                "passed": True,
                "detail": "synthetic",
            }
        ]
        assert resilience["grid"]["smoke"] is True
        # Wall time is recorded for humans but lives outside the figures,
        # so the ratchet stays machine-independent.
        assert resilience["grid"]["wall_time_s"] == 12.5
        assert "wall_time_s" not in resilience["figures"]


class TestRatchet:
    def test_identical_run_has_zero_deltas(self, tmp_path):
        baseline = tmp_path / "BENCH_resilience.json"
        write_gate_baseline(baseline, make_report())
        report = make_report()
        rows = diff_against_baseline(report, baseline, tolerance_pct=5.0)
        assert rows and all(row.name.startswith("resilience.") for row in rows)
        assert all(row.delta_pct == 0.0 for row in rows)
        assert report.regressions == 0
        assert report.passed
        require_passed(report)  # no raise

    def test_gated_figure_dropping_is_a_regression(self, tmp_path):
        baseline = tmp_path / "BENCH_resilience.json"
        write_gate_baseline(baseline, make_report(delivery=0.9))
        report = make_report(delivery=0.7)
        diff_against_baseline(report, baseline, tolerance_pct=5.0)
        regressed = [row for row in report.diff_rows if row.regression]
        assert [row.name for row in regressed] == [
            "resilience.delivery_ratio_heaviest"
        ]
        assert not report.passed
        with pytest.raises(ResilienceContractError, match="regressed"):
            require_passed(report)

    def test_direction_respects_higher_better(self, tmp_path):
        baseline = tmp_path / "BENCH_resilience.json"
        write_gate_baseline(baseline, make_report(repair=140.0))
        # Repair latency shrinking is an improvement, never a regression.
        better = make_report(repair=90.0)
        diff_against_baseline(better, baseline, tolerance_pct=5.0)
        assert better.regressions == 0
        # Repair latency growing past tolerance regresses.
        worse = make_report(repair=300.0)
        diff_against_baseline(worse, baseline, tolerance_pct=5.0)
        assert [row.name for row in worse.diff_rows if row.regression] == [
            "resilience.repair_worst_slots"
        ]

    def test_ungated_figures_report_but_never_gate(self, tmp_path):
        baseline = tmp_path / "BENCH_resilience.json"
        write_gate_baseline(baseline, make_report(fault_events=4.0))
        report = make_report(fault_events=40.0)
        diff_against_baseline(report, baseline, tolerance_pct=5.0)
        assert report.regressions == 0
        assert report.passed

    def test_foreign_baseline_is_refused(self, tmp_path):
        baseline = tmp_path / "foreign.json"
        # A perfectly valid manifest -- but not one the gate wrote.
        write_manifest(
            baseline, build_manifest(seed=1, config={"name": "perf"})
        )
        with pytest.raises(ObservabilityError, match="no resilience figures"):
            diff_against_baseline(make_report(), baseline, tolerance_pct=5.0)


class TestVerdicts:
    def test_contract_failure_fails_the_gate(self):
        report = make_report(passed=False)
        assert report.contract_failures == 1
        assert not report.passed
        with pytest.raises(ResilienceContractError, match="empty-schedule"):
            require_passed(report)

    def test_synthetic_violation_poisons_exactly_the_purity_contract(self):
        evidence = apply_synthetic_violation({})
        checks = evaluate_contracts(evidence)
        purity = [
            check
            for check in checks
            if check.contract == "empty-schedule-purity"
        ]
        assert purity and not purity[0].passed
        assert "synthetic violation" in purity[0].detail

    def test_render_states_the_verdict(self, tmp_path):
        passing = make_report()
        assert "CHAOS GATE: PASS" in render_gate(passing, tolerance_pct=5.0)
        baseline = tmp_path / "BENCH_resilience.json"
        write_gate_baseline(baseline, make_report(delivery=0.9))
        failing = make_report(delivery=0.5, passed=False)
        diff_against_baseline(failing, baseline, tolerance_pct=5.0)
        text = render_gate(failing, tolerance_pct=5.0)
        assert "CHAOS GATE: FAIL (1 contract failures, 1 ratchet" in text
        assert "FAIL" in text.splitlines()[0]


class TestCliWiring:
    def test_chaos_gate_dispatches_to_its_own_handler(self):
        from repro.cli import _cmd_chaos_gate, build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["chaos", "gate", "--smoke", "--synthetic-violation"]
        )
        assert args.handler is _cmd_chaos_gate
        assert args.smoke and args.synthetic_violation
        assert args.baseline == "BENCH_resilience.json"
        # The flat `chaos` sweep is a job, not the gate.
        flat = parser.parse_args(["chaos", "--smoke"])
        assert flat.handler is not _cmd_chaos_gate
        assert flat.kind == "chaos"
