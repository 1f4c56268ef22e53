"""Tests for repro.chaos.contracts: the declarative resilience invariants.

Contracts are evaluated against synthetic evidence dicts shaped exactly
like the scenario grid's output, so each invariant's pass *and* failure
modes are pinned without running any chaos.  The meta-invariant: absent
evidence is a failure — a gate that silently skips a scenario is not a
gate.
"""

from __future__ import annotations

import copy

import pytest

from repro.chaos import (
    CONTRACTS,
    ContractCheck,
    evaluate_contracts,
    render_contracts,
)

ALL_IDS = {
    "monotone-degradation",
    "delivery-books-balance",
    "bounded-repair",
    "no-acknowledged-job-lost",
    "resume-identity",
    "cache-never-serves-stale",
    "empty-schedule-purity",
}


def passing_evidence() -> dict:
    """Evidence for a grid run where every invariant held."""
    rows = [
        {
            "intensity": 0.0,
            "delivery_ratio": 1.0,
            "fault_events": 0,
            "availability": 1.0,
            "delivered": 20,
            "packets_lost": 0,
            "num_packets": 20,
            "packets_orphaned": 0,
            "max_repair_slots": None,
        },
        {
            "intensity": 0.25,
            "delivery_ratio": 0.95,
            "fault_events": 2,
            "availability": 0.98,
            "delivered": 19,
            "packets_lost": 1,
            "num_packets": 20,
            "packets_orphaned": 1,
            "max_repair_slots": 90.0,
        },
        {
            "intensity": 0.5,
            "delivery_ratio": 0.9,
            "fault_events": 4,
            "availability": 0.95,
            "delivered": 18,
            "packets_lost": 2,
            "num_packets": 20,
            "packets_orphaned": 2,
            "max_repair_slots": 140.0,
        },
    ]
    return {
        "degradation": {
            "rows": rows,
            "ratio_noise": 0.05,
            "repair_bound_slots": 400.0,
            "empty_schedule": {
                "identical": True,
                "detail": "chaos path bit-identical to the plain path",
            },
        },
        "storage": {
            "resume_identical": True,
            "rng_positions_identical": True,
            "torn_artifact_refused": True,
            "corrupt_cache_entry_refused": True,
            "write_failures_loud": True,
        },
        "worker": {
            "results_identical": True,
            "attempts_per_item_max": 2,
            "max_attempts": 3,
        },
        "service": {
            "acknowledged": ["fp1", "fp2"],
            "completed_after_restart": ["fp1", "fp2"],
            "artifact_identical": True,
            "cache_hit_after_restart": True,
            "partial_frames_ok": True,
            "drop_surfaced_typed": True,
            "stall_detected_typed": True,
        },
    }


def failures_of(checks: list, contract: str) -> list:
    return [
        check
        for check in checks
        if check.contract == contract and not check.passed
    ]


def test_registry_covers_the_full_vocabulary():
    assert {contract.id for contract in CONTRACTS} == ALL_IDS
    for contract in CONTRACTS:
        assert contract.name and contract.description


def test_all_contracts_pass_on_clean_evidence():
    checks = evaluate_contracts(passing_evidence())
    assert checks, "no checks ran"
    assert all(check.passed for check in checks)
    # Every contract produced at least one verdict on full evidence.
    assert {check.contract for check in checks} == ALL_IDS


@pytest.mark.parametrize(
    "mutate, contract",
    [
        # A fault-free run that already lost packets.
        (
            lambda e: e["degradation"]["rows"][0].update(delivery_ratio=0.9),
            "monotone-degradation",
        ),
        # A cliff at mid intensity that the next point "recovers" from:
        # the recovery exceeds the noise allowance, so it is flagged.
        (
            lambda e: e["degradation"]["rows"][1].update(delivery_ratio=0.8),
            "monotone-degradation",
        ),
        # The heaviest scenario injected nothing: a vacuous grid.
        (
            lambda e: e["degradation"]["rows"][2].update(
                fault_events=0, delivery_ratio=0.95
            ),
            "monotone-degradation",
        ),
        # A packet neither delivered nor accounted as lost.
        (
            lambda e: e["degradation"]["rows"][1].update(delivered=18),
            "delivery-books-balance",
        ),
        # A loss with no attributable fault event behind it.
        (
            lambda e: e["degradation"]["rows"][1].update(packets_orphaned=0),
            "delivery-books-balance",
        ),
        # A repair that blew the scenario bound.
        (
            lambda e: e["degradation"]["rows"][2].update(
                max_repair_slots=900.0
            ),
            "bounded-repair",
        ),
        # A supervised item that burned more attempts than budgeted.
        (
            lambda e: e["worker"].update(attempts_per_item_max=4),
            "bounded-repair",
        ),
        # An acknowledged job the restarted daemon never finished.
        (
            lambda e: e["service"].update(completed_after_restart=["fp1"]),
            "no-acknowledged-job-lost",
        ),
        # The kill landed before any job was acknowledged: vacuous.
        (
            lambda e: e["service"].update(acknowledged=[]),
            "no-acknowledged-job-lost",
        ),
        (
            lambda e: e["storage"].update(resume_identical=False),
            "resume-identity",
        ),
        (
            lambda e: e["storage"].update(rng_positions_identical=False),
            "resume-identity",
        ),
        (
            lambda e: e["worker"].update(results_identical=False),
            "resume-identity",
        ),
        (
            lambda e: e["service"].update(artifact_identical=False),
            "resume-identity",
        ),
        (
            lambda e: e["storage"].update(torn_artifact_refused=False),
            "cache-never-serves-stale",
        ),
        (
            lambda e: e["storage"].update(corrupt_cache_entry_refused=False),
            "cache-never-serves-stale",
        ),
        (
            lambda e: e["degradation"]["empty_schedule"].update(
                identical=False
            ),
            "empty-schedule-purity",
        ),
    ],
)
def test_each_violation_fails_its_contract(mutate, contract):
    evidence = copy.deepcopy(passing_evidence())
    mutate(evidence)
    checks = evaluate_contracts(evidence)
    assert failures_of(checks, contract), (
        f"{contract} did not flag the violation"
    )


@pytest.mark.parametrize(
    "scenario, key, contract",
    [
        ("storage", "write_failures_loud", "cache-never-serves-stale"),
        ("service", "partial_frames_ok", "no-acknowledged-job-lost"),
        ("service", "drop_surfaced_typed", "no-acknowledged-job-lost"),
        ("service", "stall_detected_typed", "no-acknowledged-job-lost"),
        ("service", "cache_hit_after_restart", "no-acknowledged-job-lost"),
    ],
)
def test_every_probe_the_grid_collects_can_fail(scenario, key, contract):
    """A probe no contract reads validates nothing: a false one fails
    exactly one check, in the contract whose invariant it evidences."""
    evidence = passing_evidence()
    assert all(check.passed for check in evaluate_contracts(evidence))
    evidence[scenario][key] = False
    failed = [check for check in evaluate_contracts(evidence) if not check.passed]
    assert [(check.contract, check.scenario) for check in failed] == [
        (contract, scenario)
    ]


@pytest.mark.parametrize(
    "scenario, contracts_expected",
    [
        (
            "degradation",
            {
                "monotone-degradation",
                "delivery-books-balance",
                "empty-schedule-purity",
            },
        ),
        ("storage", {"resume-identity", "cache-never-serves-stale"}),
        ("worker", {"bounded-repair"}),
        ("service", {"no-acknowledged-job-lost"}),
    ],
)
def test_missing_evidence_is_a_failure_not_a_skip(
    scenario, contracts_expected
):
    evidence = passing_evidence()
    del evidence[scenario]
    checks = evaluate_contracts(evidence)
    for contract in contracts_expected:
        failed = failures_of(checks, contract)
        assert failed, f"{contract} silently skipped missing {scenario}"
        assert any("no evidence" in check.detail for check in failed)


def test_check_round_trips_to_dict():
    check = ContractCheck("resume-identity", "storage", True, "ok")
    assert check.to_dict() == {
        "contract": "resume-identity",
        "scenario": "storage",
        "passed": True,
        "detail": "ok",
    }


class TestRender:
    def test_all_green_summary(self):
        checks = evaluate_contracts(passing_evidence())
        text = render_contracts(checks)
        assert f"OK: all {len(checks)} contract checks passed" in text
        assert "FAIL" not in text

    def test_failures_lead_the_report(self):
        evidence = passing_evidence()
        evidence["degradation"]["empty_schedule"]["identical"] = False
        checks = evaluate_contracts(evidence)
        text = render_contracts(checks)
        lines = text.splitlines()
        assert lines[0].startswith("FAIL")
        assert "empty-schedule-purity" in lines[0]
        assert "1 of" in lines[-1] and "FAILED" in lines[-1]

    def test_empty_checks(self):
        assert render_contracts([]) == "no contract checks ran"
