"""Extension bench — resilience under increasing fault intensity.

Sweeps the ``repro.faults`` chaos cocktail from fault-free to half the
fleet blinking, and runs ADDC and the Coolest baseline against the *same*
fault plan each time.  The claims under test: the delivery books always
balance, every loss is attributable to a fault event, and ADDC's delivery
ratio degrades monotonically (within noise) as intensity grows.

The printed comparison also shows the flip side of ADDC's speed: the CDS
backbone concentrates in-flight data at relays, so a drop-queue outage
orphans more packets under ADDC than under the slow collision-prone
baseline, whose packets sit at their sources for longer.  Resilience here
trades against exactly the accumulation that makes the delay low.
"""

from __future__ import annotations

from repro.chaos.contracts import (
    DeliveryBooksBalanceContract,
    MonotoneDegradationContract,
    render_contracts,
)
from repro.core.collector import run_addc_collection
from repro.faults import chaos_plan
from repro.metrics.resilience import resilience_report
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory
from repro.routing.coolest import run_coolest_collection

INTENSITIES = (0.0, 0.15, 0.3, 0.5)
HORIZON_SLOTS = 2000

#: Run-to-run noise allowance on the delivery ratio between sweep points.
RATIO_NOISE = 0.05


def test_delivery_under_fault_intensity(base_config):
    factory = StreamFactory(base_config.seed).spawn("resilience-bench")
    topology = deploy_crn(base_config.deployment_spec(), factory)
    n = topology.secondary.num_sus

    def plan_for(index, intensity):
        # Sensing faults stay off: the bench runs the mean-field blocking
        # model, where a pinned-idle detector is rejected by the engine.
        return chaos_plan(
            topology.secondary.su_ids(),
            HORIZON_SLOTS,
            intensity,
            factory.spawn(f"plan-{index}"),
            drop_queue=True,
            sensing_fault_fraction=0.0,
        )

    def run_sweep():
        rows = []
        for index, intensity in enumerate(INTENSITIES):
            plan = plan_for(index, intensity)
            addc = run_addc_collection(
                topology,
                factory.spawn(f"addc-{index}"),
                blocking=base_config.blocking,
                fault_plan=plan if len(plan) else None,
                with_bounds=False,
                max_slots=base_config.max_slots,
            ).result
            coolest = run_coolest_collection(
                topology,
                factory.spawn(f"coolest-{index}"),
                blocking=base_config.blocking,
                route_discovery=False,
                fault_plan=plan if len(plan) else None,
                max_slots=base_config.max_slots,
            ).result
            rows.append((intensity, addc, coolest))
        return rows

    rows = run_sweep()
    print()
    print(
        f"{'intensity':>9} | {'ADDC ratio':>10} | {'Coolest ratio':>13} | "
        f"{'repair (slots)':>14} | {'availability':>12}"
    )
    reports = []
    for intensity, addc, coolest in rows:
        report = resilience_report(addc, n)
        reports.append(report)
        repair = (
            "-"
            if report.mean_repair_slots is None
            else f"{report.mean_repair_slots:.0f}"
        )
        print(
            f"{intensity:>9.2f} | {report.delivery_ratio:>10.3f} | "
            f"{coolest.delivery_ratio:>13.3f} | {repair:>14} | "
            f"{report.availability:>12.3f}"
        )

    for intensity, addc, coolest in rows:
        assert addc.completed and coolest.completed
        # Coolest is outside the contract evidence; check its books here.
        assert coolest.delivered + coolest.packets_lost == n
    # The ADDC side speaks the gate's contract vocabulary: the same
    # monotone-degradation and books-balance invariants `addc-repro
    # chaos gate` enforces, evaluated over this sweep's evidence rows.
    evidence = {
        "degradation": {
            "ratio_noise": RATIO_NOISE,
            "rows": [
                {
                    "intensity": intensity,
                    "delivery_ratio": report.delivery_ratio,
                    "fault_events": report.fault_events,
                    "availability": report.availability,
                    "delivered": addc.delivered,
                    "packets_lost": addc.packets_lost,
                    "num_packets": n,
                    "packets_orphaned": report.packets_orphaned,
                }
                for (intensity, addc, _), report in zip(rows, reports)
            ],
        }
    }
    checks = [
        check
        for contract in (
            MonotoneDegradationContract(),
            DeliveryBooksBalanceContract(),
        )
        for check in contract.evaluate(evidence)
    ]
    assert all(check.passed for check in checks), render_contracts(checks)
    # The heaviest chaos left availability scars the contracts don't
    # cover (they bound delivery, not uptime).
    assert reports[-1].availability < 1.0
