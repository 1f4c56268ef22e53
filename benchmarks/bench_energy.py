"""Extension bench — the energy bill of each protocol.

Battery-powered sensor fields (the paper's motivating deployment) care
about joules as much as milliseconds.  Under scarce spectrum the bill is
dominated by *listening* — waiting out PU activity costs every contender
idle-radio energy — so a protocol's delay advantage compounds into an
energy advantage, and control overhead (Coolest's RREQ/RREP) plus
retransmissions show up directly in the transmit line.
"""

from __future__ import annotations

from repro.core.collector import run_addc_collection
from repro.metrics.energy import energy_consumption
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory
from repro.routing.coolest import run_coolest_collection
from repro.scheduling.centralized import run_centralized_collection


def test_energy_per_protocol(base_config):
    factory = StreamFactory(base_config.seed).spawn("energy")
    topology = deploy_crn(base_config.deployment_spec(), factory)

    def run_all():
        addc = run_addc_collection(
            topology,
            factory.spawn("addc"),
            blocking=base_config.blocking,
            with_bounds=False,
            max_slots=base_config.max_slots,
        ).result
        coolest = run_coolest_collection(
            topology,
            factory.spawn("coolest"),
            blocking=base_config.blocking,
            max_slots=base_config.max_slots,
        ).result
        central = run_centralized_collection(
            topology, factory.spawn("central"), max_slots=base_config.max_slots
        )
        return {"ADDC": addc, "Coolest": coolest, "centralized": central}

    results = run_all()
    print()
    print(
        f"{'protocol':>12} | {'total (mJ)':>10} | {'tx (mJ)':>8} | "
        f"{'listen (mJ)':>11} | {'mJ/packet':>9}"
    )
    reports = {}
    for name, result in results.items():
        assert result.completed
        report = energy_consumption(result)
        reports[name] = report
        print(
            f"{name:>12} | {report.total_joules * 1e3:>10.2f} | "
            f"{report.tx_joules * 1e3:>8.2f} | "
            f"{report.listen_joules * 1e3:>11.2f} | "
            f"{report.per_delivered_packet(result.delivered) * 1e3:>9.3f}"
        )

    # Listening dominates under scarce spectrum for the contention MACs.
    assert reports["ADDC"].listen_joules > reports["ADDC"].tx_joules
    # Control overhead + retransmissions make Coolest the hungriest.
    assert reports["Coolest"].tx_joules > reports["ADDC"].tx_joules
    assert reports["Coolest"].total_joules > reports["ADDC"].total_joules
