"""Extension bench — Theorem 2's order-optimality, empirically.

Theorem 2: ADDC's capacity is Omega(p_o W / (2 beta_kappa + 24
beta_{kappa+1} - 1)) — a *constant* fraction of the upper bound W whenever
p_o is a positive constant, i.e. delay grows Theta(n) in the paper's
scaling regime ``A = c0 n`` (density held fixed as the network grows).

This bench grows n with the area at fixed density (the paper's asymptotic
setting — note this differs from Fig. 6(b), which grows n inside a fixed
area) and checks that the measured capacity ``n / delay_slots`` stays
within a constant band instead of decaying, and always above Theorem 2's
analytic floor.
"""

from __future__ import annotations

import math

from repro.core.analysis import theorem2_capacity_lower_bound
from repro.core.collector import run_addc_collection
from repro.core.pcr import PcrParameters, compute_pcr
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory

#: Network sizes, grown at the paper's fixed densities (n/A = 0.032).
SIZES = (80, 160, 320)


def test_capacity_is_order_optimal(base_config):
    def run_scaling():
        results = []
        for n in SIZES:
            area = n / 0.032
            config = base_config.with_overrides(
                num_sus=n,
                num_pus=max(int(round(area * 0.0064)), 1),
                area=area,
                max_slots=base_config.max_slots * 4,
            )
            factory = StreamFactory(config.seed).spawn(f"scaling-{n}")
            topology = deploy_crn(config.deployment_spec(), factory)
            outcome = run_addc_collection(
                topology,
                factory.spawn("addc"),
                blocking=config.blocking,
                with_bounds=False,
                max_slots=config.max_slots,
            )
            results.append((n, outcome))
        return results

    results = run_scaling()

    pcr = compute_pcr(
        PcrParameters(
            alpha=base_config.alpha,
            pu_power=base_config.pu_power,
            su_power=base_config.su_power,
            pu_radius=base_config.pu_radius,
            su_radius=base_config.su_radius,
            eta_p_db=base_config.eta_p_db,
            eta_s_db=base_config.eta_s_db,
        )
    )
    from repro.core.analysis import opportunity_probability

    p_o = opportunity_probability(
        base_config.p_t, pcr.kappa, base_config.su_radius, 64, 64 / 0.0064
    )
    floor = theorem2_capacity_lower_bound(pcr.kappa, p_o)

    print()
    print(f"{'n':>5} | {'delay (slots)':>13} | {'capacity (pkt/slot)':>19}")
    capacities = []
    for n, outcome in results:
        assert outcome.result.completed
        capacity = outcome.result.capacity_packets_per_slot
        capacities.append(capacity)
        print(f"{n:>5} | {outcome.result.delay_slots:>13} | {capacity:>19.4f}")
    print(f"Theorem 2 analytic floor: {floor:.2e} pkt/slot")

    # Order-optimality: capacity neither decays with n (stays within a
    # 3x band across a 4x size growth) nor falls below the analytic floor.
    assert max(capacities) < 3.0 * min(capacities)
    assert min(capacities) > floor
