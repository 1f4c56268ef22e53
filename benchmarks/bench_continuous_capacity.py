"""Extension bench — continuous (periodic-snapshot) collection capacity.

The paper collects a single snapshot and derives the achievable capacity
``Omega(p_o W / (2 beta_kappa + 24 beta_{kappa+1} - 1))`` (Theorem 2); its
companion line of work ([12], [13], [23], [24]) studies *continuous*
collection, where a fresh snapshot is produced every ``period`` slots.
This bench streams several rounds through ADDC at two periods:

* a relaxed period (above the single-round service time): per-round delays
  stay flat — the pipeline is sustainable;
* a tight period: rounds back up and the last round's delay grows — the
  offered rate exceeds the sustainable capacity.
"""

from __future__ import annotations

from repro.core.collector import run_addc_collection
from repro.metrics.rounds import per_round_delays
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory


ROUNDS = 6


def test_continuous_collection_capacity(base_config):
    factory = StreamFactory(base_config.seed).spawn("continuous")
    topology = deploy_crn(base_config.deployment_spec(), factory)

    # Calibrate: one snapshot's delay sets the sustainable period scale.
    single = run_addc_collection(
        topology,
        factory.spawn("single"),
        blocking=base_config.blocking,
        with_bounds=False,
        max_slots=base_config.max_slots,
    )
    service_slots = single.result.delay_slots
    assert service_slots is not None

    def run_periodic(period):
        outcome = run_addc_collection(
            topology,
            factory.spawn(f"periodic-{period}"),
            blocking=base_config.blocking,
            with_bounds=False,
            rounds=ROUNDS,
            period_slots=period,
            max_slots=base_config.max_slots * ROUNDS,
        )
        assert outcome.result.completed
        return per_round_delays(outcome.result.deliveries)

    relaxed_period = int(service_slots * 1.5)
    tight_period = max(int(service_slots * 0.25), 1)

    def run_both():
        return run_periodic(relaxed_period), run_periodic(tight_period)

    relaxed, tight = run_both()

    print()
    print(f"single-snapshot service time: {service_slots} slots")
    print(f"{'round':>6} | {'relaxed (T=' + str(relaxed_period) + ')':>18} | "
          f"{'tight (T=' + str(tight_period) + ')':>18}")
    for index, birth in enumerate(sorted(relaxed)):
        tight_birth = sorted(tight)[index]
        print(f"{index:>6} | {relaxed[birth]:>18} | {tight[tight_birth]:>18}")

    relaxed_values = [relaxed[b] for b in sorted(relaxed)]
    tight_values = [tight[b] for b in sorted(tight)]
    # Sustainable pipeline: no monotone blow-up (last round within 2x of
    # the first).  Oversubscribed pipeline: the backlog makes per-round
    # delays grow, and every tight round is slower than its relaxed peer.
    assert relaxed_values[-1] < 2.0 * relaxed_values[0]
    assert tight_values[-1] > 1.3 * tight_values[0]
    assert tight_values[-1] > relaxed_values[-1]
