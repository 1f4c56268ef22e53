"""Extension bench — delay vs the number of licensed channels.

The paper's model is a single licensed band; spreading the same PU
population over C channels (each PU licensed to one) lets SUs exploit
whichever channel is locally idle.  Two compounding effects drive the
delay down sharply:

* the per-channel PU density falls as N/C, so the per-channel opportunity
  probability ``(1 - p_t)^{pi (kappa r)^2 (N/C)/A}`` rises exponentially;
* different channels carry concurrent transmissions inside one another's
  CSMA range — channel parallelism on top of spatial reuse.
"""

from __future__ import annotations

from repro.core.collector import run_addc_collection
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory

CHANNELS = (1, 2, 4, 8)


def test_delay_vs_channel_count(base_config):
    factory = StreamFactory(base_config.seed).spawn("multichannel")
    topology = deploy_crn(base_config.deployment_spec(), factory)

    def run_sweep():
        return [
            run_addc_collection(
                topology,
                factory.spawn(f"channels-{channels}"),
                blocking=base_config.blocking,
                num_channels=channels,
                with_bounds=False,
                max_slots=base_config.max_slots,
            ).result
            for channels in CHANNELS
        ]

    results = run_sweep()
    print()
    print(f"{'channels':>8} | {'ADDC delay (ms)':>15} | {'collisions':>10}")
    for channels, result in zip(CHANNELS, results):
        print(f"{channels:>8} | {result.delay_ms:>15.1f} | {result.collisions:>10}")

    for result in results:
        assert result.completed
    delays = [result.delay_slots for result in results]
    # Steep initial gains, then saturation: the single-radio receivers and
    # cross-channel capture conflicts cap the benefit (collisions grow with
    # C), so the curve flattens rather than falling forever.
    assert delays[1] < delays[0] / 2
    assert delays[2] < delays[1]
    assert delays[-1] < delays[0] / 4
    collisions = [result.collisions for result in results]
    assert collisions[-1] >= collisions[1]
