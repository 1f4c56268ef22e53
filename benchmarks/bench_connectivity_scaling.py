"""Extension bench — connectivity threshold and delay-vs-distance scaling.

Companions to the paper's standing assumptions, following its references
[14]-[16]:

* ``P(G_s connected)`` across SU densities shows the sharp percolation-
  style transition the paper's "we assume G_s is connected" sits above;
* single-flow unicast delay grows with source-base-station distance —
  the linear multihop-delay scaling of [15]/[16] — measured over the
  actual ADDC MAC rather than an idealized hop count.
"""

from __future__ import annotations

from repro.experiments.connectivity import (
    connectivity_probability,
    delay_vs_distance,
)
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory

DENSITIES = (0.008, 0.016, 0.032, 0.064)  # SUs per unit^2; paper: 0.032


def test_connectivity_and_distance_scaling(base_config):
    def run_study():
        probabilities = []
        for density in DENSITIES:
            num_nodes = max(int(round(density * base_config.area)), 2)
            probabilities.append(
                connectivity_probability(
                    num_nodes=num_nodes,
                    area=base_config.area,
                    radius=base_config.su_radius,
                    trials=30,
                    seed=base_config.seed,
                )
            )
        factory = StreamFactory(base_config.seed).spawn("dvd")
        topology = deploy_crn(base_config.deployment_spec(), factory)
        rows = delay_vs_distance(
            topology, factory, num_flows=8, max_slots=base_config.max_slots
        )
        return probabilities, rows

    probabilities, rows = run_study()

    print()
    print("P(G_s connected) by SU density:")
    for density, probability in zip(DENSITIES, probabilities):
        print(f"  density {density:.3f}: {probability:5.2f}")
    print("unicast delay vs distance (single flow, ADDC MAC):")
    for distance, hops, delay in rows:
        print(f"  d={distance:6.1f}  hops={hops:2d}  delay={delay:6d} slots")

    # Transition: connectivity probability is non-decreasing in density and
    # crosses from rare to near-certain across the sweep.
    assert all(b >= a - 0.1 for a, b in zip(probabilities, probabilities[1:]))
    assert probabilities[0] < 0.5
    assert probabilities[-1] > 0.9
    # Distance scaling: the farthest flow needs more hops and more time
    # than the nearest.
    assert rows[-1][1] > rows[0][1]
    assert rows[-1][2] > rows[0][2]
