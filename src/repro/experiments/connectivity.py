"""Connectivity and multihop-delay scaling studies.

The paper *assumes* a connected ``G_s`` (Section III) and cites the
percolation line of work ([14]-[16]) for when that holds and how multihop
delay scales with distance.  Two empirical companions:

* :func:`connectivity_probability` — Monte Carlo estimate of
  ``P(G_s connected)`` at a given SU density, quantifying how safe the
  paper's assumption is for a deployment plan;
* :func:`delay_vs_distance` — measured end-to-end unicast delay as a
  function of source-destination distance over the ADDC MAC ([15]/[16]
  show the *minimum* multihop delay scales linearly in distance beyond the
  percolation threshold).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.pcr import db_to_linear
from repro.errors import ConfigurationError
from repro.geometry.distance import euclidean
from repro.geometry.region import SquareRegion
from repro.graphs.connectivity import is_connected
from repro.graphs.graph import Graph
from repro.network.topology import CrnTopology
from repro.rng import StreamFactory
from repro.routing.unicast import UnicastPolicy
from repro.sim.engine import SlottedEngine
from repro.spectrum.sensing import sensing_at_pcr

__all__ = ["connectivity_probability", "delay_vs_distance"]


def connectivity_probability(
    num_nodes: int,
    area: float,
    radius: float,
    trials: int = 50,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate of ``P(G_s connected)`` for i.i.d. placement.

    Samples ``trials`` independent deployments of ``num_nodes`` points in
    a square of the given area and reports the connected fraction.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if num_nodes < 2:
        raise ConfigurationError(f"num_nodes must be >= 2, got {num_nodes}")
    region = SquareRegion.from_area(area)
    streams = StreamFactory(seed)
    connected = 0
    for trial in range(trials):
        rng = streams.stream(f"trial-{trial}")
        positions = region.sample(num_nodes, rng)
        if is_connected(Graph.from_positions(positions, radius)):
            connected += 1
    return connected / trials


def delay_vs_distance(
    topology: CrnTopology,
    streams: StreamFactory,
    num_flows: int = 12,
    eta_p_db: float = 8.0,
    eta_s_db: float = 8.0,
    alpha: float = 4.0,
    blocking: str = "homogeneous",
    max_slots: int = 500_000,
) -> List[Tuple[float, int, int]]:
    """Measure unicast delay against source-destination distance.

    Picks ``num_flows`` sources spread over the distance range to the base
    station, runs each flow *alone* (no cross traffic, isolating the
    distance effect), and returns ``(distance, hops, delay_slots)`` rows
    sorted by distance.
    """
    if num_flows < 2:
        raise ConfigurationError(f"num_flows must be >= 2, got {num_flows}")
    _, sense_map, homogeneous_p_o = sensing_at_pcr(
        topology,
        alpha=alpha,
        eta_p_db=eta_p_db,
        eta_s_db=eta_s_db,
        blocking=blocking,
    )
    base = topology.secondary.base_station
    positions = topology.secondary.positions
    distances = [
        (euclidean(positions[node], positions[base]), node)
        for node in topology.secondary.su_ids()
    ]
    distances.sort()
    # Evenly spread picks across the sorted distance range.
    picks = [
        distances[int(round(i * (len(distances) - 1) / (num_flows - 1)))]
        for i in range(num_flows)
    ]

    rows: List[Tuple[float, int, int]] = []
    for index, (distance, node) in enumerate(picks):
        policy = UnicastPolicy(topology, [(node, base)], fairness_wait=True)
        engine = SlottedEngine(
            topology=topology,
            sense_map=sense_map,
            policy=policy,
            streams=streams.spawn(f"flow-{index}"),
            alpha=alpha,
            eta_s=db_to_linear(eta_s_db),
            blocking=blocking,
            homogeneous_p_o=homogeneous_p_o,
            max_slots=max_slots,
        )
        engine.load_packets(policy.build_workload())
        result = engine.run()
        if not result.completed:
            raise ConfigurationError(
                f"flow from node {node} did not finish in {max_slots} slots"
            )
        record = result.deliveries[0]
        rows.append((distance, record.hops, record.delay_slots))
    rows.sort()
    return rows
