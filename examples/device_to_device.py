"""Device-to-device traffic: unicast flows over the ADDC MAC.

The paper's task is convergecast; its sibling primitive (reference [7], by
the same authors) is unicast between SU pairs.  This example runs a random
device-to-device traffic matrix over the same PCR carrier sensing and
backoff MAC, compares min-hop routing against spectrum-temperature
("coolest") routing, and uses the trace tooling to break one flow's delay
down hop by hop.

Run with::

    python examples/device_to_device.py
"""

from __future__ import annotations

from repro import ExperimentConfig, StreamFactory, deploy_crn
from repro.core.pcr import db_to_linear
from repro.metrics.breakdown import hop_latencies
from repro.routing.unicast import UnicastPolicy
from repro.sim.engine import SlottedEngine
from repro.sim.trace import TraceLog
from repro.spectrum.sensing import sensing_at_pcr


def run_flows(topology, streams, flows, routing, trace=None):
    config = ExperimentConfig.quick_scale()
    _, sense_map, _ = sensing_at_pcr(
        topology,
        alpha=config.alpha,
        eta_p_db=config.eta_p_db,
        eta_s_db=config.eta_s_db,
    )
    policy = UnicastPolicy(topology, flows, routing=routing)
    engine = SlottedEngine(
        topology=topology,
        sense_map=sense_map,
        policy=policy,
        streams=streams,
        alpha=config.alpha,
        eta_s=db_to_linear(config.eta_s_db),
        max_slots=config.max_slots,
        trace=trace,
    )
    engine.load_packets(policy.build_workload())
    return policy, engine.run()


def main() -> None:
    config = ExperimentConfig.quick_scale()
    streams = StreamFactory(seed=909).spawn("d2d")
    topology = deploy_crn(config.deployment_spec(), streams)
    rng = streams.stream("flow-choices")

    # A random 10-flow traffic matrix between distinct SUs.
    su_ids = list(topology.secondary.su_ids())
    flows = []
    while len(flows) < 10:
        source, destination = rng.choice(su_ids, size=2, replace=False)
        flows.append((int(source), int(destination)))

    print(f"{len(flows)} device-to-device flows over {len(su_ids)} SUs")
    for routing in ("min-hop", "coolest"):
        policy, result = run_flows(
            topology, streams.spawn(f"run-{routing}"), flows, routing
        )
        hops = result.mean_hops
        print(
            f"  {routing:>8}: delay {result.delay_ms:8.1f} ms, "
            f"mean hops {hops:.2f}, mean packet delay "
            f"{result.mean_packet_delay_slots:.0f} slots"
        )

    print("\nper-hop breakdown of one flow (min-hop routing):")
    trace = TraceLog()
    policy, result = run_flows(
        topology, streams.spawn("run-traced"), flows, "min-hop", trace=trace
    )
    record = max(result.deliveries, key=lambda r: r.delay_slots)
    route = policy.route_of(record.packet_id)
    latencies = hop_latencies(trace, record.packet_id)
    for (a, b), latency in zip(zip(route, route[1:]), latencies):
        print(f"  {a:>3} -> {b:<3}: {latency:>6} slots")
    print(f"  total: {record.delay_slots} slots — hops wait for spectrum,")
    print("  not for each other; the slowest hop dominates.")


if __name__ == "__main__":
    main()
