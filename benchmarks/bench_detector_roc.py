"""Extension bench — the sensing-threshold operating curve.

With a physical energy detector ([3]-[5]'s setting), the sensing threshold
is the knob between false alarms (lost opportunities) and missed
detections (PU-protection violations).  The measured curve has a twist the
naive ROC story misses: under the physical interference model, missed
detections are *self-punishing* — a transmission next to an undetected PU
usually fails its SIR check and triggers exponential backoff — so cranking
the threshold up buys violations *and* collisions without buying speed.
The delay optimum sits at an interior threshold, while PU protection
degrades monotonically: a regulator and an operator would pick different
points on this curve, which is exactly the tension the paper's
perfect-sensing assumption hides.
"""

from __future__ import annotations

from repro.core.addc import AddcPolicy
from repro.core.pcr import PcrParameters, compute_pcr, db_to_linear
from repro.graphs.tree import build_collection_tree
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory
from repro.sim.engine import SlottedEngine
from repro.spectrum.detection import EnergyDetector
from repro.spectrum.sensing import CarrierSenseMap

THRESHOLDS = (1.01, 1.05, 1.1, 1.3)
NOISE_POWER = 2e-3  # loud enough that boundary PUs are genuinely hard to hear


def test_detector_operating_curve(base_config):
    config = base_config.with_overrides(blocking="geometric")
    factory = StreamFactory(config.seed).spawn("roc")
    topology = deploy_crn(config.deployment_spec(), factory)
    pcr = compute_pcr(
        PcrParameters(
            alpha=config.alpha,
            pu_power=config.pu_power,
            su_power=config.su_power,
            pu_radius=config.pu_radius,
            su_radius=config.su_radius,
            eta_p_db=config.eta_p_db,
            eta_s_db=config.eta_s_db,
        )
    )
    sense_map = CarrierSenseMap(topology, pcr.pcr)
    tree = build_collection_tree(topology.secondary.graph, 0)

    def run_sweep():
        rows = []
        for threshold in THRESHOLDS:
            detector = EnergyDetector(
                threshold=threshold, num_samples=150, noise_power=NOISE_POWER
            )
            engine = SlottedEngine(
                topology=topology,
                sense_map=sense_map,
                policy=AddcPolicy(tree),
                streams=factory.spawn(f"thr-{threshold}"),
                alpha=config.alpha,
                eta_s=db_to_linear(config.eta_s_db),
                detector=detector,
                max_slots=config.max_slots,
            )
            engine.load_snapshot()
            rows.append((threshold, detector, engine.run()))
        return rows

    rows = run_sweep()
    print()
    print(
        f"{'threshold':>9} | {'P_fa':>8} | {'delay (ms)':>10} | "
        f"{'violations':>10} | {'collisions':>10}"
    )
    for threshold, detector, result in rows:
        print(
            f"{threshold:>9} | {detector.false_alarm_probability:>8.4f} | "
            f"{result.delay_ms:>10.1f} | {result.pu_violations:>10} | "
            f"{result.collisions:>10}"
        )

    for _, _, result in rows:
        assert result.completed
    violations = [result.pu_violations for _, _, result in rows]
    collisions = [result.collisions for _, _, result in rows]
    delays = [result.delay_slots for _, _, result in rows]
    # Raising the threshold strictly relaxes sensing: protection
    # violations grow monotonically, dragging SIR failures with them.
    assert violations == sorted(violations)
    assert collisions == sorted(collisions)
    # Self-punishment: the most permissive threshold is NOT the fastest —
    # its failed transmissions cost more than its extra opportunities.
    assert delays[-1] > min(delays)
