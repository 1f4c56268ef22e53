"""Extension bench — imperfect spectrum sensing.

The paper assumes perfect sensing; its references [3]-[5] study sensing
errors.  This bench sweeps the two error probabilities independently under
exact PU geometry:

* **false alarms** waste opportunities: delay grows with p_false_alarm,
  PU protection stays intact (zero violations);
* **missed detections** trade protection for speed: PU violations appear
  and grow, while most violating transmissions fail their SIR check and
  are retransmitted.
"""

from __future__ import annotations

from repro.core.collector import run_addc_collection
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory

FALSE_ALARMS = (0.0, 0.2, 0.4, 0.6)
MISSED = (0.0, 0.2, 0.4)


def test_sensing_error_sweep(base_config):
    config = base_config.with_overrides(blocking="geometric")
    factory = StreamFactory(config.seed).spawn("sensing")
    topology = deploy_crn(config.deployment_spec(), factory)

    def run_sweeps():
        fa_results = [
            run_addc_collection(
                topology,
                factory.spawn(f"fa-{p}"),
                blocking="geometric",
                p_false_alarm=p,
                with_bounds=False,
                max_slots=config.max_slots,
            ).result
            for p in FALSE_ALARMS
        ]
        md_results = [
            run_addc_collection(
                topology,
                factory.spawn(f"md-{p}"),
                blocking="geometric",
                p_missed_detection=p,
                with_bounds=False,
                max_slots=config.max_slots,
            ).result
            for p in MISSED
        ]
        return fa_results, md_results

    fa_results, md_results = run_sweeps()

    print()
    print("false-alarm sweep (delay ms / PU violations):")
    for p, result in zip(FALSE_ALARMS, fa_results):
        print(f"  p_fa={p:.1f}: {result.delay_ms:>10.1f} ms, "
              f"{result.pu_violations} violations")
    print("missed-detection sweep (delay ms / PU violations):")
    for p, result in zip(MISSED, md_results):
        print(f"  p_md={p:.1f}: {result.delay_ms:>10.1f} ms, "
              f"{result.pu_violations} violations")

    for result in fa_results + md_results:
        assert result.completed
    # False alarms: no violations ever; delay clearly grows end to end.
    assert all(result.pu_violations == 0 for result in fa_results)
    assert fa_results[-1].delay_slots > 1.3 * fa_results[0].delay_slots
    # Missed detections: violations appear and grow with the error rate.
    violations = [result.pu_violations for result in md_results]
    assert violations[0] == 0
    assert violations[1] > 0
    assert violations[2] > violations[1]
