"""Extension bench — the analysis against the simulator, point by point.

Sweeps p_t (the knob Lemma 7 is most sensitive to) and, at every point,
compares three quantities:

* Lemma 7's expected per-opportunity wait ``1/p_o`` against the measured
  blocked-slot fraction,
* Theorem 2's delay upper bound against the measured delay (the bound must
  hold — its packing constants make it loose by orders of magnitude), and
* the trend agreement: both theory and measurement must grow with p_t.
"""

from __future__ import annotations

from repro.core.analysis import TheoreticalBounds
from repro.core.collector import run_addc_collection
from repro.network.deployment import deploy_crn
from repro.rng import StreamFactory

P_T_VALUES = (0.1, 0.2, 0.3)


def test_theory_tracks_simulation(base_config):
    def run_sweep():
        rows = []
        for p_t in P_T_VALUES:
            config = base_config.with_overrides(p_t=p_t)
            factory = StreamFactory(config.seed).spawn(f"theory-{p_t}")
            topology = deploy_crn(config.deployment_spec(), factory)
            outcome = run_addc_collection(
                topology,
                factory.spawn("addc"),
                blocking="homogeneous",
                max_slots=config.max_slots,
            )
            rows.append((p_t, outcome))
        return rows

    rows = run_sweep()

    print()
    print(
        f"{'p_t':>4} | {'p_o':>8} | {'blocked (sim)':>13} | "
        f"{'delay (slots)':>13} | {'Thm2 bound':>12} | {'bound use':>9}"
    )
    measured_delays = []
    theory_bounds = []
    for p_t, outcome in rows:
        result = outcome.result
        bounds: TheoreticalBounds = outcome.bounds
        assert result.completed
        total_states = result.frozen_slot_count + result.opportunity_slot_count
        blocked_fraction = result.frozen_slot_count / total_states
        measured_delays.append(result.delay_slots)
        theory_bounds.append(bounds.theorem2_delay_slots)
        print(
            f"{p_t:>4} | {bounds.p_o:>8.4f} | {blocked_fraction:>13.4f} | "
            f"{result.delay_slots:>13} | {bounds.theorem2_delay_slots:>12.2e} | "
            f"{result.delay_slots / bounds.theorem2_delay_slots:>9.1e}"
        )
        # Lemma 7: the measured blocked fraction matches 1 - p_o within
        # sampling noise (mean-field mode makes this exact in expectation).
        assert abs(blocked_fraction - (1.0 - bounds.p_o)) < 0.05
        # Theorem 2: the bound holds.
        assert result.delay_slots <= bounds.theorem2_delay_slots

    # Trend agreement: theory and measurement grow together.
    assert measured_delays == sorted(measured_delays)
    assert theory_bounds == sorted(theory_bounds)
