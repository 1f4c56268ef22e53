"""Statistical validation of the stochastic processes the analysis assumes.

Lemma 7 models a node's spectrum wait as geometric with parameter p_o;
these tests observe actual per-slot blocking sequences and check the
distributional claims (mean, independence-ish via run lengths) with
scipy's goodness-of-fit machinery.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.core.addc import AddcPolicy
from repro.core.pcr import PcrParameters, compute_pcr, db_to_linear
from repro.graphs.tree import build_collection_tree
from repro.sim.engine import SlottedEngine
from repro.spectrum.opportunity import per_node_opportunity_probability
from repro.spectrum.sensing import CarrierSenseMap


def observe_blocking(topology, streams, blocking, p_o=None, slots=4000):
    """Record each node's PU-blocked indicator for `slots` slots."""
    pcr = compute_pcr(
        PcrParameters(
            alpha=4.0,
            pu_power=topology.primary.power,
            su_power=topology.secondary.power,
            pu_radius=topology.primary.radius,
            su_radius=topology.secondary.radius,
            eta_p_db=8.0,
            eta_s_db=8.0,
        )
    )
    sense_map = CarrierSenseMap(topology, pcr.pcr)
    tree = build_collection_tree(topology.secondary.graph, 0)
    history = []
    nodes = np.arange(topology.secondary.num_nodes)

    def hook(engine):
        if engine.slot < slots:
            history.append(engine.spectrum.busy_counts(nodes))

    engine = SlottedEngine(
        topology=topology,
        sense_map=sense_map,
        policy=AddcPolicy(tree),
        streams=streams,
        alpha=4.0,
        eta_s=db_to_linear(8.0),
        blocking=blocking,
        homogeneous_p_o=p_o,
        slot_hook=hook,
        max_slots=slots + 10,
    )
    # A heavy workload keeps the run alive for the whole observation.
    engine.load_snapshot(packets_per_su=50)
    engine.run()
    return sense_map, np.array(history[:slots]) > 0


class TestGeometricBlocking:
    def test_mean_field_blocking_rate_matches_p_o(self, tiny_topology, streams):
        p_o = 0.2
        _, blocked = observe_blocking(
            tiny_topology, streams.spawn("sv-1"), "homogeneous", p_o=p_o
        )
        rate = blocked.mean()
        assert rate == pytest.approx(1.0 - p_o, abs=0.02)

    def test_mean_field_free_runs_are_geometric(self, tiny_topology, streams):
        """Free-period lengths under the mean field must be Geometric(1-p_o):
        compare the observed run-length histogram by chi-square."""
        p_o = 0.3
        _, blocked = observe_blocking(
            tiny_topology, streams.spawn("sv-2"), "homogeneous", p_o=p_o
        )
        series = blocked[:, 1]  # one node's indicator
        # Lengths of consecutive free runs.
        runs = []
        current = 0
        for value in series:
            if not value:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        runs = np.array(runs)
        assert runs.size > 50
        # Geometric(q) with q = P(blocked) = 1 - p_o terminates a free run.
        q = 1.0 - p_o
        observed = np.array(
            [np.sum(runs == k) for k in range(1, 6)]
            + [np.sum(runs >= 6)],
            dtype=float,
        )
        probabilities = np.array(
            [q * (1 - q) ** (k - 1) for k in range(1, 6)]
            + [(1 - q) ** 5],
            dtype=float,
        )
        expected = probabilities / probabilities.sum() * observed.sum()
        _, p_value = scipy_stats.chisquare(observed, expected)
        assert p_value > 0.01

    def test_geometric_mode_rate_matches_per_node_formula(
        self, tiny_topology, streams
    ):
        sense_map, blocked = observe_blocking(
            tiny_topology, streams.spawn("sv-3"), "geometric"
        )
        p_o = per_node_opportunity_probability(sense_map, 0.3)
        observed_free = 1.0 - blocked.mean(axis=0)
        # Per-node empirical free rates track the exact per-node formula.
        for node in range(len(p_o)):
            assert observed_free[node] == pytest.approx(p_o[node], abs=0.05)

    def test_geometric_mode_is_spatially_correlated(self, tiny_topology, streams):
        """Unlike the mean field, geometric blocking is correlated across
        nearby nodes (one PU blocks a whole disk)."""
        _, blocked_geo = observe_blocking(
            tiny_topology, streams.spawn("sv-4"), "geometric"
        )
        _, blocked_mf = observe_blocking(
            tiny_topology, streams.spawn("sv-5"), "homogeneous", p_o=0.12
        )

        def mean_pairwise_correlation(matrix):
            sample = matrix[:, 1:8].astype(float)
            correlations = np.corrcoef(sample.T)
            upper = correlations[np.triu_indices_from(correlations, k=1)]
            return np.nanmean(upper)

        assert mean_pairwise_correlation(blocked_geo) > 0.3
        assert abs(mean_pairwise_correlation(blocked_mf)) < 0.1
