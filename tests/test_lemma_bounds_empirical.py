"""Empirical checks of the paper's counting lemmas on real deployments.

The delay analysis rests on Lemmas 1, 5 and 6 — deterministic or
high-probability bounds on how crowded an SU's PCR neighbourhood can be.
These tests evaluate the measured quantities on deployed topologies and
compare them against the bounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.packing import (
    lemma5_backbone_bound,
    lemma6_delta_bound,
    lemma6_neighborhood_bound,
)
from repro.core.pcr import PcrParameters, compute_pcr
from repro.graphs.cds import build_cds
from repro.graphs.tree import NodeRole, build_collection_tree


@pytest.fixture(scope="module")
def deployment(quick_topology):
    pcr = compute_pcr(
        PcrParameters(
            alpha=4.0,
            pu_power=quick_topology.primary.power,
            su_power=quick_topology.secondary.power,
            pu_radius=quick_topology.primary.radius,
            su_radius=quick_topology.secondary.radius,
            eta_p_db=8.0,
            eta_s_db=8.0,
        )
    )
    tree = build_collection_tree(
        quick_topology.secondary.graph, quick_topology.secondary.base_station
    )
    return quick_topology, pcr, tree


class TestLemma1:
    def test_dominators_touch_at_most_12_connectors(self, quick_topology):
        cds = build_cds(
            quick_topology.secondary.graph, quick_topology.secondary.base_station
        )
        graph = quick_topology.secondary.graph
        connectors = set(cds.connectors)
        for dominator in cds.dominators:
            adjacent = sum(
                1 for nbr in graph.neighbors(dominator) if nbr in connectors
            )
            assert adjacent <= 12


class TestLemma5:
    def test_backbone_count_within_pcr_bounded(self, deployment):
        topology, pcr, tree = deployment
        positions = topology.secondary.positions
        backbone = [
            node
            for node in range(tree.num_nodes)
            if tree.roles[node] in (NodeRole.DOMINATOR, NodeRole.CONNECTOR)
        ]
        bound = lemma5_backbone_bound(pcr.kappa)
        for node in range(tree.num_nodes):
            delta = positions[backbone] - positions[node]
            distances = np.hypot(delta[:, 0], delta[:, 1])
            count = int((distances <= pcr.pcr).sum())
            assert count <= bound


class TestLemma6:
    def test_su_count_within_pcr_bounded(self, deployment):
        topology, pcr, tree = deployment
        positions = topology.secondary.positions
        delta = tree.max_degree()
        bound = lemma6_neighborhood_bound(pcr.kappa, delta)
        for node in range(topology.secondary.num_nodes):
            delta = positions - positions[node]
            distances = np.hypot(delta[:, 0], delta[:, 1])
            count = int((distances <= pcr.pcr).sum()) - 1
            assert count <= bound

    def test_tree_degree_within_high_probability_bound(self, deployment):
        topology, _, tree = deployment
        n = topology.secondary.num_sus
        c0 = topology.region.area / n
        assert tree.max_degree() <= lemma6_delta_bound(
            n, topology.secondary.radius, c0
        )
