"""Tree construction on canonical (adversarial) topologies.

Random unit-disk graphs exercise the average case; these hand-built
shapes — chains, stars, cliques, grids — pin the corner cases the greedy
constructions must survive.
"""

from __future__ import annotations

import pytest

from repro.graphs.cds import build_cds
from repro.graphs.connectivity import connected_subgraph_nodes
from repro.graphs.graph import Graph
from repro.graphs.tree import NodeRole, build_collection_tree


def chain(n):
    graph = Graph(n)
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def star(n):
    graph = Graph(n)
    for leaf in range(1, n):
        graph.add_edge(0, leaf)
    return graph


def clique(n):
    graph = Graph(n)
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(i, j)
    return graph


def grid(rows, cols):
    graph = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                graph.add_edge(node, node + 1)
            if r + 1 < rows:
                graph.add_edge(node, node + cols)
    return graph


def assert_valid_tree(graph, tree):
    assert tree.parent[0] == 0
    for node in range(1, graph.num_nodes):
        assert graph.has_edge(node, tree.parent[node])
        assert tree.depth[node] == tree.depth[tree.parent[node]] + 1
        path = tree.path_to_root(node)
        assert path[-1] == 0


class TestChain:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 20])
    def test_chain(self, n):
        graph = chain(n)
        tree = build_collection_tree(graph, 0)
        assert_valid_tree(graph, tree)
        # A chain's MIS from node 0 takes every other node.
        cds = build_cds(graph, 0)
        assert cds.dominators == list(range(0, n, 2))

    def test_chain_depth_is_linear(self):
        tree = build_collection_tree(chain(21), 0)
        assert max(tree.depth) == 20


class TestStar:
    def test_star_from_center(self):
        graph = star(12)
        tree = build_collection_tree(graph, 0)
        assert_valid_tree(graph, tree)
        # Center dominates everything: no connectors, depth 1.
        assert max(tree.depth) == 1
        assert all(
            tree.roles[leaf] is NodeRole.DOMINATEE for leaf in range(1, 12)
        )

    def test_star_from_leaf(self):
        # Rooting at a leaf: the leaf dominates the center; other leaves
        # need the center as a connector.
        graph = star(8)
        # Relabel so the root (node 0) is a leaf: build star at node 3.
        relabeled = Graph(8)
        for leaf in [0, 1, 2, 4, 5, 6, 7]:
            relabeled.add_edge(3, leaf)
        tree = build_collection_tree(relabeled, 0)
        assert_valid_tree(relabeled, tree)
        assert tree.roles[3] is NodeRole.CONNECTOR
        assert max(tree.depth) == 2


class TestClique:
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_clique(self, n):
        graph = clique(n)
        tree = build_collection_tree(graph, 0)
        assert_valid_tree(graph, tree)
        # The root dominates everyone directly.
        assert max(tree.depth) == 1
        cds = build_cds(graph, 0)
        assert cds.dominators == [0]
        assert cds.connectors == []


class TestGrid:
    def test_grid_tree_valid_and_dominating(self):
        graph = grid(6, 7)
        tree = build_collection_tree(graph, 0)
        assert_valid_tree(graph, tree)
        cds = build_cds(graph, 0)
        backbone = set(cds.backbone)
        dominators = set(cds.dominators)
        for node in graph.nodes():
            assert node in backbone or any(
                neighbor in dominators for neighbor in graph.neighbors(node)
            )
        assert connected_subgraph_nodes(graph, sorted(backbone))

    def test_grid_mis_is_independent(self):
        graph = grid(5, 5)
        cds = build_cds(graph, 0)
        dominators = set(cds.dominators)
        for node in dominators:
            assert not any(
                neighbor in dominators for neighbor in graph.neighbors(node)
            )


class TestValidatorNegativeControl:
    def test_r_csma_produces_real_sir_violations(self, quick_topology, streams):
        """Negative control for the Lemma 3 check: with carrier sensing at
        r instead of the PCR, the validator must catch hidden-terminal SIR
        violations (otherwise the positive test proves nothing)."""
        from repro.core.pcr import PcrParameters, compute_pcr, db_to_linear
        from repro.routing.coolest import CoolestPolicy
        from repro.sim.engine import SlottedEngine
        from repro.spectrum.sensing import CarrierSenseMap
        from repro.spectrum.sir import SirValidator

        pcr = compute_pcr(
            PcrParameters(
                alpha=4.0,
                pu_power=10.0,
                su_power=10.0,
                pu_radius=10.0,
                su_radius=10.0,
                eta_p_db=8.0,
                eta_s_db=8.0,
            )
        )
        sense_map = CarrierSenseMap(
            quick_topology,
            pu_protection_range=pcr.pcr,
            su_csma_range=quick_topology.secondary.radius,
        )
        validator = SirValidator(
            alpha=4.0,
            eta_p=db_to_linear(8.0),
            eta_s=db_to_linear(8.0),
            pu_power=10.0,
            su_power=10.0,
        )
        positions = quick_topology.secondary.positions
        violations = [0]

        def hook(engine):
            links = [
                (positions[tx], positions[rx])
                for tx, rx in engine.last_slot_su_links
            ]
            if len(links) < 2:
                return
            report = validator.validate(pu_links=[], su_links=links)
            if not report.su_ok:
                violations[0] += 1

        policy = CoolestPolicy(quick_topology, 0.3, route_discovery=False)
        engine = SlottedEngine(
            topology=quick_topology,
            sense_map=sense_map,
            policy=policy,
            streams=streams.spawn("negative-control"),
            alpha=4.0,
            eta_s=db_to_linear(8.0),
            slot_hook=hook,
            max_slots=200_000,
        )
        engine.load_snapshot()
        result = engine.run()
        assert result.completed
        assert violations[0] > 0
        assert result.collisions > 0
