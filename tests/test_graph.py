"""Tests for the adjacency-list graph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graphs.graph import Graph


class TestBasics:
    def test_empty(self):
        graph = Graph(0)
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert graph.max_degree() == 0

    def test_add_edge_and_neighbors(self):
        graph = Graph(3)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        assert sorted(graph.neighbors(1)) == [0, 2]
        assert graph.degree(1) == 2
        assert graph.degree(0) == 1
        assert graph.num_edges == 2

    def test_has_edge(self):
        graph = Graph(2)
        graph.add_edge(0, 1)
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)

    def test_edges_iteration_unique(self):
        graph = Graph(3)
        graph.add_edge(0, 1)
        graph.add_edge(2, 1)
        assert sorted(graph.edges()) == [(0, 1), (1, 2)]

    def test_max_degree(self):
        graph = Graph(4)
        graph.add_edge(0, 1)
        graph.add_edge(0, 2)
        graph.add_edge(0, 3)
        assert graph.max_degree() == 3

    def test_repr(self):
        assert "num_nodes=2" in repr(Graph(2))


class TestErrors:
    def test_negative_nodes(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_self_loop(self):
        with pytest.raises(GraphError):
            Graph(2).add_edge(1, 1)

    def test_duplicate_edge(self):
        graph = Graph(2)
        graph.add_edge(0, 1)
        with pytest.raises(GraphError):
            graph.add_edge(1, 0)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2).add_edge(0, 5)
        with pytest.raises(GraphError):
            Graph(2).neighbors(-1)


class TestFromPositions:
    def test_matches_threshold(self):
        rng = np.random.default_rng(6)
        positions = rng.random((25, 2)) * 30.0
        radius = 8.0
        graph = Graph.from_positions(positions, radius)
        delta = positions[:, None, :] - positions[None, :, :]
        matrix = np.hypot(delta[..., 0], delta[..., 1])
        for u in range(25):
            for v in range(u + 1, 25):
                assert graph.has_edge(u, v) == (matrix[u, v] <= radius)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2**31 - 1))
    def test_adjacency_order_matches_one_query_per_point(self, count, seed):
        """Adjacency order feeds tree and route tie-breaks, so the batched
        build must insert edges exactly as a per-point loop over the
        scalar reference index does."""
        from repro.perf.reference import ScalarGridIndex

        rng = np.random.default_rng(seed)
        positions = rng.random((count, 2)) * 25.0
        radius = 6.0
        reference = Graph(count)
        index = ScalarGridIndex(positions, cell_size=radius)
        for u in range(count):
            for v in index.query_radius(positions[u], radius):
                if v > u:
                    reference.add_edge(u, v)
        graph = Graph.from_positions(positions, radius)
        assert [list(graph.neighbors(u)) for u in range(count)] == [
            list(reference.neighbors(u)) for u in range(count)
        ]

    def test_empty_positions(self):
        graph = Graph.from_positions(np.empty((0, 2)), 1.0)
        assert graph.num_nodes == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**31 - 1))
    def test_degrees_symmetric(self, count, seed):
        rng = np.random.default_rng(seed)
        positions = rng.random((count, 2)) * 20.0
        graph = Graph.from_positions(positions, 7.0)
        # Handshake lemma: degree sum equals twice the edge count.
        assert sum(graph.degree(v) for v in graph.nodes()) == 2 * graph.num_edges
