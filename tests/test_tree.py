"""Tests for the CDS-based collection tree and the BFS-tree ablation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graphs.bfs import bfs_layers
from repro.graphs.graph import Graph
from repro.graphs.tree import NodeRole, build_bfs_tree, build_collection_tree

from tests.test_cds import random_udg


class TestCollectionTree:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**31 - 1))
    def test_spanning_tree_reaches_root(self, num_nodes, seed):
        graph = random_udg(num_nodes, seed)
        tree = build_collection_tree(graph, 0)
        assert tree.parent[0] == 0
        for node in range(num_nodes):
            path = tree.path_to_root(node)
            assert path[0] == node and path[-1] == 0

    def test_tree_edges_exist_in_graph(self):
        graph = random_udg(30, 11)
        tree = build_collection_tree(graph, 0)
        for node in range(1, graph.num_nodes):
            assert graph.has_edge(node, tree.parent[node])

    def test_role_alternation_on_backbone(self):
        graph = random_udg(40, 12)
        tree = build_collection_tree(graph, 0)
        for node in range(1, graph.num_nodes):
            parent = tree.parent[node]
            if tree.roles[node] is NodeRole.CONNECTOR:
                assert tree.roles[parent] is NodeRole.DOMINATOR
            if tree.roles[node] is NodeRole.DOMINATOR:
                assert tree.roles[parent] is NodeRole.CONNECTOR
            if tree.roles[node] is NodeRole.DOMINATEE:
                assert tree.roles[parent] is NodeRole.DOMINATOR

    def test_depth_consistent_with_parents(self):
        graph = random_udg(30, 13)
        tree = build_collection_tree(graph, 0)
        for node in range(1, graph.num_nodes):
            assert tree.depth[node] == tree.depth[tree.parent[node]] + 1

    def test_children_inverse_of_parent(self):
        graph = random_udg(25, 14)
        tree = build_collection_tree(graph, 0)
        children = tree.children()
        for node, kids in enumerate(children):
            for kid in kids:
                assert tree.parent[kid] == node

    def test_subtree_sizes(self):
        graph = random_udg(25, 15)
        tree = build_collection_tree(graph, 0)
        sizes = tree.subtree_sizes()
        assert sizes[0] == graph.num_nodes
        # Each node's size is 1 plus its children's sizes.
        children = tree.children()
        for node in range(graph.num_nodes):
            assert sizes[node] == 1 + sum(sizes[kid] for kid in children[node])

    def test_root_degree_counts_children(self):
        graph = random_udg(25, 16)
        tree = build_collection_tree(graph, 0)
        assert tree.root_degree() == len(tree.children()[0])

    def test_max_degree_at_least_root_degree(self):
        graph = random_udg(25, 17)
        tree = build_collection_tree(graph, 0)
        assert tree.max_degree() >= tree.root_degree()

    def test_path_to_root_bad_node(self):
        graph = random_udg(10, 18)
        tree = build_collection_tree(graph, 0)
        with pytest.raises(GraphError):
            tree.path_to_root(99)


class TestBfsTree:
    def test_depth_equals_bfs_layers(self):
        graph = random_udg(30, 19)
        tree = build_bfs_tree(graph, 0)
        assert tree.depth == bfs_layers(graph, 0)

    def test_bfs_tree_never_deeper_than_cds_tree(self):
        graph = random_udg(40, 20)
        bfs = build_bfs_tree(graph, 0)
        cds = build_collection_tree(graph, 0)
        assert max(bfs.depth) <= max(cds.depth)

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            build_bfs_tree(Graph(2), 0)
