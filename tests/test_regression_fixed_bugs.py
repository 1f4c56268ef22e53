"""Regression tests for bugs found during development.

Each test pins a specific defect that once existed, with the scenario that
exposed it; see the docstrings for the failure mode.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.repair import detach_node, orphaned_subtree
from repro.graphs.tree import build_collection_tree

from tests.test_cds import random_udg


class TestDetachedParentAliasing:
    """``children()`` once treated ``parent == -1`` as index -1, making the
    last node appear to parent every detached node — including itself,
    which sent ``orphaned_subtree`` into an unbounded walk (OOM)."""

    def test_children_skip_detached_nodes(self):
        graph = random_udg(12, 3)
        tree = build_collection_tree(graph, 0)
        last = tree.num_nodes - 1
        victim = 5 if last != 5 else 6
        tree.parent[victim] = -1
        kids = tree.children()
        assert victim not in kids[last]
        assert all(victim not in bucket for bucket in kids)

    def test_orphaned_subtree_terminates_with_detached_last_node(self):
        graph = random_udg(12, 4)
        tree = build_collection_tree(graph, 0)
        last = tree.num_nodes - 1
        tree.parent[last] = -1
        # Before the fix this looped forever whenever `last` was detached
        # (it became its own phantom child).
        orphans = orphaned_subtree(tree, last)
        assert last not in orphans

    def test_subtree_sizes_ignore_detached(self):
        graph = random_udg(12, 5)
        tree = build_collection_tree(graph, 0)
        victim = next(
            node for node in range(1, tree.num_nodes)
            if not tree.children()[node]
        )
        before = tree.subtree_sizes()[tree.root]
        tree.parent[victim] = -1
        after = tree.subtree_sizes()[tree.root]
        assert after == before - 1


class TestRepairNeverAdoptsDetachedBackbone:
    """``detach_node`` once re-parented children onto backbone nodes that
    were themselves detached (their roles still said dominator/connector),
    silently wiring traffic into a dead branch."""

    def test_reparenting_avoids_detached_candidates(self):
        rng = np.random.default_rng(9)
        for seed in range(6):
            graph = random_udg(30, 100 + seed)
            tree = build_collection_tree(graph, 0)
            # Detach a couple of backbone nodes first.
            from repro.graphs.tree import NodeRole

            backbone = [
                node
                for node in range(1, 30)
                if tree.roles[node] is not NodeRole.DOMINATEE
            ]
            downed = set()
            for node in backbone[:2]:
                for child in detach_node(tree, graph, node):
                    for orphan in [child, *orphaned_subtree(tree, child)]:
                        tree.parent[orphan] = -1
                        downed.add(orphan)
                downed.add(node)
            # Now detach more nodes; no survivor may point at a downed node.
            survivors = [
                node
                for node in range(1, 30)
                if node not in downed and tree.parent[node] != -1
            ]
            if len(survivors) > 3:
                extra = int(rng.choice(survivors))
                for child in detach_node(tree, graph, extra):
                    for orphan in [child, *orphaned_subtree(tree, child)]:
                        tree.parent[orphan] = -1
                        downed.add(orphan)
                downed.add(extra)
            for node in range(1, 30):
                if node in downed or tree.parent[node] == -1:
                    continue
                assert tree.parent[node] not in downed
