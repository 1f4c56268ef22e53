"""The CDS-based data-collection tree (Section IV-A, step three).

Every *dominatee* (a node outside ``D ∪ C``) picks an adjacent dominator as
its parent; dominators forward through their connector parent; connectors
forward through their dominator parent.  The result is a spanning tree of
``G_s`` rooted at the base station, the routing infrastructure of ADDC.

:func:`build_bfs_tree` builds a plain BFS shortest-path tree instead — the
routing-structure ablation (Ablation C in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List

from repro.errors import GraphError
from repro.graphs.bfs import bfs_parents
from repro.graphs.cds import CdsResult, build_cds
from repro.graphs.graph import Graph

__all__ = ["NodeRole", "CollectionTree", "build_collection_tree", "build_bfs_tree"]


class NodeRole(Enum):
    """Role of a node in the CDS-based collection tree."""

    DOMINATOR = "dominator"
    CONNECTOR = "connector"
    DOMINATEE = "dominatee"


@dataclass
class CollectionTree:
    """A rooted spanning tree used as the data-collection routing structure.

    Attributes
    ----------
    root:
        The base station node id.
    parent:
        ``parent[node]`` is the tree parent; the root maps to itself.
    roles:
        Role of each node (the BFS-tree ablation marks everything as a
        dominatee except the root).
    depth:
        Hop distance to the root along tree edges.
    """

    root: int
    parent: List[int]
    roles: List[NodeRole]
    depth: List[int]

    @property
    def num_nodes(self) -> int:
        """Number of nodes spanned by the tree."""
        return len(self.parent)

    def children(self) -> List[List[int]]:
        """Children lists, computed on demand.

        Detached nodes (``parent == -1``, possible during churn repairs)
        are skipped — a negative parent must never alias the last node.
        """
        kids: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for node, par in enumerate(self.parent):
            if node != self.root and par >= 0:
                kids[par].append(node)
        return kids

    def path_to_root(self, node: int) -> List[int]:
        """Nodes from ``node`` (inclusive) up to the root (inclusive)."""
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} outside tree with {self.num_nodes} nodes")
        path = [node]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
            if len(path) > self.num_nodes:
                raise GraphError("parent pointers contain a cycle")
        return path

    def max_degree(self) -> int:
        """Maximum tree degree Δ (children plus parent link), as in Lemma 6."""
        kids = self.children()
        degrees = []
        for node in range(self.num_nodes):
            degree = len(kids[node])
            if node != self.root:
                degree += 1
            degrees.append(degree)
        return max(degrees) if degrees else 0

    def root_degree(self) -> int:
        """Degree Δ_b of the base station in the tree (Theorem 2)."""
        return sum(1 for node, par in enumerate(self.parent)
                   if node != self.root and par == self.root)

    def subtree_sizes(self) -> List[int]:
        """Number of nodes in each node's subtree (itself included).

        Detached nodes (``parent == -1``) count only themselves.
        """
        order = sorted(range(self.num_nodes), key=lambda n: -self.depth[n])
        sizes = [1] * self.num_nodes
        for node in order:
            if node != self.root and self.parent[node] >= 0:
                sizes[self.parent[node]] += sizes[node]
        return sizes


def _depths_from_parents(root: int, parent: List[int]) -> List[int]:
    depth = [-1] * len(parent)
    depth[root] = 0
    for node in range(len(parent)):
        if depth[node] >= 0:
            continue
        chain = []
        cursor = node
        while depth[cursor] < 0:
            chain.append(cursor)
            cursor = parent[cursor]
            if len(chain) > len(parent):
                raise GraphError("parent pointers contain a cycle")
        base = depth[cursor]
        for offset, member in enumerate(reversed(chain), start=1):
            depth[member] = base + offset
    return depth


def build_collection_tree(graph: Graph, root: int) -> "CollectionTree":
    """Build the CDS-based collection tree of Section IV-A.

    Dominatee parents are the adjacent dominator with the smallest BFS
    layer (ties by id), which keeps dominatee traffic flowing toward the
    base station.
    """
    cds: CdsResult = build_cds(graph, root)
    dominator_set = set(cds.dominators)
    connector_set = set(cds.connectors)

    parent = [-1] * graph.num_nodes
    roles = [NodeRole.DOMINATEE] * graph.num_nodes
    parent[root] = root
    roles[root] = NodeRole.DOMINATOR

    for dominator, connector in cds.dominator_parent.items():
        parent[dominator] = connector
        roles[dominator] = NodeRole.DOMINATOR
    for connector, dominator in cds.connector_parent.items():
        parent[connector] = dominator
        roles[connector] = NodeRole.CONNECTOR

    for node in graph.nodes():
        if node == root or node in dominator_set or node in connector_set:
            continue
        adjacent_dominators = [
            nbr for nbr in graph.neighbors(node) if nbr in dominator_set
        ]
        if not adjacent_dominators:
            raise GraphError(f"node {node} is not dominated; MIS is not maximal")
        parent[node] = min(
            adjacent_dominators, key=lambda dom: (cds.layers[dom], dom)
        )

    depth = _depths_from_parents(root, parent)
    return CollectionTree(root=root, parent=parent, roles=roles, depth=depth)


def build_bfs_tree(graph: Graph, root: int) -> "CollectionTree":
    """Plain BFS shortest-path tree (routing-structure ablation).

    Every non-root node is treated as a dominatee for role-based logic; the
    tree has minimum hop depth but no bounded-degree backbone.
    """
    parent = bfs_parents(graph, root)
    if any(par == -1 for par in parent):
        raise GraphError("graph must be connected to build a spanning tree")
    roles = [NodeRole.DOMINATEE] * graph.num_nodes
    roles[root] = NodeRole.DOMINATOR
    depth = _depths_from_parents(root, parent)
    return CollectionTree(root=root, parent=parent, roles=roles, depth=depth)
