"""A minimal undirected graph with integer nodes ``0..n-1``.

The secondary network ``G_s = (V_s, E_s)`` (Section III) is a unit-disk
graph over SU positions; all the tree-construction algorithms only need
adjacency iteration, so this class keeps a plain list-of-lists structure.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = ["Graph"]


class Graph:
    """Undirected simple graph on nodes ``0..n-1``.

    Examples
    --------
    >>> g = Graph(3)
    >>> g.add_edge(0, 1)
    >>> g.add_edge(1, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.degree(1)
    2
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        self._adj: List[List[int]] = [[] for _ in range(num_nodes)]
        self._num_edges = 0

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._adj):
            raise GraphError(f"node {node} outside 0..{len(self._adj) - 1}")

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``{u, v}``; duplicate edges are rejected."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        if v in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) already present")
        self._adj[u].append(v)
        self._adj[v].append(u)
        self._num_edges += 1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def neighbors(self, node: int) -> Sequence[int]:
        """The adjacency list of ``node`` (do not mutate)."""
        self._check_node(node)
        return self._adj[node]

    def degree(self, node: int) -> int:
        """Number of neighbors of ``node``."""
        self._check_node(node)
        return len(self._adj[node])

    def max_degree(self) -> int:
        """Maximum degree over all nodes (0 for the empty graph)."""
        if not self._adj:
            return 0
        return max(len(neighbors) for neighbors in self._adj)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges once each, as ``(u, v)`` with ``u < v``."""
        for u, neighbors in enumerate(self._adj):
            for v in neighbors:
                if u < v:
                    yield (u, v)

    def nodes(self) -> Iterable[int]:
        """Iterate node ids ``0..n-1``."""
        return range(len(self._adj))

    @classmethod
    def from_positions(cls, positions: np.ndarray, radius: float) -> "Graph":
        """Unit-disk graph: edge iff Euclidean distance ``<= radius``.

        This is exactly how ``G_s`` is induced by the SU transmission radius
        ``r`` in the paper.  Uses a grid spatial index queried for every
        point in one batched pass, so construction is near-linear for
        bounded densities.
        """
        from repro.geometry.spatial_index import GridIndex

        positions = np.asarray(positions, dtype=float)
        graph = cls(positions.shape[0])
        if positions.shape[0] == 0:
            return graph
        index = GridIndex(positions, cell_size=max(radius, 1e-9))
        for u, neighbors in enumerate(index.query_radius_many(positions, radius)):
            for v in neighbors:
                if v > u:
                    graph.add_edge(u, v)
        return graph

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
