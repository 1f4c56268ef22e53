"""Dijkstra shortest paths with node weights.

The Coolest baseline [17] scores a path by the spectrum temperatures of the
nodes it traverses, so the natural formulation is node-weighted shortest
paths: the cost of a path is the sum of the weights of its nodes (source
included, which only shifts all path costs by a constant).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.errors import GraphError
from repro.graphs.graph import Graph

__all__ = ["dijkstra_node_weighted", "extract_path"]

#: Parent sentinel for unreachable nodes.
NO_PARENT = -1


@obs.timed("graphs.dijkstra")
def dijkstra_node_weighted(
    graph: Graph, source: int, node_weights: Sequence[float]
) -> Tuple[List[float], List[int]]:
    """Single-source shortest paths where edges cost the *head* node's weight.

    The cost of path ``source -> v1 -> ... -> vk`` is
    ``w(source) + w(v1) + ... + w(vk)``.

    Returns
    -------
    (distances, parents):
        ``distances[v]`` is the minimum path cost (``inf`` if unreachable),
        ``parents[v]`` the predecessor on one optimal path.

    Raises
    ------
    GraphError
        On a bad source node or negative weights (Dijkstra requires
        non-negative costs; spectrum temperatures are non-negative by
        construction).
    """
    if not 0 <= source < graph.num_nodes:
        raise GraphError(f"source {source} outside graph of {graph.num_nodes} nodes")
    if len(node_weights) != graph.num_nodes:
        raise GraphError(
            f"expected {graph.num_nodes} node weights, got {len(node_weights)}"
        )
    if any(weight < 0 for weight in node_weights):
        raise GraphError("node weights must be non-negative")

    distances = [float("inf")] * graph.num_nodes
    parents = [NO_PARENT] * graph.num_nodes
    distances[source] = float(node_weights[source])
    parents[source] = source
    heap: List[Tuple[float, int]] = [(distances[source], source)]
    settled = [False] * graph.num_nodes

    while heap:
        dist, node = heapq.heappop(heap)
        if settled[node]:
            continue
        settled[node] = True
        for neighbor in graph.neighbors(node):
            candidate = dist + float(node_weights[neighbor])
            if candidate < distances[neighbor]:
                distances[neighbor] = candidate
                parents[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    return distances, parents


def extract_path(parents: Sequence[int], target: int) -> Optional[List[int]]:
    """Reconstruct the path from the Dijkstra source to ``target``.

    Returns ``None`` when ``target`` is unreachable; otherwise the node list
    starting at the source and ending at ``target``.
    """
    if parents[target] == NO_PARENT:
        return None
    path = [target]
    while parents[path[-1]] != path[-1]:
        path.append(parents[path[-1]])
        if len(path) > len(parents):
            raise GraphError("parent pointers contain a cycle")
    path.reverse()
    return path
