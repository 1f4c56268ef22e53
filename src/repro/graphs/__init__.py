"""Graph substrate: adjacency-list graphs and the CDS tree construction.

Implements, from scratch, every graph algorithm the paper relies on:

* breadth-first search layering rooted at the base station,
* maximal independent set selection in BFS rank order (the *dominators*),
* connector selection gluing the MIS into a connected dominating set
  (Wan et al. [25], the construction behind Lemma 1),
* the CDS-based data-collection tree used by ADDC, and
* Dijkstra shortest paths with node weights (for the Coolest baseline).
"""

from repro.graphs.graph import Graph
from repro.graphs.bfs import bfs_layers, bfs_order, bfs_parents
from repro.graphs.connectivity import is_connected, connected_component
from repro.graphs.mis import maximal_independent_set
from repro.graphs.cds import CdsResult, build_cds
from repro.graphs.tree import CollectionTree, build_collection_tree, build_bfs_tree
from repro.graphs.dijkstra import dijkstra_node_weighted, extract_path
from repro.graphs.repair import attach_node, detach_node, refresh_depths

__all__ = [
    "Graph",
    "bfs_layers",
    "bfs_order",
    "bfs_parents",
    "is_connected",
    "connected_component",
    "maximal_independent_set",
    "CdsResult",
    "build_cds",
    "CollectionTree",
    "build_collection_tree",
    "build_bfs_tree",
    "dijkstra_node_weighted",
    "extract_path",
    "attach_node",
    "detach_node",
    "refresh_depths",
]
