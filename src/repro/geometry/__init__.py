"""Geometric substrate: points, distances, regions, and a spatial index.

The simulator stores node positions as an ``(n, 2)`` ``float64`` array and
answers "who is within radius R of node i" queries through
:class:`repro.geometry.spatial_index.GridIndex`, a uniform-grid spatial hash
with brute-force-verified semantics.
"""

from repro.geometry.distance import euclidean
from repro.geometry.region import SquareRegion
from repro.geometry.spatial_index import GridIndex

__all__ = [
    "euclidean",
    "SquareRegion",
    "GridIndex",
]
