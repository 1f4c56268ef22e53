"""The original scalar ``GridIndex``, kept as an executable specification.

This is the dict-of-buckets spatial index the repository shipped before
the CSR-style vectorized rewrite of :class:`repro.geometry.GridIndex`.
It stays here — un-instrumented and deliberately boring — so that the
randomized property tests (``tests/test_perf.py::TestGridIndexProperty``)
can check the vectorized index against an independent implementation.

Do not "optimize" this module; its value is being obviously correct.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import GeometryError

__all__ = ["ScalarGridIndex"]


class ScalarGridIndex:
    """Spatial hash over a static ``(n, 2)`` position array (scalar)."""

    def __init__(self, positions: np.ndarray, cell_size: float) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise GeometryError(
                f"positions must have shape (n, 2), got {positions.shape}"
            )
        if cell_size <= 0:
            raise GeometryError(f"cell_size must be positive, got {cell_size}")
        self._positions = positions
        self._cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        for idx in range(positions.shape[0]):
            self._cells.setdefault(self._cell_of(positions[idx]), []).append(idx)

    def __len__(self) -> int:
        return self._positions.shape[0]

    def _cell_of(self, point: np.ndarray) -> Tuple[int, int]:
        return (
            int(math.floor(float(point[0]) / self._cell_size)),
            int(math.floor(float(point[1]) / self._cell_size)),
        )

    def query_radius(self, point, radius: float) -> List[int]:
        """Indices of all points within ``radius`` of ``point`` (inclusive)."""
        if radius < 0:
            raise GeometryError(f"radius must be non-negative, got {radius}")
        px, py = float(point[0]), float(point[1])
        reach = int(math.ceil(radius / self._cell_size))
        center_cx = int(math.floor(px / self._cell_size))
        center_cy = int(math.floor(py / self._cell_size))
        radius_sq = radius * radius
        positions = self._positions
        found: List[int] = []
        for cx in range(center_cx - reach, center_cx + reach + 1):
            for cy in range(center_cy - reach, center_cy + reach + 1):
                bucket = self._cells.get((cx, cy))
                if not bucket:
                    continue
                for idx in bucket:
                    dx = positions[idx, 0] - px
                    dy = positions[idx, 1] - py
                    if dx * dx + dy * dy <= radius_sq:
                        found.append(idx)
        return found

    def query_radius_excluding(
        self, point, radius: float, exclude: int
    ) -> List[int]:
        """Like :meth:`query_radius` but omitting one index (typically self)."""
        return [idx for idx in self.query_radius(point, radius) if idx != exclude]

    def neighbor_lists(self, radius: float) -> List[List[int]]:
        """For every indexed point, the indices within ``radius`` of it."""
        return [
            self.query_radius_excluding(self._positions[idx], radius, idx)
            for idx in range(len(self))
        ]

    def cross_neighbor_lists(
        self, other_positions: np.ndarray, radius: float
    ) -> List[List[int]]:
        """For every row of ``other_positions``, indexed points in range."""
        other_positions = np.asarray(other_positions, dtype=float)
        return [
            self.query_radius(other_positions[idx], radius)
            for idx in range(other_positions.shape[0])
        ]
