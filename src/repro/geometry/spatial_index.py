"""Uniform-grid spatial index for fixed point sets, CSR-style storage.

The simulator repeatedly asks "which SUs lie within the PCR of this
transmitter".  Positions never move after deployment, so the index sorts
the points once by packed cell key and answers every query with two
binary searches per covered cell column — O(points-in-range) with numpy
constants and no per-point Python loop.

Storage layout (built once in ``__init__``):

* each point's cell ``(cx, cy)`` is packed into one ``uint64`` key that
  is monotone in ``(cx, cy)`` lexicographic order;
* a stable argsort of the keys gives ``_order`` (point indices grouped by
  cell, ascending index within a cell) and ``_sorted_keys`` alongside it.

Because the key order is ``(cx, cy)``-lexicographic, all cells of one
``cx`` column with ``cy`` in ``[lo, hi]`` form a *contiguous* key range:
a query over a ``(2r+1)^2`` cell window needs only ``2r+1`` searchsorted
pairs, and results come out in exactly the historical scan order (cells
by ascending ``(cx, cy)``, insertion order within a cell) — pinned by the
golden-regression tests.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

import repro.obs as obs
from repro.errors import GeometryError

__all__ = ["GridIndex"]

#: Cell coordinates must fit the packed key: |cell| < 2**31.
_COORD_LIMIT = 2 ** 31

_EMPTY = np.zeros(0, dtype=np.int64)


class GridIndex:
    """Spatial hash over a static ``(n, 2)`` position array.

    Parameters
    ----------
    positions:
        Array of shape ``(n, 2)``; kept by reference and assumed immutable.
        Must be finite (NaN/inf positions would bucket silently wrong).
    cell_size:
        Edge length of the square grid cells.  Choose it close to the most
        common query radius; correctness does not depend on the choice.

    Examples
    --------
    >>> import numpy as np
    >>> index = GridIndex(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]]), 2.0)
    >>> index.query_radius_many([[0.0, 0.0]], 1.5)
    [[0, 1]]
    """

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
        if positions.shape[0] == 0:
            self._order = _EMPTY
            self._sorted_keys = np.zeros(0, dtype=np.uint64)
            self._min_cx = self._max_cx = 0
            self._min_cy = self._max_cy = -1  # empty y-range: no candidates
            return
        if not np.isfinite(positions).all():
            raise GeometryError("positions must be finite")
        cells = np.floor(positions / self._cell_size)
        if np.abs(cells).max() >= _COORD_LIMIT:
            raise GeometryError(
                f"cell coordinates exceed the packed-key range (|cell| < "
                f"{_COORD_LIMIT}); use a larger cell_size"
            )
        cells = cells.astype(np.int64)
        keys = self._pack(cells[:, 0], cells[:, 1])
        # Stable sort: within one cell, points keep ascending index order
        # (the historical per-bucket insertion order).
        self._order = np.argsort(keys, kind="stable").astype(np.int64)
        self._sorted_keys = keys[self._order]
        self._min_cx = int(cells[:, 0].min())
        self._max_cx = int(cells[:, 0].max())
        self._min_cy = int(cells[:, 1].min())
        self._max_cy = int(cells[:, 1].max())

    @staticmethod
    def _pack(cx, cy) -> np.ndarray:
        """Pack cell coordinates into ``(cx, cy)``-lexicographic uint64 keys."""
        cx = np.asarray(cx, dtype=np.int64) + _COORD_LIMIT
        cy = np.asarray(cy, dtype=np.int64) + _COORD_LIMIT
        return (cx.astype(np.uint64) << np.uint64(32)) | cy.astype(np.uint64)

    def __len__(self) -> int:
        return self._positions.shape[0]

    def _check_radius(self, radius: float) -> None:
        if radius < 0:
            raise GeometryError(f"radius must be non-negative, got {radius}")
        if not math.isfinite(radius):
            raise GeometryError(f"radius must be finite, got {radius}")

    def query_radius_many(
        self, points, radius: float, exclude=None
    ) -> List[List[int]]:
        """Indices within ``radius`` (inclusive) of each row of ``points``.

        One vectorized pass answers all ``m`` queries of an ``(m, 2)``
        query array: per-query candidate slices are located with two
        ``searchsorted`` calls per covered cell column, flattened,
        distance-filtered elementwise, and split back into per-query
        lists.  Each row lists its points by ascending ``(cx, cy)`` cell,
        insertion order within a cell.  Raises
        :class:`~repro.errors.GeometryError` on a non-finite query point or
        radius (NaN would otherwise bucket silently wrong).

        ``exclude`` (optional) is one index per query row to omit from that
        row's result — :meth:`neighbor_lists` passes ``arange(n)`` to drop
        each point from its own neighbourhood.
        """
        self._check_radius(radius)
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GeometryError(
                f"query points must have shape (m, 2), got {pts.shape}"
            )
        m = pts.shape[0]
        if m == 0:
            return []
        obs.counter_add("spatial.queries", m)
        if not np.isfinite(pts).all():
            raise GeometryError("query points must be finite")
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=np.int64)
            if exclude.shape != (m,):
                raise GeometryError(
                    f"exclude must have shape ({m},), got {exclude.shape}"
                )
        if self._order.size == 0:
            return [[] for _ in range(m)]

        cell = self._cell_size
        reach = int(math.ceil(radius / cell))
        # Clip the float cell coordinates into a window just past the
        # indexed extent before the int64 cast: distant (but finite)
        # queries stay representable and resolve to empty ranges below.
        fx = np.clip(
            np.floor(pts[:, 0] / cell),
            self._min_cx - reach - 1.0,
            self._max_cx + reach + 1.0,
        )
        fy = np.clip(
            np.floor(pts[:, 1] / cell),
            self._min_cy - reach - 1.0,
            self._max_cy + reach + 1.0,
        )
        ccx = fx.astype(np.int64)
        ccy = fy.astype(np.int64)
        x_lo = np.maximum(ccx - reach, self._min_cx)
        x_hi = np.minimum(ccx + reach, self._max_cx)
        y_lo = np.maximum(ccy - reach, self._min_cy)
        y_hi = np.minimum(ccy + reach, self._max_cy)
        row_valid = (x_lo <= x_hi) & (y_lo <= y_hi)

        # (m, 2*reach+1) grid of candidate cell columns, row-major so the
        # flattened order is query-major with cx ascending — the scan order
        # of the scalar reference (repro.perf.reference.ScalarGridIndex).
        noff = 2 * reach + 1
        cx = ccx[:, None] + np.arange(-reach, reach + 1)[None, :]
        valid = row_valid[:, None] & (cx >= x_lo[:, None]) & (cx <= x_hi[:, None])
        safe_cx = np.where(valid, cx, 0)
        base = (safe_cx + _COORD_LIMIT).astype(np.uint64) << np.uint64(32)
        ylo_k = np.where(valid, (y_lo + _COORD_LIMIT)[:, None], 0).astype(np.uint64)
        yhi_k = np.where(valid, (y_hi + _COORD_LIMIT)[:, None], 0).astype(np.uint64)
        keys = self._sorted_keys
        los = np.searchsorted(keys, (base | ylo_k).ravel(), side="left")
        his = np.searchsorted(keys, (base | yhi_k).ravel(), side="right")
        his = np.where(valid.ravel(), his, los)

        lens = his - los
        total = int(lens.sum())
        if total == 0:
            return [[] for _ in range(m)]
        # Expand every [lo, hi) slice of the CSR order array in one shot.
        starts = np.repeat(los, lens)
        offsets = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        cand = self._order[starts + offsets]
        rows = np.repeat(np.arange(m).repeat(noff), lens)

        dx = self._positions[cand, 0] - pts[rows, 0]
        dy = self._positions[cand, 1] - pts[rows, 1]
        keep = dx * dx + dy * dy <= radius * radius
        if exclude is not None:
            keep &= cand != exclude[rows]
        found = cand[keep]
        found_rows = rows[keep]
        counts = np.bincount(found_rows, minlength=m)
        return [
            segment.tolist()
            for segment in np.split(found, np.cumsum(counts[:-1]))
        ]

    def neighbor_lists(self, radius: float) -> List[List[int]]:
        """For every indexed point, the indices within ``radius`` of it.

        The point itself is excluded from its own list.  This is how the
        simulator precomputes PU-to-SU incidence and SU adjacency.
        """
        with obs.span("spatial.neighbor_lists"):
            return self.query_radius_many(
                self._positions, radius, exclude=np.arange(len(self))
            )

    def cross_neighbor_lists(
        self, other_positions: np.ndarray, radius: float
    ) -> List[List[int]]:
        """For every row of ``other_positions``, indexed points within ``radius``.

        Used to map each PU to the set of SUs inside its interference reach
        (and vice versa) without an ``(n, N)`` distance matrix.
        """
        other_positions = np.asarray(other_positions, dtype=float)
        with obs.span("spatial.cross_neighbor_lists"):
            return self.query_radius_many(other_positions, radius)
