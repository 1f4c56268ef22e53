"""Tests for the uniform-grid spatial index (brute-force verified)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry.spatial_index import GridIndex


def brute_force(positions: np.ndarray, point, radius: float):
    delta = np.asarray(positions, dtype=float) - np.asarray(point, dtype=float)
    distances = np.hypot(delta[:, 0], delta[:, 1])
    return set(np.nonzero(distances <= radius)[0].tolist())


def query(index: GridIndex, point, radius: float, exclude=None):
    """One row of the batched query, the product's only query path."""
    excludes = None if exclude is None else [exclude]
    return index.query_radius_many([point], radius, exclude=excludes)[0]


class TestQueryRadius:
    def test_simple(self):
        index = GridIndex(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]]), 2.0)
        assert sorted(query(index, (0.0, 0.0), 1.5)) == [0, 1]

    def test_inclusive_boundary(self):
        index = GridIndex(np.array([[3.0, 4.0]]), 1.0)
        assert query(index, (0.0, 0.0), 5.0) == [0]

    def test_zero_radius(self):
        index = GridIndex(np.array([[1.0, 1.0], [1.0, 1.0001]]), 0.5)
        assert query(index, (1.0, 1.0), 0.0) == [0]

    def test_negative_radius_rejected(self):
        index = GridIndex(np.array([[0.0, 0.0]]), 1.0)
        with pytest.raises(GeometryError):
            query(index, (0.0, 0.0), -1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 60),
        st.floats(min_value=0.1, max_value=30.0),
        st.floats(min_value=0.2, max_value=15.0),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_brute_force(self, count, radius, cell, seed):
        rng = np.random.default_rng(seed)
        positions = rng.random((count, 2)) * 50.0
        index = GridIndex(positions, cell)
        point = rng.random(2) * 50.0
        assert set(query(index, point, radius)) == brute_force(
            positions, point, radius
        )


class TestConstruction:
    def test_bad_shape(self):
        with pytest.raises(GeometryError):
            GridIndex(np.zeros((3, 3)), 1.0)

    def test_bad_cell_size(self):
        with pytest.raises(GeometryError):
            GridIndex(np.zeros((3, 2)), 0.0)

    def test_len(self):
        assert len(GridIndex(np.zeros((4, 2)), 1.0)) == 4

    def test_empty(self):
        index = GridIndex(np.empty((0, 2)), 1.0)
        assert query(index, (0.0, 0.0), 10.0) == []


class TestNeighborLists:
    def test_excludes_self(self):
        positions = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 10.0]])
        lists = GridIndex(positions, 1.0).neighbor_lists(1.0)
        assert lists[0] == [1]
        assert lists[1] == [0]
        assert lists[2] == []

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        positions = rng.random((40, 2)) * 20.0
        lists = GridIndex(positions, 3.0).neighbor_lists(5.0)
        for u, neighbors in enumerate(lists):
            for v in neighbors:
                assert u in lists[v]

    def test_query_radius_excluding(self):
        positions = np.array([[0.0, 0.0], [0.5, 0.0]])
        index = GridIndex(positions, 1.0)
        assert query(index, (0.0, 0.0), 1.0, exclude=0) == [1]


class TestCrossNeighborLists:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        indexed = rng.random((30, 2)) * 20.0
        others = rng.random((10, 2)) * 20.0
        lists = GridIndex(indexed, 4.0).cross_neighbor_lists(others, 6.0)
        for row, found in zip(others, lists):
            assert set(found) == brute_force(indexed, row, 6.0)
