"""Tests for Euclidean distance helpers."""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.geometry.distance import (
    distances_from,
    euclidean,
    pairwise_distances,
    within_radius_mask,
)

coordinate = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
point = st.tuples(coordinate, coordinate)


class TestEuclidean:
    def test_known_value(self):
        assert euclidean((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_zero_distance(self):
        assert euclidean((1.5, -2.0), (1.5, -2.0)) == 0.0

    @given(point, point)
    def test_symmetry(self, a, b):
        assert euclidean(a, b) == euclidean(b, a)

    @given(point, point)
    def test_non_negative(self, a, b):
        assert euclidean(a, b) >= 0.0

    @given(point, point, point)
    def test_triangle_inequality(self, a, b, c):
        assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-6


class TestDistancesFrom:
    def test_matches_scalar_function(self):
        positions = np.array([[0.0, 0.0], [1.0, 1.0], [-3.0, 4.0]])
        result = distances_from((1.0, 0.0), positions)
        expected = [euclidean((1.0, 0.0), p) for p in positions]
        assert np.allclose(result, expected)

    def test_empty_positions(self):
        assert distances_from((0.0, 0.0), np.empty((0, 2))).shape == (0,)


class TestPairwiseDistances:
    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        positions = rng.random((10, 2)) * 100
        matrix = pairwise_distances(positions)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_matches_scalar(self):
        positions = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert pairwise_distances(positions)[0, 1] == 5.0


class TestWithinRadiusMask:
    def test_inclusive_boundary(self):
        positions = np.array([[3.0, 4.0], [6.0, 8.0]])
        mask = within_radius_mask((0.0, 0.0), positions, 5.0)
        assert mask.tolist() == [True, False]

    def test_zero_radius_only_self(self):
        positions = np.array([[0.0, 0.0], [0.1, 0.0]])
        mask = within_radius_mask((0.0, 0.0), positions, 0.0)
        assert mask.tolist() == [True, False]
