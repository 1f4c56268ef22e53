"""Tests for Euclidean distance helpers."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.geometry.distance import euclidean

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
