"""Tests for deployment regions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry.region import SquareRegion


class TestSquareRegion:
    def test_area(self):
        assert SquareRegion(side=250.0).area == 62500.0

    def test_from_area(self):
        region = SquareRegion.from_area(62500.0)
        assert math.isclose(region.side, 250.0)

    def test_center(self):
        assert np.allclose(SquareRegion(10.0).center, [5.0, 5.0])

    def test_sample_within_bounds(self):
        region = SquareRegion(50.0)
        points = region.sample(500, np.random.default_rng(1))
        assert points.shape == (500, 2)
        assert (points >= 0.0).all() and (points <= 50.0).all()

    def test_sample_zero(self):
        assert SquareRegion(1.0).sample(0, np.random.default_rng(0)).shape == (0, 2)

    def test_contains(self):
        region = SquareRegion(10.0)
        assert region.contains(np.array([0.0, 10.0]))
        assert not region.contains(np.array([10.1, 5.0]))

    @pytest.mark.parametrize("side", [0.0, -1.0])
    def test_invalid_side(self, side):
        with pytest.raises(GeometryError):
            SquareRegion(side)

    def test_invalid_area(self):
        with pytest.raises(GeometryError):
            SquareRegion.from_area(-4.0)

    def test_negative_count(self):
        with pytest.raises(GeometryError):
            SquareRegion(1.0).sample(-1, np.random.default_rng(0))


@settings(max_examples=25)
@given(st.floats(min_value=0.1, max_value=1e3), st.integers(0, 50))
def test_square_samples_always_inside(side, count):
    region = SquareRegion(side)
    points = region.sample(count, np.random.default_rng(0))
    for row in points:
        assert region.contains(row)
