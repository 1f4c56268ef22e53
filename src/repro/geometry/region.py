"""Deployment regions.

The paper deploys both networks i.i.d. uniformly in a square of area
``A = c0 * n`` (Section III).  :class:`SquareRegion` is the region used by
every experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError

__all__ = ["SquareRegion"]


@dataclass(frozen=True)
class SquareRegion:
    """An axis-aligned square ``[0, side] x [0, side]``.

    >>> region = SquareRegion(side=250.0)
    >>> region.area
    62500.0
    """

    side: float

    def __post_init__(self) -> None:
        if self.side <= 0:
            raise GeometryError(f"square side must be positive, got {self.side}")

    @property
    def area(self) -> float:
        """Region area ``A``."""
        return self.side * self.side

    @classmethod
    def from_area(cls, area: float) -> "SquareRegion":
        """Build the square with the given area (``A = 250 x 250`` etc.)."""
        if area <= 0:
            raise GeometryError(f"area must be positive, got {area}")
        return cls(side=math.sqrt(area))

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``count`` i.i.d. uniform points; shape ``(count, 2)``."""
        if count < 0:
            raise GeometryError(f"count must be non-negative, got {count}")
        return rng.uniform(0.0, self.side, size=(count, 2))

    def contains(self, point: np.ndarray) -> bool:
        """Whether a 2-D point lies in the region (boundary inclusive)."""
        x, y = float(point[0]), float(point[1])
        return 0.0 <= x <= self.side and 0.0 <= y <= self.side

    @property
    def center(self) -> np.ndarray:
        """Region center; the conventional base-station placement."""
        return np.array([self.side / 2.0, self.side / 2.0])
