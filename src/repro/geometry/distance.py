"""The Euclidean distance ``D(., .)`` between two 2-D points.

``D(.,.)`` in the paper is the plain Euclidean metric (Section III), so no
wrap-around/toroidal variant is provided.  Range queries over position
arrays go through :class:`repro.geometry.spatial_index.GridIndex`.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = ["euclidean"]

ArrayLike = Union[Sequence[float], np.ndarray]


def euclidean(a: ArrayLike, b: ArrayLike) -> float:
    """Distance ``D(a, b)`` between two 2-D points.

    >>> euclidean((0.0, 0.0), (3.0, 4.0))
    5.0
    """
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    return float(np.hypot(ax - bx, ay - by))
