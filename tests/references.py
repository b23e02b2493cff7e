"""Reference constructions the tests check the package against."""

import numpy as np

from cgmkit.errors import DimensionError


def barycenter_rows(n_points: int) -> np.ndarray:
    """The barycenter's rows A_c (3, 3M) on a vectorized cloud of M points:
    three rows of weight 1/M, one per coordinate component."""
    if n_points < 1:
        raise DimensionError("need at least one point")
    matrix = np.zeros((3, 3 * n_points))
    for c in range(3):
        matrix[c, c::3] = 1.0 / n_points
    return matrix
