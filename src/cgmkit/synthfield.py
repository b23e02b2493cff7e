"""Analytic parametric scalar fields over point clouds.

Stands in for expensive physics solves when exercising the surrogate
pipeline: each field is a deterministic, smooth function of the geometry
through its barycenter and second moments, so snapshot families over a
smooth shape family have rapidly decaying singular values. `snapshot_of`
evaluates a whole batch of clouds at once, each cloud exactly as if it were
evaluated alone."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

FIELD_KINDS = ("bump", "multibump")


@dataclass
class FieldSpec:
    """kind "bump" (single Gaussian bump at the barycenter) or "multibump"
    (six bumps offset along the axes by the per-axis rms spread). The bump
    scale is the cloud's mean squared distance to its barycenter."""

    kind: str = "bump"

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ConfigError(f"unknown field kind {self.kind!r}")


def _bumps(vertices, spec: FieldSpec):
    """(rel, scale, spread, offsets) of a batch (..., M, 3): the vertices
    relative to their barycenter, the bump scale (..., 1) from the mean
    squared distance, the per-axis rms spread (..., 1, 3) or None for
    "bump", and the bump offsets as (sign, axis, offset) triples (axis None
    for the single zero offset)."""
    v = np.asarray(vertices, dtype=np.float64)
    rel = v - v.mean(axis=-2, keepdims=True)
    msd = np.mean(np.sum(rel ** 2, axis=-1), axis=-1, keepdims=True)
    scale = np.maximum(msd, 1e-300)
    if spec.kind == "bump":
        return rel, scale, None, [(0.0, None, 0.0)]
    spread = np.sqrt(np.mean(rel ** 2, axis=-2, keepdims=True))
    offsets = [(sign, j, sign * spread * axis)
               for j, axis in enumerate(np.eye(3)) for sign in (-1.0, 1.0)]
    return rel, scale, spread, offsets


def snapshot_of(vertices, spec: FieldSpec) -> np.ndarray:
    """One field value per vertex of each cloud: (..., M, 3) -> (..., M).

    Both kinds are the mean of Gaussian bumps exp(-|v - center - o|^2 /
    scale) over their offsets o: the single zero offset for "bump", and
    -/+ the rms spread along each axis in turn for "multibump"."""
    rel, scale, _, offsets = _bumps(vertices, spec)
    field = 0.0
    for _, _, offset in offsets:
        field = field + np.exp(-np.sum((rel - offset) ** 2, axis=-1) / scale)
    return field / len(offsets)


def snapshot_mean_gradient(vertices, spec: FieldSpec) -> np.ndarray:
    """Gradient of each cloud's mean field value, snapshot_of(...).mean(-1),
    with respect to its vertices: (..., M, 3) -> (..., M, 3).

    Analytic: each bump term exp(-q / scale), q = |rel - o|^2, contributes
    directly through rel, through the scale taken from the mean squared
    distance and, for "multibump", through the spread that places its
    offset; the gradient with respect to rel then loses its per-cloud mean,
    since rel is the cloud minus its barycenter."""
    rel, scale, spread, offsets = _bumps(vertices, spec)
    m = rel.shape[-2]
    weight = 1.0 / (m * len(offsets))  # d(mean value)/d(each bump term)
    grad = np.zeros(rel.shape)
    d_scale = 0.0
    d_spread = np.zeros(rel.shape[:-2] + (1, 3))
    for sign, j, offset in offsets:
        slope = rel - offset
        q = np.vecdot(slope, slope)
        term = weight * np.exp(-q / scale)
        slope *= (-2.0 / scale * term)[..., None]  # d term / d rel
        grad += slope
        d_scale = d_scale + np.sum(term * q, axis=-1,
                                   keepdims=True) / scale ** 2
        if j is not None:
            # the offset is sign * spread_j along axis j, and d term / d o
            # is minus d term / d rel
            d_spread[..., 0, j] -= sign * np.sum(slope[..., j], axis=-1)
    grad += rel * ((2.0 / m) * d_scale[..., None])
    if spread is not None:
        grad += rel * (d_spread / (m * spread))
    grad -= grad.mean(axis=-2, keepdims=True)
    return grad
