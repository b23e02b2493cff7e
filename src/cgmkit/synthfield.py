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


@dataclass
class FieldSpec:
    """kind "bump" (single Gaussian bump at the barycenter) or "multibump"
    (six bumps offset along the axes by the per-axis rms spread). A scale
    of None uses the mean squared distance to the barycenter."""

    kind: str = "bump"
    scale: float = None

    def __post_init__(self):
        if self.kind not in ("bump", "multibump"):
            raise ConfigError(f"unknown field kind {self.kind!r}")
        if self.scale is not None and self.scale <= 0:
            raise ConfigError("field scale must be positive")


def snapshot_of(vertices, spec: FieldSpec) -> np.ndarray:
    """One field value per vertex of each cloud: (..., M, 3) -> (..., M).

    Both kinds are the mean of Gaussian bumps exp(-|v - center - o|^2 /
    scale) over their offsets o: the single zero offset for "bump", and
    -/+ the rms spread along each axis in turn for "multibump"."""
    v = np.asarray(vertices, dtype=np.float64)
    rel = v - v.mean(axis=-2, keepdims=True)
    if spec.scale is not None:
        scale = spec.scale
    else:
        msd = np.mean(np.sum(rel ** 2, axis=-1), axis=-1, keepdims=True)
        scale = np.maximum(msd, 1e-300)
    if spec.kind == "bump":
        offsets = [0.0]
    else:
        spread = np.sqrt(np.mean(rel ** 2, axis=-2, keepdims=True))
        offsets = [sign * spread * axis for axis in np.eye(3)
                   for sign in (-1.0, 1.0)]
    field = 0.0
    for offset in offsets:
        field = field + np.exp(-np.sum((rel - offset) ** 2, axis=-1) / scale)
    return field / len(offsets)
