"""The barycenter (linear) and volume (multilinear) constraints over point
clouds and deformation lattices, enforced exactly by closed-form
minimum-norm least squares.

Clouds are vectorized row-wise: vec(cloud) = (x1, y1, z1, x2, y2, z2, ...),
matching a C-order reshape of an (M, 3) array. The enclosed volume of a
closed triangulation is trilinear: linear-homogeneous in each coordinate
component with the other two fixed. With y and z frozen it is affine in x,
so each kind is exact along one row over the vertices, and constrained FFD
takes one weighted minimum-norm step along it: `cffd_correct` corrects a
stack of displacements in closed form, on any lattice placement, and
`sample_cffd_dataset` returns a stack (n, M, 3) on the base faces;
`achieved_value` and `constraint_residual` check one. The tests check the
barycenter step against the composite system's `linalg.lstsq_min_norm`.

A constraint is one `Constraint(kind, target)` record, which a config, a
dataset manifest and a checkpoint build from the (constraint.kind,
constraint.target) pair they store and store as its two fields. How a kind
is measured is written once, in `achieved_value` and `constraint_residual`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateSurfaceError, DimensionError,
                     InfeasibleConstraintError)
from .geometry import (FfdLattice, TriSurface, barycenter_of, ffd_map,
                       require_closed, volume_of, volume_rows, volumes)
from .linalg import RANK_TOL
from .rng import Rng

_COMPONENTS = {"x": 0, "y": 1, "z": 2}
RESIDUAL_BOUND = 1e-9  # the largest `constraint_residual` a held constraint has
TARGET_LENGTHS = {"barycenter": 3, "volume": 1}  # the kinds a record can name


@dataclass
class Constraint:
    """A constraint kind and its target, a float64 vector of
    `TARGET_LENGTHS[kind]` values: the barycenter (3,) or the enclosed
    volume (1,). An unknown kind, a target of another length or a volume
    target not positive and finite raises ConfigError naming the key."""

    kind: str
    target: np.ndarray

    def __post_init__(self):
        if self.kind not in TARGET_LENGTHS:
            raise ConfigError(
                f"'constraint.kind' names unknown kind {self.kind!r}")
        self.target = np.asarray(self.target, dtype=np.float64).reshape(-1)
        if len(self.target) != TARGET_LENGTHS[self.kind]:
            raise ConfigError(
                f"'constraint.target' of a {self.kind} constraint holds "
                f"{len(self.target)} values, needs {TARGET_LENGTHS[self.kind]}")
        if self.kind == "volume" and not 0.0 < self.target[0] < np.inf:
            raise ConfigError(
                f"'constraint.target' of a volume constraint must be positive "
                f"and finite, got {self.target[0]}")


def volume_gradient(surface: TriSurface) -> np.ndarray:
    """Analytic d(volume)/d(vertex coordinates) of one surface, (M, 3): the
    three `volume_rows` stacked."""
    return np.stack([volume_rows(surface.vertices[None], surface.faces, c)[0]
                     for c in range(3)], axis=-1)


def volume_constraint_row(surface: TriSurface, component: str):
    """(row, offset) with volume == row . (component coordinates) + offset.

    The offset vanishes in exact arithmetic (volume is linear-homogeneous
    per component); it is computed numerically so the identity holds to
    roundoff."""
    c = _COMPONENTS[component]
    row = volume_rows(surface.vertices[None], surface.faces, c)[0]
    if not np.any(row):
        raise DegenerateSurfaceError("all-zero volume row (degenerate surface)")
    offset = volume_of(surface) - row @ surface.vertices[:, c]
    return row, offset


def achieved_value(kind, vertices, faces) -> np.ndarray:
    """The quantity of the kind for each cloud of an (n, M, 3) stack sharing
    the faces, (n, k): the volume (k = 1, on closed faces) or the barycenter
    (k = 3); each cloud's value is the one it has alone."""
    if kind == "volume":
        require_closed(faces)
        return volumes(vertices, faces)[:, None]
    return barycenter_of(vertices)


def constraint_residual(constraint, achieved) -> np.ndarray:
    """Residual of each row of achieved values (n, k) (`achieved_value`),
    (n,): the relative error of the volume or the max absolute error of the
    barycenter."""
    error = np.abs(achieved - constraint.target)
    if constraint.kind == "volume":
        return error[:, 0] / max(abs(constraint.target[0]), 1e-300)
    return np.max(error, axis=1)


# ---------------------------------------------------------------------------
# Constrained FFD

def _pinned_mask(lattice: FfdLattice, weights):
    """Weights of 0 or +inf mark pinned control points (excluded from the
    solve, exactly zero correction). Remaining weights multiply the
    correction norm."""
    if weights is None:
        return np.zeros(lattice.n_control, dtype=bool), None
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if weights.shape[0] != lattice.n_control:
        raise DimensionError(
            f"weight length {weights.shape[0]} != control count {lattice.n_control}")
    if np.any(weights < 0) or np.any(np.isnan(weights)):
        raise DimensionError("weights must be nonnegative")
    pinned = (weights == 0.0) | np.isinf(weights)
    return pinned, weights


def cffd_correct(lattice: FfdLattice, displacement, surface: TriSurface,
                 constraint, weights=None, influence=None) -> np.ndarray:
    """Closed-form correction delta_d of the control-point displacements
    (P, 3), or of each of a stack (..., P, 3), so the constraint holds
    exactly on the deformed cloud; each is bitwise the one it gets alone.

    Each kind is exact along one row r over the vertices: the barycenter's
    1/M, per component, or the volume's x row (`geometry.volume_rows`) with
    y and z frozen, as the volume is then r . x. With a = r @ B on the free
    control points (B the Bernstein influence: the given one, else
    `lattice.influence(points)`) and the deficit d as a vertex-space vector
    (target - barycenter, or (T - r . x) e_x), the correction of least
    ||diag(weights) delta_d|| is delta_d = (a / w^2) (a_phi^-1 d)^T /
    (a . a / w^2), for any placement a_phi: the cloud moves by u d^T with
    r . u = 1. A row a that is zero up to RANK_TOL * |r| * |B| moves
    nothing, and a sample whose deficit it so leaves beyond RESIDUAL_BOUND
    raises InfeasibleConstraintError naming the sample and the component."""
    points = surface.vertices
    if influence is None:
        influence = lattice.influence(points)
    deformed, _ = ffd_map(lattice, displacement, points, influence)
    deformed = deformed.reshape(-1, len(points), 3)
    pinned, weights = _pinned_mask(lattice, weights)
    free = ~pinned
    if not free.any():
        raise InfeasibleConstraintError("all control points pinned")

    influence = influence[:, free]  # (M, F)
    if constraint.kind == "volume":
        require_closed(surface.faces)
        rows = volume_rows(deformed, surface.faces, 0)
        if not np.all(np.any(rows, axis=1)):
            raise DegenerateSurfaceError(
                "all-zero volume row (degenerate surface)")
        current = np.vecdot(rows, deformed[:, :, 0])[:, None]
        deficit = np.zeros((len(deformed), 3))
        deficit[:, 0] = constraint.target[0] - current[:, 0]
    else:
        rows = np.full((1, len(points)), 1.0 / len(points))
        current = barycenter_of(deformed)
        deficit = constraint.target - current
    # per-sample one-row products keep each sample's result its own
    a = (rows[:, None] @ influence)[:, 0]
    aw = a if weights is None else a / weights[free] ** 2
    moves = (np.linalg.norm(a, axis=1) > RANK_TOL * np.linalg.norm(influence)
             * np.linalg.norm(rows, axis=1))
    stuck = ~moves & ~(constraint_residual(constraint, current)
                       <= RESIDUAL_BOUND)
    if stuck.any():
        i = int(np.argmax(stuck))
        component = "xyz"[int(np.argmax(np.abs(deficit[i])))]
        raise InfeasibleConstraintError(
            f"sample {i}: constrained FFD correction infeasible: the "
            f"{constraint.kind} row of component {component} is zero on "
            f"every free control point", index=i)
    step = np.linalg.solve(lattice.a_phi, deficit[..., None])[..., 0]
    step = np.divide(step, np.vecdot(a, aw)[:, None],
                     out=np.zeros_like(step), where=moves[:, None])
    delta = np.zeros((len(deformed), lattice.n_control, 3))
    delta[:, free] = aw[:, :, None] * step[:, None, :]
    return delta.reshape(np.shape(displacement))


def sample_cffd_dataset(lattice: FfdLattice, surface: TriSurface, constraint,
                        n: int, sigma_d: float, rng: Rng, weights=None):
    """n constrained free-form deformations of the base surface: the vertex
    stack (n, M, 3) on its faces and the displacements (n, P, 3).

    Free-control-point displacements are drawn N(0, sigma_d^2) from a
    per-sample derived stream, then corrected and mapped as one stack; each
    sample is bitwise the one it gives alone, whatever n is."""
    if n < 1:
        raise DimensionError("need n >= 1 samples")
    if sigma_d < 0:
        raise DimensionError("sigma_d must be nonnegative")
    pinned, _ = _pinned_mask(lattice, weights)
    dp = np.stack([sigma_d * rng.derive("cffd-sample", i).normal(
        (lattice.n_control, 3)) for i in range(n)])
    dp[:, pinned] = 0.0
    influence = lattice.influence(surface.vertices)
    total = dp + cffd_correct(lattice, dp, surface, constraint, weights=weights,
                              influence=influence)
    return ffd_map(lattice, total, surface.vertices, influence)[0], total
