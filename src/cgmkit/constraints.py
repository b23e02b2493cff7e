"""The barycenter (linear) and volume (multilinear) constraints over point
clouds and deformation lattices, enforced exactly by closed-form
minimum-norm least squares.

Clouds are vectorized row-wise: vec(cloud) = (x1, y1, z1, x2, y2, z2, ...),
matching a C-order reshape of an (M, 3) array. The enclosed volume of a
closed triangulation is trilinear: linear-homogeneous in each coordinate
component with the other two fixed. With y and z frozen it is affine in x,
so volume is enforced exactly by one minimum-norm step on the x
coordinates. `project_volume`, the one implementation of that projection,
serves constrained FFD: `cffd_correct` corrects a stack of displacements
in one solve, and `sample_cffd_dataset` returns a stack (n, M, 3) on the
base faces; `achieved_value` and `constraint_residual` check one.

A constraint is one `Constraint(kind, target)` record, which a config, a
dataset manifest and a checkpoint build from the (constraint.kind,
constraint.target) pair they store and store as its two fields. How a kind
is measured is written once, in `achieved_value` and `constraint_residual`.
The barycenter's (3, 3M) rows are built by `barycenter_rows` only where
they are projected on clouds, in `cffd_correct`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateSurfaceError, DimensionError,
                     InfeasibleConstraintError)
from .geometry import (FfdLattice, TriSurface, barycenter_of, ffd_map,
                       require_closed, volume_of, volume_rows, volumes)
from .linalg import RANK_TOL, lstsq_min_norm
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


def barycenter_rows(n_points: int) -> np.ndarray:
    """The barycenter's rows A_c (3, 3M) on a vectorized cloud of M points:
    three rows of weight 1/M, one per coordinate component."""
    if n_points < 1:
        raise DimensionError("need at least one point")
    matrix = np.zeros((3, 3 * n_points))
    for c in range(3):
        matrix[c, c::3] = 1.0 / n_points
    return matrix


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


def project_volume(clouds, faces, constraint: Constraint, basis=None,
                   weights=None):
    """The volume projection's step p (B, F) for a (B, M, 3) batch of clouds
    on closed faces (the caller checks closedness): one step on the x
    coordinates. With y and z frozen the volume is affine in x with row r
    (`geometry.volume_rows`), and the current volume is V = r . x exactly,
    because the volume is linear-homogeneous in x. The deficit d = T - V is
    closed by the minimum-norm step: x moves by p = r s with
    s = d / (r . r), or with a basis (M, F) by basis @ p, p = (a / w^2) s
    with s = d / (a . a / w^2), a = r @ basis. An a that is zero up to
    RANK_TOL * |r| * |basis| cannot move the volume (its step would scale
    with 1 / roundoff) and raises InfeasibleConstraintError."""
    clouds = np.asarray(clouds, dtype=np.float64)
    rows = volume_rows(clouds, faces, 0)
    if not np.all(np.any(rows, axis=1)):
        raise DegenerateSurfaceError("all-zero volume row (degenerate surface)")
    current = np.vecdot(rows, clouds[:, :, 0])
    # per-cloud products (a stack of 1-row matmuls) keep each cloud's result
    # independent of the batch size
    a = rows if basis is None else (rows[:, None] @ basis)[:, 0]
    aw = a if weights is None else a / weights ** 2
    norm = np.vecdot(a, aw)
    if basis is not None and not np.all(
            np.linalg.norm(a, axis=1)
            > RANK_TOL * np.linalg.norm(basis) * np.linalg.norm(rows, axis=1)):
        raise InfeasibleConstraintError(
            "volume row of component x is zero on every free control point")
    scale = (constraint.target - current) / norm
    return aw * scale[:, None]


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

    The correction minimizes ||diag(weights) vec(delta_d)|| subject to the
    constraint composed with the Bernstein influence of the lattice over the
    full cloud (the given influence, else `lattice.influence(points)`). An
    infeasible linear system names the first failing sample."""
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
    delta = np.zeros((len(deformed), lattice.n_control, 3))

    if constraint.kind == "volume":
        if not np.allclose(lattice.a_phi, np.diag(np.diag(lattice.a_phi))):
            raise DimensionError(
                "component-wise volume enforcement needs an axis-aligned lattice")
        require_closed(surface.faces)
        # deformed x coordinates are affine in the x displacements of the
        # free control points: x += influence @ (a_xx * delta_x)
        p = project_volume(
            deformed, surface.faces, constraint, basis=influence,
            weights=None if weights is None else weights[free])
        delta[:, free, 0] += p / lattice.a_phi[0, 0]
        return delta.reshape(np.shape(displacement))

    matrix = barycenter_rows(len(points))
    # a stack of one-column products, so each sample's rhs is its own
    rhs = constraint.target - (
        matrix @ deformed.reshape(len(deformed), -1, 1))[..., 0]
    # composite matrix A_c B over the free control-point displacements:
    # point displacement l = sum_p w_lp a_phi(delta_p)
    a_rows = matrix.reshape(3, len(points), 3)
    # (F, M) @ (3, M, 3) @ (3, 3) -> (3, F, 3)
    composite = (influence.T @ a_rows) @ lattice.a_phi
    composite = composite.reshape(3, -1)
    w = None if weights is None else np.repeat(weights[free], 3)
    try:
        delta_free = lstsq_min_norm(composite, rhs, weights=w)
    except InfeasibleConstraintError as err:
        raise InfeasibleConstraintError(
            f"sample {err.index}: constrained FFD correction infeasible "
            f"({err})", index=err.index) from None
    delta[:, free] = delta_free.reshape(len(deformed), -1, 3)
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
