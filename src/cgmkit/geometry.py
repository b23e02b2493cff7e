"""Triangulated surfaces, Bernstein deformation lattices and discrete
geometric quantities (volume, barycenter, surface area, inertia)."""

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import (DimensionError, EmptyInputError, LatticeError,
                     OrientationError)


@dataclass
class TriSurface:
    """Vertices (M, 3) and CCW-oriented faces (T, 3). Outward orientation
    gives positive enclosed volume."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.faces.size and self.faces.max() >= len(self.vertices):
            raise DimensionError("face index out of range")
        if self.faces.size and (self.faces.min() < 0):
            raise DimensionError("negative face index")
        if np.any(self.faces == np.roll(self.faces, 1, axis=1)):
            raise DimensionError("face with repeated vertex indices")

    @property
    def n_vertices(self):
        return len(self.vertices)


def is_closed(faces) -> bool:
    """True when every undirected edge of the connectivity (F, 3) is shared
    by exactly two faces with opposite direction: no directed edge a -> b
    occurs twice, and the reverse of each one occurs too."""
    n = int(faces.max()) + 1 if faces.size else 0
    a = faces.reshape(-1)
    b = faces[:, [1, 2, 0]].reshape(-1)
    # directed edge a -> b encoded as a * n + b
    forward = np.sort(a * n + b)
    if np.any(forward[1:] == forward[:-1]):
        return False
    # with no duplicates, every reverse edge is present exactly when the
    # reversed codes are the same set
    return bool(np.array_equal(forward, np.sort(b * n + a)))


def require_closed(faces):
    if not is_closed(faces):
        raise OrientationError("surface is open or inconsistently oriented")


def barycenter_of(cloud) -> np.ndarray:
    """Mean point of each cloud in a (..., M, 3) stack, (..., 3)."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[-2] == 0:
        raise EmptyInputError("barycenter of an empty cloud")
    return cloud.mean(axis=-2)


# the batched volume formulas gather 72 bytes of corners per face and cloud;
# taking the clouds a block at a time keeps those temporaries near 256 KB,
# so a large batch (100 sampled shapes) does not raise the peak memory
_BLOCK_BYTES = 1 << 18


def _block_size(n_faces):
    return max(1, _BLOCK_BYTES // (72 * max(n_faces, 1)))


def _blocks(n_clouds, n_faces):
    size = _block_size(n_faces)
    return [slice(start, start + size) for start in range(0, n_clouds, size)]


def _cross(a, b) -> np.ndarray:
    """a x b over the last axis, numpy's own formula (so bitwise equal to
    np.cross) without its per-call axis handling."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def volumes(vertices, faces) -> np.ndarray:
    """Signed enclosed volume of each cloud in a (B, M, 3) batch sharing the
    faces, (1/6) sum of v_a . (v_b x v_c) over faces; no closedness check.
    This triple-product kernel stays beside the projection's r . x because it
    is the independent check that the residual postconditions and `validate`
    use."""
    out = np.empty(len(vertices))
    for block in _blocks(len(vertices), len(faces)):
        tri = vertices[block][:, faces]
        out[block] = np.einsum("bij,bij->b", tri[:, :, 0],
                               _cross(tri[:, :, 1], tri[:, :, 2])) / 6.0
    return out


def volume_rows(vertices, faces, c) -> np.ndarray:
    """Component c of the analytic volume gradient of each cloud in a (B, M, 3)
    batch sharing the faces, (B, M): for a face (i, j, k) the corner terms
    (v_j x v_k)[c] / 6 and cyclic, summed per vertex by one `np.bincount`
    per block of clouds in input order (corner outer, face inner), bitwise
    as np.add.at sums them."""
    n, m = vertices.shape[:2]
    rows = np.empty((n, m))
    first, second = vertices[..., (c + 1) % 3], vertices[..., (c + 2) % 3]
    corners = np.ascontiguousarray(faces.T)
    index = np.arange(_block_size(len(faces)))[:, None, None] * m + corners
    for block in _blocks(n, len(faces)):
        a, b = first[block][:, corners], second[block][:, corners]
        terms = np.empty(a.shape)
        for k in range(3):
            k1, k2 = (k + 1) % 3, (k + 2) % 3
            terms[:, k] = (a[:, k1] * b[:, k2] - b[:, k1] * a[:, k2]) / 6.0
        size = len(terms)
        rows[block] = np.bincount(index[:size].ravel(), terms.ravel(),
                                  minlength=size * m).reshape(size, m)
    return rows


def volume_polynomial(mean, modes, faces) -> np.ndarray:
    """The volume of the clouds mean + modes @ w (mean (3M,), modes (3M, K),
    vectorized row-wise) as one symmetric tensor S (K+1, K+1, K+1) with
    V(w) = S[h, h, h], h = (1, w): with the mean and the modes as fields
    P_i, S symmetrizes the sum over faces (a, b, c) of P_i[a] . (P_j[b] x
    P_k[c]) / 6, taken a block of faces at a time within the block budget."""
    fields = np.column_stack([mean, modes]).reshape(-1, 3, modes.shape[1] + 1)
    n = fields.shape[2]
    # component k of b x c is b_{k+1} c_{k+2} - b_{k+2} c_{k+1}: one
    # (n, 2) @ (2, n) product per face and component
    left = np.stack([fields[:, [1, 2, 0]], -fields[:, [2, 0, 1]]], axis=-1)
    right = np.stack([fields[:, [2, 0, 1]], fields[:, [1, 2, 0]]], axis=-2)
    tensor = np.zeros((n, n * n))
    size = max(1, _BLOCK_BYTES // (24 * n * n))
    for start in range(0, len(faces), size):
        a, b, c = faces[start:start + size].T
        cross = (left[b] @ right[c]).reshape(-1, n * n)
        tensor += fields[a].transpose(2, 0, 1).reshape(n, -1) @ cross
    tensor = tensor.reshape(n, n, n)
    return sum(tensor.transpose(p) for p in permutations(range(3))) / 36.0


def volume_of(surface: TriSurface) -> float:
    """Signed enclosed volume of one surface, checked closed."""
    require_closed(surface.faces)
    return float(volumes(surface.vertices[None], surface.faces)[0])


def surface_area_of(vertices, faces) -> np.ndarray:
    """Surface area of each cloud in a (..., M, 3) stack sharing the faces,
    shape (...); the clouds are taken a block at a time like `volumes`."""
    vertices = np.asarray(vertices, dtype=np.float64)
    stack = vertices.reshape(-1, *vertices.shape[-2:])
    out = np.empty(len(stack))
    for block in _blocks(len(stack), len(faces)):
        tri = stack[block][:, faces]
        cross = _cross(tri[:, :, 1] - tri[:, :, 0], tri[:, :, 2] - tri[:, :, 0])
        out[block] = 0.5 * np.linalg.norm(cross, axis=-1).sum(axis=-1)
    return out.reshape(vertices.shape[:-2])


def inertia_tensor_of(cloud, center) -> np.ndarray:
    """Discrete second moments with unit mass per point, relative to center,
    of each cloud in a (..., M, 3) stack: shape (..., 3, 3).

    Diagonal entries are sums of squared distances from the axes, the
    off-diagonal entries are the plain coordinate products sum(x*y) etc.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[-2] == 0:
        raise EmptyInputError("inertia of an empty cloud")
    r = cloud - np.asarray(center, dtype=np.float64)[..., None, :]
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    xy, xz, yz = (np.sum(x * y, axis=-1), np.sum(x * z, axis=-1),
                  np.sum(y * z, axis=-1))
    return np.stack([
        np.stack([np.sum(y * y + z * z, axis=-1), xy, xz], axis=-1),
        np.stack([xy, np.sum(x * x + z * z, axis=-1), yz], axis=-1),
        np.stack([xz, yz, np.sum(x * x + y * y, axis=-1)], axis=-1),
    ], axis=-2)


# ---------------------------------------------------------------------------
# Bernstein basis and deformation lattices

def bernstein_eval(degree: int, index: int, t):
    """b_s^k(t) = C(k,s) t^s (1-t)^(k-s) on [0, 1]."""
    if not 0 <= index <= degree:
        raise IndexError(f"basis index {index} outside 0..{degree}")
    t = np.asarray(t, dtype=np.float64)
    coeff = math.comb(degree, index)
    value = coeff * t ** index * (1.0 - t) ** (degree - index)
    return float(value) if value.ndim == 0 else value


def bernstein_basis(degree: int, t) -> np.ndarray:
    """All basis values at once: shape t.shape + (degree + 1,)."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty(t.shape + (degree + 1,))
    for s in range(degree + 1):
        out[..., s] = math.comb(degree, s) * t ** s * (1.0 - t) ** (degree - s)
    return out


@dataclass
class FfdLattice:
    """Control-point grid on the unit cube, placed in space by the affine
    map u -> a_phi @ u + b_phi. Grid sizes (m, n, o) give control points at
    (i/m, j/n, k/o) for i in 0..m etc.; Bernstein degrees equal the grid
    sizes."""

    grid: tuple
    a_phi: np.ndarray = field(default_factory=lambda: np.eye(3))
    b_phi: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.grid = tuple(int(g) for g in self.grid)
        if len(self.grid) != 3 or any(g < 1 for g in self.grid):
            raise LatticeError(f"grid sizes must be three counts >= 1, got {self.grid}")
        self.a_phi = np.asarray(self.a_phi, dtype=np.float64).reshape(3, 3)
        self.b_phi = np.asarray(self.b_phi, dtype=np.float64).reshape(3)
        det = np.linalg.det(self.a_phi)
        if not np.isfinite(det) or abs(det) < 1e-14:
            raise LatticeError("placement map a_phi is singular")
        self._a_inv = np.linalg.inv(self.a_phi)

    @classmethod
    def from_box(cls, grid, lower, upper) -> "FfdLattice":
        """Axis-aligned box from corner `lower` to corner `upper`."""
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        return cls(grid, np.diag(upper - lower), lower)

    @property
    def n_control(self) -> int:
        m, n, o = self.grid
        return (m + 1) * (n + 1) * (o + 1)

    def control_points_local(self) -> np.ndarray:
        """(n_control, 3) lattice coordinates, index (i*(n+1)+j)*(o+1)+k."""
        m, n, o = self.grid
        i, j, k = np.meshgrid(np.arange(m + 1), np.arange(n + 1),
                              np.arange(o + 1), indexing="ij")
        pts = np.stack([i / m, j / n, k / o], axis=-1)
        return pts.reshape(-1, 3)

    def to_local(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        return (points - self.b_phi) @ self._a_inv.T

    def contains(self, points) -> np.ndarray:
        """Boolean mask of points inside the closed deformation box."""
        local = self.to_local(points)
        return np.all((local >= 0.0) & (local <= 1.0), axis=1)

    def influence(self, points) -> np.ndarray:
        """(N, n_control) tensor-product Bernstein weights at each point's
        lattice coordinates; zero rows for points outside the box."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        local = self.to_local(points)
        inside = np.all((local >= 0.0) & (local <= 1.0), axis=1)
        m, n, o = self.grid
        weights = np.zeros((len(points), self.n_control))
        if inside.any():
            loc = local[inside]
            bu = bernstein_basis(m, loc[:, 0])
            bv = bernstein_basis(n, loc[:, 1])
            bw = bernstein_basis(o, loc[:, 2])
            w = np.einsum("pi,pj,pk->pijk", bu, bv, bw)
            weights[inside] = w.reshape(inside.sum(), -1)
        return weights


def ffd_map(lattice: FfdLattice, displacement, points, influence=None):
    """Deform points through the lattice by a displacement or a stack of
    them (..., P, 3), each cloud bitwise as if alone.

    Each in-box point Q moves to Q + sum_ijk B_ijk(phi^-1(Q)) a_phi(dP_ijk);
    out-of-box points pass through unchanged. Returns (deformed, inside_mask).
    A given influence is the caller's `lattice.influence(points)`.
    """
    dp = np.asarray(displacement, dtype=np.float64)
    if dp.shape[-2:] != (lattice.n_control, 3):
        raise DimensionError(
            f"displacement shape {dp.shape} != (..., {lattice.n_control}, 3)")
    if not np.all(np.isfinite(dp)):
        raise DimensionError("displacement has non-finite entries")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    inside = lattice.contains(points)
    out = np.broadcast_to(points, dp.shape[:-2] + points.shape).copy()
    if inside.any():
        weights = (lattice.influence(points[inside]) if influence is None
                   else influence[inside])
        out[..., inside, :] += weights @ (dp @ lattice.a_phi.T)
    return out, inside


# ---------------------------------------------------------------------------
# Synthetic shapes

SHAPE_KINDS = ("icosphere", "ellipsoid")
_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0

_ICO_VERTICES = np.array([
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
], dtype=np.float64)

_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


def reindex_first_use(surface: TriSurface) -> TriSurface:
    """Renumber vertices in order of first appearance in the face list.

    Gives a canonical indexing so that the per-facet STL representation
    round-trips to the exact same TriSurface. Unreferenced vertices are
    dropped."""
    order = []
    seen = {}
    for idx in surface.faces.reshape(-1):
        idx = int(idx)
        if idx not in seen:
            seen[idx] = len(order)
            order.append(idx)
    remap = np.empty(surface.n_vertices, dtype=np.int64)
    remap[order] = np.arange(len(order))
    return TriSurface(surface.vertices[order], remap[surface.faces])


def synth_shape(kind: str, subdivision: int, radii=(1.0, 1.0, 1.0)) -> TriSurface:
    """Closed, outward-oriented stand-in asset.

    kind "icosphere" or "ellipsoid"; subdivision s <= 6 gives 10*4^s + 2
    vertices. The ellipsoid is the unit icosphere scaled by radii."""
    if kind not in SHAPE_KINDS:
        raise DimensionError(f"unknown shape kind {kind!r}")
    if not 0 <= subdivision <= 6:
        raise DimensionError("subdivision must lie in 0..6")
    radii = np.asarray(radii, dtype=np.float64).reshape(3)
    vertices = list(_ICO_VERTICES / np.linalg.norm(_ICO_VERTICES[0]))
    faces = [tuple(f) for f in _ICO_FACES]
    for _ in range(subdivision):
        midpoint = {}

        def mid(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                p = vertices[a] + vertices[b]
                vertices.append(p / np.linalg.norm(p))
                midpoint[key] = len(vertices) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    surface = TriSurface(np.asarray(vertices) * radii, np.asarray(faces))
    return reindex_first_use(surface)
