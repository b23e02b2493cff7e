"""Dense linear algebra: symmetric eigendecomposition and minimum-norm
least squares with optional diagonal weighting.

All floating point is 64-bit. Singular values below RANK_TOL times the
largest are treated as zero.
"""

import numpy as np

from .errors import DimensionError, InfeasibleConstraintError

RANK_TOL = 1e-12
FEASIBILITY_TOL = 1e-9


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix has non-finite entries")
    return a


def fix_eigvec_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's first largest-magnitude entry is >= 0."""
    v = vectors.copy()
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return v


def eigh_symmetric(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues descending, eigenvectors column-wise) with a
    deterministic sign convention on the eigenvectors.
    """
    m = _as_matrix(m)
    n, p = m.shape
    if n != p:
        raise DimensionError(f"matrix must be square, got {n}x{p}")
    scale = np.linalg.norm(m)
    asym = np.linalg.norm(m - m.T)
    if asym > 1e-10 * max(scale, 1.0):
        raise DimensionError(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    sym = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(sym)
    order = np.argsort(w)[::-1]
    return w[order], fix_eigvec_signs(v[:, order])


def lstsq_min_norm(a, b, weights=None) -> np.ndarray:
    """Solve a @ x = b minimizing ||diag(weights) @ x||_2, for b (rows,) or
    each b of a stack (n, rows), bitwise as if alone.

    Unweighted this is x = a^T (a a^T)^-1 b, computed through one SVD with
    relative rank cutoff. An inconsistent system (residual beyond
    FEASIBILITY_TOL * (1 + ||b||)) raises InfeasibleConstraintError naming
    the first failing right-hand side (`index`).
    """
    a = _as_matrix(a)
    b = np.asarray(b, dtype=np.float64)
    n, p = a.shape
    if b.ndim not in (1, 2) or b.shape[-1] != n:
        raise DimensionError(f"rhs shape {b.shape} is not ({n},) or (k, {n})")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if weights.shape[0] != p:
            raise DimensionError(f"weight length {weights.shape[0]} != col count {p}")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise DimensionError("weights must be strictly positive and finite")
        # substitution y = diag(w) x turns the problem into an unweighted
        # min-norm solve on a @ diag(w)^-1
        y = lstsq_min_norm(a / weights[None, :], b)
        return y / weights

    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        x = np.zeros(b.shape[:-1] + (p,))
    else:
        keep = s > RANK_TOL * s[0]
        coef = np.zeros(b.shape[:-1] + s.shape)
        coef[..., keep] = (u.T @ b[..., None])[..., keep, 0] / s[keep]
        x = (vt.T @ coef[..., None])[..., 0]
    residual = np.linalg.norm((a @ x[..., None])[..., 0] - b, axis=-1)
    failing = residual > FEASIBILITY_TOL * (1.0 + np.linalg.norm(b, axis=-1))
    if np.any(failing):
        i = int(np.argmax(failing))
        raise InfeasibleConstraintError(
            f"right-hand side {i}: system inconsistent: residual "
            f"{residual.flat[i]:.3e}", index=i)
    return x
