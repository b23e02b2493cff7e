"""Dense linear algebra, each kernel once: symmetric eigendecomposition,
the weighted minimum-norm gain of every linear projection (cFFD and the
linear enforcing layer) and Cholesky with escalating jitter (GPR and the
latent sampler). All floating point is 64-bit. Singular values at or below
RANK_TOL times the largest are treated as zero.
"""

import numpy as np

from .errors import (ConditioningError, DimensionError,
                     InfeasibleConstraintError)

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


def min_norm_gain(a, weights=None) -> tuple[np.ndarray, int]:
    """(gain G, rank kept) of a @ x = b minimizing ||diag(weights) @ x||_2:
    x = G b. One SVD of a @ diag(weights)^-1, as y = diag(w) x makes the
    problem unweighted; a zero matrix has rank 0 and gain 0."""
    a = _as_matrix(a)
    p = a.shape[1]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if weights.shape[0] != p:
            raise DimensionError(f"weight length {weights.shape[0]} != col count {p}")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise DimensionError("weights must be strictly positive and finite")
        a = a / weights[None, :]
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > RANK_TOL * s.max(initial=0.0)
    gain = (vt[keep].T / s[keep]) @ u[:, keep].T
    if weights is not None:
        gain = gain / weights[:, None]
    return gain, int(np.count_nonzero(keep))


def lstsq_min_norm(a, b, weights=None) -> np.ndarray:
    """Solve a @ x = b minimizing ||diag(weights) @ x||_2, for b (rows,) or
    each b of a stack (n, rows), bitwise as if alone: x = G b with the gain
    of `min_norm_gain`. An inconsistent system (residual beyond
    FEASIBILITY_TOL * (1 + ||b||)) raises InfeasibleConstraintError naming
    the first failing right-hand side (`index`).
    """
    a = _as_matrix(a)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    if b.ndim not in (1, 2) or b.shape[-1] != n:
        raise DimensionError(f"rhs shape {b.shape} is not ({n},) or (k, {n})")
    x = (min_norm_gain(a, weights)[0] @ b[..., None])[..., 0]
    residual = np.linalg.norm((a @ x[..., None])[..., 0] - b, axis=-1)
    failing = residual > FEASIBILITY_TOL * (1.0 + np.linalg.norm(b, axis=-1))
    if np.any(failing):
        i = int(np.argmax(failing))
        raise InfeasibleConstraintError(
            f"right-hand side {i}: system inconsistent: residual "
            f"{residual.flat[i]:.3e}", index=i)
    return x


def jittered_cholesky(k) -> tuple[np.ndarray, float]:
    """(lower Cholesky factor of k + j I, jitter j) for the first j of
    1e-12, 1e-11, ..., 1e-4 times mean(diag k) (1 when that is 0) that
    factors; ConditioningError when none does."""
    # the 1e-12 floor keeps GPR training-site interpolation below 1e-6 even
    # for crowded one-dimensional site sets
    jitter = 1e-12
    scale = float(np.mean(np.diag(k))) or 1.0
    while jitter <= 1e-4:
        try:
            return (np.linalg.cholesky(k + jitter * scale * np.eye(len(k))),
                    jitter * scale)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise ConditioningError(
        "matrix not positive definite at jitter 1e-4 x mean diagonal")
