"""Orthogonal mode bases, RBF interpolation and mesh morphing, Gaussian
process regression, POD-with-interpolation surrogates and the active
subspaces method with bootstrap bands. Each fitted surrogate (RBF
interpolant, GPR model, network regressor, PODI model, AS response surface)
is a function: `model(x)` returns its outputs at the inputs x."""

from dataclasses import dataclass

import numpy as np

from .checkpoint import load_tensors, save_tensors
from .errors import (ConfigError, ContainerError, DegenerateSitesError,
                     DimensionError)
from .linalg import eigh_symmetric, fix_eigvec_signs, jittered_cholesky
from .nn import AdamW, mlp_stack
from .rng import Rng


@dataclass
class PcaBasis:
    """Mean-centered principal modes, columns ordered by descending
    singular value."""

    modes: np.ndarray          # (D, r)
    mean: np.ndarray           # (D,)
    singular_values: np.ndarray
    reconstruction_error: float

    def project(self, x) -> np.ndarray:
        return (np.atleast_2d(x) - self.mean) @ self.modes

    def reconstruct(self, coeffs) -> np.ndarray:
        return np.atleast_2d(coeffs) @ self.modes.T + self.mean


def pca_fit(snapshots, n_modes) -> PcaBasis:
    """The leading n_modes principal modes, with the Frobenius
    reconstruction error ||(I - U U^T)(X - mean)||_F they leave."""
    x = np.asarray(snapshots, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ConfigError("need an (n >= 2, D) snapshot matrix")
    mean = x.mean(axis=0)
    centered = x - mean
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    tail = np.sqrt(np.maximum(np.cumsum(s[::-1] ** 2)[::-1], 0.0))
    tail = np.append(tail, 0.0)  # tail[r] = error with r modes
    r = int(n_modes)
    if r < 1 or r > s.size:
        raise ConfigError(f"n_modes must lie in 1..{s.size}")
    modes = fix_eigvec_signs(vt[:r].T)
    return PcaBasis(modes=modes, mean=mean, singular_values=s,
                    reconstruction_error=float(tail[r]))


# ---------------------------------------------------------------------------
# Radial basis function interpolation

@dataclass
class RbfInterpolant:
    """s(x) = q(x) + sum_i beta_i ||x - x_i|| (the linear kernel) with a
    degree-1 polynomial tail q and side conditions sum_i beta_i q(x_i) = 0."""

    points: np.ndarray   # (N, d)
    beta: np.ndarray     # (N, out)
    poly: np.ndarray     # (d + 1, out), constant row first

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        phi = np.linalg.norm(x[:, None, :] - self.points[None, :, :], axis=2)
        ones = np.ones((len(x), 1))
        return phi @ self.beta + np.hstack([ones, x]) @ self.poly


def rbf_fit(x, y) -> RbfInterpolant:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    n, d = x.shape
    if n < d + 1:
        raise DegenerateSitesError(f"need at least d + 1 = {d + 1} sites, got {n}")
    phi = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    p = np.hstack([np.ones((n, 1)), x])
    system = np.block([[phi, p], [p.T, np.zeros((d + 1, d + 1))]])
    rhs = np.vstack([y, np.zeros((d + 1, y.shape[1]))])
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as err:
        raise DegenerateSitesError(f"singular interpolation system: {err}") from None
    if not np.all(np.isfinite(sol)):
        raise DegenerateSitesError("interpolation system produced non-finite weights")
    model = RbfInterpolant(points=x, beta=sol[:n], poly=sol[n:])
    side = p.T @ model.beta
    if np.max(np.abs(side)) > 1e-9 * max(1.0, np.abs(model.beta).max()):
        raise DegenerateSitesError("side conditions violated; sites degenerate")
    return model


def morph_mesh(reference_cloud, deformed_cloud, fixed_points,
               mesh_vertices) -> np.ndarray:
    """Deform mesh vertices through an RBF map fitted from the reference
    cloud (plus fixed points) to the deformed cloud (plus the same fixed
    points, which therefore map to themselves)."""
    reference_cloud = np.atleast_2d(np.asarray(reference_cloud, dtype=np.float64))
    deformed_cloud = np.atleast_2d(np.asarray(deformed_cloud, dtype=np.float64))
    if reference_cloud.shape != deformed_cloud.shape:
        raise DimensionError("reference and deformed clouds differ in shape")
    fixed_points = np.asarray(fixed_points, dtype=np.float64).reshape(-1, 3)
    sources = np.vstack([reference_cloud, fixed_points])
    targets = np.vstack([deformed_cloud, fixed_points])
    interp = rbf_fit(sources, targets)
    return interp(np.atleast_2d(mesh_vertices))


# ---------------------------------------------------------------------------
# Gaussian process regression (squared-exponential kernel)

@dataclass
class GprModel:
    x: np.ndarray
    y_mean: float
    alpha: np.ndarray
    length_scale: float
    signal_variance: float

    def __call__(self, xq) -> np.ndarray:
        k = _se_kernel(np.atleast_2d(xq), self.x, self.length_scale,
                       self.signal_variance)
        return k @ self.alpha + self.y_mean


def _se_kernel(a, b, length_scale, signal_variance):
    r2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return signal_variance * np.exp(-0.5 * r2 / length_scale ** 2)


def gpr_fit(x, y) -> GprModel:
    """Zero-mean GP on centered targets, with the targets' variance as the
    signal variance. The length scale is the median pairwise distance,
    refined on a 5-point log grid against held-out error when enough data
    is available."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if len(x) != y.size or len(x) < 1:
        raise DimensionError("need matching, nonempty inputs and targets")
    y_mean = float(y.mean())
    resid = y - y_mean
    signal_variance = float(resid.var()) or 1.0
    dists = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    positive = dists[dists > 0]
    base = float(np.median(positive)) if positive.size else 1.0
    candidates = base * np.logspace(-1, 1, 5)
    length_scale = base
    if len(x) >= 8:
        hold = np.arange(len(x)) % 5 == 0
        best = np.inf
        for cand in candidates:
            sub = _fit_at(x[~hold], resid[~hold], cand, signal_variance)
            pred = sub(x[hold])
            err = float(np.mean((pred - resid[hold]) ** 2))
            if err < best:
                best, length_scale = err, float(cand)
    model = _fit_at(x, resid, length_scale, signal_variance)
    model.y_mean = y_mean
    return model


def _fit_at(x, resid, length_scale, signal_variance):
    k = _se_kernel(x, x, length_scale, signal_variance)
    chol = jittered_cholesky(k)[0]
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, resid))
    return GprModel(x=x, y_mean=0.0, alpha=alpha, length_scale=length_scale,
                    signal_variance=signal_variance)


# ---------------------------------------------------------------------------
# POD with interpolation

@dataclass
class PodiModel:
    """A POD basis and a callable regressor from inputs to its coefficients;
    called on inputs, it returns the reconstructed snapshots."""

    basis: PcaBasis
    regressor: object

    def __call__(self, inputs) -> np.ndarray:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        return self.basis.reconstruct(self.regressor(inputs))


def _nn_fit(x, y, width, epochs, rng: Rng):
    """Two relu hidden layers, no norm or dropout, AdamW full-batch at its
    default rate; returns the fitted network's predict function."""
    x_mean, x_std = x.mean(0), x.std(0) + 1e-12
    y_mean, y_std = y.mean(0), y.std(0) + 1e-12
    xn = (x - x_mean) / x_std
    yn = (y - y_mean) / y_std
    net = mlp_stack(x.shape[1], y.shape[1], width, 2, rng.derive("init"),
                    dropout=0.0, hidden_norm=False)
    opt = AdamW([net.flat])
    for _ in range(epochs):
        out, cache = net.forward(xn)
        grads, _ = net.backward(cache, (out - yn) / len(xn))
        opt.step([grads])
        net.note_update()
    net.eval()

    def predict(xq):
        out, _ = net.forward((np.atleast_2d(xq) - x_mean) / x_std)
        return out * y_std + y_mean
    return predict


def podi_fit(inputs, snapshots, n_pod_modes, regressor="rbf", *, rng: Rng,
             nn_width=64, nn_epochs=1000) -> PodiModel:
    """POD basis over the snapshots plus a parameter-to-coefficient
    regressor (rbf interpolation, per-coefficient gpr, or a feed-forward
    network initialized from rng)."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    snapshots = np.atleast_2d(np.asarray(snapshots, dtype=np.float64))
    if len(inputs) != len(snapshots):
        raise DimensionError("inputs and snapshots disagree in sample count")
    if len(inputs) < n_pod_modes:
        raise ConfigError("need at least as many samples as POD modes")
    basis = pca_fit(snapshots, n_modes=n_pod_modes)
    coeffs = basis.project(snapshots)
    if regressor == "rbf":
        fitted = rbf_fit(inputs, coeffs)
    elif regressor == "gpr":
        models = [gpr_fit(inputs, coeffs[:, j]) for j in range(coeffs.shape[1])]

        def fitted(x):
            return np.column_stack([m(x) for m in models])
    elif regressor == "nn":
        fitted = _nn_fit(inputs, coeffs, nn_width, nn_epochs, rng)
    else:
        raise ConfigError(f"unknown regressor {regressor!r}")
    return PodiModel(basis=basis, regressor=fitted)


# ---------------------------------------------------------------------------
# Active subspaces

@dataclass
class AsSubspace:
    eigenvalues: np.ndarray
    active: np.ndarray       # (R, r_as)
    inactive: np.ndarray     # (R, R - r_as)
    band_min: np.ndarray
    band_max: np.ndarray
    band_mean: np.ndarray


def as_fit(gradients, n_active, n_bootstrap=100, *, rng: Rng) -> AsSubspace:
    """Eigendecomposition of the Monte Carlo uncentered gradient covariance
    (1/n) sum grad grad^T, plus min/max/mean eigenvalue bands over bootstrap
    resamples of the gradient rows."""
    gradients = np.atleast_2d(np.asarray(gradients, dtype=np.float64))
    n, dim = gradients.shape
    if not 1 <= n_active <= dim:
        raise ConfigError(f"n_active must lie in 1..{dim}")
    cov = gradients.T @ gradients / n
    evals, evecs = eigh_symmetric(cov)
    evals = np.maximum(evals, 0.0)
    boots = np.empty((max(n_bootstrap, 1), dim))
    boots[0] = evals  # kept without replicates: the bands are the estimate
    for b in range(n_bootstrap):
        idx = rng.derive("bootstrap", b).integers(0, n, n)
        g = gradients[idx]
        bw, _ = eigh_symmetric(g.T @ g / n)
        boots[b] = np.maximum(bw, 0.0)
    return AsSubspace(eigenvalues=evals,
                      active=evecs[:, :n_active],
                      inactive=evecs[:, n_active:],
                      band_min=boots.min(axis=0),
                      band_max=boots.max(axis=0),
                      band_mean=boots.mean(axis=0))


@dataclass
class AsResponseSurface:
    subspace: AsSubspace
    gpr: GprModel

    def __call__(self, mu) -> np.ndarray:
        return self.gpr(np.atleast_2d(mu) @ self.subspace.active)


def as_response_surface(subspace: AsSubspace, samples,
                        values) -> AsResponseSurface:
    """GPR surrogate on the active variables W1^T mu."""
    active = np.atleast_2d(samples) @ subspace.active
    model = gpr_fit(active, np.asarray(values, dtype=np.float64))
    return AsResponseSurface(subspace=subspace, gpr=model)


def save_matrix(path, matrix):
    """A 2-D float64 matrix as a one-tensor container (`matrix`)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if matrix.ndim != 2:
        raise DimensionError(f"a matrix file holds 2-D data, got {matrix.shape}")
    save_tensors(path, {"matrix": matrix})


def load_matrix(path) -> np.ndarray:
    tensors = load_tensors(path)
    if list(tensors) != ["matrix"] or tensors["matrix"].ndim != 2:
        shapes = {name: arr.shape for name, arr in tensors.items()}
        raise ContainerError(f"{path}: not a matrix file (expected one 2-D "
                             f"tensor named 'matrix', got {shapes})")
    return tensors["matrix"]


def fd_gradients(f, samples, h=1e-5) -> np.ndarray:
    """Central finite differences of a batched scalar black box: `f` maps a
    (K, dim) array of points to K values. Each sample's stencil, the 2 dim
    points x + h e_j followed by x - h e_j, is one call of `f`."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, dim = samples.shape
    steps = h * np.eye(dim)
    grads = np.empty((n, dim))
    for i, x in enumerate(samples):
        values = np.asarray(f(np.concatenate([x + steps, x - steps])),
                            dtype=np.float64)
        grads[i] = (values[:dim] - values[dim:]) / (2.0 * h)
    return grads
