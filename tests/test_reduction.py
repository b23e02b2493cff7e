import numpy as np
import pytest

from cgmkit.errors import (ConfigError, DegenerateSitesError, DimensionError)
from cgmkit.reduction import (as_fit, as_response_surface, fd_gradients,
                              gpr_fit, morph_mesh, pca_fit, podi_fit,
                              rbf_fit)
from cgmkit.rng import Rng


# --- PCA ---------------------------------------------------------------------

def test_pca_exact_rank_two():
    rng = Rng(3)
    phi = np.linalg.qr(rng.normal((30, 2)))[0]
    w = rng.normal((40, 2))
    x = w @ phi.T + 5.0
    basis = pca_fit(x, n_modes=2)
    assert basis.reconstruction_error < 1e-10
    recon = basis.reconstruct(basis.project(x))
    assert np.max(np.abs(recon - x)) < 1e-10


def test_pca_error_monotone_in_modes():
    rng = Rng(5)
    x = rng.normal((15, 10))
    errors = [pca_fit(x, n_modes=r).reconstruction_error for r in range(1, 11)]
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))


def test_pca_energy_identity():
    rng = Rng(6)
    x = rng.normal((12, 20))
    for r in (1, 3, 7):
        basis = pca_fit(x, n_modes=r)
        centered = x - x.mean(axis=0)
        direct = np.linalg.norm(
            centered - basis.project(x) @ basis.modes.T, ord="fro")
        tail = np.sqrt(np.sum(basis.singular_values[r:] ** 2))
        assert abs(direct - tail) < 1e-9
        assert abs(basis.reconstruction_error - tail) < 1e-9
        assert np.linalg.norm(basis.modes.T @ basis.modes - np.eye(r)) < 1e-10


def test_pca_config_errors():
    with pytest.raises(ConfigError):
        pca_fit(np.ones((5, 3)), n_modes=0)
    with pytest.raises(ConfigError):
        pca_fit(np.ones((1, 3)), n_modes=1)


# --- RBF ----------------------------------------------------------------------

def test_rbf_interpolates_training_sites():
    rng = Rng(7)
    x = rng.normal((12, 3))
    y = rng.normal((12, 2))
    model = rbf_fit(x, y)
    pred = model(x)
    assert np.max(np.abs(pred - y)) <= 1e-8 * max(1.0, np.abs(y).max())


def test_rbf_reproduces_affine_data():
    rng = Rng(8)
    x = rng.normal((10, 3))
    a = rng.normal((3, 2))
    b = rng.normal(2)
    y = x @ a + b
    model = rbf_fit(x, y)
    assert np.max(np.abs(model.beta)) < 1e-9
    assert np.allclose(model.poly[0], b, atol=1e-9)
    assert np.allclose(model.poly[1:], a, atol=1e-9)
    q = rng.normal((20, 3)) * 3.0
    assert np.max(np.abs(model(q) - (q @ a + b))) < 1e-9


def test_rbf_minimal_system():
    # d + 1 = 4 sites: a simplex
    x = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    model = rbf_fit(x, y)
    assert np.allclose(model(x).ravel(), y, atol=1e-9)


def test_rbf_degenerate_sites():
    x = np.zeros((5, 3))  # all coincident
    with pytest.raises(DegenerateSitesError):
        rbf_fit(x, np.arange(5.0))
    with pytest.raises(DegenerateSitesError):
        rbf_fit(np.zeros((2, 3)), np.zeros(2))  # too few sites


def test_rbf_side_conditions_hold():
    rng = Rng(9)
    x = rng.normal((15, 3))
    y = rng.normal((15, 3))
    model = rbf_fit(x, y)
    p = np.hstack([np.ones((15, 1)), x])
    assert np.max(np.abs(p.T @ model.beta)) < 1e-9


# --- mesh morphing --------------------------------------------------------------

def test_morph_identity():
    rng = Rng(10)
    cloud = rng.normal((20, 3))
    mesh = rng.normal((50, 3)) * 2.0
    out = morph_mesh(cloud, cloud, np.zeros((0, 3)), mesh)
    assert np.max(np.abs(out - mesh)) < 1e-8


def test_morph_translation_captured_by_affine_tail():
    rng = Rng(11)
    cloud = rng.normal((15, 3))
    t = np.array([0.5, -1.0, 2.0])
    mesh = rng.normal((40, 3)) * 3.0
    out = morph_mesh(cloud, cloud + t, np.zeros((0, 3)), mesh)
    assert np.max(np.abs(out - (mesh + t))) < 1e-8


def test_morph_fixed_corners_stay_fixed():
    rng = Rng(12)
    sphere = rng.normal((30, 3)) * 0.2
    corners = np.array([[x, y, z] for x in (-2.0, 2.0) for y in (-2.0, 2.0)
                        for z in (-2.0, 2.0)])
    t = np.array([0.3, 0.0, 0.0])
    out = morph_mesh(sphere, sphere + t, corners, corners)
    assert np.max(np.abs(out - corners)) < 1e-8
    interior = morph_mesh(sphere, sphere + t, corners, np.zeros((1, 3)))
    assert np.linalg.norm(interior[0] - t) < 0.15  # interior follows the cloud


# --- GPR ------------------------------------------------------------------------

def test_gpr_interpolates_training_data():
    rng = Rng(13)
    x = rng.normal((10, 2))
    y = rng.normal(10)
    model = gpr_fit(x, y)
    assert np.max(np.abs(model(x) - y)) < 1e-6


def test_gpr_constant_data():
    rng = Rng(14)
    x = rng.normal((8, 2))
    model = gpr_fit(x, np.full(8, 3.25))
    q = rng.normal((30, 2)) * 5.0
    assert np.max(np.abs(model(q) - 3.25)) < 1e-6


def test_gpr_sine_midpoints():
    x = np.linspace(0, 2 * np.pi, 20)[:, None]
    y = np.sin(x).ravel()
    model = gpr_fit(x, y)
    mid = (x[:-1] + x[1:]) / 2.0
    assert np.max(np.abs(model(mid) - np.sin(mid).ravel())) < 1e-2


# --- PODI -----------------------------------------------------------------------

def snapshot_family(rng, n):
    phi = np.linalg.qr(rng.normal((60, 2)))[0]
    mu = rng.uniform((n, 2)) * 2.0 - 1.0
    s = mu @ phi.T
    return mu, s, phi


def test_podi_rbf_recovers_analytic_family():
    rng = Rng(15)
    phi = np.linalg.qr(rng.normal((60, 2)))[0]
    mu = rng.uniform((30, 2)) * 2.0 - 1.0
    s = mu @ phi.T
    model = podi_fit(mu, s, 2, regressor="rbf", rng=Rng(0))
    assert np.max(np.abs(model(mu) - s)) < 1e-6
    # held-out inputs: the family is affine in mu, so the degree-1 RBF tail
    # reproduces it exactly
    mu_new = rng.uniform((10, 2)) * 1.8 - 0.9
    assert np.max(np.abs(model(mu_new) - mu_new @ phi.T)) < 1e-6


def test_podi_full_rank_is_projection():
    rng = Rng(16)
    mu = rng.normal((6, 3))
    s = rng.normal((6, 12))
    model = podi_fit(mu, s, 6, regressor="rbf", rng=Rng(0))
    pred = model(mu)
    proj = model.basis.reconstruct(model.basis.project(s))
    assert np.max(np.abs(pred - proj)) < 1e-6


def test_podi_gpr_and_nn_finite():
    rng = Rng(17)
    mu, s, _ = snapshot_family(rng, 25)
    for kind in ("gpr", "nn"):
        model = podi_fit(mu, s, 2, regressor=kind, rng=Rng(5), nn_epochs=200)
        pred = model(mu)
        assert np.all(np.isfinite(pred))
        assert np.mean((pred - s) ** 2) < np.mean(s ** 2)


def test_podi_errors():
    with pytest.raises(ConfigError):
        podi_fit(np.ones((3, 2)), np.ones((3, 5)), 4, rng=Rng(0))
    with pytest.raises(DimensionError):
        podi_fit(np.ones((3, 2)), np.ones((4, 5)), 2, rng=Rng(0))


# --- active subspaces --------------------------------------------------------------

def test_as_rank_one_oracle():
    rng = Rng(18)
    mu = rng.uniform((2000, 5)) * 2.0 - 1.0
    grads = 2.0 * mu[:, :1] * np.eye(5)[0][None, :]  # grad of (e1 . mu)^2
    sub = as_fit(grads, 1, n_bootstrap=10, rng=rng)
    cos = abs(sub.active[:, 0] @ np.eye(5)[0])
    assert cos > 0.999
    assert np.all(sub.eigenvalues >= 0)
    assert np.linalg.norm(
        np.hstack([sub.active, sub.inactive]).T
        @ np.hstack([sub.active, sub.inactive]) - np.eye(5)) < 1e-10


def test_as_constant_function():
    rng = Rng(19)
    sub = as_fit(np.zeros((50, 4)), 1, n_bootstrap=5, rng=rng)
    assert np.allclose(sub.eigenvalues, 0.0)


def test_as_bootstrap_bands_contain_estimate():
    rng = Rng(20)
    mu = rng.normal((300, 6))
    grads = rng.normal((300, 6)) * np.linspace(3.0, 0.5, 6)
    sub = as_fit(grads, 2, n_bootstrap=100, rng=rng)
    assert np.all(sub.band_min <= sub.band_mean + 1e-12)
    assert np.all(sub.band_mean <= sub.band_max + 1e-12)
    assert np.all(sub.band_min <= sub.eigenvalues + 1e-9)
    assert np.all(sub.eigenvalues <= sub.band_max + 1e-9)


def test_as_degenerate_bootstrap_reproduces_estimate():
    rng = Rng(25)
    grads = rng.normal((60, 4))
    sub = as_fit(grads, 2, n_bootstrap=0, rng=rng)
    assert np.array_equal(sub.band_min, sub.eigenvalues)
    assert np.array_equal(sub.band_max, sub.eigenvalues)
    assert np.array_equal(sub.band_mean, sub.eigenvalues)


def test_as_response_surface_on_ridge():
    rng = Rng(21)
    w = np.array([1.0, -2.0, 0.5, 0.0, 1.5])
    w /= np.linalg.norm(w)

    def f(mu):
        return np.sin(2.0 * (mu @ w)) + 0.5 * (mu @ w) ** 2

    mu = rng.uniform((200, 5)) * 2.0 - 1.0
    grads = fd_gradients(f, mu)
    sub = as_fit(grads, 1, n_bootstrap=5, rng=rng)
    surf = as_response_surface(sub, mu, f(mu))
    mu_test = rng.uniform((50, 5)) * 2.0 - 1.0
    pred = surf(mu_test)
    exact = f(mu_test)
    rel = np.linalg.norm(pred - exact) / np.linalg.norm(exact)
    assert rel < 1e-2


def test_as_full_dimension_matches_plain_gpr():
    rng = Rng(22)
    mu = rng.normal((40, 3))
    y = np.cos(mu).sum(axis=1)
    grads = fd_gradients(lambda m: np.cos(m).sum(axis=1), mu)
    sub = as_fit(grads, 3, n_bootstrap=2, rng=rng)
    surf = as_response_surface(sub, mu, y)
    direct = gpr_fit(mu @ sub.active, y)
    q = rng.normal((20, 3))
    assert np.max(np.abs(surf(q) - direct(q @ sub.active))) < 1e-9


def test_as_response_surface_interpolates_training():
    rng = Rng(23)
    mu = rng.uniform((40, 4))
    y = (mu @ np.array([1.0, 0, 0, 0])) ** 2
    grads = 2.0 * (mu @ np.array([1.0, 0, 0, 0]))[:, None] * np.eye(4)[0][None, :]
    sub = as_fit(grads, 1, n_bootstrap=2, rng=rng)
    surf = as_response_surface(sub, mu, y)
    assert np.max(np.abs(surf(mu) - y)) < 1e-6


# --- finite differences ---------------------------------------------------------

def test_fd_gradients_quadratic():
    rng = Rng(24)
    mu = rng.normal((10, 4))
    grads = fd_gradients(lambda m: np.einsum("ij,ij->i", m, m), mu)
    assert np.max(np.abs(grads - 2.0 * mu)) < 1e-8


def test_fd_gradients_constant_and_linear():
    mu = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    assert np.allclose(fd_gradients(lambda m: np.full(len(m), 7.0), mu), 0.0)
    w = np.array([1.0, -1.0, 2.0, 0.5])
    grads = fd_gradients(lambda m: m @ w, mu)
    assert np.max(np.abs(grads - w)) < 1e-10


def test_fd_gradients_one_call_per_sample_stencil():
    rng = Rng(25)
    mu = rng.normal((5, 3))
    h = 1e-3
    calls = []

    def f(points):
        calls.append(points.copy())
        return points @ np.array([1.0, 2.0, 3.0])

    fd_gradients(f, mu, h=h)
    assert len(calls) == len(mu)
    for x, points in zip(mu, calls):
        assert points.shape == (6, 3)
        for j in range(3):
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            assert np.array_equal(points[j], up)
            assert np.array_equal(points[3 + j], down)
