import numpy as np
import pytest

from cgmkit.errors import (ConditioningError, DimensionError,
                           InfeasibleConstraintError)
from cgmkit.linalg import (eigh_symmetric, jittered_cholesky, lstsq_min_norm,
                           min_norm_gain)


def test_eigh_diagonal():
    w, v = eigh_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [3.0, 2.0, 1.0])
    # permuted identity columns up to sign convention
    assert np.allclose(np.abs(v), np.eye(3)[:, [0, 2, 1]])
    assert np.all(v[np.argmax(np.abs(v), axis=0), np.arange(3)] >= 0)


def test_eigh_2x2_hand():
    # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 -> l = 3, 1
    w, v = eigh_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [3.0, 1.0])
    assert np.allclose(v[:, 0], np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_eigh_identity_residual():
    a = np.eye(4)
    w, v = eigh_symmetric(a)
    assert np.allclose(w, 1.0)
    assert np.linalg.norm(a @ v - v * w) <= 1e-9 * np.linalg.norm(a)


def test_eigh_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        a = a + a.T
        w, v = eigh_symmetric(a)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.linalg.norm(a - v @ np.diag(w) @ v.T) <= 1e-9 * np.linalg.norm(a)
        assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-10
        assert np.linalg.norm(a @ v - v * w) <= 1e-9 * max(np.linalg.norm(a), 1.0)


def test_eigh_rejects_bad_input():
    with pytest.raises(DimensionError):
        eigh_symmetric(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        eigh_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_min_norm_hand_case():
    # normal equations by hand: x = a^T (a a^T)^-1 b with a=[0.5,0.5], b=-2
    x = lstsq_min_norm(np.array([[0.5, 0.5]]), np.array([-2.0]))
    assert np.allclose(x, [-2.0, -2.0], atol=1e-12)


def test_min_norm_zero_rhs():
    x = lstsq_min_norm(np.array([[1.0, 2.0, 3.0]]), np.array([0.0]))
    assert np.allclose(x, 0.0)


def test_min_norm_weighted_hand_case():
    # minimize 4 x1^2 + x2^2 subject to x1 + x2 = 2, Lagrange: x = (0.4, 1.6)
    x = lstsq_min_norm(np.array([[1.0, 1.0]]), np.array([2.0]),
                       weights=np.array([2.0, 1.0]))
    assert np.allclose(x, [0.4, 1.6], atol=1e-12)


def test_min_norm_kkt_and_optimality():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n, p = 3, 8
        a = rng.standard_normal((n, p))
        b = rng.standard_normal(n)
        w = rng.random(p) + 0.5
        x = lstsq_min_norm(a, b, weights=w)
        assert np.linalg.norm(a @ x - b) <= 1e-9 * (1.0 + np.linalg.norm(b))
        # KKT: x lies in the row space of diag(w)^-2 a^T
        g = a.T / (w ** 2)[:, None]
        lam, *_ = np.linalg.lstsq(g, x, rcond=None)
        assert np.linalg.norm(g @ lam - x) < 1e-9
        # any feasible point has weighted norm >= the solution's
        null = np.eye(p) - np.linalg.pinv(a) @ a
        for _ in range(10):
            x_alt = x + null @ rng.standard_normal(p)
            assert np.linalg.norm(w * x_alt) >= np.linalg.norm(w * x) - 1e-9


def test_min_norm_infeasible():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InfeasibleConstraintError):
        lstsq_min_norm(a, np.array([1.0, 2.0]))


def test_min_norm_stack_names_first_infeasible_rhs():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    with pytest.raises(InfeasibleConstraintError,
                       match="^right-hand side 1: ") as err:
        lstsq_min_norm(a, b)
    assert err.value.index == 1


@pytest.mark.parametrize("shape", [(3, 81), (3, 192), (5, 30)])
@pytest.mark.parametrize("weighted", [False, True])
def test_min_norm_stack_bitwise_equals_each_rhs(shape, weighted):
    rng = np.random.default_rng(shape[1])
    a = rng.standard_normal(shape)
    b = rng.standard_normal((7, shape[0]))
    w = rng.random(shape[1]) + 0.5 if weighted else None
    x = lstsq_min_norm(a, b, weights=w)
    assert x.shape == (7, shape[1])
    for row, rhs in zip(x, b):
        assert np.array_equal(row, lstsq_min_norm(a, rhs, weights=w))
    with pytest.raises(DimensionError):
        lstsq_min_norm(a, b[None])


def test_min_norm_consistent_duplicate_rows():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    x = lstsq_min_norm(a, np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0, 0.0])


def test_min_norm_rejects_bad_weights():
    with pytest.raises(DimensionError):
        lstsq_min_norm(np.ones((1, 2)), np.ones(1), weights=np.array([1.0, 0.0]))


@pytest.mark.parametrize("weighted", [False, True])
def test_min_norm_gain_matches_pinv(weighted):
    # the weighted gain is diag(w)^-1 (a diag(w)^-1)^+
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 12))
    w = rng.random(12) + 0.5 if weighted else np.ones(12)
    gain, rank = min_norm_gain(a, w if weighted else None)
    assert rank == 3
    assert np.allclose(gain, np.linalg.pinv(a / w) / w[:, None], atol=1e-12)


def test_min_norm_gain_rank_deficient_and_zero():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 7))
    a = np.vstack([a, a[0] + 2.0 * a[1]])
    gain, rank = min_norm_gain(a)
    assert rank == 2
    assert np.allclose(gain, np.linalg.pinv(a, rcond=1e-12), atol=1e-12)
    gain, rank = min_norm_gain(np.zeros((3, 5)))
    assert rank == 0 and gain.shape == (5, 3) and not np.any(gain)


def test_jittered_cholesky_escalates_on_singular_psd():
    # a singular PSD matrix factors at the first rung, 1e-12 x mean diagonal
    k = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(k)
    chol, jitter = jittered_cholesky(k)
    assert jitter == 1e-12
    assert np.allclose(chol @ chol.T, k + jitter * np.eye(3), atol=1e-12)
    # an eigenvalue of -1e-8 (PSD up to roundoff) climbs to the 1e-7 rung
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
    k = q @ np.diag([1.0, 0.5, -1e-8]) @ q.T
    chol, jitter = jittered_cholesky(k)
    assert jitter == pytest.approx(1e-7 * np.mean(np.diag(k)))
    assert np.allclose(chol @ chol.T, k + jitter * np.eye(3), atol=1e-12)


def test_jittered_cholesky_rejects_indefinite():
    with pytest.raises(ConditioningError):
        jittered_cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))
