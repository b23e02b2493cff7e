import numpy as np
import pytest

from cgmkit.errors import (CacheMismatchError, DegenerateBatchError,
                           DimensionError)
from cgmkit.nn import BN_EPS, BN_MOMENTUM, AdamW, Mlp, MlpLayer, mlp_stack
from cgmkit.rng import Rng


def identity_layer(dim, **kw):
    rng = Rng(0)
    layer = MlpLayer(dim, dim, rng, **kw)
    layer.weight[:] = np.eye(dim)
    layer.bias[:] = 0.0
    return layer


def test_identity_linear_layer():
    net = Mlp([identity_layer(3)]).eval()
    x = np.arange(6.0).reshape(2, 3)
    out, _ = net.forward(x)
    assert np.allclose(out, x)


def test_relu_layer():
    net = Mlp([identity_layer(2, activation="relu")]).eval()
    out, _ = net.forward(np.array([[-1.0, 2.0]]))
    assert np.allclose(out, [[0.0, 2.0]])


def test_batch_norm_train_hand_case():
    # column (1, 3): batch mean 2, biased variance 1
    net = Mlp([identity_layer(1, batch_norm=True)]).train()
    out, _ = net.forward(np.array([[1.0], [3.0]]))
    expected = np.array([[-1.0], [1.0]]) / np.sqrt(1.0 + BN_EPS)
    assert np.allclose(out, expected, atol=1e-14)


def test_batch_norm_updates_running_stats():
    net = Mlp([identity_layer(1, batch_norm=True)]).train()
    layer = net.layers[0]
    net.forward(np.array([[1.0], [3.0]]))
    assert np.allclose(layer.running_mean, 0.9 * 0.0 + 0.1 * 2.0)
    assert np.allclose(layer.running_var, 0.9 * 1.0 + 0.1 * 1.0)


def test_batch_norm_degenerate_batch():
    net = Mlp([identity_layer(1, batch_norm=True)]).train()
    with pytest.raises(DegenerateBatchError):
        net.forward(np.array([[1.0]]))


def test_dropout_inverted_scaling():
    rng = Rng(5)
    layer = identity_layer(1000, dropout=0.4)
    net = Mlp([layer]).train()
    x = np.ones((1, 1000))
    out, _ = net.forward(x, rng=rng.derive("drop"))
    kept = out[out > 0]
    assert np.allclose(kept, 1.0 / 0.6)
    assert abs(kept.size / 1000 - 0.6) < 0.06
    out_eval, _ = net.eval().forward(x)
    assert np.allclose(out_eval, 1.0)


def test_linear_backward_closed_form():
    # loss = 0.5 ||W x - y||^2  ->  dW = (W x - y) x^T
    rng = Rng(2)
    layer = MlpLayer(3, 2, rng)
    net = Mlp([layer]).eval()
    x = np.array([[1.0, -2.0, 0.5]])
    y = np.array([[0.3, -0.7]])
    out, cache = net.forward(x)
    grad, _ = net.backward(cache, out - y)
    slot = net.slots[0]
    assert np.allclose(grad[slot["weight"]].reshape(2, 3), (out - y).T @ x)
    assert np.allclose(grad[slot["bias"]], (out - y).ravel())


def test_zero_grad_gives_zero_param_grads():
    rng = Rng(9)
    net = mlp_stack(4, 3, 8, 2, rng, dropout=0.0)
    net.eval()
    out, cache = net.forward(np.ones((3, 4)))
    grad, gin = net.backward(cache, np.zeros_like(out))
    assert grad.shape == net.flat.shape and np.allclose(grad, 0.0)
    assert np.allclose(gin, 0.0)


def fd_check(net, x, rng=None, h=1e-6, tol=1e-5, floor=1e-3):
    """Central finite differences of 0.5 * sum(out^2) against backprop.

    The scale floor guards against FD truncation noise on near-zero
    gradient entries."""

    def loss():
        out, _ = net.forward(x, rng=rng)
        return 0.5 * float(np.sum(out ** 2))

    out, cache = net.forward(x, rng=rng)
    grads, gin = net.backward(cache, out)
    for slot in (sl for slots in net.slots for sl in slots.values()):
        flat, grad = net.flat[slot], grads[slot]
        idx = np.linspace(0, flat.size - 1, min(flat.size, 12)).astype(int)
        for i in np.unique(idx):
            keep = flat[i]
            flat[i] = keep + h
            lp = loss()
            flat[i] = keep - h
            lm = loss()
            flat[i] = keep
            fd = (lp - lm) / (2 * h)
            scale = max(abs(fd), abs(grad.reshape(-1)[i]), floor)
            assert abs(fd - grad.reshape(-1)[i]) / scale < tol, (
                f"param grad mismatch: fd={fd}, bp={grad.reshape(-1)[i]}")
    # input gradient as well
    flat = x.reshape(-1)
    for i in range(0, flat.size, max(1, flat.size // 8)):
        keep = flat[i]
        flat[i] = keep + h
        lp = loss()
        flat[i] = keep - h
        lm = loss()
        flat[i] = keep
        fd = (lp - lm) / (2 * h)
        scale = max(abs(fd), abs(gin.reshape(-1)[i]), floor)
        assert abs(fd - gin.reshape(-1)[i]) / scale < tol


@pytest.mark.parametrize("activation", ["relu", "sigmoid", "identity"])
@pytest.mark.parametrize("batch_norm", [False, True])
def test_gradcheck_eval_mode_layer_combos(activation, batch_norm):
    rng = Rng(7).derive(activation, int(batch_norm))
    layers = [
        MlpLayer(5, 6, rng, activation=activation, batch_norm=batch_norm,
                 dropout=0.0),
        MlpLayer(6, 4, rng, activation=activation, batch_norm=batch_norm,
                 bn_affine=False, dropout=0.0),
        MlpLayer(4, 3, rng),
    ]
    net = Mlp(layers)
    if batch_norm:
        # non-trivial running stats
        net.train().forward(rng.normal((16, 5)) * 2.0 + 0.5)
    net.eval()
    x = rng.normal((4, 5)) + 0.1
    fd_check(net, x)


def test_gradcheck_train_mode_batch_norm():
    rng = Rng(13)
    net = Mlp([
        MlpLayer(4, 6, rng, activation="relu", batch_norm=True, dropout=0.0),
        MlpLayer(6, 2, rng, batch_norm=True, bn_affine=False, dropout=0.0),
    ]).train()
    x = rng.normal((6, 4)) + 0.05
    fd_check(net, x)


def test_stale_cache_rejected():
    rng = Rng(4)
    net = mlp_stack(3, 2, 4, 1, rng, dropout=0.0).eval()
    out, cache = net.forward(np.ones((2, 3)))
    net.note_update()
    with pytest.raises(CacheMismatchError):
        net.backward(cache, out)


def test_dim_mismatch_rejected():
    rng = Rng(4)
    with pytest.raises(DimensionError):
        Mlp([MlpLayer(3, 2, rng), MlpLayer(3, 2, rng)])
    net = Mlp([MlpLayer(3, 2, rng)])
    with pytest.raises(DimensionError):
        net.forward(np.ones((2, 5)))


@pytest.mark.parametrize("in_dim, out_dim", [(0, 3), (3, 0), (-1, 2)])
def test_zero_width_layer_rejected(in_dim, out_dim):
    with pytest.raises(DimensionError, match="at least 1"):
        MlpLayer(in_dim, out_dim, Rng(0))


def test_adamw_first_step_hand_value():
    # t=1, g=1: mhat = vhat = 1, step = -lr / (1 + eps)
    theta = np.array([0.0])
    opt = AdamW([theta], lr=1e-3, weight_decay=0.0)
    opt.step([np.array([1.0])])
    assert abs(theta[0] - (-1e-3 / (1.0 + 1e-8))) < 1e-12


def test_adamw_zero_gradient_no_decay():
    theta = np.array([1.5])
    opt = AdamW([theta], lr=1e-3, weight_decay=0.0)
    opt.step([np.array([0.0])])
    assert theta[0] == 1.5


def test_adamw_decoupled_decay_only():
    theta = np.array([1.0])
    opt = AdamW([theta], lr=1e-3, weight_decay=1e-2)
    opt.step([np.array([0.0])])
    assert abs(theta[0] - 0.99999) < 1e-12


def test_training_trajectory_deterministic():
    def run():
        rng = Rng(21)
        net = mlp_stack(3, 2, 8, 2, rng.derive("init"), dropout=0.1)
        opt = AdamW([net.flat])
        data_rng = rng.derive("data")
        x = data_rng.normal((16, 3))
        y = data_rng.normal((16, 2))
        for step in range(10):
            out, cache = net.forward(x, rng=rng.derive("drop", step))
            grad, _ = net.backward(cache, (out - y) / len(x))
            opt.step([grad])
            net.note_update()
        return net.flat.copy()

    assert np.array_equal(run(), run())


# --- one flat parameter buffer per net and the fused AdamW -------------------

def test_parameters_are_views_into_one_flat_buffer():
    net = mlp_stack(3, 2, 8, 2, Rng(6), dropout=0.1, final_batch_norm=True)
    hidden = [("weight", (8, 3)), ("bias", (8,)), ("gamma", (8,)),
              ("beta", (8,)), ("weight", (8, 8)), ("bias", (8,)),
              ("gamma", (8,)), ("beta", (8,))]
    layout = [(i, name, slot) for i, slots in enumerate(net.slots)
              for name, slot in slots.items()]
    assert [(i, name) for i, name, _ in layout] == [
        (i // 4, name) for i, (name, _) in enumerate(hidden)] + [
        (2, "weight"), (2, "bias")]
    arrays = [getattr(net.layers[i], name) for i, name, _ in layout]
    assert [arr.shape for arr in arrays] == [shape for _, shape in hidden] + [
        (2, 8), (2,)]
    # the slots tile the buffer in order and each array is its slot's view
    assert [slot.start for _, _, slot in layout] == [0] + [
        slot.stop for _, _, slot in layout[:-1]]
    assert layout[-1][2].stop == net.flat.size
    assert all(np.shares_memory(arr, net.flat) for arr in arrays)
    assert all(np.array_equal(arr.ravel(), net.flat[slot])
               for arr, (_, _, slot) in zip(arrays, layout))
    # the buffer is filled after the init draws, so the streams are those of
    # layers that own their arrays
    loose = MlpLayer(3, 8, Rng(6), activation="relu", batch_norm=True)
    assert np.array_equal(net.layers[0].weight, loose.weight)


def test_backward_returns_a_fresh_flat_gradient():
    net = mlp_stack(3, 2, 8, 2, Rng(6), dropout=0.1, final_batch_norm=True)
    x = Rng(7).normal((5, 3))
    out, cache = net.forward(x, rng=Rng(8))
    first, _ = net.backward(cache, out)
    second, _ = net.backward(cache, 2.0 * out)
    assert first.shape == second.shape == net.flat.shape
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, net.flat)
    assert np.array_equal(2.0 * first, second)


def reference_adamw(params, grad_steps, lr=1e-3, beta1=0.9, beta2=0.999,
                    eps=1e-8, weight_decay=1e-2):
    """AdamW array by array, each update written as one expression."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, 1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= beta1
            mi += (1.0 - beta1) * g
            vi *= beta2
            vi += (1.0 - beta2) * g * g
            p -= lr * ((mi / bc1) / (np.sqrt(vi / bc2) + eps)
                       + weight_decay * p)


def test_fused_adamw_bitwise_equal_per_array_reference():
    nets = [mlp_stack(4, 3, 8, 2, Rng(1).derive(name), dropout=0.1)
            for name in ("enc", "dec")]
    loose = Rng(2).normal((3, 5))
    params = [nets[0].flat, loose, nets[1].flat]
    twin = [p.copy() for p in params]
    opt = AdamW(params)
    rng = Rng(3)
    grad_steps = [[rng.derive(t, i).normal(p.shape) for i, p in enumerate(params)]
                  for t in range(50)]
    for grads in grad_steps:
        opt.step(grads)
    reference_adamw(twin, grad_steps)
    assert all(np.array_equal(p, q) for p, q in zip(params, twin))
    # the nets' layer arrays are views of the stepped buffers
    assert np.array_equal(nets[1].layers[0].weight.ravel(),
                          twin[2][nets[1].slots[0]["weight"]])


def test_adamw_rejects_wrong_gradient_list():
    net = mlp_stack(3, 2, 4, 1, Rng(8), dropout=0.0)
    loose = np.ones((2, 3))
    opt = AdamW([net.flat, loose])
    before = net.flat.copy()
    with pytest.raises(DimensionError):
        opt.step([np.zeros(net.flat.shape)])
    with pytest.raises(DimensionError):
        opt.step([np.zeros(net.flat.size + 1), np.zeros(loose.shape)])
    with pytest.raises(DimensionError):
        opt.step([np.zeros(net.flat.shape), np.zeros(loose.size)])
    assert np.array_equal(net.flat, before) and opt.t == 0
    assert np.array_equal(loose, np.ones((2, 3)))


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("batch_norm", [True, False])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_backward_without_params_gives_the_same_input_gradient(
        mode, batch_norm, dropout):
    net = mlp_stack(3, 2, 8, 2, Rng(6), dropout=dropout, hidden_norm=batch_norm,
                    final_batch_norm=batch_norm)
    getattr(net, mode)()
    x = Rng(7).normal((5, 3))
    out, cache = net.forward(x, rng=Rng(8))
    grad_out = Rng(9).normal(out.shape)
    full, gin_full = net.backward(cache, grad_out)
    none, gin = net.backward(cache, grad_out, params=False)
    assert full is not None and none is None
    assert np.array_equal(gin, gin_full)


def test_train_batch_norm_matches_numpy_mean_and_var():
    # the one-pass statistics equal z.mean / z.var bit for bit, so the
    # output, the cached zhat and the running statistics do too
    def build():
        return mlp_stack(4, 3, 8, 2, Rng(11), dropout=0.2,
                         final_batch_norm=True).train()

    net, ref = build(), build()
    x = Rng(12).normal((6, 4))
    out, cache = net.forward(x, rng=Rng(13))
    drop = Rng(13)
    a = x
    for layer, step in zip(ref.layers, cache["steps"]):
        z = a @ layer.weight.T + layer.bias
        mu, var = z.mean(axis=0), z.var(axis=0)
        zhat = (z - mu) * (1.0 / np.sqrt(var + BN_EPS))
        assert np.array_equal(step[1], zhat)
        layer.running_mean *= 1.0 - BN_MOMENTUM
        layer.running_mean += BN_MOMENTUM * mu
        layer.running_var *= 1.0 - BN_MOMENTUM
        layer.running_var += BN_MOMENTUM * var
        h = layer.gamma * zhat + layer.beta if layer.bn_affine else zhat
        a = np.maximum(h, 0.0) if layer.activation == "relu" else h
        if layer.dropout > 0.0:
            keep = drop.uniform(a.shape) >= layer.dropout
            a = a * keep / (1.0 - layer.dropout)
    assert np.array_equal(out, a)
    for layer, want in zip(net.layers, ref.layers):
        assert np.array_equal(layer.running_mean, want.running_mean)
        assert np.array_equal(layer.running_var, want.running_var)


# --- one dropout draw, checks before the first layer, tuple caches ----------

def test_train_pass_draws_all_dropout_uniforms_at_once():
    # the stream continues exactly B * (sum of dropout widths) further on
    net = mlp_stack(4, 3, 8, 2, Rng(11), dropout=0.2).train()
    x = Rng(12).normal((6, 4))
    drop = Rng(13)
    net.forward(x, rng=drop)
    n = 6 * net.drop_width
    assert net.drop_width == 16
    assert np.array_equal(drop.uniform(5), Rng(13).uniform(n + 5)[n:])


def test_failed_train_forward_leaves_running_stats():
    net = mlp_stack(4, 2, 8, 2, Rng(0), dropout=0.1, final_batch_norm=True)
    net.forward(Rng(1).normal((5, 4)), rng=Rng(2))  # non-trivial statistics
    before = [(layer.running_mean.copy(), layer.running_var.copy())
              for layer in net.layers]
    with pytest.raises(DimensionError, match="requires an rng"):
        net.forward(Rng(3).normal((5, 4)))
    for layer, (mean, var) in zip(net.layers, before):
        assert np.array_equal(layer.running_mean, mean)
        assert np.array_equal(layer.running_var, var)


@pytest.mark.parametrize("params", [True, False])
def test_train_mode_zero_gradient_gives_exact_zeros(params):
    net = mlp_stack(4, 3, 8, 2, Rng(9), dropout=0.3,
                    final_batch_norm=True).train()
    out, cache = net.forward(Rng(10).normal((5, 4)), rng=Rng(11))
    grad, gin = net.backward(cache, np.zeros_like(out), params=params)
    assert np.all(gin == 0.0)
    assert not params or np.all(grad == 0.0)
