import numpy as np
import pytest

from cgmkit.errors import (CacheMismatchError, DegenerateBatchError,
                           DimensionError)
from cgmkit.nn import BN_EPS, AdamW, Mlp, MlpLayer, mlp_stack
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
    grads, _ = net.backward(cache, out - y)
    assert np.allclose(grads[0], (out - y).T @ x)
    assert np.allclose(grads[1], (out - y).ravel())


def test_zero_grad_gives_zero_param_grads():
    rng = Rng(9)
    net = mlp_stack(4, 3, 8, 2, rng, dropout=0.0)
    net.eval()
    out, cache = net.forward(np.ones((3, 4)))
    grads, gin = net.backward(cache, np.zeros_like(out))
    assert all(np.allclose(g, 0.0) for g in grads)
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
    params = [p for _, p in net.parameters()]
    for arr, grad in zip(params, grads):
        flat = arr.reshape(-1)
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
        opt = AdamW(net.parameters())
        data_rng = rng.derive("data")
        x = data_rng.normal((16, 3))
        y = data_rng.normal((16, 2))
        for step in range(10):
            out, cache = net.forward(x, rng=rng.derive("drop", step))
            grads, _ = net.backward(cache, (out - y) / len(x))
            opt.step(grads)
            net.note_update()
        return [p.copy() for _, p in net.parameters()]

    a, b = run(), run()
    assert all(np.array_equal(pa, pb) for pa, pb in zip(a, b))


# --- one flat parameter buffer per net and the fused AdamW -------------------

def test_parameters_are_views_into_one_flat_buffer():
    net = mlp_stack(3, 2, 8, 2, Rng(6), dropout=0.1, final_batch_norm=True)
    hidden = [("weight", (8, 3)), ("bias", (8,)), ("gamma", (8,)),
              ("beta", (8,)), ("weight", (8, 8)), ("bias", (8,)),
              ("gamma", (8,)), ("beta", (8,))]
    names = [f"layer{i // 4}.{name}" for i, (name, _) in enumerate(hidden)]
    shapes = [shape for _, shape in hidden] + [(2, 8), (2,)]
    params = net.parameters()
    assert [name for name, _ in params] == names + ["layer2.weight",
                                                     "layer2.bias"]
    assert [arr.shape for _, arr in params] == shapes
    assert all(np.shares_memory(arr, net.flat) for _, arr in params)
    assert np.array_equal(np.concatenate([arr.ravel() for _, arr in params]),
                          net.flat)
    # the buffer is filled after the init draws, so the streams are those of
    # layers that own their arrays
    loose = MlpLayer(3, 8, Rng(6), activation="relu", batch_norm=True)
    assert np.array_equal(net.layers[0].weight, loose.weight)


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
    params = ([p for _, p in nets[0].parameters()] + [loose]
              + [p for _, p in nets[1].parameters()])
    twin = [p.copy() for p in params]
    opt = AdamW(params)
    # each net is one group over its buffer, the loose array its own
    assert [group[0] is nets[0].flat for group in opt.groups] == [True, False,
                                                                   False]
    assert opt.groups[1][0] is loose and opt.groups[2][0] is nets[1].flat
    rng = Rng(3)
    grad_steps = [[rng.derive(t, i).normal(p.shape) for i, p in enumerate(params)]
                  for t in range(50)]
    for grads in grad_steps:
        opt.step(grads)
    reference_adamw(twin, grad_steps)
    assert all(np.array_equal(p, q) for p, q in zip(params, twin))


def test_adamw_part_of_a_buffer_updates_array_by_array():
    net = mlp_stack(3, 2, 4, 1, Rng(8), dropout=0.0)
    params = [p for _, p in net.parameters()][1:]
    twin = [p.copy() for p in params]
    opt = AdamW(params)
    assert len(opt.groups) == len(params)
    grads = [[np.full(p.shape, 0.5 + t) for p in params] for t in range(3)]
    for g in grads:
        opt.step(g)
    reference_adamw(twin, grads)
    assert all(np.array_equal(p, q) for p, q in zip(params, twin))


def test_adamw_rejects_wrong_gradient_list():
    net = mlp_stack(3, 2, 4, 1, Rng(8), dropout=0.0)
    params = [p for _, p in net.parameters()]
    opt = AdamW(net.parameters())
    before = net.flat.copy()
    with pytest.raises(DimensionError):
        opt.step([np.zeros(p.shape) for p in params[:-1]])
    wrong = [np.zeros(p.shape) for p in params]
    wrong[1] = np.zeros(params[1].size + 1)
    with pytest.raises(DimensionError):
        opt.step(wrong)
    assert np.array_equal(net.flat, before) and opt.t == 0
