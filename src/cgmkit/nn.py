"""Minimal feed-forward network stack with manual backprop.

Each hidden unit is a linear layer, an optional batch-norm layer, an
activation (relu / sigmoid / identity) and an inverted-scaling dropout
layer. Training is plain AdamW. Everything is float64 and deterministic
given an Rng.

An `Mlp` keeps all its trainable arrays in one contiguous buffer (`flat`),
filled after the layers drew their initial values; each layer's weight,
bias, gamma and beta are reshaped views into it, so checkpoint writes
through them land in the buffer. `Mlp.backward` returns the parameter
gradient in the same layout, and `AdamW` steps each buffer as one array
with that gradient. A caller that needs only the gradient with respect to
the input passes `params=False`, and no parameter gradient is computed.

Batch norm uses biased (1/B) batch variance for both normalization and the
running statistics; eval mode is a fixed affine transform, so it needs no
rescaling and is safe for finite-difference gradient checks. Train mode
takes the batch mean and variance with the reductions `z.mean`/`z.var`
run, in their order, but without their Python wrappers, and subtracts the
mean once: that centred batch feeds both the variance and the normalized
output, so the statistics equal numpy's bit for bit.

A train-mode pass draws every dropout uniform it needs in one
`rng.uniform` call before the first layer and slices it per layer in
layer order; the stream fills sequentially, so the masks are those of one
draw per layer. Its checks (batch size, rng) run before the first layer,
so a pass that raises leaves the running statistics as they were. The cache
holds one tuple per layer: its input, the normalized batch and inverse
standard deviation (batch norm), the activation output and the dropout
keep mask, None where the layer has no such part.
"""

import numpy as np

from .errors import CacheMismatchError, DegenerateBatchError, DimensionError
from .rng import Rng

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_ACTIVATIONS = ("relu", "sigmoid", "identity")


class MlpLayer:
    """One linear + batch-norm + activation + dropout unit."""

    def __init__(self, in_dim, out_dim, rng: Rng, activation="identity",
                 batch_norm=False, bn_affine=True, dropout=0.0):
        if activation not in _ACTIVATIONS:
            raise DimensionError(f"unknown activation {activation!r}")
        if not 0.0 <= dropout < 1.0:
            raise DimensionError("dropout rate must lie in [0, 1)")
        if in_dim < 1 or out_dim < 1:
            raise DimensionError(
                f"layer dims must be at least 1, got {in_dim} -> {out_dim}")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.activation = activation
        self.batch_norm = bool(batch_norm)
        self.bn_affine = bool(bn_affine)
        self.dropout = float(dropout)
        limit = np.sqrt(6.0 / self.in_dim)
        self.weight = (2.0 * rng.uniform((self.out_dim, self.in_dim)) - 1.0) * limit
        self.bias = np.zeros(self.out_dim)
        if self.batch_norm:
            self.gamma = np.ones(self.out_dim)
            self.beta = np.zeros(self.out_dim)
            self.running_mean = np.zeros(self.out_dim)
            self.running_var = np.ones(self.out_dim)

    def parameters(self):
        params = [("weight", self.weight), ("bias", self.bias)]
        if self.batch_norm and self.bn_affine:
            params += [("gamma", self.gamma), ("beta", self.beta)]
        return params

    def state_tensors(self):
        state = [("weight", self.weight), ("bias", self.bias)]
        if self.batch_norm:
            state += [("gamma", self.gamma), ("beta", self.beta),
                      ("running_mean", self.running_mean),
                      ("running_var", self.running_var)]
        return state


class Mlp:
    """Ordered layer stack with train/eval modes and manual backprop."""

    def __init__(self, layers):
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise DimensionError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}")
        self.layers = list(layers)
        self.mode = "train"
        self.version = 0
        # the trainable arrays move into one contiguous buffer after the
        # layers drew their initial values; the layers keep reshaped views,
        # and slots[i] maps each trainable name of layer i to its slice
        self.flat = np.concatenate([arr.ravel() for layer in self.layers
                                    for _, arr in layer.parameters()])
        self.slots = []
        start = 0
        for layer in self.layers:
            slot = {}
            for name, arr in layer.parameters():
                slot[name] = slice(start, start + arr.size)
                setattr(layer, name, self.flat[slot[name]].reshape(arr.shape))
                start += arr.size
            self.slots.append(slot)
        self.drop_width = sum(layer.out_dim for layer in self.layers
                              if layer.dropout > 0.0)

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    def train(self):
        self.mode = "train"
        return self

    def eval(self):
        self.mode = "eval"
        return self

    def note_update(self):
        """Invalidate outstanding forward caches after a parameter update."""
        self.version += 1

    def state_tensors(self):
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.state_tensors():
                out.append((f"layer{i}.{name}", arr))
        return out

    def forward(self, batch, rng: Rng = None):
        """Run the stack on a (B, in_dim) batch.

        Returns (output, cache). Train mode draws dropout masks from rng,
        applies batch statistics and updates the running stats; eval mode is
        deterministic.
        """
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"batch shape {x.shape} incompatible with input dim {self.in_dim}")
        train = self.mode == "train"
        b = x.shape[0]
        if train:
            if b < 2 and any(l.batch_norm for l in self.layers):
                raise DegenerateBatchError(
                    "train-mode batch norm needs a batch of at least 2")
            if self.drop_width:
                if rng is None:
                    raise DimensionError("train-mode dropout requires an rng")
                uniforms = rng.uniform(b * self.drop_width)
                used = 0
        steps = []
        for layer in self.layers:
            z = x @ layer.weight.T + layer.bias
            zhat = inv_std = keep = None
            if layer.batch_norm:
                if train:
                    # z.mean and z.var's reductions, without their
                    # wrappers; d serves the variance and zhat
                    mu = np.add.reduce(z, axis=0) / b
                    d = z - mu
                    var = np.add.reduce(d * d, axis=0) / b
                    inv_std = 1.0 / np.sqrt(var + BN_EPS)
                    layer.running_mean *= 1.0 - BN_MOMENTUM
                    layer.running_mean += BN_MOMENTUM * mu
                    layer.running_var *= 1.0 - BN_MOMENTUM
                    layer.running_var += BN_MOMENTUM * var
                else:
                    d = z - layer.running_mean
                    inv_std = 1.0 / np.sqrt(layer.running_var + BN_EPS)
                zhat = d * inv_std
                h = layer.gamma * zhat + layer.beta if layer.bn_affine else zhat
            else:
                h = z
            if layer.activation == "relu":
                a = np.maximum(h, 0.0)
            elif layer.activation == "sigmoid":
                a = 1.0 / (1.0 + np.exp(-h))
            else:
                a = h
            if train and layer.dropout > 0.0:
                n = b * layer.out_dim
                keep = (uniforms[used:used + n].reshape(b, layer.out_dim)
                        >= layer.dropout)
                used += n
            steps.append((x, zhat, inv_std, a, keep))
            x = a if keep is None else a * keep / (1.0 - layer.dropout)
        cache = {"net": id(self), "version": self.version, "train": train,
                 "steps": steps}
        return x, cache

    def backward(self, cache, grad_out, params=True):
        """Backprop grad_out through a cached forward pass.

        Returns (grad, grad_input): grad is a fresh array laid out like
        `flat`, each trainable array's gradient in that array's slice.
        With params=False only grad_input is computed and grad is None: no
        gradient buffer, no weight, bias, gamma or beta gradient."""
        if cache["net"] != id(self) or cache["version"] != self.version:
            raise CacheMismatchError("cache does not match current network state")
        train = cache["train"]
        g = np.asarray(grad_out, dtype=np.float64)
        grad = None
        if params:
            grad = np.empty_like(self.flat)
            # keep the previous gradient until this one exists, so the next
            # call reuses its block; freed earlier, it lets malloc trim the
            # heap top and every training step page-faults its buffers back in
            self._last_grad = grad
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            x, zhat, inv_std, a, keep = cache["steps"][i]
            slot = self.slots[i]
            if keep is not None:
                g = g * keep / (1.0 - layer.dropout)
            if layer.activation == "relu":
                g = g * (a > 0.0)
            elif layer.activation == "sigmoid":
                g = g * a * (1.0 - a)
            if zhat is not None:
                if layer.bn_affine:
                    if params:
                        np.add.reduce(g * zhat, axis=0, out=grad[slot["gamma"]])
                        np.add.reduce(g, axis=0, out=grad[slot["beta"]])
                    gz = g * layer.gamma
                else:
                    gz = g
                if train:
                    b = gz.shape[0]
                    g = (inv_std / b) * (
                        b * gz - np.add.reduce(gz, axis=0)
                        - zhat * np.add.reduce(gz * zhat, axis=0))
                else:
                    g = gz * inv_std
            if params:
                np.matmul(g.T, x,
                          out=grad[slot["weight"]].reshape(layer.weight.shape))
                np.add.reduce(g, axis=0, out=grad[slot["bias"]])
            g = g @ layer.weight
        return grad, g


def mlp_stack(in_dim, out_dim, hidden_width, hidden_depth, rng: Rng,
              dropout=0.1, hidden_norm=True, final_batch_norm=False,
              final_activation="identity") -> Mlp:
    """Hidden units of linear + batch-norm + relu + dropout, then a bare
    final linear layer (optionally with a non-affine batch norm or an
    output activation)."""
    dims = [in_dim] + [hidden_width] * hidden_depth
    layers = []
    for a, b in zip(dims, dims[1:]):
        layers.append(MlpLayer(a, b, rng, activation="relu",
                               batch_norm=hidden_norm, dropout=dropout))
    layers.append(MlpLayer(dims[-1], out_dim, rng,
                           activation=final_activation,
                           batch_norm=final_batch_norm, bn_affine=False))
    return Mlp(layers)


class AdamW:
    """Decoupled weight-decay Adam (Loshchilov & Hutter, arXiv:1711.05101)
    over a list of parameter arrays, such as each net's `flat` buffer.

    Each array keeps its moments and two scratch arrays; `step` takes one
    gradient per array and updates each array with a fixed sequence of
    whole-array in-place operations."""

    def __init__(self, params, lr=1e-3, weight_decay=1e-2):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        # (m, v, scratch, scratch) per array
        self.state = [tuple(np.zeros(p.shape) for _ in range(4))
                      for p in self.params]

    def step(self, grads):
        if len(grads) != len(self.params):
            raise DimensionError(
                f"got {len(grads)} gradients for {len(self.params)} parameters")
        if any(g.shape != p.shape for g, p in zip(grads, self.params)):
            raise DimensionError("gradient shape mismatch")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, g, (m, v, a, b) in zip(self.params, grads, self.state):
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            np.divide(m, bc1, out=a)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            np.multiply(p, self.weight_decay, out=b)
            a += b
            a *= self.lr
            p -= a
