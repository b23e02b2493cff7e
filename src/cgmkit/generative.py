"""Constrained generative models over PCA-compressed point clouds.

Every model trains on a stack of clouds (n, M, 3) on one face array and
samples such a stack. Four model kinds share one path: a net decodes a
latent to PCA coefficients, and the constraint's enforcing layer maps them
to coordinates over an orthonormal basis, its extra modes stacked on the
PCA modes, whose clouds meet the constraint exactly. Clouds are formed
only in `decode`, `decode_vjp` and `sample`; a training cloud enters once
per fit as its basis coordinates and its squared distance off the basis,
so every loss is taken on (B, e + K) coordinates and no training step
touches an M-sized array. Every kind trains in one loop (`_fit`) over nets
built from one layout table (`_build_nets`), supplying only its per-batch
step; a backward pass whose parameter gradient no optimizer reads skips it
with `params=False`."""

from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .checkpoint import (load_tensors, read_key_values, require_faces,
                         require_tensor, save_tensors)
from .config import GmConfig, read_gm_config
from .constraints import Constraint
from .errors import (ConfigError, ContainerError, DimensionError,
                     DivergenceError, InfeasibleConstraintError)
from .geometry import barycenter_of, is_closed, volume_polynomial
from .linalg import RANK_TOL, jittered_cholesky, min_norm_gain
from .nn import AdamW, mlp_stack
from .reduction import PcaBasis, pca_fit
from .rng import Rng

MODEL_KINDS = ("ae", "vae", "aae", "began")
_CLAMP = 1e-7  # discriminator outputs are clamped to (eps, 1 - eps) before log
_NEWTON_STEPS = 5  # the volume layer's Newton steps on its cubic


# ---------------------------------------------------------------------------
# Enforcing layers (batched, with manual backward)

def enforcer_basis(kind, mean, modes) -> np.ndarray:
    """A constraint kind's orthonormal basis (e + K, 3M) on a PCA (mean,
    modes (3M, K)): e extra fields orthonormalized against the modes and
    stacked on them, the three translations (barycenter) or the scaling
    mode, the mean about its barycenter (volume: grad V(x) . x = 3 V(x)).
    K > 3M - e raises ConfigError naming 'gm.pca_modes'."""
    points = mean.reshape(-1, 3)
    extra = ((points - points.mean(axis=0)).reshape(-1, 1) if kind == "volume"
             else np.tile(np.eye(3), (len(points), 1)))
    room = len(modes) - extra.shape[1]
    if modes.shape[1] > room:
        raise ConfigError(f"gm.pca_modes must be at most {room} under a "
                          f"{kind} constraint on {len(points)} points, got "
                          f"{modes.shape[1]}", "gm.pca_modes")
    extra = extra - modes @ (modes.T @ extra)
    return np.vstack([np.linalg.qr(extra)[0].T, modes.T])


class LinearEnforcer:
    """x -> x + A^+ (c - A x), the minimum-norm projection of each row of a
    (B, n) batch onto A x = c, with A^+ from `linalg.min_norm_gain`; the
    backward pass is the projector (I - A^+ A). A model builds it on the
    barycenter's rows (3, 3 + K) over its basis coordinates."""

    def __init__(self, matrix, target):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.target = np.asarray(target, dtype=np.float64)
        self.gain, _ = min_norm_gain(self.matrix)

    def forward(self, x):
        if np.shape(x)[-1] != self.matrix.shape[1]:
            raise DimensionError(f"constraint dim {self.matrix.shape[1]} != "
                                 f"input size {np.shape(x)[-1]}")
        residual = x @ self.matrix.T - self.target
        return x - residual @ self.gain.T, None

    def backward(self, cache, grad):
        return grad - (grad @ self.gain) @ self.matrix


class VolumeEnforcer:
    """The volume layer on a (B, 1 + K) batch z of coordinates over a mean
    (3M,) and its basis (`enforcer_basis`, rows (1 + K, 3M)). The volume of
    mean + z @ basis is the cubic S[h, h, h], h = (1, z)
    (`geometry.volume_polynomial`). Each row steps along g = grad_z V to
    y = z + t g, t the root near 0 of V(z + t g) = T, by stacks of one-row
    products, so no row's t depends on the batch. A g that is zero up to
    RANK_TOL |grad_h V| raises InfeasibleConstraintError. The backward pass
    is the exact VJP z_bar = (I + t H)(y_bar - n (g . y_bar) / (n . g)), with
    H = 6 S[h, ., .] the Hessian at z and n = grad_z V(y)."""

    def __init__(self, constraint: Constraint, faces, mean, basis):
        self.constraint = constraint
        faces = np.asarray(faces, dtype=np.int64)
        # closedness depends only on the connectivity, so it is checked once
        if not faces.size or not is_closed(faces):
            raise ConfigError("volume enforcement needs closed connectivity")
        tensor = volume_polynomial(mean, basis.T, faces)
        k = tensor.shape[0]
        self.tensor = tensor.reshape(k, k * k)
        self.inner = tensor[1:, 1:, 1:].reshape(k - 1, (k - 1) ** 2)

    def forward(self, coords):
        b, k = len(coords), len(self.inner)
        h = np.empty((b, k + 1))  # (1, z)
        h[:, 0] = 1.0
        h[:, 1:] = coords
        sh = np.vecmat(h, self.tensor).reshape(b, k + 1, k + 1)
        grad_h = 3.0 * np.matvec(sh, h)
        g = grad_h[:, 1:]
        g2 = np.vecdot(g, g)
        weak = ~(g2 > RANK_TOL ** 2 * np.vecdot(grad_h, grad_h))
        if weak.any():
            i = int(np.flatnonzero(weak)[0])
            raise InfeasibleConstraintError(
                f"row {i}: the volume gradient vanishes on the basis", index=i)
        hessian = 6.0 * sh[:, 1:, 1:]
        hg = np.matvec(hessian, g)
        sgg = np.matvec(np.vecmat(g, self.inner).reshape(b, k, k), g)
        # V(z + t g) - T = c0 + |g|^2 t + c2 t^2 + c3 t^3; t by Newton from
        # the linear step (2 or 3 steps on held data reach roundoff)
        c0 = np.vecdot(grad_h, h) / 3.0 - self.constraint.target
        c2, c3 = np.vecdot(g, hg) / 2.0, np.vecdot(g, sgg)
        d2, d3 = 2.0 * c2, 3.0 * c3
        t = -c0 / g2
        for _ in range(_NEWTON_STEPS):
            t -= (((c3 * t + c2) * t + g2) * t + c0) / ((d3 * t + d2) * t + g2)
        miss = ~(np.abs(((c3 * t + c2) * t + g2) * t + c0)
                 <= 1e-12 * abs(self.constraint.target[0]))
        if miss.any():
            i = int(np.flatnonzero(miss)[0])
            raise InfeasibleConstraintError(
                f"row {i}: the volume step does not reach the target in "
                f"{_NEWTON_STEPS} Newton steps", index=i)
        normal = g + t[:, None] * hg + 3.0 * t[:, None] ** 2 * sgg
        return h[:, 1:] + t[:, None] * g, (t, g, hessian, normal)

    def backward(self, cache, grad):
        t, g, hessian, normal = cache
        u = grad - normal * (np.vecdot(g, grad) / np.vecdot(normal, g))[:, None]
        return u + t[:, None] * np.matvec(hessian, u)


# ---------------------------------------------------------------------------
# Architecture table and model container

def _build_nets(kind, config: GmConfig, rng: Rng) -> dict:
    """Fresh nets of a kind, each drawn from its own derived stream: the one
    place a layout is written, read by training and by `load_model`."""
    r, w, d, latent = (config.pca_modes, config.hidden_width,
                       config.hidden_depth, config.latent_dim)
    enc = dict(in_dim=r, out_dim=latent, hidden_width=w, hidden_depth=d,
               dropout=config.dropout, final_batch_norm=True)
    dec = dict(in_dim=latent, out_dim=r, hidden_width=w, hidden_depth=d,
               dropout=config.dropout)
    specs = {
        "ae": {"enc": enc, "dec": dec},
        "vae": {"enc_mean": enc, "enc_scale": dict(dec, in_dim=r, out_dim=latent),
                "dec": dec},
        "aae": {"enc": enc, "dec": dec,
                "disc": dict(dec, out_dim=1, dropout=config.disc_dropout,
                             final_activation="sigmoid")},
        "began": {"disc_enc": enc, "disc_dec": dec, "gen": dec},
    }
    return {name: mlp_stack(rng=rng.derive(name.replace("_", "-")), **spec)
            for name, spec in specs[kind].items()}


@dataclass
class GenerativeModel:
    kind: str
    config: GmConfig
    pca: PcaBasis
    nets: dict
    constraint: Constraint
    faces: np.ndarray
    sampler_mean: np.ndarray = None   # fitted latent normal (ae only)
    sampler_chol: np.ndarray = None
    epoch_losses: list = field(default_factory=list)
    k_final: float = None             # last equilibrium k (trained began only)
    enforcer: object = field(init=False, repr=False)
    basis_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        """The constraint's basis, and its layer on the basis coordinates."""
        mean, kind = self.pca.mean, self.constraint.kind
        self.basis_t = enforcer_basis(kind, mean, self.pca.modes)
        if kind == "volume":
            self.enforcer = VolumeEnforcer(self.constraint, self.faces, mean,
                                           self.basis_t)
            return
        rows = barycenter_of(self.basis_t.reshape(len(self.basis_t), -1, 3))
        self.enforcer = LinearEnforcer(
            rows.T, self.constraint.target - barycenter_of(mean.reshape(-1, 3)))

    def eval(self):
        for net in self.nets.values():
            net.eval()
        return self

    def coordinates(self, clouds):
        """Basis coordinates (n, e + K) of clouds (n, 3M), and the squared
        distance (n,) of each cloud from the basis's span."""
        centered = clouds - self.pca.mean
        coords = centered @ self.basis_t.T
        perp = centered - coords @ self.basis_t
        return coords, np.vecdot(perp, perp)

    def emit(self, coeffs):
        """PCA coefficients (B, K), lifted with zero extra coordinates, to
        enforced basis coordinates (B, e + K), and the VJP back to coeffs."""
        k = coeffs.shape[1]
        lifted = np.zeros((len(coeffs), len(self.basis_t)))
        lifted[:, -k:] = coeffs
        out, cache = self.enforcer.forward(lifted)
        return out, lambda grad: self.enforcer.backward(cache, grad)[:, -k:]

    def decode(self, latents) -> np.ndarray:
        """Latent batch to enforced cloud batch, eval mode."""
        return self.decode_vjp(latents)[0]

    def decode_vjp(self, latents):
        """Eval-mode decode that keeps its caches: (clouds, vjp), vjp mapping
        a gradient with respect to the clouds (B, 3M) to one with respect to
        the latents (B, latent_dim). In eval mode each cloud depends only on
        its own latent, so row i of the result is the gradient of the term
        of cloud i alone."""
        self.eval()
        net = self.nets["gen"] if self.kind == "began" else self.nets["dec"]
        y, net_cache = net.forward(np.atleast_2d(latents))
        coords, emit_vjp = self.emit(y)
        clouds = coords @ self.basis_t
        clouds += self.pca.mean

        def vjp(grad):
            grad_y = emit_vjp(grad @ self.basis_t.T)
            return net.backward(net_cache, grad_y, params=False)[1]
        return clouds, vjp

    def encode(self, clouds) -> np.ndarray:
        self.eval()
        coords = self.pca.project(np.atleast_2d(clouds))
        key = {"vae": "enc_mean", "began": "disc_enc"}.get(self.kind, "enc")
        return self.nets[key].forward(coords)[0]

    def sample(self, n, rng: Rng):
        """n constraint-feasible clouds (n, M, 3) on `faces`, plus their
        latent records."""
        latents = rng.derive("latents").normal((n, self.config.latent_dim))
        if self.kind == "ae":
            latents = self.sampler_mean + latents @ self.sampler_chol.T
        return self.decode(latents).reshape(n, -1, 3), latents


# ---------------------------------------------------------------------------
# Training: one shared loop, one step per model kind

def _fit(kind, vertices, faces, constraint, config,
         make_step) -> GenerativeModel:
    """Fit the PCA basis to the training stack (n, M, 3) on the faces, build
    the nets and run every epoch's batches.
    `make_step(model, rng)` returns `step(x, perp2, drop, tag)`: on one
    batch (basis coordinates x, the last K the PCA coordinates; squared
    distances perp2 off the basis; dropout masks from drop, other streams
    derived with tag) it returns the loss, then any value to keep finite."""
    clouds = np.reshape(vertices, (len(vertices), -1))
    n = len(clouds)
    if n < config.batch_size:
        raise ConfigError(f"dataset size {n} below batch size {config.batch_size}")
    pca = pca_fit(clouds, n_modes=config.pca_modes)
    rng = Rng(config.seed, (f"train-{kind}",))
    model = GenerativeModel(kind=kind, config=config, pca=pca,
                            nets=_build_nets(kind, config, rng),
                            constraint=constraint, faces=faces)
    step = make_step(model, rng)
    x, perp2 = model.coordinates(clouds)
    for epoch in range(config.epochs):
        losses = []
        for idx in _batches(n, config.batch_size, rng.derive("shuffle", epoch)):
            tag = (epoch, int(idx[0]))
            values = step(x[idx], perp2[idx], rng.derive("drop", *tag), tag)
            for value in values:
                if not np.isfinite(value):
                    raise DivergenceError(f"loss became {value}", epoch=epoch)
            losses.append(values[0])
        model.epoch_losses.append(float(np.mean(losses)))
    return model


def _batches(n, batch_size, rng: Rng):
    perm = rng.permutation(n)
    start = 0
    while start + batch_size <= n:
        yield perm[start:start + batch_size]
        start += batch_size
    if n - start >= 2:
        yield perm[start:]


def _optimizer(config: GmConfig, *nets) -> AdamW:
    """One AdamW over the flat buffers of nets, in net order."""
    return AdamW([net.flat for net in nets], lr=config.lr,
                 weight_decay=config.weight_decay)


def _gaussian_term(resid, perp2, sigma):
    """sum ||(resid, perp)||^2 / (2 sigma^2 B) over (B, D) residuals on the
    basis with squared norms perp2 (B,) off it, and its gradient in resid."""
    b = len(resid)
    value = (np.sum(resid ** 2) + np.sum(perp2)) / (2.0 * sigma ** 2 * b)
    return float(value), resid / (sigma ** 2 * b)


def _norm_term(resid, perp2):
    """Rowwise ||(resid, perp)|| over (B, D) residuals on the basis with
    squared norms perp2 (B,) off it, and the gradient of their mean in resid."""
    norms = np.sqrt(np.vecdot(resid, resid) + perp2)
    safe = np.maximum(norms, 1e-300)[:, None]
    return norms, np.where(norms[:, None] > 0, resid / safe, 0.0) / len(resid)


def softplus(x):
    return np.logaddexp(0.0, x)


def kl_normal(mean, scale) -> np.ndarray:
    """Closed-form KL(N(mean, diag(scale^2)) || N(0, I)) per sample."""
    return 0.5 * np.sum(mean ** 2 + scale ** 2 - 1.0 - 2.0 * np.log(scale),
                        axis=-1)


def train_ae(vertices, faces, constraint,
             config: GmConfig) -> GenerativeModel:
    """Plain autoencoder on the L2 reconstruction loss, with the enforcing
    layer inside the reconstruction path. The latent sampler is a normal
    fitted to the encoded training set."""

    def make_step(model, rng):
        enc, dec = model.nets.values()
        opt = _optimizer(config, enc, dec)

        def step(x, perp2, drop, tag):
            z, enc_cache = enc.forward(x[:, -config.pca_modes:], rng=drop)
            y, dec_cache = dec.forward(z, rng=drop)
            out, emit_vjp = model.emit(y)
            norms, g_out = _norm_term(out - x, perp2)
            dec_grads, g_z = dec.backward(dec_cache, emit_vjp(g_out))
            enc_grads, _ = enc.backward(enc_cache, g_z)
            opt.step([enc_grads, dec_grads])
            enc.note_update()
            dec.note_update()
            return (float(norms.mean()),)
        return step

    model = _fit("ae", vertices, faces, constraint, config, make_step)
    latents = model.encode(np.reshape(vertices, (len(vertices), -1)))
    model.sampler_mean = latents.mean(axis=0)
    centered = latents - model.sampler_mean
    cov = centered.T @ centered / max(len(latents) - 1, 1)
    model.sampler_chol = jittered_cholesky(cov)[0]
    return model


def train_vae(vertices, faces, constraint,
              config: GmConfig) -> GenerativeModel:
    """Variational model: Gaussian posterior with encoder mean and
    softplus-positive scale, reparameterized sampling, closed-form KL
    weighted by alpha."""

    def make_step(model, rng):
        enc_mean, enc_scale, dec = model.nets.values()
        opt = _optimizer(config, enc_mean, enc_scale, dec)

        def step(x, perp2, drop, tag):
            b = len(x)
            coords = x[:, -config.pca_modes:]
            a, a_cache = enc_mean.forward(coords, rng=drop)
            raw, raw_cache = enc_scale.forward(coords, rng=drop)
            scale = softplus(raw) + 1e-12  # floor keeps log and 1/scale finite
            eps = rng.derive("reparam", *tag).normal(a.shape)
            z = a + scale * eps
            y, dec_cache = dec.forward(z, rng=drop)
            out, emit_vjp = model.emit(y)
            recon, g_out = _gaussian_term(out - x, perp2, config.sigma)
            kl = float(kl_normal(a, scale).mean())
            dec_grads, g_z = dec.backward(dec_cache, emit_vjp(g_out))
            g_a = g_z + config.alpha * a / b
            g_scale = g_z * eps + config.alpha * (scale - 1.0 / scale) / b
            g_raw = g_scale / (1.0 + np.exp(-raw))
            mean_grads, _ = enc_mean.backward(a_cache, g_a)
            scale_grads, _ = enc_scale.backward(raw_cache, g_raw)
            opt.step([mean_grads, scale_grads, dec_grads])
            for net in (enc_mean, enc_scale, dec):
                net.note_update()
            return (recon + config.alpha * kl,)
        return step

    return _fit("vae", vertices, faces, constraint, config, make_step)


def _bce_grad(outputs, want_real, b):
    """Gradient of -log(D) (want_real) or -log(1 - D) w.r.t. D, averaged
    over the batch, zero where the clamp saturates."""
    clamped = np.clip(outputs, _CLAMP, 1.0 - _CLAMP)
    inside = (outputs > _CLAMP) & (outputs < 1.0 - _CLAMP)
    g = -1.0 / clamped if want_real else 1.0 / (1.0 - clamped)
    return np.where(inside, g, 0.0) / b


def train_aae(vertices, faces, constraint,
              config: GmConfig) -> GenerativeModel:
    """Adversarial autoencoder: a latent discriminator learns to tell prior
    draws (real) from encodings (fake); the encoder fights back while the
    encoder/decoder pair minimizes the Gaussian reconstruction term."""

    def make_step(model, rng):
        enc, dec, disc = model.nets.values()
        opt_ae = _optimizer(config, enc, dec)
        opt_disc = _optimizer(config, disc)

        def step(x, perp2, drop, tag):
            b = len(x)
            coords = x[:, -config.pca_modes:]
            # discriminator step: real = prior draws, fake = encodings
            z_fake, _ = enc.forward(coords, rng=drop)
            z_real = rng.derive("prior", *tag).normal(z_fake.shape)
            d_real, real_cache = disc.forward(z_real, rng=drop)
            d_fake, fake_cache = disc.forward(z_fake, rng=drop)
            real_grads, _ = disc.backward(real_cache, _bce_grad(d_real, True, b))
            fake_grads, _ = disc.backward(fake_cache, _bce_grad(d_fake, False, b))
            opt_disc.step([real_grads + fake_grads])
            disc.note_update()
            # reconstruction + adversarial step for encoder/decoder
            z, enc_cache = enc.forward(coords, rng=drop)
            y, dec_cache = dec.forward(z, rng=drop)
            out, emit_vjp = model.emit(y)
            recon, g_out = _gaussian_term(out - x, perp2, config.sigma)
            d_adv, adv_cache = disc.forward(z, rng=drop)
            adv = float(-np.log(np.clip(d_adv, _CLAMP, 1.0 - _CLAMP)).mean())
            dec_grads, g_z = dec.backward(dec_cache, emit_vjp(g_out))
            _, g_z_adv = disc.backward(adv_cache, _bce_grad(d_adv, True, b),
                                       params=False)
            enc_grads, _ = enc.backward(enc_cache, g_z + g_z_adv)
            opt_ae.step([enc_grads, dec_grads])
            enc.note_update()
            dec.note_update()
            return (recon + adv,)
        return step

    return _fit("aae", vertices, faces, constraint, config, make_step)


def began_k_update(k, gain, gamma, loss_real, loss_generated) -> float:
    """k_t = clamp(k_{t-1} + gain * (gamma * E[f(x)] - E[f(G(z))]), 0, 1)."""
    return float(np.clip(k + gain * (gamma * loss_real - loss_generated),
                         0.0, 1.0))


def train_began(vertices, faces, constraint,
                config: GmConfig) -> GenerativeModel:
    """Boundary-equilibrium adversarial training.

    The discriminator is an autoencoder scored by f(u) = ||u - D(u)||; per
    batch it minimizes f(real) - k_t * f(G(Enc(real))), the generator
    minimizes f(G(z)), and k_t is updated by the proportional control rule
    and clamped to [0, 1]; the model keeps the last k_t as `k_final`.

    While k_t = 0 the fake term's gradient is exactly zero, so its backward
    (through the discriminator, the enforcer and the frozen generator) is
    skipped. Its forward passes still run: f(fake) feeds the loss, and they
    move the batch-norm running statistics and consume the dropout stream
    exactly as at k_t > 0."""

    def make_step(model, rng):
        disc_enc, disc_dec, gen = model.nets.values()
        opt_disc = _optimizer(config, disc_enc, disc_dec)
        opt_gen = _optimizer(config, gen)
        model.k_final = float(config.k0)
        pcs = np.s_[:, -config.pca_modes:]  # the PCA coordinates

        def disc_f(u, perp2, drop):
            """f(u) = ||u - D(u)|| rowwise from u's basis coordinates and
            squared norm off the basis; the gradient of mean f w.r.t. u, the
            caches and D's encoding of u."""
            h, ce = disc_enc.forward(u[pcs], rng=drop)
            w, cd = disc_dec.forward(h, rng=drop)
            resid = u.copy()
            resid[pcs] -= w
            norms, grad = _norm_term(resid, perp2)
            return norms, grad, ce, cd, h

        def f_input_grad(grad, ce, cd, coeff, params):
            """Gradient of coeff * mean f w.r.t. the f input's basis
            coordinates, and the discriminator's (encoder, decoder)
            parameter gradients, which are None with params False."""
            dd_grads, g_h = disc_dec.backward(cd, -coeff * grad[pcs],
                                              params=params)
            de_grads, g_pu = disc_enc.backward(ce, g_h, params=params)
            g_u = coeff * grad
            g_u[pcs] += g_pu
            return g_u, de_grads, dd_grads

        def step(x, perp2, drop, tag):
            k = model.k_final
            b = len(x)
            # one encoder pass feeds both the real reconstruction and the
            # generator's fake input G(Enc(x)), run through the enforcer
            norms_x, grad_x, ce, cd, h = disc_f(x, perp2, drop)
            f_real = float(norms_x.mean())
            yg, cg = gen.forward(h, rng=drop)
            fake, fake_vjp = model.emit(yg)  # on the basis: no part off it
            norms_g, grad_g, ce2, cd2, _ = disc_f(fake, 0.0, drop)
            f_fake = float(norms_g.mean())
            loss_d = f_real - k * f_fake
            # discriminator gradients: real term output path
            dec_grads, g_h = disc_dec.backward(cd, -grad_x[pcs])
            fake_enc_grads = 0.0
            if k != 0.0:
                # fake term: -k * mean f(fake), both through D and through Enc
                g_fake_input, fake_enc_grads, fake_dec_grads = f_input_grad(
                    grad_g, ce2, cd2, -k, True)
                g_yg = fake_vjp(g_fake_input)
                # generator frozen here
                _, g_h_fake = gen.backward(cg, g_yg, params=False)
                dec_grads += fake_dec_grads
                g_h += g_h_fake
            enc_grads, _ = disc_enc.backward(ce, g_h)
            opt_disc.step([enc_grads + fake_enc_grads, dec_grads])
            disc_enc.note_update()
            disc_dec.note_update()
            # generator step on fresh prior draws
            z = rng.derive("prior", *tag).normal((b, config.latent_dim))
            yg2, cg2 = gen.forward(z, rng=drop)
            gen_out, gen_vjp = model.emit(yg2)
            norms_z, grad_z, ce3, cd3, _ = disc_f(gen_out, 0.0, drop)
            f_gen = float(norms_z.mean())
            g_gen_input = f_input_grad(grad_z, ce3, cd3, 1.0, False)[0]
            gen_grads, _ = gen.backward(cg2, gen_vjp(g_gen_input))
            opt_gen.step([gen_grads])
            gen.note_update()
            model.k_final = began_k_update(k, config.k_gain, config.gamma,
                                           f_real, f_gen)
            return loss_d, f_gen
        return step

    return _fit("began", vertices, faces, constraint, config, make_step)


TRAINERS = {"ae": train_ae, "vae": train_vae, "aae": train_aae,
            "began": train_began}


def train_model(kind, vertices, faces, constraint,
                config: GmConfig) -> GenerativeModel:
    if kind not in TRAINERS:
        raise ConfigError(f"unknown model kind {kind!r}")
    return TRAINERS[kind](vertices, faces, constraint, config)


# ---------------------------------------------------------------------------
# Checkpoints

def save_model(model: GenerativeModel, path):
    """Checkpoint = tensor container plus a text sidecar (path + '.txt')
    recording kind, config and constraint."""
    tensors = {"pca.modes": model.pca.modes, "pca.mean": model.pca.mean,
               "pca.singular_values": model.pca.singular_values,
               "faces": model.faces.astype(np.float64)}
    for net_name, net in model.nets.items():
        for tensor_name, arr in net.state_tensors():
            tensors[f"net.{net_name}.{tensor_name}"] = arr
    if model.sampler_mean is not None:
        tensors["sampler.mean"] = model.sampler_mean
        tensors["sampler.chol"] = model.sampler_chol
    tensors["constraint.target"] = model.constraint.target
    lines = [f"kind={model.kind}"] + [
        f"config.{f.name}={getattr(model.config, f.name)!r}"
        for f in fields(GmConfig)] + [f"constraint.kind={model.constraint.kind}"]
    save_tensors(path, tensors)
    with open(str(path) + ".txt", "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> GenerativeModel:
    """Read a checkpoint written by `save_model`. A malformed sidecar line,
    a missing sidecar key or tensor, an unknown kind, a config value that
    `config.read_gm_config` rejects, a constraint record that `Constraint`
    rejects, more modes than `enforcer_basis` has room for or a tensor
    whose shape differs from the layout raises ContainerError naming the
    path and key. An older checkpoint's `constraint.matrix` is not read."""
    tensors = load_tensors(path)

    def defect(message):
        return ContainerError(f"{path}: {message}")

    meta = read_key_values(str(path) + ".txt")

    def entry(key, known=None):
        if key not in meta:
            raise defect(f"sidecar has no {key!r} entry")
        if known is not None and meta[key] not in known:
            raise defect(f"sidecar {key!r} names unknown value {meta[key]!r}")
        return meta[key]

    tensor = partial(require_tensor, tensors, path)  # None in a shape: any extent

    kind = entry("kind", MODEL_KINDS)
    try:
        config = read_gm_config(entry, "config.")
    except ConfigError as err:
        raise defect(f"sidecar {err.key!r}: {err}") from None
    modes = tensor("pca.modes", (None, config.pca_modes))
    dim = modes.shape[0]
    pca = PcaBasis(modes=modes, mean=tensor("pca.mean", (dim,)),
                   singular_values=tensor("pca.singular_values", (None,)),
                   reconstruction_error=0.0)
    faces = require_faces(tensors, path, dim // 3)
    nets = _build_nets(kind, config, Rng(0, ("load",)))
    for net_name, net in nets.items():
        for tensor_name, arr in net.state_tensors():
            arr[...] = tensor(f"net.{net_name}.{tensor_name}", arr.shape)
        net.eval()
    try:
        constraint = Constraint(entry("constraint.kind"),
                                tensor("constraint.target", (None,)))
        model = GenerativeModel(kind=kind, config=config, pca=pca, nets=nets,
                                constraint=constraint, faces=faces)
    except ConfigError as err:
        raise defect(str(err)) from None
    if kind == "ae":
        model.sampler_mean = tensor("sampler.mean", (config.latent_dim,))
        model.sampler_chol = tensor("sampler.chol", (config.latent_dim,) * 2)
    return model
