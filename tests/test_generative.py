from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cgmkit import generative
from cgmkit.checkpoint import load_tensors, save_tensors
from cgmkit.config import PipelineConfig
from cgmkit.constraints import Constraint, sample_cffd_dataset
from cgmkit.errors import (ConfigError, ContainerError,
                           InfeasibleConstraintError)
from cgmkit.generative import (GmConfig, LinearEnforcer, VolumeEnforcer,
                               began_k_update, enforcer_basis, kl_normal,
                               load_model, save_model, train_ae, train_model)
from cgmkit.geometry import (FfdLattice, TriSurface, barycenter_of,
                             synth_shape, volume_of, volumes)
from cgmkit.nn import mlp_stack
from cgmkit.reduction import PcaBasis, pca_fit
from cgmkit.rng import Rng
from cgmkit.stl_io import stl_write

from references import barycenter_rows


def make_dataset(seed=1, n=24, constraint_kind="barycenter", subdivision=1):
    base = synth_shape("icosphere", subdivision)
    lattice = FfdLattice.from_box((2, 2, 2),
                                  base.vertices.min(axis=0) - 0.05,
                                  base.vertices.max(axis=0) + 0.05)
    if constraint_kind == "barycenter":
        constraint = Constraint("barycenter", barycenter_of(base.vertices))
    else:
        constraint = Constraint("volume", volume_of(base))
    vertices, _ = sample_cffd_dataset(lattice, base, constraint, n, 0.05,
                                      Rng(seed))
    return vertices, constraint, base


def barycenter_enforcer(constraint, base):
    """The linear enforcing layer of a barycenter constraint on the base's
    clouds."""
    return LinearEnforcer(barycenter_rows(base.n_vertices), constraint.target)


def small_config(**kw):
    defaults = dict(latent_dim=4, pca_modes=8, hidden_width=32,
                    hidden_depth=2, epochs=12, batch_size=8, seed=3)
    defaults.update(kw)
    return GmConfig(**defaults)


# --- enforcing layers ---------------------------------------------------------

def test_linear_enforcer_exact_and_idempotent():
    rng = Rng(2)
    vertices, constraint, base = make_dataset()
    enforcer = barycenter_enforcer(constraint, base)
    clouds = vertices[:5].reshape(5, -1)
    clouds += rng.normal(clouds.shape) * 0.1  # break feasibility
    out, _ = enforcer.forward(clouds)
    resid = out @ enforcer.matrix.T - constraint.target
    assert np.max(np.abs(resid)) <= 1e-10 * (1.0 + np.linalg.norm(constraint.target))
    again, _ = enforcer.forward(out)
    assert np.max(np.abs(again - out)) < 1e-12


def test_linear_enforcer_backward_is_projector():
    vertices, constraint, base = make_dataset()
    enforcer = barycenter_enforcer(constraint, base)
    rng = Rng(3)
    g = rng.normal((4, 3 * base.n_vertices))
    back = enforcer.backward(None, g)
    # projector: applying twice equals once, and output is constraint-neutral
    assert np.allclose(enforcer.backward(None, back), back)
    assert np.max(np.abs(back @ enforcer.matrix.T)) < 1e-9


def lifted(coeffs, extra=1):
    """PCA coefficients (B, K) as basis coordinates (B, extra + K) with zero
    extra-mode coordinates, as `GenerativeModel.emit` lifts them."""
    return np.column_stack([np.zeros((len(coeffs), extra)), coeffs])


def volume_enforcer(constraint, faces, pca):
    """The volume layer over its basis on a PCA."""
    return VolumeEnforcer(constraint, faces, pca.mean,
                          enforcer_basis("volume", pca.mean, pca.modes))


def layer_clouds(enforcer, pca, coords):
    """The clouds (B, 3M) of the volume layer's output for basis coordinates
    (B, 1 + K), and the layer's cache."""
    out, cache = enforcer.forward(coords)
    return pca.mean + out @ enforcer_basis("volume", pca.mean, pca.modes), cache


def volume_layer(scale=1.0, n=24, modes=6):
    """The volume layer on the PCA of a volume dataset, with the target
    scaled: (layer, PCA, the dataset's lifted PCA coefficients, constraint,
    base)."""
    vertices, constraint, base = make_dataset(n=n, constraint_kind="volume")
    clouds = vertices.reshape(len(vertices), -1)
    pca = pca_fit(clouds, n_modes=modes)
    constraint = Constraint("volume", scale * constraint.target)
    return (volume_enforcer(constraint, base.faces, pca), pca,
            lifted(pca.project(clouds)), constraint, base)


def test_volume_enforcer_batch():
    enforcer, pca, coords, constraint, base = volume_layer()
    rng = Rng(4)
    w = coords[:4] + 0.5 * rng.normal(coords[:4].shape)
    out, cache = layer_clouds(enforcer, pca, w)
    assert out.shape == (4, 3 * base.n_vertices)
    for row_cloud in out:
        v = volume_of(TriSurface(row_cloud.reshape(-1, 3), base.faces))
        assert abs(v - constraint.target) <= 1e-9 * constraint.target
    back = enforcer.backward(cache, rng.normal(w.shape))
    assert back.shape == w.shape and np.all(np.isfinite(back))


def test_volume_enforcer_basis_is_orthonormal_scaling_on_modes():
    _, pca, _, _, _ = volume_layer()
    basis = enforcer_basis("volume", pca.mean, pca.modes)
    assert np.max(np.abs(basis @ basis.T - np.eye(len(basis)))) <= 1e-14
    assert np.array_equal(basis[1:], pca.modes.T)
    mean = pca.mean.reshape(-1, 3)
    scaling = (mean - mean.mean(axis=0)).reshape(-1)
    assert abs(abs(basis[0] @ scaling) - np.linalg.norm(
        scaling - pca.modes @ (pca.modes.T @ scaling))) <= 1e-12


def test_volume_enforcer_empty_batch():
    enforcer, _, coords, _, _ = volume_layer()
    k = coords.shape[1]  # the scaling mode and the modes
    out, cache = enforcer.forward(np.empty((0, k)))
    assert out.shape == (0, k)
    t, g, hessian, normal = cache
    assert t.shape == (0,) and g.shape == normal.shape == (0, k)
    assert hessian.shape == (0, k, k)
    assert enforcer.backward(cache, out).shape == (0, k)


def model_layer(constraint_kind, scale=1.0):
    """A model's enforcing layer on the PCA (6 modes) of a dataset of the
    constraint kind, the target scaled: (model, the dataset's basis
    coordinates)."""
    vertices, constraint, base = make_dataset(constraint_kind=constraint_kind)
    clouds = vertices.reshape(len(vertices), -1)
    model = generative.GenerativeModel(
        kind="ae", config=small_config(pca_modes=6),
        pca=pca_fit(clouds, n_modes=6), nets={},
        constraint=Constraint(constraint.kind, scale * constraint.target),
        faces=base.faces)
    return model, model.coordinates(clouds)[0]


@pytest.mark.parametrize("kind", ["barycenter", "volume"])
def test_enforcer_backward_maps_zero_to_exact_zeros(kind):
    # BEGAN skips the fake-term backward at k_t = 0 on this property
    model, coords = model_layer(kind, scale=1.1)
    out, cache = model.enforcer.forward(coords[:4])
    assert np.all(model.enforcer.backward(cache, np.zeros_like(out)) == 0.0)


def assert_vjp_matches_fd(kind):
    # per row, the derivative of grad . forward along a random direction is
    # the backward pass dotted with that direction
    model, coords = model_layer(kind, scale=1.05)
    enforcer = model.enforcer
    rng = Rng(12)
    w = coords[:6] + 0.3 * rng.normal(coords[:6].shape)
    out, cache = enforcer.forward(w)
    grad = rng.normal(out.shape)
    direction = rng.normal(w.shape)
    h = 1e-6
    fd = (np.vecdot(grad, enforcer.forward(w + h * direction)[0])
          - np.vecdot(grad, enforcer.forward(w - h * direction)[0])) / (2 * h)
    back = enforcer.backward(cache, grad)
    bound = np.linalg.norm(back, axis=1) * np.linalg.norm(direction, axis=1)
    assert np.all(np.abs(fd - np.vecdot(back, direction)) <= 1e-8 * bound)


def test_volume_enforcer_vjp_matches_central_differences():
    assert_vjp_matches_fd("volume")


def test_barycenter_enforcer_vjp_matches_central_differences():
    assert_vjp_matches_fd("barycenter")


def test_barycenter_layer_translates_on_an_orthonormal_basis():
    # three translation modes stacked on the PCA modes; the layer meets the
    # target on the decoded cloud by moving the translation coordinates
    model, coords = model_layer("barycenter", scale=1.1)
    basis = model.basis_t
    assert np.max(np.abs(basis @ basis.T - np.eye(len(basis)))) <= 1e-14
    assert np.array_equal(basis[3:], model.pca.modes.T)
    out, _ = model.enforcer.forward(coords[:5])
    assert np.max(np.abs(out[:, 3:] - coords[:5, 3:])) <= 1e-14
    clouds = (model.pca.mean + out @ basis).reshape(5, -1, 3)
    assert np.max(np.abs(barycenter_of(clouds) - model.constraint.target)) \
        <= 1e-12


def test_volume_enforcer_scales_when_the_modes_only_translate():
    # translations keep the volume, so grad V vanishes on such modes; the
    # scaling mode (the mean about its barycenter) meets the target alone
    base = synth_shape("icosphere", 1)
    modes = np.tile(np.eye(3), (base.n_vertices, 1)) / np.sqrt(base.n_vertices)
    pca = PcaBasis(modes=modes, mean=base.vertices.reshape(-1),
                   singular_values=np.ones(3), reconstruction_error=0.0)
    target = 1.2 * volume_of(base)
    enforcer = volume_enforcer(Constraint("volume", target), base.faces, pca)
    out, _ = layer_clouds(enforcer, pca, np.array([[0.0, 0.3, -0.2, 0.1]]))
    cloud = out.reshape(-1, 3)
    assert abs(volume_of(TriSurface(cloud, base.faces)) - target) <= 1e-9 * target
    center = barycenter_of(cloud)
    assert np.allclose(cloud - center, 1.2 ** (1 / 3) * base.vertices,
                       rtol=0, atol=1e-12)


def test_volume_enforcer_infeasible_when_no_mode_moves_the_volume():
    # a flat two-sided triangle: grad V is zero at every vertex, so neither
    # the translating modes nor the scaling mode can move the volume
    flat = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    modes = np.tile(np.eye(3), (3, 1)) / np.sqrt(3)
    pca = PcaBasis(modes=modes, mean=flat.reshape(-1),
                   singular_values=np.ones(3), reconstruction_error=0.0)
    enforcer = volume_enforcer(Constraint("volume", 1.0),
                               np.array([[0, 1, 2], [0, 2, 1]]), pca)
    with pytest.raises(InfeasibleConstraintError, match="row 0: the volume "
                       "gradient vanishes"):
        enforcer.forward(np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.1, 0.2, 0.3]]))


def test_volume_enforcer_names_a_row_newton_leaves_short(monkeypatch):
    # doubling the volume takes more than three Newton steps from the
    # linear step; with the cap at three the layer names the row instead of
    # returning it, and with the cap in place it meets the target
    enforcer, pca, coords, constraint, base = volume_layer(scale=2.0)
    monkeypatch.setattr(generative, "_NEWTON_STEPS", 3)
    with pytest.raises(InfeasibleConstraintError, match="row 0: the volume "
                       "step does not reach the target in 3 Newton steps"):
        enforcer.forward(coords[:2])
    monkeypatch.undo()
    out, _ = layer_clouds(enforcer, pca, coords[:2])
    v = volumes(out.reshape(2, -1, 3), base.faces)
    assert np.all(np.abs(v - constraint.target) <= 1e-9 * constraint.target)


def chain_gradients(constraint, base, clouds, h=1e-6):
    """Decoder parameter gradients of decode -> the model's emit (lift and
    enforcing layer) -> clouds -> half squared error over a batch of 4
    latents, from the backward pass and from central differences at 7
    entries of each trainable slice: (backward, fd)."""
    pca = pca_fit(clouds, n_modes=5)
    model = generative.GenerativeModel(
        kind="ae", config=small_config(pca_modes=5), pca=pca, nets={},
        constraint=constraint, faces=base.faces)
    rng = Rng(7)
    dec = mlp_stack(3, 5, 8, 1, rng.derive("net"), dropout=0.0).eval()
    z = rng.normal((4, 3))
    target = clouds[:4]

    def loss():
        y, _ = dec.forward(z)
        out = pca.mean + model.emit(y)[0] @ model.basis_t
        return 0.5 * float(np.sum((out - target) ** 2))

    y, cache = dec.forward(z)
    coords, emit_vjp = model.emit(y)
    out = pca.mean + coords @ model.basis_t
    g_y = emit_vjp((out - target) @ model.basis_t.T)
    grads, _ = dec.backward(cache, g_y)
    back, fd = [], []
    for slot in (sl for slots in dec.slots for sl in slots.values()):
        flat, grad = dec.flat[slot], grads[slot]
        for i in np.linspace(0, flat.size - 1, 7).astype(int):
            keep = flat[i]
            flat[i] = keep + h
            lp = loss()
            flat[i] = keep - h
            lm = loss()
            flat[i] = keep
            fd.append((lp - lm) / (2 * h))
            back.append(grad[i])
    return np.array(back), np.array(fd)


def test_enforcing_chain_gradient_matches_fd():
    vertices, constraint, base = make_dataset(n=12)
    clouds = vertices.reshape(len(vertices), -1)
    back, fd = chain_gradients(constraint, base, clouds)
    scale = np.maximum(np.maximum(np.abs(fd), np.abs(back)), 1e-3)
    assert np.all(np.abs(fd - back) / scale < 1e-5)


def test_volume_enforcing_chain_gradient_matches_fd():
    # the exact backward pass of the coefficient step on a fitted PCA
    vertices, _, base = make_dataset(n=12, constraint_kind="volume")
    clouds = vertices.reshape(len(vertices), -1)
    constraint = Constraint("volume", 1.1 * volume_of(base))
    back, fd = chain_gradients(constraint, base, clouds)
    assert np.linalg.norm(back - fd) <= 1e-6 * np.linalg.norm(fd)


# --- objective pieces ---------------------------------------------------------

@pytest.mark.parametrize("constraint_kind", ["barycenter", "volume"])
def test_coefficient_losses_equal_cloud_losses(constraint_kind):
    # on a trained model, the ae norm and the Gaussian term taken on basis
    # coordinates, with each cloud's squared distance off the basis, equal
    # the losses on the decoded clouds, and their gradients equal the cloud
    # gradients taken onto the basis
    vertices, constraint, base = make_dataset(constraint_kind=constraint_kind)
    model = train_model("ae", vertices, base.faces, constraint,
                        small_config(epochs=6))
    clouds = vertices[:8].reshape(8, -1)
    x, perp2 = model.coordinates(clouds)
    assert np.all(perp2 > 1e-6)  # 8 modes leave part of each cloud off
    out, _ = model.emit(model.nets["dec"].forward(model.encode(clouds))[0])
    resid = model.pca.mean + out @ model.basis_t - clouds
    norms = np.linalg.norm(resid, axis=1)
    got, grad = generative._norm_term(out - x, perp2)
    assert abs(got.mean() - norms.mean()) <= 1e-13 * norms.mean()
    want = (resid / norms[:, None] / 8) @ model.basis_t.T
    assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))
    got, grad = generative._gaussian_term(out - x, perp2, 0.5)
    value = np.sum(resid ** 2) / (2 * 0.5 ** 2 * 8)
    assert abs(got - value) <= 1e-13 * value
    want = (resid / (0.5 ** 2 * 8)) @ model.basis_t.T
    assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))


def test_kl_closed_form_hand_value():
    # KL(N(1, 1) || N(0, 1)) = 0.5 per dimension
    assert kl_normal(np.array([1.0]), np.array([1.0])) == pytest.approx(0.5)
    assert kl_normal(np.zeros(3), np.ones(3)) == pytest.approx(0.0)


def test_kl_matches_monte_carlo():
    rng = Rng(11)
    mean = np.array([0.4, -1.2])
    scale = np.array([0.7, 1.8])
    closed = float(kl_normal(mean, scale))
    draws = mean + scale * rng.normal((100_000, 2))
    log_q = -0.5 * np.sum(((draws - mean) / scale) ** 2, axis=1) \
        - np.sum(np.log(scale)) - np.log(2 * np.pi)
    log_p = -0.5 * np.sum(draws ** 2, axis=1) - np.log(2 * np.pi)
    mc = log_q - log_p
    stderr = mc.std(ddof=1) / np.sqrt(len(mc))
    assert abs(closed - mc.mean()) < 3 * stderr


def test_kl_gradient_formulas():
    # training uses d/da = a and d/dscale = scale - 1/scale
    a = np.array([0.3, -0.8])
    s = np.array([0.9, 1.4])
    h = 1e-6
    for j in range(2):
        ap = a.copy()
        ap[j] += h
        am = a.copy()
        am[j] -= h
        fd = (kl_normal(ap, s) - kl_normal(am, s)) / (2 * h)
        assert abs(fd - a[j]) < 1e-8
        sp = s.copy()
        sp[j] += h
        sm = s.copy()
        sm[j] -= h
        fd = (kl_normal(a, sp) - kl_normal(a, sm)) / (2 * h)
        assert abs(fd - (s[j] - 1.0 / s[j])) < 1e-8


def test_began_k_update_hand_values():
    assert began_k_update(0.0, 0.001, 0.5, 1.0, 0.2) == pytest.approx(3e-4)
    assert began_k_update(0.7, 0.001, 1.0, 0.8, 0.8) == pytest.approx(0.7)
    assert began_k_update(0.0, 0.5, 0.5, 0.0, 1.0) == 0.0   # clamped below
    assert began_k_update(1.0, 0.5, 1.0, 4.0, 0.0) == 1.0   # clamped above


# --- training behavior ----------------------------------------------------------

def test_ae_fits_linear_dataset():
    # clouds = mean + U w, built feasible (each basis column has zero
    # per-component point mean, so every sample shares the barycenter).
    # One full batch is one Adam step per epoch: at 500 epochs the loss was
    # still falling and the bound held at 11 of training seeds 1-40; at 2000
    # it holds at all 40 (relative error 4.2e-4 to 8.4e-4)
    rng = Rng(21)
    dim, rank, n = 60, 3, 40
    basis = np.linalg.qr(rng.normal((dim, rank)))[0]
    b3 = basis.reshape(-1, 3, rank)
    b3 -= b3.mean(axis=0, keepdims=True)
    basis = b3.reshape(dim, rank)
    mean = rng.normal(dim) * 2.0
    clouds = mean + rng.normal((n, rank)) @ basis.T
    fake_faces = np.array([[0, 1, 2]])
    target = barycenter_of(clouds[0].reshape(-1, 3))
    constraint = Constraint("barycenter", target)
    cfg = GmConfig(latent_dim=rank, pca_modes=rank, hidden_width=32,
                   hidden_depth=2, epochs=2000, batch_size=n, dropout=0.0,
                   weight_decay=0.0, seed=5)
    model = train_ae(clouds.reshape(n, -1, 3), fake_faces, constraint, cfg)
    assert model.epoch_losses[-1] <= model.epoch_losses[0]
    out = model.decode(model.encode(clouds))
    rel = np.linalg.norm(out - clouds) / np.linalg.norm(clouds)
    assert rel < 1e-3


def test_min_dataset_boundary_one_step_per_epoch():
    vertices, constraint, base = make_dataset(n=8)
    cfg = small_config(batch_size=8, epochs=3)
    model = train_ae(vertices, base.faces, constraint, cfg)
    assert len(model.epoch_losses) == 3


@pytest.mark.parametrize("constraint_kind, room", [("barycenter", 33),
                                                    ("volume", 35)])
def test_pca_modes_leave_room_for_the_extra_modes(constraint_kind, room):
    # 12 points: 36 coordinates hold the PCA modes and the constraint's
    # three (barycenter) or one (volume) extra modes, checked before training
    base = synth_shape("icosphere", 0)
    vertices = base.vertices * (1.0 + 0.05 * Rng(1).normal((40, 12, 3)))
    constraint = Constraint(constraint_kind, barycenter_of(base.vertices)
                            if constraint_kind == "barycenter"
                            else volume_of(base))
    with pytest.raises(ConfigError, match=f"at most {room} ") as err:
        train_ae(vertices, base.faces, constraint,
                 small_config(pca_modes=room + 1, batch_size=40))
    assert err.value.key == "gm.pca_modes"


def test_checkpoint_without_room_for_the_extra_modes_names_path(tmp_path):
    # a volume model with 35 modes on 12 points, its record edited to a
    # barycenter, whose three translation modes leave room for 33
    base = synth_shape("icosphere", 0)
    vertices = base.vertices * (1.0 + 0.05 * Rng(1).normal((40, 12, 3)))
    path = tmp_path / "m.cgmt"
    save_model(train_ae(vertices, base.faces,
                        Constraint("volume", volume_of(base)),
                        small_config(pca_modes=35, batch_size=40, epochs=1)),
               path)
    sidecar = Path(str(path) + ".txt")
    sidecar.write_text(sidecar.read_text().replace(
        "constraint.kind=volume", "constraint.kind=barycenter"))
    tensors = load_tensors(path)
    tensors["constraint.target"] = barycenter_of(base.vertices)
    save_tensors(path, tensors)
    with pytest.raises(ContainerError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: gm.pca_modes must be at most 33")


def test_dataset_below_batch_rejected():
    vertices, constraint, base = make_dataset(n=4)
    with pytest.raises(ConfigError):
        train_ae(vertices, base.faces, constraint, small_config(batch_size=8))


def test_training_deterministic():
    vertices, constraint, base = make_dataset()
    cfg = small_config(epochs=5)
    m1 = train_ae(vertices, base.faces, constraint, cfg)
    m2 = train_ae(vertices, base.faces, constraint, cfg)
    assert np.array_equal(m1.nets["dec"].flat, m2.nets["dec"].flat)
    assert np.array_equal(m1.sampler_mean, m2.sampler_mean)


def test_zero_weight_decoder_emits_enforced_mean():
    vertices, constraint, base = make_dataset()
    model = train_ae(vertices, base.faces, constraint, small_config(epochs=2))
    dec = model.nets["dec"]
    dec.flat[...] = 0.0
    for layer in dec.layers:
        if layer.batch_norm:
            layer.running_mean[...] = 0.0
            layer.running_var[...] = 1.0
    out = model.decode(np.zeros((3, model.config.latent_dim)))
    # the barycenter's minimum-norm projection of the mean is a translation
    mean = model.pca.mean.reshape(-1, 3)
    enforced_mean = mean + constraint.target - barycenter_of(mean)
    for row in out:
        assert np.allclose(row.reshape(-1, 3), enforced_mean, rtol=0,
                           atol=1e-12)


def test_vae_alpha_changes_training():
    vertices, constraint, base = make_dataset()
    m0 = train_model("vae", vertices, base.faces, constraint,
                     small_config(alpha=0.0, epochs=4))
    m0b = train_model("vae", vertices, base.faces, constraint,
                      small_config(alpha=0.0, epochs=4))
    m1 = train_model("vae", vertices, base.faces, constraint,
                     small_config(alpha=10.0, epochs=4))
    p0 = m0.nets["dec"].layers[0].weight
    assert np.array_equal(p0, m0b.nets["dec"].layers[0].weight)
    assert not np.array_equal(p0, m1.nets["dec"].layers[0].weight)


def test_aae_discriminator_near_chance_on_matched_latents():
    vertices, constraint, base = make_dataset(n=32)
    cfg = small_config(epochs=40)
    model = train_model("aae", vertices, base.faces, constraint, cfg)
    clouds = vertices.reshape(len(vertices), -1)
    encoded = model.encode(clouds)
    rng = Rng(33)
    prior = rng.normal(encoded.shape)
    disc = model.nets["disc"]
    d_enc, _ = disc.forward(encoded)
    d_prior, _ = disc.forward(prior)
    accuracy = 0.5 * (np.mean(d_prior > 0.5) + np.mean(d_enc <= 0.5))
    assert abs(accuracy - 0.5) <= 0.15 + 0.1  # desk-scale statistical band


@pytest.mark.parametrize("kind", ["ae", "vae", "aae", "began"])
def test_all_kinds_satisfy_barycenter(kind):
    vertices, constraint, base = make_dataset()
    model = train_model(kind, vertices, base.faces, constraint, small_config())
    out, latents = model.sample(10, Rng(50))
    target = constraint.target
    for cloud in out:
        assert np.max(np.abs(barycenter_of(cloud) - target)) <= 1e-10
    assert latents.shape == (10, model.config.latent_dim)


@pytest.mark.parametrize("kind", ["ae", "vae", "aae", "began"])
def test_volume_models_satisfy_volume(kind):
    vertices, constraint, base = make_dataset(constraint_kind="volume")
    model = train_model(kind, vertices, base.faces, constraint,
                        small_config(epochs=6))
    out, _ = model.sample(6, Rng(51))
    for cloud in out:
        surf = TriSurface(cloud, model.faces)
        assert abs(volume_of(surf) - constraint.target) <= 1e-9 * constraint.target


@pytest.mark.parametrize("kind", ["ae", "vae", "aae", "began"])
def test_decoded_volumes_meet_target_over_seeds(kind):
    # the training seeds were fixed before any result was read
    vertices, constraint, base = make_dataset(constraint_kind="volume")
    target = constraint.target[0]
    for seed in (1, 2, 3):
        model = train_model(kind, vertices, base.faces, constraint,
                            small_config(epochs=6, seed=seed))
        latents = Rng(seed).derive("latents").normal((20, 4))
        clouds = model.decode(latents).reshape(20, -1, 3)
        assert np.max(np.abs(volumes(clouds, base.faces) - target)) \
            <= 1e-9 * target


@pytest.mark.parametrize("constraint_kind", ["barycenter", "volume"])
def test_began_trains_the_fake_term_while_k_is_positive(monkeypatch,
                                                        constraint_kind):
    # k_t starts at 0.5, so every discriminator step takes the fake-term
    # gradient; from k0 = 0 the same data and seed train another discriminator
    vertices, constraint, base = make_dataset(constraint_kind=constraint_kind)
    ks = []

    def recording_update(k, *args):
        ks.append(k)
        return began_k_update(k, *args)

    monkeypatch.setattr("cgmkit.generative.began_k_update", recording_update)
    model = train_model("began", vertices, base.faces, constraint,
                        small_config(epochs=6, k0=0.5))
    assert len(ks) == 18 and min(ks) > 0.0 and model.k_final > 0.0
    out, _ = model.sample(6, Rng(52))
    for cloud in out:
        if constraint_kind == "barycenter":
            assert np.max(np.abs(barycenter_of(cloud) - constraint.target)) <= 1e-10
        else:
            assert abs(volume_of(TriSurface(cloud, model.faces))
                       - constraint.target) <= 1e-9 * constraint.target
    ks.clear()
    at_zero = train_model("began", vertices, base.faces, constraint,
                          small_config(epochs=6))
    assert max(ks) == 0.0
    for name in ("disc_enc", "disc_dec"):
        assert not np.array_equal(model.nets[name].flat, at_zero.nets[name].flat)


@pytest.mark.parametrize("constraint_kind", ["barycenter", "volume"])
def test_began_discriminator_gradient_matches_central_differences(
        monkeypatch, constraint_kind):
    # the gradient one BEGAN step hands the discriminator's optimizer against
    # central differences of the loss f(real) - k f(G(Enc(real))) it returns,
    # at k = 0.5 (fake-term backward on) and k = 0 (skipped); the step runs
    # with a fresh dropout stream each call and optimizers that only record
    vertices, constraint, base = make_dataset(constraint_kind=constraint_kind)
    grads = []

    class Recorder:
        def step(self, g):
            grads.append([a.copy() for a in g])

    fit = generative._fit
    caught = {}

    def fit_untrained(kind, vertices, faces, constraint, config, make_step):
        def make(model, rng):
            caught["model"], caught["step"] = model, make_step(model, rng)
            return lambda *args: (0.0,)
        return fit(kind, vertices, faces, constraint, config, make)

    monkeypatch.setattr(generative, "_optimizer", lambda config, *nets: Recorder())
    monkeypatch.setattr(generative, "_fit", fit_untrained)
    train_model("began", vertices, base.faces, constraint,
                small_config(epochs=1))
    model, step = caught["model"], caught["step"]
    x, perp2 = model.coordinates(vertices[:8].reshape(8, -1))

    def loss_and_disc_grads(k):
        model.k_final = k
        grads.clear()
        loss_d, _ = step(x, perp2, Rng(7), (0, 0))
        return loss_d, grads[0]  # the discriminator step comes first

    flats = [model.nets["disc_enc"].flat, model.nets["disc_dec"].flat]
    directions = [Rng(8).derive(i).normal(flat.shape)
                  for i, flat in enumerate(flats)]
    h = 1e-6
    slopes = {}
    for k in (0.5, 0.0):
        _, disc_grads = loss_and_disc_grads(k)
        for i, (flat, v) in enumerate(zip(flats, directions)):
            start = flat.copy()
            flat[:] = start + h * v
            plus = loss_and_disc_grads(k)[0]
            flat[:] = start - h * v
            minus = loss_and_disc_grads(k)[0]
            flat[:] = start
            fd = (plus - minus) / (2 * h)
            assert abs(disc_grads[i] @ v - fd) <= 1e-6 * max(1.0, abs(fd))
            slopes[k, i] = fd
    # the fake term moves both nets' slopes far beyond the tolerance
    for i in range(2):
        assert abs(slopes[0.5, i] - slopes[0.0, i]) > 1e-3 * max(
            1.0, abs(slopes[0.0, i]))


@pytest.mark.parametrize("constraint_kind", ["barycenter", "volume"])
@pytest.mark.parametrize("kind", ["ae", "vae", "aae", "began"])
def test_training_steps_touch_no_cloud_sized_array(monkeypatch, kind,
                                                   constraint_kind):
    # every step runs with the model's PCA gone and the 3M columns of its
    # basis dropped, so a step that formed or projected a cloud would fail;
    # the nets it trains are bitwise those of an unpatched run
    vertices, constraint, base = make_dataset(constraint_kind=constraint_kind)
    config = small_config(epochs=2, k0=0.5)
    want = train_model(kind, vertices, base.faces, constraint, config)
    fit = generative._fit

    def fit_without_clouds(kind, vertices, faces, constraint, config,
                           make_step):
        def make(model, rng):
            step = make_step(model, rng)

            def cloudless(*args):
                kept = model.pca, model.basis_t
                model.pca, model.basis_t = None, kept[1][:, :0]
                try:
                    return step(*args)
                finally:
                    model.pca, model.basis_t = kept
            return cloudless
        return fit(kind, vertices, faces, constraint, config, make)

    monkeypatch.setattr(generative, "_fit", fit_without_clouds)
    got = train_model(kind, vertices, base.faces, constraint, config)
    for name, net in want.nets.items():
        assert np.array_equal(got.nets[name].flat, net.flat), name


def test_sampling_deterministic_stl_bytes(tmp_path):
    vertices, constraint, base = make_dataset()
    model = train_model("ae", vertices, base.faces, constraint,
                        small_config(epochs=4))
    a, _ = model.sample(1, Rng(77))
    b, _ = model.sample(1, Rng(77))
    pa, pb = tmp_path / "a.stl", tmp_path / "b.stl"
    stl_write(TriSurface(a[0], model.faces), pa)
    stl_write(TriSurface(b[0], model.faces), pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_pca_round_trip_inside_model():
    vertices, constraint, base = make_dataset()
    model = train_model("ae", vertices, base.faces, constraint,
                        small_config(epochs=2))
    clouds = vertices.reshape(len(vertices), -1)
    y = model.pca.project(clouds)
    recon = model.pca.reconstruct(y)
    direct = (clouds - model.pca.mean) @ model.pca.modes @ model.pca.modes.T \
        + model.pca.mean
    assert np.max(np.abs(recon - direct)) < 1e-12


@pytest.mark.parametrize("kind, constraint_kind", [
    pytest.param(kind, ck, id=kind if ck == "barycenter" else f"{kind}-{ck}")
    for ck in ("barycenter", "volume") for kind in ("ae", "vae", "aae", "began")])
def test_checkpoint_round_trip(tmp_path, kind, constraint_kind):
    vertices, constraint, base = make_dataset(constraint_kind=constraint_kind)
    model = train_model(kind, vertices, base.faces, constraint,
                        small_config(epochs=3))
    path = tmp_path / f"{kind}.cgmt"
    save_model(model, path)
    back = load_model(path)
    s1, z1 = model.sample(3, Rng(12))
    s2, z2 = back.sample(3, Rng(12))
    assert np.array_equal(z1, z2)
    assert np.array_equal(s1, s2)
    assert np.array_equal(model.faces, back.faces)


def test_checkpoint_load_writes_through_flat_buffers(tmp_path):
    vertices, constraint, base = make_dataset()
    path = tmp_path / "ae.cgmt"
    save_model(train_model("ae", vertices, base.faces, constraint,
                           small_config(epochs=2)),
               path)
    tensors = load_tensors(path)
    back = load_model(path)
    for net_name, net in back.nets.items():
        names = [(i, name) for i, slots in enumerate(net.slots)
                 for name in slots]
        assert all(np.shares_memory(getattr(net.layers[i], name), net.flat)
                   for i, name in names)
        assert np.array_equal(net.flat, np.concatenate(
            [tensors[f"net.{net_name}.layer{i}.{name}"].ravel()
             for i, name in names]))


@pytest.fixture(scope="module")
def ae_checkpoint(tmp_path_factory):
    vertices, constraint, base = make_dataset()
    path = tmp_path_factory.mktemp("ae") / "ae.cgmt"
    save_model(train_model("ae", vertices, base.faces, constraint,
                           small_config(epochs=2)), path)
    return path


@pytest.mark.parametrize("name", [f.name for f in fields(GmConfig)])
def test_config_and_sidecar_read_each_setting_alike(tmp_path, ae_checkpoint,
                                                    name):
    # the same text is accepted, as the same value, by a config override and
    # by a checkpoint sidecar line, or rejected by both, each naming its key
    copy = tmp_path / "ae.cgmt"
    copy.write_bytes(ae_checkpoint.read_bytes())
    lines = Path(str(ae_checkpoint) + ".txt").read_text().splitlines()
    saved = dict(line.split("=", 1) for line in lines)
    # the config carries the checkpoint's other settings, so a rule across
    # fields sees the same values on both paths
    overrides = {f"gm.{f.name}": saved[f"config.{f.name}"]
                 for f in fields(GmConfig) if f.name != "seed"}
    overrides["pipeline.seed"] = saved["config.seed"]
    key = "pipeline.seed" if name == "seed" else f"gm.{name}"
    outcomes = set()
    for text in ("8", "8.0", "True", "1e-3", "-1", "0", "nan", "inf"):
        try:
            via_config = getattr(PipelineConfig.load(
                overrides={**overrides, key: text}).gm_config(), name)
        except ConfigError as err:
            assert name in str(err), (text, str(err))
            via_config = None
        Path(str(copy) + ".txt").write_text("".join(
            f"config.{name}={text}\n" if line.startswith(f"config.{name}=")
            else f"{line}\n" for line in lines))
        try:
            via_sidecar = getattr(load_model(copy).config, name)
        except ContainerError as err:
            # an accepted value may still misfit the tensors' shapes
            rejected = f"'config.{name}'" in str(err)
            assert str(err).startswith(f"{copy}: ")
            via_sidecar = None if rejected else via_config
        assert via_sidecar == via_config, text
        assert type(via_sidecar) is type(via_config), text
        outcomes.add(via_config is None)
    assert outcomes == {True, False}


def test_checkpoint_bytes_reproducible(tmp_path):
    vertices, constraint, base = make_dataset()
    cfg = small_config(epochs=3)
    p1, p2 = tmp_path / "m1.cgmt", tmp_path / "m2.cgmt"
    save_model(train_model("ae", vertices, base.faces, constraint, cfg), p1)
    save_model(train_model("ae", vertices, base.faces, constraint, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "m1.cgmt.txt").read_text() == \
        (tmp_path / "m2.cgmt.txt").read_text()


def test_unknown_kind_rejected():
    vertices, constraint, base = make_dataset()
    with pytest.raises(ConfigError):
        train_model("gan", vertices, base.faces, constraint, small_config())


def test_config_validation():
    with pytest.raises(ConfigError):
        GmConfig(latent_dim=12, pca_modes=8)
    with pytest.raises(ConfigError):
        GmConfig(batch_size=1)
    with pytest.raises(ConfigError):
        GmConfig(alpha=-1.0)
    with pytest.raises(ConfigError):
        GmConfig(gamma=0.0)


@pytest.mark.parametrize("name", ["latent_dim", "pca_modes", "hidden_width",
                                  "epochs"])
def test_config_rejects_sizes_below_one(name):
    with pytest.raises(ConfigError, match=f"{name} must be at least 1, got 0"):
        GmConfig(**{name: 0})


def test_config_rejects_negative_hidden_depth():
    # depth 0 (no hidden layer) stays valid; a negative depth built the same
    # nets as depth 0 without a diagnostic
    assert GmConfig(hidden_depth=0).hidden_depth == 0
    with pytest.raises(ConfigError,
                       match="hidden_depth must be nonnegative, got -2"):
        GmConfig(hidden_depth=-2)
