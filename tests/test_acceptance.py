"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured values (run with -s to see them on success).

Criteria:
  1. constraint exactness of all four model kinds (barycenter and volume)
  2. constrained-FFD correction: residuals, KKT row-space, pinned points
  3. numerics: FD gradient checks, AdamW hand value, eigen residual
  4. geometry: exact volumes, FD volume rows, lossless STL round trip
  5. Jensen-Shannon distance properties and self-comparison band
  6. POD-with-interpolation surrogates over a trained model's latents
  7. active subspaces: rank-1 recovery, bootstrap bands, ridge surrogate
  8. byte-identical pipeline re-runs
  9. (soft) generated-versus-training total variance band
"""

import os
import time

import numpy as np
import pytest

from cgmkit.cli import main as cli_main
from cgmkit.constraints import (Constraint, barycenter_rows, cffd_correct,
                                sample_cffd_dataset)
from cgmkit.generative import GmConfig, train_model
from cgmkit.geometry import (FfdLattice, TriSurface, barycenter_of, ffd_map,
                             synth_shape, volume_of)
from cgmkit.nn import AdamW, Mlp, MlpLayer
from cgmkit.linalg import eigh_symmetric
from cgmkit.reduction import (as_fit, as_response_surface, fd_gradients,
                              gpr_fit, podi_fit)
from cgmkit.rng import Rng
from cgmkit.stl_io import stl_read, stl_write
from cgmkit.synthfield import FieldSpec, snapshot_of
from cgmkit.validation import jsd, metric_report, total_variance

BARY_TOL = 1e-10
VOL_TOL = 1e-9


def box_lattice(surface, grid=(2, 2, 2), pad=0.05):
    return FfdLattice.from_box(grid,
                               surface.vertices.min(axis=0) - pad,
                               surface.vertices.max(axis=0) + pad)


@pytest.fixture(scope="session")
def bench():
    """60-sample icosphere datasets (barycenter- and volume-constrained)."""
    base = synth_shape("icosphere", 2)
    lattice = box_lattice(base)
    bary = Constraint("barycenter", barycenter_of(base.vertices))
    vol = Constraint("volume", volume_of(base))
    bary_data, _ = sample_cffd_dataset(lattice, base, bary, 60, 0.05, Rng(101))
    vol_data, _ = sample_cffd_dataset(lattice, base, vol, 60, 0.05, Rng(102))
    return {
        "base": base,
        "lattice": lattice,
        "bary": bary,
        "vol": vol,
        "bary_vertices": bary_data,
        "vol_vertices": vol_data,
    }


def bench_config(seed):
    return GmConfig(latent_dim=8, pca_modes=10, hidden_width=64,
                    hidden_depth=3, epochs=120, batch_size=20, seed=seed)


@pytest.fixture(scope="session")
def trained_ae(bench):
    return train_model("ae", bench["bary_vertices"], bench["base"].faces,
                       bench["bary"], bench_config(7))


def test_criterion_1_constraint_exactness(bench, trained_ae):
    start = time.monotonic()
    bary_target = bench["bary"].target
    vol_target = bench["vol"].target[0]
    worst = {}
    for kind in ("ae", "vae", "aae", "began"):
        model = trained_ae if kind == "ae" else train_model(
            kind, bench["bary_vertices"], bench["base"].faces, bench["bary"],
            bench_config(7))
        samples, _ = model.sample(100, Rng(500))
        residual = max(np.max(np.abs(barycenter_of(s) - bary_target))
                       for s in samples)
        worst[f"{kind}/barycenter"] = residual
        assert residual <= BARY_TOL, f"{kind} barycenter residual {residual:.3e}"
        vmodel = train_model(kind, bench["vol_vertices"], bench["base"].faces,
                             bench["vol"], bench_config(8))
        vsamples, _ = vmodel.sample(100, Rng(501))
        vresidual = max(
            abs(volume_of(TriSurface(s, vmodel.faces)) - vol_target)
            / vol_target for s in vsamples)
        worst[f"{kind}/volume"] = vresidual
        assert vresidual <= VOL_TOL, f"{kind} volume residual {vresidual:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 20 * 60
    worst_line = max(worst.items(), key=lambda kv: kv[1])
    print(f"criterion 1: PASS - 4 kinds x 100 samples, worst residual "
          f"{worst_line[1]:.2e} ({worst_line[0]}), {elapsed:.0f}s")


def test_criterion_2_cffd_correctness(bench):
    base, lattice = bench["base"], bench["lattice"]
    bary, vol = bench["bary"], bench["vol"]
    rng = Rng(200)
    influence = lattice.influence(base.vertices)
    composite = np.einsum("qlc,lp,cd->qpd",
                          barycenter_rows(base.n_vertices).reshape(3, -1, 3),
                          influence, lattice.a_phi).reshape(3, -1)
    worst_resid = worst_kkt = 0.0
    for i in range(100):
        dp = 0.05 * rng.derive("b", i).normal((lattice.n_control, 3))
        delta = cffd_correct(lattice, dp, base, bary)
        deformed, _ = ffd_map(lattice, dp + delta, base.vertices)
        resid = np.max(np.abs(barycenter_of(deformed) - bary.target))
        lam, *_ = np.linalg.lstsq(composite.T, delta.reshape(-1), rcond=None)
        kkt = np.linalg.norm(composite.T @ lam - delta.reshape(-1))
        worst_resid = max(worst_resid, resid)
        worst_kkt = max(worst_kkt, kkt)
    assert worst_resid <= 1e-9
    assert worst_kkt <= 1e-9
    worst_vol = 0.0
    for i in range(100):
        dp = 0.05 * rng.derive("v", i).normal((lattice.n_control, 3))
        delta = cffd_correct(lattice, dp, base, vol)
        deformed, _ = ffd_map(lattice, dp + delta, base.vertices)
        err = abs(volume_of(TriSurface(deformed, base.faces)) - vol.target[0])
        worst_vol = max(worst_vol, err / vol.target[0])
    assert worst_vol <= 1e-9
    # weighted variant with a pinned cut plane
    weights = np.ones(lattice.n_control)
    pinned = lattice.control_points_local()[:, 0] == 0.0
    weights[pinned] = 0.0
    worst_pin = 0.0
    for i in range(20):
        dp = 0.05 * rng.derive("w", i).normal((lattice.n_control, 3))
        dp[pinned] = 0.0
        delta = cffd_correct(lattice, dp, base, bary, weights=weights)
        worst_pin = max(worst_pin, np.max(np.abs(delta[pinned])))
        deformed, _ = ffd_map(lattice, dp + delta, base.vertices)
        assert np.max(np.abs(barycenter_of(deformed) - bary.target)) <= 1e-9
    assert worst_pin == 0.0
    print(f"criterion 2: PASS - 200 draws, residual {worst_resid:.2e} / "
          f"{worst_vol:.2e}, KKT {worst_kkt:.2e}, pinned displacement "
          f"{worst_pin:.1f}")


def test_criterion_3_numerics():
    # FD gradient check over the layer types used by the architectures:
    # linear+bn(affine)+relu+dropout, final linear+bn(non-affine),
    # sigmoid head, bare linear
    rng = Rng(300)
    net = Mlp([
        MlpLayer(6, 12, rng.derive(0), activation="relu", batch_norm=True,
                 dropout=0.0),
        MlpLayer(12, 8, rng.derive(1), activation="relu", batch_norm=True,
                 dropout=0.0),
        MlpLayer(8, 5, rng.derive(2), batch_norm=True, bn_affine=False),
        MlpLayer(5, 3, rng.derive(3), activation="sigmoid"),
        MlpLayer(3, 2, rng.derive(4)),
    ])
    net.train().forward(rng.derive("warm").normal((32, 6)), rng=rng.derive("d"))
    net.eval()
    x = rng.derive("x").normal((5, 6))
    out, cache = net.forward(x)
    grads, _ = net.backward(cache, out)

    def loss():
        res, _ = net.forward(x)
        return 0.5 * float(np.sum(res ** 2))

    h = 1e-6
    worst_fd = 0.0
    for slot in (sl for slots in net.slots for sl in slots.values()):
        flat, grad = net.flat[slot], grads[slot]
        for i in np.linspace(0, flat.size - 1, 9).astype(int):
            keep = flat[i]
            flat[i] = keep + h
            lp = loss()
            flat[i] = keep - h
            lm = loss()
            flat[i] = keep
            fd = (lp - lm) / (2 * h)
            rel = abs(fd - grad.reshape(-1)[i]) / max(abs(fd),
                                                      abs(grad.reshape(-1)[i]),
                                                      1e-3)
            worst_fd = max(worst_fd, rel)
    assert worst_fd < 1e-5
    # AdamW single step, hand-derived
    theta = np.array([0.0])
    AdamW([theta], lr=1e-3, weight_decay=0.0).step([np.array([1.0])])
    adam_err = abs(theta[0] - (-1e-3 / (1.0 + 1e-8)))
    assert adam_err < 1e-12
    # eigendecomposition residual
    a = Rng(301).normal((12, 12))
    a = a + a.T
    w, v = eigh_symmetric(a)
    eig_resid = np.linalg.norm(a @ v - v * w) / np.linalg.norm(a)
    assert eig_resid <= 1e-9
    print(f"criterion 3: PASS - FD {worst_fd:.2e}, AdamW {adam_err:.1e}, "
          f"eigen residual {eig_resid:.2e}")


def test_criterion_4_geometry(tmp_path):
    tet = TriSurface(
        np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]))
    tet_err = abs(volume_of(tet) - 1.0 / 6.0)
    assert tet_err == 0.0
    sphere = synth_shape("icosphere", 3)
    exact = 4.0 * np.pi / 3.0
    sphere_err = abs(volume_of(sphere) - exact) / exact
    assert sphere_err < 0.01
    # volume rows against the FD oracle
    from cgmkit.constraints import volume_constraint_row
    h = 1e-6
    worst_row = 0.0
    for component, c in (("x", 0), ("y", 1), ("z", 2)):
        row, _ = volume_constraint_row(sphere, component)
        for i in np.linspace(0, sphere.n_vertices - 1, 8).astype(int):
            vp = sphere.vertices.copy()
            vp[i, c] += h
            vm = sphere.vertices.copy()
            vm[i, c] -= h
            fd = (volume_of(TriSurface(vp, sphere.faces))
                  - volume_of(TriSurface(vm, sphere.faces))) / (2 * h)
            worst_row = max(worst_row, abs(fd - row[i])
                            / max(abs(fd), abs(row[i]), 1e-2))
    assert worst_row <= 1e-7
    # lossless STL round trip
    path = tmp_path / "sphere.stl"
    stl_write(sphere, path)
    back = stl_read(path)
    assert np.array_equal(back.vertices, sphere.vertices)
    assert np.array_equal(back.faces, sphere.faces)
    print(f"criterion 4: PASS - tet exact, sphere volume err "
          f"{sphere_err:.2%}, volume row vs FD {worst_row:.1e}, "
          f"STL round trip bit-exact")


def test_criterion_5_jsd_suite():
    rng = Rng(505)
    x = rng.normal(200)
    ident = jsd(x, x.copy())
    assert ident <= 1e-9
    y = rng.normal(200) * 1.4 + 0.3
    sym = abs(jsd(x, y) - jsd(y, x))
    assert sym <= 1e-12
    values = [jsd(rng.derive(i).normal(80) * (1 + i),
                  rng.derive(i, 1).normal(80) + i) for i in range(8)]
    assert all(0.0 <= v <= 1.0 for v in values)
    affine = max(abs(jsd(2.0 * x + 1.0, 2.0 * y + 1.0) - jsd(x, y)),
                 abs(jsd(-0.5 * x + 3.0, -0.5 * y + 3.0) - jsd(x, y)))
    assert affine <= 1e-3
    # self-comparison of a 200-sample dataset: inertia-component JSD band
    base = synth_shape("icosphere", 1)
    lattice = box_lattice(base)
    constraint = Constraint("barycenter", barycenter_of(base.vertices))
    data = (sample_cffd_dataset(lattice, base, constraint, 200, 0.05,
                                Rng(506))[0], base.faces)
    report = metric_report(data, data, constraint=constraint)
    inertia_jsd = {name: value for name, value in report.rows
                   if name.startswith("jsd_I_")}
    assert all(v <= 0.05 for v in inertia_jsd.values())
    print(f"criterion 5: PASS - identical {ident:.1e}, symmetry {sym:.1e}, "
          f"bounded, affine {affine:.1e}, self-comparison max "
          f"{max(inertia_jsd.values()):.2e}")


def test_criterion_6_podi(bench, trained_ae):
    start = time.monotonic()
    clouds, latents = trained_ae.sample(100, Rng(600))
    spec = FieldSpec("bump")
    snapshots = np.stack([snapshot_of(cloud, spec) for cloud in clouds])
    mu_train, mu_test = latents[:80], latents[80:]
    s_train, s_test = snapshots[:80], snapshots[80:]
    podi_rbf = podi_fit(mu_train, s_train, 3, regressor="rbf", rng=Rng(0))
    train_err = np.linalg.norm(podi_rbf(mu_train) - s_train)
    truncation = podi_rbf.basis.reconstruction_error
    assert train_err <= truncation + 1e-9
    errors = {"rbf": (train_err, np.linalg.norm(
        podi_rbf(mu_test) - s_test))}
    for kind in ("gpr", "nn"):
        model = podi_fit(mu_train, s_train, 3, regressor=kind, rng=Rng(601),
                         nn_epochs=300)
        tr = np.linalg.norm(model(mu_train) - s_train)
        te = np.linalg.norm(model(mu_test) - s_test)
        assert np.isfinite(tr) and np.isfinite(te)
        errors[kind] = (tr, te)
    elapsed = time.monotonic() - start
    assert elapsed < 5 * 60
    table = ", ".join(f"{k}: train {v[0]:.2e} test {v[1]:.2e}"
                      for k, v in errors.items())
    print(f"criterion 6: PASS - rbf train error {train_err:.3e} <= "
          f"truncation {truncation:.3e} + 1e-9; {table}; {elapsed:.0f}s")


def test_criterion_7_active_subspaces():
    rng = Rng(700)
    mu = rng.uniform((2000, 5)) * 2.0 - 1.0
    grads = 2.0 * mu[:, :1] * np.eye(5)[0][None, :]
    subspace = as_fit(grads, 1, n_bootstrap=100, rng=rng.derive("boot"))
    cosine = abs(float(subspace.active[:, 0] @ np.eye(5)[0]))
    assert cosine > 0.999
    assert np.all(subspace.band_min <= subspace.eigenvalues + 1e-12)
    assert np.all(subspace.eigenvalues <= subspace.band_max + 1e-12)
    # ridge function response surface at r_AS = 1
    w = np.array([2.0, -1.0, 0.5, 1.0, -0.5])
    w /= np.linalg.norm(w)

    def ridge(m):
        t = m @ w
        return np.sin(2.0 * t) + 0.5 * t ** 2

    mu_train = rng.derive("tr").uniform((200, 5)) * 2.0 - 1.0
    mu_test = rng.derive("te").uniform((100, 5)) * 2.0 - 1.0
    grads = fd_gradients(ridge, mu_train)
    sub = as_fit(grads, 1, n_bootstrap=100, rng=rng.derive("b2"))
    surface = as_response_surface(sub, mu_train, ridge(mu_train))
    pred = surface(mu_test)
    rel = np.linalg.norm(pred - ridge(mu_test)) / np.linalg.norm(ridge(mu_test))
    assert rel < 1e-2
    print(f"criterion 7: PASS - |cos| {cosine:.5f}, bands contain estimates, "
          f"ridge surface error {rel:.2e}")


ACCEPT_CONFIG = """
shape.subdivision = 1
dataset.n_train = 16
dataset.n_test = 4
rom.n_train = 12
rom.n_test = 4
rom.pod_modes = 2
rom.bootstrap = 10
rom.nn_epochs = 40
gm.latent_dim = 3
gm.pca_modes = 6
gm.hidden_width = 16
gm.hidden_depth = 1
gm.epochs = 10
gm.batch_size = 8
"""


def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(ACCEPT_CONFIG)

    def pipeline(tag):
        root = tmp_path / tag
        data = str(root / "data")
        assert cli_main(["generate", "--config", str(cfg), "--seed", "9",
                         "--out", data]) == 0
        assert cli_main(["train", "--config", str(cfg), "--seed", "9",
                         "--out", str(root / "run"), "--kind", "ae",
                         "--data", data]) == 0
        ckpt = str(root / "run" / "model_ae.cgmt")
        assert cli_main(["sample", ckpt, "--config", str(cfg), "--n", "6",
                         "--seed", "3", "--out", str(root / "gen")]) == 0
        assert cli_main(["validate", data, str(root / "gen"), "--config",
                         str(cfg), "--out", str(root / "val")]) == 0
        assert cli_main(["surrogate", ckpt, "--config", str(cfg), "--seed",
                         "4", "--method", "rbf",
                         "--out", str(root / "sur")]) == 0
        return root

    r1, r2 = pipeline("one"), pipeline("two")
    compared = 0
    # each dataset.cgmt holds every sample's cloud of its directory
    for rel in ("data/manifest.tsv", "data/dataset.cgmt",
                "run/model_ae.cgmt", "run/model_ae.cgmt.txt",
                "gen/manifest.tsv", "gen/dataset.cgmt",
                "gen/latents.bin", "val/metrics.tsv", "sur/errors.tsv",
                "sur/snapshots.bin"):
        b1 = (r1 / rel).read_bytes()
        b2 = (r2 / rel).read_bytes()
        assert b1 == b2, f"artifact differs: {rel}"
        compared += 1
    print(f"criterion 8: PASS - {compared} artifacts byte-identical "
          f"across re-runs")


def test_surrogate_as_within_2x_of_full_gpr(trained_ae):
    # dimension reduction to one active variable costs at most a factor of
    # two in held-out error against a GPR on the full latent input
    clouds, latents = trained_ae.sample(100, Rng(600))
    spec = FieldSpec("bump")
    f = np.array([float(snapshot_of(cloud, spec).mean()) for cloud in clouds])
    mu_train, mu_test = latents[:80], latents[80:]
    f_train, f_test = f[:80], f[80:]

    def f_of(mu):
        clouds = trained_ae.decode(mu).reshape(len(mu), -1, 3)
        return snapshot_of(clouds, spec).mean(axis=1)

    grads = fd_gradients(f_of, mu_train, h=1e-4)
    sub = as_fit(grads, 1, n_bootstrap=10, rng=Rng(610))
    surface = as_response_surface(sub, mu_train, f_train)
    as_err = np.linalg.norm(surface(mu_test) - f_test)
    full = gpr_fit(mu_train, f_train)
    full_err = np.linalg.norm(full(mu_test) - f_test)
    assert as_err <= 2.0 * full_err
    print(f"surrogate comparison: PASS - AS r=1 error {as_err:.2e} within "
          f"2x of full GPR {full_err:.2e}")


def test_criterion_9_variance_band_soft(bench, trained_ae):
    training_var = total_variance(bench["bary_vertices"])
    samples, _ = trained_ae.sample(100, Rng(900))
    generated_var = total_variance(samples)
    ratio = generated_var / training_var
    status = "PASS" if 0.2 <= ratio <= 2.0 else "WARN (outside band, not a failure)"
    print(f"criterion 9: {status} - generated/training variance ratio "
          f"{ratio:.3f} (band [0.2, 2.0])")
    assert np.isfinite(ratio) and ratio > 0
