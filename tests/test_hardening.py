"""Error paths and behavioral checks not covered by the happy-path suites."""

import numpy as np
import pytest

from cgmkit.checkpoint import load_tensors
from cgmkit.constraints import Constraint
from cgmkit.datasets import read_manifest
from cgmkit.errors import ConfigError, DimensionError
from cgmkit.generative import (VolumeEnforcer, enforcer_basis, softplus,
                               train_model)
from cgmkit.geometry import TriSurface, synth_shape, volume_of
from cgmkit.nn import MlpLayer, Mlp
from cgmkit.reduction import morph_mesh, pca_fit
from cgmkit.rng import Rng
from cgmkit.stl_io import stl_read

NEARLY_SHARED = """solid pair
 facet normal 0 0 1
  outer loop
   vertex 0 0 0
   vertex 1 0 0
   vertex 0 1 0
  endloop
 endfacet
 facet normal 0 0 1
  outer loop
   vertex 1 0 0
   vertex 1 1 0
   vertex 0 1 0.0000000000004
  endloop
 endfacet
endsolid pair
"""


def test_weld_tolerance_merges_near_duplicates(tmp_path):
    path = tmp_path / "pair.stl"
    path.write_text(NEARLY_SHARED)
    surf = stl_read(path)  # default tolerance 1e-9 welds the 4e-13 offset
    assert surf.n_vertices == 4


def test_volume_enforcer_caches_one_coefficient_step():
    base = synth_shape("icosphere", 1)
    constraint = Constraint("volume", volume_of(base) * 1.2)
    rng = Rng(3)
    clouds = np.stack([
        (base.vertices * (1.0 + 0.05 * rng.derive(i).normal((base.n_vertices, 3)))
         ).reshape(-1) for i in range(3)])
    pca = pca_fit(clouds, n_modes=2)
    basis = enforcer_basis("volume", pca.mean, pca.modes)
    enforcer = VolumeEnforcer(constraint, base.faces, pca.mean, basis)
    # the coefficients lifted with a zero scaling coordinate, as a model does
    coords = np.column_stack([np.zeros(3), pca.project(clouds)])
    out, cache = enforcer.forward(coords)
    for row in pca.mean + out @ basis:
        v = volume_of(TriSurface(row.reshape(-1, 3), base.faces))
        assert abs(v - constraint.target) <= 1e-9 * constraint.target
    # the cache holds each row's step length, its direction over the scaling
    # mode and the modes, the Hessian there and the gradient at the output
    t, g, hessian, normal = cache
    assert t.shape == (3,) and g.shape == normal.shape == (3, 3)
    assert hessian.shape == (3, 3, 3)
    back = enforcer.backward(cache, rng.normal(out.shape))
    assert back.shape == (3, 3) and np.all(np.isfinite(back))


def test_volume_enforcer_rejects_open_connectivity():
    # one open triangle, and no faces at all (a (0, 3) checkpoint tensor)
    for faces in (np.array([[0, 1, 2]]), np.zeros((0, 3), dtype=np.int64)):
        with pytest.raises(ConfigError, match="closed connectivity"):
            VolumeEnforcer(Constraint("volume", 1.0), faces, np.arange(9.0),
                           np.eye(9)[:2])


def test_morph_mesh_shape_mismatch():
    with pytest.raises(DimensionError):
        morph_mesh(np.zeros((5, 3)), np.zeros((6, 3)), np.zeros((0, 3)),
                   np.zeros((2, 3)))


def test_corrupt_manifest_rejected(tmp_path):
    (tmp_path / "manifest.tsv").write_text("file\tsomething\nx\t1\n")
    with pytest.raises(ConfigError):
        read_manifest(tmp_path)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "not_a_container.bin"
    path.write_bytes(b"garbage payload")
    with pytest.raises(ValueError):
        load_tensors(path)


def test_train_dropout_requires_rng():
    layer = MlpLayer(2, 2, Rng(0), dropout=0.5)
    net = Mlp([layer]).train()
    with pytest.raises(DimensionError):
        net.forward(np.ones((3, 2)))


def test_softplus_stable_extremes():
    assert softplus(np.array([-800.0]))[0] == 0.0
    assert softplus(np.array([800.0]))[0] == 800.0


def test_vae_alpha_pulls_posterior_scale_to_one():
    # strong KL weight must pull the posterior scale towards 1 (the mean
    # head ends in a non-affine batch norm, so it stays standardized and
    # cannot collapse); this exercises the assembled KL gradient direction
    from cgmkit.constraints import sample_cffd_dataset
    from cgmkit.generative import GmConfig
    from cgmkit.geometry import FfdLattice, barycenter_of

    base = synth_shape("icosphere", 1)
    lattice = FfdLattice.from_box((2, 2, 2),
                                  base.vertices.min(axis=0) - 0.05,
                                  base.vertices.max(axis=0) + 0.05)
    constraint = Constraint("barycenter", barycenter_of(base.vertices))
    vertices, _ = sample_cffd_dataset(lattice, base, constraint, 24, 0.05,
                                      Rng(5))

    def posterior(alpha):
        cfg = GmConfig(latent_dim=3, pca_modes=6, hidden_width=16,
                       hidden_depth=1, epochs=150, batch_size=24, dropout=0.0,
                       alpha=alpha, seed=2)
        model = train_model("vae", vertices, base.faces, constraint, cfg)
        clouds = vertices.reshape(len(vertices), -1)
        coords = model.pca.project(clouds)
        a, _ = model.nets["enc_mean"].eval().forward(coords)
        raw, _ = model.nets["enc_scale"].eval().forward(coords)
        return a, softplus(raw)

    a_strong, scale_strong = posterior(alpha=100.0)
    _, scale_free = posterior(alpha=0.0)
    assert np.mean(np.abs(scale_strong - 1.0)) < 0.2
    assert np.mean(np.abs(scale_strong - 1.0)) < np.mean(np.abs(scale_free - 1.0))
    assert abs(np.mean(a_strong ** 2) - 1.0) < 0.2  # batch norm keeps unit scale
