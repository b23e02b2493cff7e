import numpy as np
import pytest

from cgmkit.errors import ConfigError
from cgmkit.geometry import TriSurface, synth_shape
from cgmkit.rng import Rng
from cgmkit.synthfield import FieldSpec, snapshot_mean_gradient, snapshot_of


def test_bump_at_center_vertex():
    # place the fifth vertex so it coincides with the barycenter:
    # mean = (sum4 + v4) / 5 = v4  <=>  v4 = sum4 / 4
    vertices = np.array([
        [1.0, 0, 0], [-1.0, 1.0, 0], [-1.0, -1.0, 0], [1.0, 0, 1.0],
        [0.0, 0.0, 0.0],
    ])
    vertices[4] = vertices[:4].sum(axis=0) / 4.0
    faces = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 3], [0, 2, 4]])
    surf = TriSurface(vertices, faces)
    field = snapshot_of(surf.vertices, FieldSpec("bump"))
    assert field[4] == pytest.approx(1.0, abs=1e-12)


def test_translation_invariant():
    base = synth_shape("icosphere", 2)
    spec = FieldSpec("multibump")
    f0 = snapshot_of(base.vertices, spec)
    moved = TriSurface(base.vertices + np.array([5.0, -3.0, 1.0]), base.faces)
    assert np.max(np.abs(snapshot_of(moved.vertices, spec) - f0)) < 1e-12


def test_sensitivity_smooth_in_shape():
    base = synth_shape("icosphere", 2)
    rng = Rng(3)
    direction = rng.normal((base.n_vertices, 3)) * 0.01
    spec = FieldSpec("bump")
    f0 = snapshot_of(base.vertices, spec)
    diffs = []
    for eps in (0.5, 1.0):
        moved = TriSurface(base.vertices + eps * direction, base.faces)
        diffs.append(np.linalg.norm(snapshot_of(moved.vertices, spec) - f0))
    assert 0 < diffs[0] < diffs[1] < 1.0  # bounded, monotone in step size


def test_snapshot_family_low_rank():
    base = synth_shape("icosphere", 2)
    rng = Rng(4)
    modes = rng.normal((3, base.n_vertices, 3)) * 0.05
    spec = FieldSpec("bump")
    rows = []
    for i in range(40):
        w = rng.derive(i).normal(3)
        surf = TriSurface(
            base.vertices + sum(w[k] * modes[k] for k in range(3)), base.faces)
        rows.append(snapshot_of(surf.vertices, spec))
    s = np.linalg.svd(np.stack(rows), compute_uv=False)
    assert s[3] / s[0] < 0.1


@pytest.mark.parametrize("kind", ["bump", "multibump"])
def test_batch_bitwise_equal_to_single_clouds(kind):
    base = synth_shape("icosphere", 2)
    clouds = base.vertices + 0.05 * Rng(5).normal((2, 3, base.n_vertices, 3))
    spec = FieldSpec(kind)
    batch = snapshot_of(clouds, spec)
    assert batch.shape == (2, 3, base.n_vertices)
    for index in np.ndindex(2, 3):
        assert np.array_equal(batch[index], snapshot_of(clouds[index], spec))


@pytest.mark.parametrize("kind", ["bump", "multibump"])
def test_mean_gradient_matches_central_differences(kind):
    # two displaced, off-center clouds; every coordinate of both moves at once
    # in each central difference, since the clouds do not interact
    base = synth_shape("icosphere", 1)
    rng = Rng(3)
    clouds = np.stack([base.vertices * (1.0 + 0.1 * rng.derive(i).normal(
        base.vertices.shape)) + 0.3 for i in range(2)])
    spec = FieldSpec(kind)
    grad = snapshot_mean_gradient(clouds, spec)
    assert grad.shape == clouds.shape
    h = 1e-5
    fd = np.empty_like(clouds)
    for index in np.ndindex(clouds.shape[1:]):
        step = np.zeros_like(clouds)
        step[(slice(None),) + index] = h
        fd[(slice(None),) + index] = (
            snapshot_of(clouds + step, spec).mean(axis=-1)
            - snapshot_of(clouds - step, spec).mean(axis=-1)) / (2 * h)
    assert np.linalg.norm(grad - fd) <= 1e-7 * np.linalg.norm(fd)


def test_bad_spec():
    with pytest.raises(ConfigError):
        FieldSpec("vortex")
