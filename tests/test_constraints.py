import numpy as np
import pytest

from cgmkit.constraints import (Constraint, achieved_value, barycenter_rows,
                                cffd_correct,
                                project_volume as project_volume_batch,
                                sample_cffd_dataset, volume_constraint_row,
                                volume_gradient)
from cgmkit import geometry
from cgmkit.datasets import write_dataset
from cgmkit.errors import (ConfigError, DegenerateSurfaceError,
                           DimensionError, InfeasibleConstraintError)
from cgmkit.generative import LinearEnforcer
from cgmkit.geometry import (FfdLattice, TriSurface, _blocks, _cross,
                             barycenter_of, ffd_map, synth_shape, volume_of,
                             volume_rows)
from cgmkit.rng import Rng


@pytest.fixture(scope="module")
def sphere():
    return synth_shape("icosphere", 2)


def project_cloud(cloud, constraint):
    """LinearEnforcer on one (M, 3) cloud: (corrected cloud, correction)."""
    cloud = np.asarray(cloud, dtype=np.float64).reshape(1, -1)
    enforcer = LinearEnforcer(barycenter_rows(cloud.shape[1] // 3),
                              constraint.target)
    out, _ = enforcer.forward(cloud)
    return out.reshape(-1, 3), (out - cloud).reshape(-1, 3)


def project_volume(surface, target):
    """One closed surface moved by the volume projection kernel's x step."""
    vertices = surface.vertices.copy()
    vertices[:, 0] += project_volume_batch(vertices[None], surface.faces,
                                           Constraint("volume", target))[0]
    return TriSurface(vertices, surface.faces)


# --- barycenter constraint ---------------------------------------------------

def test_barycenter_rows():
    assert np.allclose(barycenter_rows(2)[0], [0.5, 0, 0, 0.5, 0, 0])
    assert Constraint("barycenter", (1.0, 2.0, 3.0)).target[0] == 1.0
    assert np.array_equal(barycenter_rows(1), np.eye(3))
    with pytest.raises(DimensionError, match="need at least one point"):
        barycenter_rows(0)


def test_barycenter_matrix_recovers_mean(sphere):
    assert np.allclose(barycenter_rows(sphere.n_vertices)
                       @ sphere.vertices.reshape(-1),
                       barycenter_of(sphere.vertices))


def test_enforce_already_feasible_is_noop(sphere):
    target = barycenter_of(sphere.vertices)
    c = Constraint("barycenter", target)
    corrected, delta = project_cloud(sphere.vertices, c)
    assert np.max(np.abs(delta)) < 1e-12


# --- volume rows --------------------------------------------------------------

def test_volume_row_matches_finite_differences(sphere):
    h = 1e-6
    for component, c in (("x", 0), ("y", 1), ("z", 2)):
        row, _ = volume_constraint_row(sphere, component)
        idx = np.linspace(0, sphere.n_vertices - 1, 12).astype(int)
        for i in np.unique(idx):
            vp = sphere.vertices.copy()
            vp[i, c] += h
            vm = sphere.vertices.copy()
            vm[i, c] -= h
            fd = (volume_of(TriSurface(vp, sphere.faces))
                  - volume_of(TriSurface(vm, sphere.faces))) / (2 * h)
            assert abs(fd - row[i]) <= 1e-7 * max(abs(fd), abs(row[i]), 1e-2)


def test_volume_gradient_full_fd(sphere):
    h = 1e-6
    grad = volume_gradient(sphere)
    rng = Rng(2)
    for _ in range(20):
        i = int(rng.integers(0, sphere.n_vertices))
        c = int(rng.integers(0, 3))
        vp = sphere.vertices.copy()
        vp[i, c] += h
        vm = sphere.vertices.copy()
        vm[i, c] -= h
        fd = (volume_of(TriSurface(vp, sphere.faces))
              - volume_of(TriSurface(vm, sphere.faces))) / (2 * h)
        assert abs(fd - grad[i, c]) <= 1e-7 * max(abs(fd), abs(grad[i, c]), 1e-2)


def test_volume_row_sums_to_zero(sphere):
    for component in "xyz":
        row, _ = volume_constraint_row(sphere, component)
        assert abs(row.sum()) <= 1e-12 * np.abs(row).sum()


def test_volume_row_reconstruction_identity():
    rng = Rng(8)
    for trial in range(5):
        base = synth_shape("icosphere", 2)
        surf = TriSurface(
            base.vertices * (1.0 + 0.1 * rng.normal((base.n_vertices, 3))),
            base.faces)
        v = volume_of(surf)
        for component, c in (("x", 0), ("y", 1), ("z", 2)):
            row, offset = volume_constraint_row(surf, component)
            recon = row @ surf.vertices[:, c] + offset
            assert abs(recon - v) <= 1e-12 * max(abs(v), 1.0)


def full_gradient_reference(vertices, faces):
    """The full-gradient kernel the component rows replaced: every corner's
    whole cross product scattered with np.add.at, corner by corner."""
    grad = np.zeros_like(vertices)
    for block in _blocks(len(vertices), len(faces)):
        tri = vertices[block][:, faces]
        for k in range(3):
            term = _cross(tri[:, :, (k + 1) % 3], tri[:, :, (k + 2) % 3]) / 6.0
            np.add.at(grad[block], (slice(None), faces[:, k]), term)
    return grad


def project_volume_reference(clouds, faces, constraint):
    """`project_volume` without a basis as it was on the full gradient, with
    the volume taken as r . x from the x row r: (rows r, step)."""
    rows = np.ascontiguousarray(full_gradient_reference(clouds, faces)[:, :, 0])
    scale = ((constraint.target - np.vecdot(rows, clouds[:, :, 0]))
             / np.vecdot(rows, rows))
    return rows, rows * scale[:, None]


@pytest.fixture(scope="module")
def cloud_batch(sphere):
    # 25 clouds on 320 faces span three blocks of the batched formulas
    assert len(sphere.faces) == 320
    assert len(_blocks(25, len(sphere.faces))) == 3
    rng = Rng(17)
    return sphere.vertices * (1.0 + 0.1 * rng.normal((25, 1, 3))) \
        + 0.02 * rng.normal((25, sphere.n_vertices, 3))


def test_volume_rows_bitwise_equal_full_gradient_columns(sphere, cloud_batch):
    want = full_gradient_reference(cloud_batch, sphere.faces)
    gradients = [volume_gradient(TriSurface(cloud, sphere.faces))
                 for cloud in cloud_batch]
    assert np.array_equal(np.stack(gradients), want)
    for c in range(3):
        rows = volume_rows(cloud_batch, sphere.faces, c)
        assert np.array_equal(rows, want[:, :, c])


def test_volume_rows_owns_contiguous_rows(sphere, cloud_batch):
    # the rows are a (B, M) array of their own, not a column view of a
    # (B, M, 3) buffer three times their size
    rows = volume_rows(cloud_batch, sphere.faces, 0)
    assert rows.shape == cloud_batch.shape[:2]
    assert rows.flags.c_contiguous and rows.flags.owndata


def test_project_volume_bitwise_equal_full_gradient_kernel(sphere, cloud_batch):
    constraint = Constraint("volume", 1.05 * volume_of(sphere))
    step = project_volume_batch(cloud_batch, sphere.faces, constraint)
    want_rows, want_step = project_volume_reference(cloud_batch, sphere.faces,
                                                    constraint)
    assert np.array_equal(volume_rows(cloud_batch, sphere.faces, 0), want_rows)
    assert np.array_equal(step, want_step)


def test_degenerate_surface_rejected():
    flat = TriSurface(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                      np.array([[0, 1, 2], [0, 2, 1]]))
    with pytest.raises(DegenerateSurfaceError):
        volume_constraint_row(flat, "x")
    # the same error from the projection kernel
    with pytest.raises(DegenerateSurfaceError):
        project_volume_batch(flat.vertices[None], flat.faces,
                             Constraint("volume", 1.0))


def test_project_volume_unreferenced_vertex():
    # a vertex past the last face index stays put; the other vertices see
    # the projection as without it
    base = synth_shape("icosphere", 1)
    constraint = Constraint("volume", volume_of(base))
    rng = Rng(6)
    clouds = base.vertices * (1.0 + 0.05 * rng.normal((2, base.n_vertices, 3)))
    step = project_volume_batch(clouds, base.faces, constraint)
    extra = np.concatenate([clouds, rng.normal((2, 1, 3))], axis=1)
    step_extra = project_volume_batch(extra, base.faces, constraint)
    assert np.all(step_extra[:, -1] == 0.0)
    assert np.allclose(step_extra[:, :-1], step, rtol=0, atol=1e-14)


# --- cloud enforcement --------------------------------------------------------

def test_enforce_mean_zero_hand_case():
    # 1-d projection by hand: points (1, 3) with mean forced to 0 -> (-1, 1)
    cloud = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    matrix = np.zeros((1, 6))
    matrix[0, 0] = matrix[0, 3] = 0.5
    out, _ = LinearEnforcer(matrix, np.zeros(1)).forward(cloud.reshape(1, -1))
    corrected = out.reshape(-1, 3)
    assert np.allclose(corrected[:, 0], [-1.0, 1.0], atol=1e-12)
    assert np.allclose(corrected[:, 1:], 0.0)


def test_barycenter_enforcement_is_rigid_translation(sphere):
    target = np.array([0.3, -0.4, 0.7])
    c = Constraint("barycenter", target)
    shift = target - barycenter_of(sphere.vertices)
    corrected, delta = project_cloud(sphere.vertices, c)
    assert np.max(np.abs(delta - shift)) < 1e-12
    assert np.max(np.abs(barycenter_of(corrected) - target)) < 1e-10


def test_projection_idempotent(sphere):
    c = Constraint("barycenter", np.array([1.0, 2.0, 3.0]))
    once, _ = project_cloud(sphere.vertices, c)
    twice, delta2 = project_cloud(once, c)
    assert np.max(np.abs(twice - once)) <= 1e-12
    assert np.max(np.abs(delta2)) <= 1e-12


def test_min_norm_optimality_against_random_feasible(sphere):
    rng = Rng(14)
    c = Constraint("barycenter", np.array([0.5, 0.0, -0.5]))
    _, delta = project_cloud(sphere.vertices, c)
    a = barycenter_rows(sphere.n_vertices)
    null_proj = np.eye(a.shape[1]) - np.linalg.pinv(a) @ a
    base = delta.reshape(-1)
    for _ in range(100):
        noise = null_proj @ rng.normal(a.shape[1])
        assert np.linalg.norm(base + noise) >= np.linalg.norm(base) - 1e-9


def test_linear_enforcer_rejects_other_size(sphere):
    enforcer = LinearEnforcer(barycenter_rows(sphere.n_vertices), np.zeros(3))
    with pytest.raises(DimensionError):
        enforcer.forward(np.zeros((2, 3 * sphere.n_vertices + 3)))


def test_constraint_record_round_trip():
    for c in (Constraint("barycenter", [0.1, -0.2, 0.3]),
              Constraint("volume", 2.5)):
        back = Constraint(c.kind, c.target)
        assert back.kind == c.kind
        assert back.target.tobytes() == c.target.tobytes()
    assert np.array_equal(back.target, [2.5])
    assert np.array_equal(Constraint("barycenter", [1, 2, 3]).target,
                          [1.0, 2.0, 3.0])


@pytest.mark.parametrize("kind, target, match", [
    ("barycenter", [1.0, 2.0], "'constraint.target' of a barycenter "
                               "constraint holds 2 values, needs 3"),
    ("volume", [1.0, 2.0], "'constraint.target' of a volume constraint "
                           "holds 2 values, needs 1"),
    ("volume", [], "holds 0 values, needs 1"),
    ("linear", [1.0, 2.0, 3.0], "'constraint.kind' names unknown kind "
                                "'linear'"),
])
def test_constraint_from_rejects_malformed_record_by_name(kind, target,
                                                          match):
    with pytest.raises(ConfigError, match=match):
        Constraint(kind, target)


# --- volume enforcement -------------------------------------------------------

def test_enforce_volume_noop_at_target(sphere):
    v0 = volume_of(sphere)
    out = project_volume(sphere, v0)
    assert np.max(np.abs(out.vertices - sphere.vertices)) <= 1e-12


def test_enforce_volume_first_pass(sphere):
    v0 = volume_of(sphere)
    out = project_volume(sphere, 1.1 * v0)
    assert abs(volume_of(out) - 1.1 * v0) <= 1e-9 * 1.1 * v0
    # only x coordinates moved
    assert np.allclose(out.vertices[:, 1:], sphere.vertices[:, 1:])


# --- constrained FFD ----------------------------------------------------------

def box_lattice(surface, grid=(2, 2, 2), pad=0.05):
    lo = surface.vertices.min(axis=0) - pad
    hi = surface.vertices.max(axis=0) + pad
    return FfdLattice.from_box(grid, lo, hi)


def test_cffd_zero_when_already_satisfied(sphere):
    lattice = box_lattice(sphere)
    c = Constraint("barycenter", barycenter_of(sphere.vertices))
    delta = cffd_correct(lattice, np.zeros((lattice.n_control, 3)), sphere, c)
    assert np.max(np.abs(delta)) < 1e-9


def test_cffd_uniform_influence_hand_case():
    # single point at the center of a (1,1,1) lattice: all 8 control points
    # share influence equally, so the min-norm correction is uniform and its
    # image through a_phi closes the barycenter deficit
    a = np.diag([2.0, 0.5, 1.0])
    lattice = FfdLattice((1, 1, 1), a, np.array([-1.0, -0.25, -0.5]))
    point = np.zeros((1, 3))
    # a one-point surface (no faces) whose point must move to (0.2, -0.1, 0.3)
    single = TriSurface(point, np.zeros((0, 3)))
    target = np.array([0.2, -0.1, 0.3])
    c = Constraint("barycenter", target)  # the rows of one point are eye(3)
    delta = cffd_correct(lattice, np.zeros((lattice.n_control, 3)), single, c)
    assert np.allclose(delta - delta[0], 0.0, atol=1e-12)  # uniform
    assert np.allclose(a @ delta[0], target, atol=1e-9)
    deformed, _ = ffd_map(lattice, delta, point)
    assert np.allclose(deformed[0], target, atol=1e-9)


def test_cffd_meets_constraint_and_kkt(sphere):
    rng = Rng(4)
    lattice = box_lattice(sphere)
    target = barycenter_of(sphere.vertices)
    c = Constraint("barycenter", target)
    for trial in range(5):
        dp = 0.05 * rng.derive(trial).normal((lattice.n_control, 3))
        delta = cffd_correct(lattice, dp, sphere, c)
        deformed, _ = ffd_map(lattice, dp + delta, sphere.vertices)
        assert np.max(np.abs(barycenter_of(deformed) - target)) <= 1e-9
        # KKT: correction in the row space of (A_c B)^T
        influence = lattice.influence(sphere.vertices)
        rows = barycenter_rows(sphere.n_vertices).reshape(3, -1, 3)
        composite = np.einsum("qlc,lp,cd->qpd", rows, influence,
                              lattice.a_phi).reshape(3, -1)
        lam, *_ = np.linalg.lstsq(composite.T, delta.reshape(-1), rcond=None)
        assert np.linalg.norm(composite.T @ lam - delta.reshape(-1)) < 1e-9


def test_cffd_weighted_scaling(sphere):
    lattice = box_lattice(sphere)
    c = Constraint("barycenter", barycenter_of(sphere.vertices) + 0.1)
    weights = np.ones(lattice.n_control)
    heavy = 7
    weights[heavy] = 1e6
    dp = np.zeros((lattice.n_control, 3))
    delta = cffd_correct(lattice, dp, sphere, c, weights=weights)
    unit_max = np.max(np.linalg.norm(np.delete(delta, heavy, axis=0), axis=1))
    heavy_mag = np.linalg.norm(delta[heavy])
    assert heavy_mag <= 1e-6 * unit_max * 1e3


def test_cffd_weighted_kkt_row_space(sphere):
    rng = Rng(41)
    lattice = box_lattice(sphere)
    c = Constraint("barycenter", barycenter_of(sphere.vertices) + 0.08)
    weights = 0.5 + rng.uniform(lattice.n_control) * 3.0
    dp = 0.04 * rng.normal((lattice.n_control, 3))
    delta = cffd_correct(lattice, dp, sphere, c, weights=weights)
    influence = lattice.influence(sphere.vertices)
    rows = barycenter_rows(sphere.n_vertices).reshape(3, -1, 3)
    composite = np.einsum("qlc,lp,cd->qpd", rows, influence,
                          lattice.a_phi).reshape(3, -1)
    # correction must lie in the row space of diag(w)^-2 (A_c B)^T
    w_full = np.repeat(weights, 3)
    g = composite.T / (w_full ** 2)[:, None]
    lam, *_ = np.linalg.lstsq(g, delta.reshape(-1), rcond=None)
    assert np.linalg.norm(g @ lam - delta.reshape(-1)) < 1e-9


def test_cffd_pinned_points_exact_zero(sphere):
    lattice = box_lattice(sphere)
    weights = np.ones(lattice.n_control)
    local = lattice.control_points_local()
    pinned = local[:, 0] == 0.0  # cut plane i = 0
    weights[pinned] = 0.0
    c = Constraint("barycenter", barycenter_of(sphere.vertices) + 0.05)
    delta = cffd_correct(lattice, np.zeros((lattice.n_control, 3)), sphere, c,
                         weights=weights)
    assert np.all(delta[pinned] == 0.0)
    assert np.any(delta[~pinned] != 0.0)


def test_cffd_all_pinned_infeasible(sphere):
    lattice = box_lattice(sphere)
    c = Constraint("barycenter", np.zeros(3))
    with pytest.raises(InfeasibleConstraintError):
        cffd_correct(lattice, np.zeros((lattice.n_control, 3)), sphere, c,
                     weights=np.zeros(lattice.n_control))


def test_cffd_volume_immovable_infeasible(sphere):
    # a lattice beside the surface: no control point moves any vertex
    lo = sphere.vertices.max(axis=0) + 1.0
    lattice = FfdLattice.from_box((2, 2, 2), lo, lo + 1.0)
    with pytest.raises(InfeasibleConstraintError):
        cffd_correct(lattice, np.zeros((lattice.n_control, 3)), sphere,
                     Constraint("volume", 1.1 * volume_of(sphere)))


def test_cffd_volume_pass_on_a_symmetric_free_plane_infeasible(sphere):
    # moving the middle x-plane of a box symmetric about the sphere along x
    # leaves the volume unchanged, so the x pass cannot close the deficit
    # (its row is zero up to roundoff on the free control points); with the
    # upper x-plane free as well it can
    lattice = box_lattice(sphere, grid=(2, 1, 1))
    local_x = lattice.control_points_local()[:, 0]
    assert np.flatnonzero(local_x == 0.5).tolist() == [4, 5, 6, 7]
    dp = np.zeros((lattice.n_control, 3))
    constraint = Constraint("volume", 0.94 * volume_of(sphere))
    with pytest.raises(InfeasibleConstraintError, match="component x"):
        cffd_correct(lattice, dp, sphere, constraint,
                     weights=np.where(local_x == 0.5, 1.0, 0.0))
    weights = np.where(local_x >= 0.5, 1.0, 0.0)
    delta = cffd_correct(lattice, dp, sphere, constraint, weights=weights)
    deformed, _ = ffd_map(lattice, delta, sphere.vertices)
    achieved = volume_of(TriSurface(deformed, sphere.faces))
    assert abs(achieved - constraint.target) <= 1e-9 * constraint.target
    assert np.all(delta[weights == 0.0] == 0.0)


def test_cffd_volume(sphere):
    rng = Rng(6)
    lattice = box_lattice(sphere)
    v0 = volume_of(sphere)
    c = Constraint("volume", v0)
    for trial in range(3):
        dp = 0.03 * rng.derive(trial).normal((lattice.n_control, 3))
        delta = cffd_correct(lattice, dp, sphere, c)
        deformed, _ = ffd_map(lattice, dp + delta, sphere.vertices)
        out = TriSurface(deformed, sphere.faces)
        assert abs(volume_of(out) - v0) <= 1e-9 * v0


def test_cffd_stack_names_first_infeasible_sample(sphere):
    # a lattice beside the surface that touches it at its rightmost vertex,
    # with the touching plane i = 0 pinned: no free control point moves any
    # vertex, so a sample whose pinned displacement moves that vertex off
    # the target barycenter cannot be corrected, and one that does not can
    right = np.argmax(sphere.vertices[:, 0])
    lower = np.array([sphere.vertices[right, 0], -1.5, -1.5])
    lattice = FfdLattice.from_box((2, 2, 2), lower, lower + [1.0, 3.0, 3.0])
    assert np.flatnonzero(lattice.contains(sphere.vertices)).tolist() == [right]
    weights = np.ones(lattice.n_control)
    pinned = lattice.control_points_local()[:, 0] == 0.0
    weights[pinned] = 0.0
    c = Constraint("barycenter", barycenter_of(sphere.vertices))
    stack = np.zeros((2, lattice.n_control, 3))
    stack[1, pinned] = 0.1
    delta = cffd_correct(lattice, stack[0], sphere, c, weights=weights)
    assert np.array_equal(delta, np.zeros_like(delta))
    with pytest.raises(InfeasibleConstraintError, match="^sample 1: ") as err:
        cffd_correct(lattice, stack, sphere, c, weights=weights)
    assert err.value.index == 1


def pin_weights(lattice, pins):
    """Config-style cut-plane weights: zero on the named planes."""
    if not pins:
        return None
    local = lattice.control_points_local()
    weights = np.ones(lattice.n_control)
    for axis, value in pins:
        weights[local[:, axis] == value] = 0.0
    return weights


CFFD_CASES = [  # (subdivision, grid, constraint kind, pinned (axis, value))
    (2, (2, 2, 2), "barycenter", ()),
    (2, (2, 2, 2), "volume", ()),
    (2, (2, 2, 2), "barycenter", ((2, 0.0), (0, 1.0))),
    (2, (2, 2, 2), "volume", ((2, 0.0), (0, 1.0))),
    (3, (3, 3, 3), "barycenter", ((2, 0.0), (0, 1.0))),
    (3, (3, 3, 3), "volume", ((2, 0.0), (0, 1.0))),
]


def cffd_case(subdivision, grid, kind, pins):
    base = synth_shape("icosphere", subdivision)
    lattice = box_lattice(base, grid)
    c = (Constraint("volume", volume_of(base)) if kind == "volume" else
         Constraint("barycenter", barycenter_of(base.vertices)))
    return base, lattice, c, pin_weights(lattice, pins)


@pytest.mark.parametrize("case", CFFD_CASES)
def test_cffd_dataset_batch_independent(case):
    # the stacked solve gives every sample the bits it gets alone: a longer
    # run starts with the shorter one, and each row is the one-sample
    # correction and map of that sample's displacement
    base, lattice, c, weights = cffd_case(*case)
    five, five_dp = sample_cffd_dataset(lattice, base, c, 5, 0.03, Rng(21),
                                        weights=weights)
    three, three_dp = sample_cffd_dataset(lattice, base, c, 3, 0.03, Rng(21),
                                          weights=weights)
    assert np.array_equal(five[:3], three)
    assert np.array_equal(five_dp[:3], three_dp)
    pinned = (np.zeros(lattice.n_control, bool) if weights is None
              else weights == 0.0)
    for i in range(5):
        dp = 0.03 * Rng(21).derive("cffd-sample", i).normal(
            (lattice.n_control, 3))
        dp[pinned] = 0.0
        total = dp + cffd_correct(lattice, dp, base, c, weights=weights)
        assert np.array_equal(five_dp[i], total)
        assert np.array_equal(five[i], ffd_map(lattice, total,
                                               base.vertices)[0])


@pytest.mark.parametrize("kind", ["barycenter", "volume"])
def test_cffd_dataset_setup_runs_once(monkeypatch, kind):
    # influence and closedness depend only on lattice and base surface, so
    # one call evaluates them once (closedness: for volume only), for eight
    # samples as for one
    base, lattice, c, weights = cffd_case(2, (2, 2, 2), kind,
                                          ((2, 0.0), (0, 1.0)))
    counts = {}
    influence, is_closed = FfdLattice.influence, geometry.is_closed

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(FfdLattice, "influence", counted("influence", influence))
    monkeypatch.setattr(geometry, "is_closed", counted("is_closed", is_closed))

    def calls(n):
        counts.update(influence=0, is_closed=0)
        sample_cffd_dataset(lattice, base, c, n, 0.03, Rng(2), weights=weights)
        return dict(counts)

    one = calls(1)
    assert one["influence"] == 1
    assert one["is_closed"] == int(kind == "volume")
    assert calls(8) == one


# --- dataset sampling ---------------------------------------------------------

def test_dataset_deterministic_and_constrained(tmp_path, sphere):
    lattice = box_lattice(sphere)
    v0 = volume_of(sphere)
    c = Constraint("volume", v0)
    vertices1, displacements1 = sample_cffd_dataset(lattice, sphere, c, 3,
                                                    0.03, Rng(77))
    vertices2, displacements2 = sample_cffd_dataset(lattice, sphere, c, 3,
                                                    0.03, Rng(77))
    assert np.array_equal(vertices1, vertices2)
    for cloud in vertices1:
        assert (abs(volume_of(TriSurface(cloud, sphere.faces)) - v0)
                <= 1e-9 * v0)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_dataset(d1, vertices1, sphere.faces, c,
                  achieved_value(c.kind, vertices1, sphere.faces),
                  "77:cffd-sample", displacements1)
    write_dataset(d2, vertices2, sphere.faces, c,
                  achieved_value(c.kind, vertices2, sphere.faces),
                  "77:cffd-sample", displacements2)
    for name in ("dataset.cgmt", "manifest.tsv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_dataset_sigma_zero_copies(sphere):
    lattice = box_lattice(sphere)
    c = Constraint("barycenter", barycenter_of(sphere.vertices))
    vertices, _ = sample_cffd_dataset(lattice, sphere, c, 2, 0.0, Rng(1))
    for cloud in vertices:
        assert np.max(np.abs(cloud - sphere.vertices)) < 1e-12


def test_constraint_survives_stl_round_trip(tmp_path, sphere):
    from cgmkit.stl_io import stl_read, stl_write
    lattice = box_lattice(sphere)
    target = barycenter_of(sphere.vertices)
    c = Constraint("barycenter", target)
    vertices, _ = sample_cffd_dataset(lattice, sphere, c, 2, 0.05, Rng(9))
    for i, cloud in enumerate(vertices):
        path = tmp_path / f"s{i}.stl"
        stl_write(TriSurface(cloud, sphere.faces), path)
        back = stl_read(path)
        assert np.max(np.abs(barycenter_of(back.vertices) - target)) <= 1e-9
