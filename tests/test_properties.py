"""Property tests of constrained FFD (`constraints.cffd_correct`): over
random lattices, axis-aligned or rotated and sheared, weights and
displacements it meets its exactness bound, leaves pinned control points
exactly still, gives the barycenter the composite system's weighted
minimum-norm solution (`linalg.lstsq_min_norm`), and gives each sample of a
stack the bits of its single call. The models' volume layer on basis
coordinates takes the step length of single-row calls bit for bit and
matches a per-sample cloud-space reference to roundoff, and its backward
pass matches central differences. The constraint checks and validation
quantities of a shape stack give each cloud the bits it gets alone. The
vectorized closedness check gives the verdict of an edge-counting
reference loop on damaged and random connectivity."""

from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cgmkit.constraints import (Constraint, achieved_value, cffd_correct,
                                constraint_residual, volume_gradient)
from cgmkit.errors import InfeasibleConstraintError
from cgmkit.generative import VolumeEnforcer, enforcer_basis
from cgmkit.geometry import (FfdLattice, TriSurface, barycenter_of, ffd_map,
                             is_closed, synth_shape, volume_of)
from cgmkit.linalg import lstsq_min_norm
from cgmkit.reduction import pca_fit
from cgmkit.rng import Rng
from cgmkit.validation import shape_quantities

from references import barycenter_rows

BASE = synth_shape("icosphere", 1)
V0 = volume_of(BASE)


lattices = st.tuples(*[st.integers(1, 3)] * 3)
placements = st.sampled_from(("axis-aligned", "sheared"))
pin_lists = st.lists(st.sampled_from(("free", "free", "zero", "inf")),
                     min_size=64, max_size=64)
# on a (2, 1, 1) lattice: only the middle x-plane, whose x move keeps the
# volume of the symmetric base shape
MIDDLE_X_PLANE_FREE = ["zero"] * 4 + ["free"] * 4 + ["zero"] * 56


def lattice_around_base(grid, placement, rng):
    """A lattice whose box holds the base shape with a 0.05 margin, placed
    axis-aligned or by a drawn rotation of a drawn unit shear."""
    a_phi = np.eye(3)
    if placement == "sheared":
        rotation = np.linalg.qr(rng.derive("rotation").normal((3, 3)))[0]
        shear = np.triu(rng.derive("shear").uniform((3, 3)) - 0.5, 1)
        a_phi = rotation @ (np.eye(3) + shear)
    local = BASE.vertices @ np.linalg.inv(a_phi).T
    lower, upper = local.min(axis=0) - 0.05, local.max(axis=0) + 0.05
    return FfdLattice(grid, a_phi @ np.diag(upper - lower), a_phi @ lower)


def pinned_setup(grid, pins, sigma, seed, placement):
    """Lattice around the base shape, weights with pinned control points
    (weight 0 or +inf), the pinned mask and a displacement that leaves the
    pinned points still."""
    rng = Rng(seed)
    lattice = lattice_around_base(grid, placement, rng)
    pins = np.array(pins[:lattice.n_control])
    pinned = pins != "free"
    assume(not pinned.all())
    weights = 0.5 + 2.0 * rng.derive("weights").uniform(lattice.n_control)
    weights[pins == "zero"] = 0.0
    weights[pins == "inf"] = np.inf
    dp = sigma * rng.derive("dp").normal((lattice.n_control, 3))
    dp[pinned] = 0.0
    return lattice, weights, pinned, dp


def free_row_scale(lattice, pinned, dp):
    """|r @ influence| / (|r| |influence|), with r the x volume row of the
    displaced base shape and influence its lattice influence on the free
    control points: near 0 when the x pass cannot move the volume."""
    deformed, _ = ffd_map(lattice, dp, BASE.vertices)
    influence = lattice.influence(BASE.vertices)[:, ~pinned]
    row = volume_gradient(TriSurface(deformed, BASE.faces))[:, 0]
    return (np.linalg.norm(row @ influence)
            / (np.linalg.norm(row) * np.linalg.norm(influence)))


@given(grid=lattices, sigma=st.floats(0.0, 0.08), pins=pin_lists,
       scale=st.floats(0.9, 1.1), seed=st.integers(0, 2 ** 16),
       placement=placements)
@example(grid=(2, 1, 1), sigma=0.0, pins=MIDDLE_X_PLANE_FREE, scale=0.9375,
         seed=0, placement="axis-aligned")
@example(grid=(2, 1, 1), sigma=0.0, pins=MIDDLE_X_PLANE_FREE, scale=1.0,
         seed=0, placement="axis-aligned")
def test_cffd_volume_exact_and_pinned_rows_zero(grid, sigma, pins, scale,
                                                seed, placement):
    lattice, weights, pinned, dp = pinned_setup(grid, pins, sigma, seed,
                                                placement)
    constraint = Constraint("volume", scale * V0)
    # an x row that vanishes on the free control points (such as with only
    # the middle x-plane of the symmetric shape free) moves nothing, so the
    # correction raises if and only if the deficit is not met already; one
    # whose row is clearly nonzero there must meet the target exactly
    scale_of_row = free_row_scale(lattice, pinned, dp)
    assume(scale_of_row <= 1e-14 or scale_of_row >= 1e-6)
    if scale_of_row <= 1e-14:
        deformed, _ = ffd_map(lattice, dp, BASE.vertices)
        error = abs(volume_of(TriSurface(deformed, BASE.faces))
                    - constraint.target[0])
        if error > 1e-9 * constraint.target[0]:
            with pytest.raises(InfeasibleConstraintError,
                               match="is zero on every free control point"):
                cffd_correct(lattice, dp, BASE, constraint, weights=weights)
        else:
            delta = cffd_correct(lattice, dp, BASE, constraint,
                                 weights=weights)
            assert np.all(delta == 0.0)
        return
    delta = cffd_correct(lattice, dp, BASE, constraint, weights=weights)
    deformed, _ = ffd_map(lattice, dp + delta, BASE.vertices)
    achieved = volume_of(TriSurface(deformed, BASE.faces))
    assert abs(achieved - constraint.target) <= 1e-9 * constraint.target
    assert np.all(delta[pinned] == 0.0)


def composite_solution(lattice, weights, pinned, dp, target):
    """The barycenter correction of the free control points (F, 3) as the
    weighted minimum-norm solution of the composite system A_c B a_phi
    (3, 3F) on the free displacements, for the deficit of the displaced
    base shape."""
    deformed, _ = ffd_map(lattice, dp, BASE.vertices)
    rows = barycenter_rows(BASE.n_vertices).reshape(3, -1, 3)
    influence = lattice.influence(BASE.vertices)[:, ~pinned]
    composite = ((influence.T @ rows) @ lattice.a_phi).reshape(3, -1)
    x = lstsq_min_norm(composite, target - barycenter_of(deformed),
                       weights=np.repeat(weights[~pinned], 3))
    return x.reshape(-1, 3)


@given(grid=lattices, sigma=st.floats(0.0, 0.08), pins=pin_lists,
       shift=st.tuples(*[st.floats(-0.05, 0.05)] * 3),
       seed=st.integers(0, 2 ** 16), placement=placements)
def test_cffd_barycenter_exact_and_pinned_rows_zero(grid, sigma, pins, shift,
                                                    seed, placement):
    lattice, weights, pinned, dp = pinned_setup(grid, pins, sigma, seed,
                                                placement)
    target = barycenter_of(BASE.vertices) + np.array(shift)
    constraint = Constraint("barycenter", target)
    delta = cffd_correct(lattice, dp, BASE, constraint, weights=weights)
    deformed, _ = ffd_map(lattice, dp + delta, BASE.vertices)
    assert np.max(np.abs(barycenter_of(deformed) - target)) <= 1e-10
    assert np.all(delta[pinned] == 0.0)
    # the closed form is the composite system's SVD solution
    want = composite_solution(lattice, weights, pinned, dp, target)
    assert (np.linalg.norm(delta[~pinned] - want)
            <= 1e-12 * np.linalg.norm(want))


# the volume layer's PCA: six modes of sixteen perturbed copies of the base
PCA = pca_fit(np.stack([
    (BASE.vertices * (1.0 + 0.05 * Rng(0).derive(i).normal(BASE.vertices.shape))
     ).reshape(-1) for i in range(16)]), n_modes=6)


def reference(coeffs, constraint):
    """The layer written out one row at a time in cloud space: the step
    direction is the cloud volume gradient projected on the scaling mode
    and the modes, and t the real root nearest 0 of the cubic
    V(x + t d) = V(x) + t grad V(x) . d + t^2 grad V(d) . x + t^3 V(d).
    Projected clouds (B, 3M)."""
    mean = PCA.mean.reshape(-1, 3)
    centered = (mean - mean.mean(axis=0)).reshape(-1)
    scaling = centered - PCA.modes @ (PCA.modes.T @ centered)
    basis = np.column_stack([scaling / np.linalg.norm(scaling), PCA.modes])
    out = []
    for w in coeffs:
        x = PCA.mean + PCA.modes @ w
        grad = volume_gradient(TriSurface(x.reshape(-1, 3), BASE.faces))
        d = basis @ (basis.T @ grad.reshape(-1))
        along = volume_gradient(TriSurface(d.reshape(-1, 3), BASE.faces))
        roots = np.roots([volume_of(TriSurface(d.reshape(-1, 3), BASE.faces)),
                          along.reshape(-1) @ x, grad.reshape(-1) @ d,
                          volume_of(TriSurface(x.reshape(-1, 3), BASE.faces))
                          - constraint.target[0]])
        real = roots.real[roots.imag == 0.0]
        out.append(x + real[np.argmin(np.abs(real))] * d)
    return np.array(out)


clouds_and_constraint = st.builds(
    lambda b, noise, seed, scale: (
        np.stack([(BASE.vertices * (1.0 + noise * Rng(seed).derive(i).normal(
            BASE.vertices.shape))).reshape(-1) for i in range(b)]),
        Rng(seed).derive("grad").normal((b, 3 * BASE.n_vertices)),
        Constraint("volume", scale * V0)),
    # 50 clouds span two of the blocks the batched volume formulas take
    st.sampled_from((1, 2, 3, 6, 50)), st.floats(0.0, 0.1),
    st.integers(0, 2 ** 16), st.floats(0.8, 1.25))


@given(case=clouds_and_constraint)
def test_enforcer_matches_per_sample_reference(case):
    clouds, grad, constraint = case
    coeffs = PCA.project(clouds)
    basis = enforcer_basis("volume", PCA.mean, PCA.modes)
    enforcer = VolumeEnforcer(constraint, BASE.faces, PCA.mean, basis)
    # the coefficients lifted with a zero scaling coordinate, as a model does
    coords = np.column_stack([np.zeros(len(coeffs)), coeffs])
    out, cache = enforcer.forward(coords)
    want_out = reference(coeffs, constraint)
    got_out = PCA.mean + out @ basis
    assert np.max(np.abs(got_out - want_out)) <= 1e-14 * np.max(np.abs(want_out))
    # each row's step length is bitwise the one it gets alone
    for b in range(len(coords)):
        assert np.array_equal(enforcer.forward(coords[b:b + 1])[1][0],
                              cache[0][b:b + 1])
    # the backward pass is the exact vector-Jacobian product: along a random
    # direction, each row's derivative of grad . forward is the central
    # difference of the batched forward, for a cloud-space gradient taken
    # onto the basis
    grad = grad @ basis.T
    back = enforcer.backward(cache, grad)
    h = 1e-6
    direction = Rng(len(coords)).derive("direction").normal(coords.shape)
    ahead = np.vecdot(grad, enforcer.forward(coords + h * direction)[0])
    behind = np.vecdot(grad, enforcer.forward(coords - h * direction)[0])
    fd = (ahead - behind) / (2 * h)
    bound = np.linalg.norm(back, axis=1) * np.linalg.norm(direction, axis=1)
    assert np.all(np.abs(fd - np.vecdot(back, direction)) <= 1e-8 * bound)


@given(grid=lattices, size=st.sampled_from((1, 2, 3, 6, 50)),
       sigma=st.floats(0.0, 0.08), pins=pin_lists, scale=st.floats(0.8, 1.25),
       kind=st.sampled_from(("barycenter", "volume")),
       seed=st.integers(0, 2 ** 16), placement=placements)
def test_kernel_batch_invariant(grid, size, sigma, pins, scale, kind, seed,
                                placement):
    # each sample of a corrected stack is bitwise its single call, and a
    # stack with an infeasible sample names the first one
    lattice, weights, pinned, _ = pinned_setup(grid, pins, sigma, seed,
                                               placement)
    stack = sigma * Rng(seed).derive("stack").normal(
        (size, lattice.n_control, 3))
    stack[:, pinned] = 0.0
    constraint = (Constraint("volume", scale * V0) if kind == "volume" else
                  Constraint("barycenter", barycenter_of(BASE.vertices)
                             + (scale - 1.0)))
    singles = []
    for dp in stack:
        try:
            singles.append(cffd_correct(lattice, dp, BASE, constraint,
                                        weights=weights))
        except InfeasibleConstraintError:
            singles.append(None)
    failing = [i for i, single in enumerate(singles) if single is None]
    if failing:
        with pytest.raises(InfeasibleConstraintError) as err:
            cffd_correct(lattice, stack, BASE, constraint, weights=weights)
        assert err.value.index == failing[0]
        return
    batched = cffd_correct(lattice, stack, BASE, constraint, weights=weights)
    for b in range(size):
        assert np.array_equal(batched[b], singles[b])


# 320 faces: the batched volume and area formulas take 11 clouds a block
DESK = synth_shape("icosphere", 2)


def residual_of(constraint, vertices, faces):
    """The residual check as `generate`, `sample` and `validate` run it."""
    achieved = achieved_value(constraint.kind, vertices, faces)
    return constraint_residual(constraint, achieved)


@given(b=st.integers(1, 30), noise=st.floats(0.0, 0.1),
       seed=st.integers(0, 2 ** 16))
def test_stack_checks_batch_invariant(b, noise, seed):
    # every per-cloud value of a stack is bitwise the one of the cloud alone,
    # so the manifest, the residual checks and the validation quantities do
    # not depend on how many shapes share a call
    rng = Rng(seed)
    stack = DESK.vertices * (1.0 + noise * rng.normal((b, DESK.n_vertices, 3)))
    constraints = (
        Constraint("barycenter", 0.01 * rng.normal(3)),
        Constraint("volume", volume_of(DESK)))
    calls = [call for constraint in constraints
             for call in (partial(residual_of, constraint),
                          partial(achieved_value, constraint.kind))]
    calls.append(lambda vertices, faces: np.stack(
        list(shape_quantities(vertices, faces).values()), axis=-1))
    for call in calls:
        batched = call(stack, DESK.faces)
        for i in range(b):
            alone = call(stack[i:i + 1], DESK.faces)[0]
            assert np.array_equal(batched[i], alone)


def closed_reference(faces):
    """Every directed edge occurs exactly once and so does its reverse,
    counted edge by edge."""
    edges = {}
    for face in faces:
        for a, b in ((face[0], face[1]), (face[1], face[2]), (face[2], face[0])):
            edges[(int(a), int(b))] = edges.get((int(a), int(b)), 0) + 1
    return all(count == 1 and edges.get((b, a), 0) == 1
               for (a, b), count in edges.items())


def damage(faces, edits):
    """Apply each (operation, face index, vertex triple) edit in turn."""
    faces = [tuple(int(i) for i in f) for f in faces]
    for op, k, triple in edits:
        k %= len(faces) if faces else 1
        if op == "duplicate" and faces:
            faces.append(faces[k])
        elif op == "remove" and faces:
            faces.pop(k)
        elif op == "flip" and faces:
            a, b, c = faces[k]
            faces[k] = (a, c, b)
        elif op == "add":  # may create a non-manifold edge
            faces.append(triple)
        elif op == "double":  # every edge twice, every reverse twice
            faces = faces + faces
    return faces


# few vertex indices, so random face lists often share edges
distinct_triples = st.lists(st.integers(0, 5), min_size=3, max_size=3,
                            unique=True).map(tuple)
face_edits = st.lists(st.tuples(
    st.sampled_from(("duplicate", "remove", "flip", "add", "double")),
    st.integers(0, 2 ** 16), distinct_triples), max_size=3)


@settings(max_examples=200, deadline=None)
@given(subdivision=st.sampled_from((0, 1)), edits=face_edits,
       random_faces=st.lists(distinct_triples, max_size=12),
       use_random=st.booleans())
def test_is_closed_matches_reference_loop(subdivision, edits, random_faces,
                                          use_random):
    base = synth_shape("icosphere", subdivision)
    faces = damage(random_faces if use_random else base.faces, edits)
    vertices = np.zeros((base.n_vertices, 3))
    surface = TriSurface(vertices, np.array(faces, dtype=np.int64).reshape(-1, 3))
    assert is_closed(surface.faces) == closed_reference(faces)
