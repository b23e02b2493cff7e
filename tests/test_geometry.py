import numpy as np
import pytest

from cgmkit.errors import (DimensionError, EmptyInputError, LatticeError,
                           OrientationError)
from cgmkit.geometry import (FfdLattice, TriSurface, barycenter_of,
                             bernstein_basis, bernstein_eval, ffd_map,
                             inertia_tensor_of, is_closed, surface_area_of,
                             synth_shape, volume_of)
from cgmkit.rng import Rng


def unit_tetrahedron():
    vertices = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return TriSurface(vertices, faces)


def unit_cube():
    vertices = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                         for z in (0.0, 1.0)])
    # 12 outward CCW triangles
    quads = [
        (0, 1, 3, 2),  # x = 0, inward normal -x
        (4, 6, 7, 5),  # x = 1
        (0, 4, 5, 1),  # y = 0
        (2, 3, 7, 6),  # y = 1
        (0, 2, 6, 4),  # z = 0
        (1, 5, 7, 3),  # z = 1
    ]
    faces = []
    for a, b, c, d in quads:
        faces += [(a, b, c), (a, c, d)]
    return TriSurface(vertices, np.array(faces))


# --- Bernstein -------------------------------------------------------------

def test_bernstein_hand_value():
    assert bernstein_eval(2, 1, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_bernstein_endpoint():
    assert bernstein_eval(3, 0, 0.0) == 1.0


def test_bernstein_partition_of_unity():
    rng = np.random.default_rng(1)
    for kappa in range(11):
        t = rng.random(50)
        total = bernstein_basis(kappa, t).sum(axis=-1)
        assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_bernstein_bad_index():
    with pytest.raises(IndexError):
        bernstein_eval(2, 3, 0.5)


# --- FFD -------------------------------------------------------------------

def test_ffd_zero_displacement_identity():
    lattice = FfdLattice.from_box((2, 2, 2), (-1, -1, -1), (1, 1, 1))
    rng = Rng(3)
    pts = rng.uniform((40, 3)) * 2.0 - 1.0
    out, inside = ffd_map(lattice, np.zeros((lattice.n_control, 3)), pts)
    assert inside.all()
    assert np.max(np.abs(out - pts)) <= 1e-14


def test_ffd_corner_displacement():
    # at the (0,0,0) lattice corner only B_000 is nonzero and equals 1
    a = np.diag([2.0, 3.0, 1.0])
    lattice = FfdLattice((1, 1, 1), a, np.array([1.0, 0.0, -1.0]))
    dp = np.zeros((lattice.n_control, 3))
    dp[0] = (0.25, -0.5, 0.125)
    q = np.array([[1.0, 0.0, -1.0]])  # phi(0,0,0)
    out, inside = ffd_map(lattice, dp, q)
    assert inside.all()
    assert np.allclose(out[0], q[0] + a @ dp[0])


def test_ffd_uniform_displacement_is_translation():
    lattice = FfdLattice.from_box((1, 1, 1), (0, 0, 0), (2, 2, 2))
    d = np.array([0.1, -0.2, 0.3])
    dp = np.tile(d, (lattice.n_control, 1))
    center = np.array([[1.0, 1.0, 1.0]])
    out, _ = ffd_map(lattice, dp, center)
    assert np.allclose(out[0], center[0] + np.diag([2.0, 2.0, 2.0]) @ d)


def test_ffd_outside_points_pass_through():
    lattice = FfdLattice.from_box((1, 1, 1), (0, 0, 0), (1, 1, 1))
    dp = np.ones((lattice.n_control, 3))
    pts = np.array([[2.0, 0.5, 0.5], [0.5, 0.5, 0.5]])
    out, inside = ffd_map(lattice, dp, pts)
    assert list(inside) == [False, True]
    assert np.allclose(out[0], pts[0])
    assert not np.allclose(out[1], pts[1])


def test_ffd_linear_in_displacements():
    lattice = FfdLattice.from_box((2, 1, 2), (0, 0, 0), (1, 1, 1))
    rng = Rng(9)
    d1 = rng.normal((lattice.n_control, 3)) * 0.1
    d2 = rng.normal((lattice.n_control, 3)) * 0.1
    pts = rng.uniform((30, 3))
    base = pts
    f1, _ = ffd_map(lattice, d1, pts)
    f2, _ = ffd_map(lattice, d2, pts)
    f12, _ = ffd_map(lattice, d1 + d2, pts)
    assert np.max(np.abs((f12 - base) - ((f1 - base) + (f2 - base)))) <= 1e-12


def test_ffd_stack_matches_each_displacement():
    # a (2, 3, P, 3) stack deforms every cloud bitwise as its displacement
    # does alone, points outside the box included
    lattice = FfdLattice.from_box((2, 1, 2), (0, 0, 0), (1, 1, 1))
    rng = Rng(12)
    stack = 0.1 * rng.normal((2, 3, lattice.n_control, 3))
    pts = rng.uniform((30, 3)) * 1.4 - 0.2
    out, inside = ffd_map(lattice, stack, pts)
    assert out.shape == (2, 3, 30, 3)
    assert 0 < inside.sum() < len(pts)
    for index in np.ndindex(2, 3):
        alone, _ = ffd_map(lattice, stack[index], pts)
        assert np.array_equal(out[index], alone)
    with pytest.raises(DimensionError):
        ffd_map(lattice, stack[..., :2], pts)


def test_singular_lattice_rejected():
    with pytest.raises(LatticeError):
        FfdLattice((1, 1, 1), np.zeros((3, 3)), np.zeros(3))


# --- discrete quantities ----------------------------------------------------

def test_tetrahedron_volume():
    assert volume_of(unit_tetrahedron()) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_cube_volume_brute_force():
    cube = unit_cube()
    # independent oracle: explicit signed-tetrahedron sum over the 12 faces
    total = 0.0
    for a, b, c in cube.faces:
        va, vb, vc = cube.vertices[[a, b, c]]
        total += np.dot(va, np.cross(vb, vc)) / 6.0
    assert total == pytest.approx(1.0, abs=1e-12)
    assert volume_of(cube) == pytest.approx(total, abs=1e-14)


def test_flat_closed_surface_zero_volume():
    vertices = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    faces = np.array([[0, 1, 2], [0, 2, 1]])
    assert volume_of(TriSurface(vertices, faces)) == 0.0


def test_open_surface_rejected():
    vertices = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    surf = TriSurface(vertices, np.array([[0, 1, 2]]))
    assert not is_closed(surf.faces)
    with pytest.raises(OrientationError):
        volume_of(surf)


def test_volume_translation_invariant():
    rng = Rng(17)
    sphere = synth_shape("icosphere", 2)
    v0 = volume_of(sphere)
    for _ in range(5):
        t = rng.normal(3) * 10.0
        vt = volume_of(TriSurface(sphere.vertices + t, sphere.faces))
        assert abs(vt - v0) <= 1e-10 * abs(v0)


def test_barycenter_cases():
    cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
                    dtype=float)
    assert np.allclose(barycenter_of(cube), 0.0)
    assert np.allclose(barycenter_of([[2.0, 3.0, 4.0]]), [2.0, 3.0, 4.0])
    assert np.allclose(barycenter_of([[0.0, 0, 0], [2, 4, 6]]), [1.0, 2.0, 3.0])
    with pytest.raises(EmptyInputError):
        barycenter_of(np.zeros((0, 3)))


def test_surface_area_cases():
    tri = TriSurface(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                     np.array([[0, 1, 2]]))
    assert surface_area_of(tri.vertices, tri.faces) == pytest.approx(
        0.5, abs=1e-15)
    cube = unit_cube()
    assert surface_area_of(cube.vertices, cube.faces) == pytest.approx(
        6.0, abs=1e-12)
    degen = TriSurface(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]),
                       np.array([[0, 1, 2]]))
    assert surface_area_of(degen.vertices, degen.faces) == 0.0


def test_inertia_hand_cases():
    i1 = inertia_tensor_of([[1.0, 0.0, 0.0]], np.zeros(3))
    assert i1[2, 2] == 1.0 and i1[0, 0] == 0.0 and i1[0, 1] == 0.0
    i2 = inertia_tensor_of([[1.0, 0, 0], [-1.0, 0, 0]], np.zeros(3))
    assert i2[1, 1] == 2.0 and i2[2, 2] == 2.0
    assert np.allclose(i2 - np.diag(np.diag(i2)), 0.0)


def test_inertia_translation_with_center():
    rng = Rng(5)
    cloud = rng.normal((20, 3))
    center = barycenter_of(cloud)
    base = inertia_tensor_of(cloud, center)
    shift = np.array([3.0, -1.0, 2.0])
    moved = inertia_tensor_of(cloud + shift, center + shift)
    assert np.allclose(base, moved)


# --- synthetic shapes --------------------------------------------------------

def test_icosahedron_counts():
    surf = synth_shape("icosphere", 0)
    assert surf.n_vertices == 12
    assert len(surf.faces) == 20
    assert is_closed(surf.faces)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_icosphere_vertex_count(s):
    surf = synth_shape("icosphere", s)
    assert surf.n_vertices == 10 * 4 ** s + 2
    assert is_closed(surf.faces)
    assert volume_of(surf) > 0


def test_sphere_volume_within_one_percent():
    surf = synth_shape("ellipsoid", 3, (1.0, 1.0, 1.0))
    exact = 4.0 * np.pi / 3.0
    assert abs(volume_of(surf) - exact) / exact < 0.01


def test_ellipsoid_volume_scales_linearly():
    unit = volume_of(synth_shape("icosphere", 3))
    radii = (0.7, 1.3, 2.1)
    scaled = volume_of(synth_shape("ellipsoid", 3, radii))
    assert scaled == pytest.approx(unit * radii[0] * radii[1] * radii[2],
                                   rel=1e-12)


def test_bad_shape_args():
    with pytest.raises(DimensionError):
        synth_shape("torus", 1)
    with pytest.raises(DimensionError):
        synth_shape("icosphere", 7)
