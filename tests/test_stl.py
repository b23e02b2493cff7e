import numpy as np
import pytest

from cgmkit.errors import StlParseError
from cgmkit.geometry import TriSurface, synth_shape, volume_of
from cgmkit.rng import Rng
from cgmkit.stl_io import stl_read, stl_write

SINGLE_FACET = """solid tri
 facet normal 0 0 1
  outer loop
   vertex 0 0 0
   vertex 1 0 0
   vertex 0 1 0
  endloop
 endfacet
endsolid tri
"""


def test_single_facet(tmp_path):
    path = tmp_path / "tri.stl"
    path.write_text(SINGLE_FACET)
    surf = stl_read(path)
    assert surf.n_vertices == 3
    assert len(surf.faces) == 1
    assert np.allclose(surf.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_round_trip_lossless(tmp_path):
    rng = Rng(31)
    base = synth_shape("icosphere", 2)
    surf = TriSurface(
        base.vertices * (1.0 + 0.05 * rng.normal((base.n_vertices, 3))),
        base.faces)
    path = tmp_path / "shape.stl"
    stl_write(surf, path)
    back = stl_read(path)
    assert np.array_equal(back.faces, surf.faces)
    assert np.array_equal(back.vertices, surf.vertices)  # bit exact at 17 digits


def test_round_trip_preserves_bytes(tmp_path):
    surf = synth_shape("ellipsoid", 1, (1.0, 0.5, 2.0))
    p1, p2 = tmp_path / "a.stl", tmp_path / "b.stl"
    stl_write(surf, p1)
    stl_write(stl_read(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_names_line(tmp_path):
    path = tmp_path / "bad.stl"
    path.write_text("".join(SINGLE_FACET.splitlines(keepends=True)[:4]))
    with pytest.raises(StlParseError) as err:
        stl_read(path)
    assert err.value.line == 4


def test_non_numeric_coordinate(tmp_path):
    path = tmp_path / "bad.stl"
    path.write_text(SINGLE_FACET.replace("vertex 1 0 0", "vertex 1 zero 0"))
    with pytest.raises(StlParseError) as err:
        stl_read(path)
    assert "non-numeric" in str(err.value)
    assert err.value.line == 5


def test_malformed_token(tmp_path):
    path = tmp_path / "bad.stl"
    path.write_text(SINGLE_FACET.replace("outer loop", "inner loop"))
    with pytest.raises(StlParseError):
        stl_read(path)


def test_welding_merges_shared_vertices(tmp_path):
    surf = synth_shape("icosphere", 1)
    path = tmp_path / "s.stl"
    stl_write(surf, path)
    back = stl_read(path)
    assert back.n_vertices == surf.n_vertices  # 3 * faces entries welded back
    assert volume_of(back) == pytest.approx(volume_of(surf), rel=1e-12)
