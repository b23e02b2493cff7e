"""Dataset container: bit-exact round trip, STL export, and rejection of
truncated or corrupted tensor containers."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cgmkit.checkpoint import MAGIC, load_tensors, save_tensors
from cgmkit.cli import main
from cgmkit.constraints import (Constraint, achieved_value,
                                sample_cffd_dataset)
from cgmkit.datasets import DATASET_FILE, read_dataset, write_dataset
from cgmkit.errors import (ConfigError, ContainerError, DimensionError,
                           EmptyInputError)
from cgmkit.geometry import FfdLattice, synth_shape, volume_of
from cgmkit.reduction import load_matrix, save_matrix
from cgmkit.rng import Rng
from cgmkit.stl_io import stl_read


@pytest.fixture(scope="module")
def samples():
    base = synth_shape("icosphere", 1)
    lattice = FfdLattice.from_box((2, 2, 2), base.vertices.min(axis=0) - 0.05,
                                  base.vertices.max(axis=0) + 0.05)
    constraint = Constraint("volume", volume_of(base))
    return constraint, base.faces, sample_cffd_dataset(
        lattice, base, constraint, 4, 0.03, Rng(5))


@pytest.fixture()
def dataset_dir(tmp_path, samples):
    constraint, faces, (vertices, displacements) = samples
    directory = tmp_path / "data"
    write_dataset(directory, vertices, faces, constraint,
                  achieved_value(constraint.kind, vertices, faces),
                  "5:cffd-sample", displacements)
    return directory


def test_dataset_round_trip_bit_exact(dataset_dir, samples):
    _, faces, (vertices, displacements) = samples
    dataset = read_dataset(dataset_dir)
    assert [row["file"] for row in dataset.rows] == \
        [f"sample_{i:05d}.stl" for i in range(len(vertices))]
    assert dataset.vertices.tobytes() == vertices.tobytes()
    assert dataset.faces.dtype == np.int64
    assert np.array_equal(dataset.faces, faces)
    expected = displacements.reshape(len(displacements), -1)
    assert dataset.displacements.tobytes() == expected.tobytes()
    assert sorted(p.name for p in dataset_dir.iterdir()) == \
        [DATASET_FILE, "manifest.tsv", "meta.txt"]
    assert "weld_tol" not in (dataset_dir / "meta.txt").read_text()


def test_export_stl_reads_back_container_arrays(dataset_dir, tmp_path):
    out = tmp_path / "stl"
    assert main(["export-stl", str(dataset_dir), "--out", str(out)]) == 0
    dataset = read_dataset(dataset_dir)
    assert sorted(p.name for p in out.iterdir()) == \
        [row["file"] for row in dataset.rows]
    for cloud, row in zip(dataset.vertices, dataset.rows):
        back = stl_read(out / row["file"])
        assert back.vertices.tobytes() == cloud.tobytes()
        assert np.array_equal(back.faces, dataset.faces)


def test_every_truncation_of_a_dataset_rejected(dataset_dir):
    path = dataset_dir / DATASET_FILE
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ContainerError, match=DATASET_FILE):
            read_dataset(dataset_dir)


def test_dataset_rows_must_match_manifest(dataset_dir):
    manifest = dataset_dir / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ContainerError, match="manifest.tsv lists 3"):
        read_dataset(dataset_dir)
    manifest.write_text(lines[0] + "\n" + lines[1].split("\t", 1)[0] + "\n")
    with pytest.raises(ConfigError, match="line 2"):
        read_dataset(dataset_dir)
    manifest.write_text(lines[0] + "\n")
    with pytest.raises(EmptyInputError, match="holds no samples"):
        read_dataset(dataset_dir)


def test_dataset_n_train_read_from_meta(dataset_dir):
    # write_dataset was given no meta, so no split is recorded
    meta = dataset_dir / "meta.txt"
    assert read_dataset(dataset_dir).n_train is None
    for count in (1, 4):
        meta.write_text(f"n_train={count}\n")
        assert read_dataset(dataset_dir).n_train == count
    for bad in ("5", "0", "-1", "2.5", "x"):
        meta.write_text(f"n_train={bad}\n")
        with pytest.raises(ConfigError,
                           match=f"n_train '{bad}' is not a count in 1..4"):
            read_dataset(dataset_dir)
    meta.write_text("garbage\n")
    with pytest.raises(ContainerError, match="'garbage' is not key=value"):
        read_dataset(dataset_dir)


def test_dataset_faces_must_be_vertex_indices(dataset_dir):
    path = dataset_dir / DATASET_FILE
    tensors = load_tensors(path)
    for bad in (tensors["faces"] + 0.5, tensors["faces"] * 100.0):
        save_tensors(path, dict(tensors, faces=bad))
        with pytest.raises(ContainerError, match="vertex indices"):
            read_dataset(dataset_dir)


def test_matrix_file_is_one_tensor_container(tmp_path):
    path = tmp_path / "m.bin"
    save_matrix(path, np.arange(6.0).reshape(2, 3))
    assert path.read_bytes().startswith(MAGIC.encode("utf-8"))
    save_tensors(path, {"a": np.zeros(2), "b": np.zeros(2)})
    with pytest.raises(ContainerError, match="not a matrix file"):
        load_matrix(path)
    with pytest.raises(DimensionError):
        save_matrix(path, np.zeros((2, 3, 4)))


names = st.from_regex(r"[a-z][a-z0-9._]{0,7}", fullmatch=True)
shapes = st.lists(st.integers(0, 3), max_size=3).map(tuple)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(layout=st.dictionaries(names, shapes, max_size=4), data=st.data())
def test_corrupt_container_raises_container_error(tmp_path, layout, data):
    tensors = {name: np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
               for name, shape in layout.items()}
    path = tmp_path / "c.cgmt"
    save_tensors(path, tensors)
    blob = path.read_bytes()
    back = load_tensors(path)
    assert list(back) == list(tensors)
    assert all(np.array_equal(back[k], tensors[k]) for k in tensors)

    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    path.write_bytes(blob[:cut])
    with pytest.raises(ContainerError, match="c.cgmt"):
        load_tensors(path)

    flipped = bytearray(blob)
    flipped[data.draw(st.integers(0, len(MAGIC) - 1), label="byte")] ^= \
        1 << data.draw(st.integers(0, 7), label="bit")
    path.write_bytes(bytes(flipped))
    with pytest.raises(ContainerError, match="bad magic"):
        load_tensors(path)

    path.write_bytes(blob + b"\0" * data.draw(st.integers(1, 16), label="extra"))
    with pytest.raises(ContainerError, match="left over"):
        load_tensors(path)
