"""On-disk dataset layout.

A dataset directory holds one tensor container `dataset.cgmt` with the
shared connectivity `faces` (F, 3), every sample's cloud `vertices`
(n, M, 3) and, when every sample carries one, its control-point
`displacements` (n, 3 N_free). Beside it, `manifest.tsv` (one row per
sample: file, seed, constraint kind, target value, achieved value,
displacement norm) and `meta.txt` (key=value lines with the lattice spec,
sigma_d and constraint) are the human-readable index. The manifest's
`file` cell names the STL file that `export_stl` writes for the sample."""

import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import (load_tensors, require_faces, require_tensor,
                         save_tensors)
from .constraints import target_value
from .errors import ConfigError, ContainerError, EmptyInputError
from .geometry import TriSurface
from .stl_io import stl_write

DATASET_FILE = "dataset.cgmt"
MANIFEST_COLUMNS = ("file", "seed", "constraint", "target", "achieved",
                    "displacement_norm")


@dataclass
class Dataset:
    """Samples as TriSurfaces sharing one face array, their manifest rows,
    and the stored displacements (n, 3 N_free) or None."""

    surfaces: list
    rows: list
    displacements: np.ndarray = None


def _join_floats(values) -> str:
    return ",".join(format(float(v), ".17g") for v in np.atleast_1d(values))


def _split_floats(cell: str) -> np.ndarray:
    return np.array([float(v) for v in cell.split(",")])


def write_dataset(directory, samples, constraint, meta=None):
    """Write CffdSample records into a dataset directory. When every sample
    carries a control-point displacement they are stored too."""
    samples = list(samples)
    if not samples:
        raise EmptyInputError("a dataset needs at least one sample")
    os.makedirs(directory, exist_ok=True)
    surfaces = [sample.surface for sample in samples]
    clouds = cloud_matrix(surfaces)
    tensors = {"faces": shared_faces(surfaces).astype(np.float64),
               "vertices": clouds.reshape(len(surfaces), -1, 3)}
    displacements = [np.reshape(s.displacement, -1) for s in samples
                     if s.displacement is not None]
    if len(displacements) == len(samples):
        tensors["displacements"] = np.stack(displacements)
    save_tensors(os.path.join(directory, DATASET_FILE), tensors)
    target = _join_floats(target_value(constraint))
    rows = ["\t".join([
        f"sample_{i:05d}.stl",
        sample.seed_tag,
        constraint.kind,
        target,
        _join_floats(sample.achieved),
        format(float(sample.displacement_norm), ".17g"),
    ]) for i, sample in enumerate(samples)]
    with open(os.path.join(directory, "manifest.tsv"), "w", newline="\n") as fh:
        fh.write("\t".join(MANIFEST_COLUMNS) + "\n")
        fh.write("\n".join(rows) + "\n")
    lines = {"constraint": constraint.kind, "target": target,
             "n_samples": str(len(samples))}
    if meta:
        lines.update({k: str(v) for k, v in meta.items()})
    with open(os.path.join(directory, "meta.txt"), "w", newline="\n") as fh:
        for key in lines:
            fh.write(f"{key}={lines[key]}\n")


def read_manifest(directory):
    path = os.path.join(directory, "manifest.tsv")
    with open(path) as fh:
        lines = [l.rstrip("\n") for l in fh if l.strip()]
    header = tuple(lines[0].split("\t")) if lines else ()
    if header != MANIFEST_COLUMNS:
        raise ConfigError(f"{path}: unexpected manifest columns {header}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        try:
            if len(cells) != len(MANIFEST_COLUMNS):
                raise ValueError(f"{len(cells)} cells")
            rows.append({
                "file": cells[0],
                "seed": cells[1],
                "constraint": cells[2],
                "target": _split_floats(cells[3]),
                "achieved": _split_floats(cells[4]),
                "displacement_norm": float(cells[5]),
            })
        except ValueError as err:
            raise ConfigError(f"{path} line {lineno}: bad manifest row "
                              f"({err})") from None
    return rows


def read_dataset(directory) -> Dataset:
    """Load all samples, in manifest order, from the dataset container."""
    rows = read_manifest(directory)
    path = os.path.join(directory, DATASET_FILE)
    tensors = load_tensors(path)
    vertices = require_tensor(tensors, path, "vertices", (None, None, 3))
    faces = require_faces(tensors, path, vertices.shape[1])
    if len(vertices) != len(rows):
        raise ContainerError(f"{path}: holds {len(vertices)} samples, "
                             f"manifest.tsv lists {len(rows)}")
    displacements = None
    if "displacements" in tensors:
        displacements = require_tensor(tensors, path, "displacements",
                                       (len(rows), None))
    return Dataset([TriSurface(v, faces) for v in vertices], rows, displacements)


def export_stl(directory, out) -> int:
    """Write each sample of a dataset as the ASCII STL file its manifest
    row names; returns the number of files written."""
    dataset = read_dataset(directory)
    os.makedirs(out, exist_ok=True)
    for surface, row in zip(dataset.surfaces, dataset.rows):
        if os.path.basename(row["file"]) != row["file"]:
            raise ConfigError(f"manifest file name {row['file']!r} is not "
                              f"a plain file name")
        stl_write(surface, os.path.join(out, row["file"]))
    return len(dataset.rows)


def cloud_matrix(surfaces) -> np.ndarray:
    """Stack vectorized clouds into an (n, 3M) matrix; all surfaces must
    share the vertex count."""
    counts = {s.n_vertices for s in surfaces}
    if len(counts) != 1:
        raise ConfigError(f"point counts differ across dataset: {sorted(counts)}")
    return np.stack([s.vertices.reshape(-1) for s in surfaces])


def shared_faces(surfaces) -> np.ndarray:
    faces = surfaces[0].faces
    for s in surfaces[1:]:
        if not np.array_equal(s.faces, faces):
            raise ConfigError("connectivity differs across dataset")
    return faces
