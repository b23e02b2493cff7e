"""On-disk dataset layout.

A dataset is a stack of shapes on one connectivity. One tensor container
`dataset.cgmt` holds the clouds `vertices` (n, M, 3), the shared `faces`
(F, 3) and, for constrained FFD samples, the control-point `displacements`
(n, 3 P) over all P control points, in which the columns of pinned control
points are zero. Beside it, `manifest.tsv` (one row per sample: file,
seed, constraint kind, target value, achieved value, displacement norm)
and `meta.txt` (key=value lines with the lattice spec, sigma_d and
constraint) are the human-readable index. The manifest's `file` cell names
the STL file that `export_stl` writes for the sample. Every row carries the
one constraint record (kind, target); `read_dataset` decodes it once."""

import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import (load_tensors, read_key_values, require_faces,
                         require_tensor, save_tensors)
from .constraints import Constraint
from .errors import ConfigError, ContainerError, EmptyInputError
from .geometry import TriSurface
from .stl_io import stl_write

DATASET_FILE = "dataset.cgmt"
MANIFEST_COLUMNS = ("file", "seed", "constraint", "target", "achieved",
                    "displacement_norm")


@dataclass
class Dataset:
    """The sample stack (n, M, 3), its faces (F, 3), the manifest rows, their
    constraint, the stored displacements (n, 3 P) or None, and n_train."""

    vertices: np.ndarray
    faces: np.ndarray
    rows: list
    constraint: Constraint
    displacements: np.ndarray = None
    n_train: int = None  # meta.txt's training count, None after `sample`


def _join_floats(values) -> str:
    return ",".join(format(float(v), ".17g") for v in np.atleast_1d(values))


def _split_floats(cell: str) -> np.ndarray:
    return np.array([float(v) for v in cell.split(",")])


def write_dataset(directory, vertices, faces, constraint, achieved, tag,
                  displacements=None, meta=None):
    """Write a sample stack (n, M, 3) on the faces into a dataset directory,
    with the control-point displacements (n, P, 3) when given.
    `achieved` holds their `achieved_value` rows. Sample i's manifest seed
    cell is f"{tag}:{i}"; its displacement norm (0 without displacements)
    is computed here."""
    n = len(vertices)
    if not n:
        raise EmptyInputError("a dataset needs at least one sample")
    kind, target = constraint.kind, _join_floats(constraint.target)
    os.makedirs(directory, exist_ok=True)
    tensors = {"faces": faces, "vertices": vertices}
    norms = np.zeros(n)
    if displacements is not None:
        flat = tensors["displacements"] = np.reshape(displacements, (n, -1))
        # a dot product per row: the bits np.linalg.norm gives one sample
        norms = np.sqrt(np.vecdot(flat, flat))
    save_tensors(os.path.join(directory, DATASET_FILE), tensors)
    rows = ["\t".join([
        f"sample_{i:05d}.stl",
        f"{tag}:{i}",
        kind,
        target,
        _join_floats(achieved[i]),
        format(float(norms[i]), ".17g"),
    ]) for i in range(n)]
    with open(os.path.join(directory, "manifest.tsv"), "w", newline="\n") as fh:
        fh.write("\t".join(MANIFEST_COLUMNS) + "\n")
        fh.write("\n".join(rows) + "\n")
    lines = {"constraint": kind, "target": target,
             "n_samples": str(n)}
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
            target, achieved = _split_floats(cells[3]), _split_floats(cells[4])
            if achieved.size != target.size:
                raise ValueError(f"{achieved.size} achieved values for "
                                 f"{target.size} target values")
            rows.append({
                "file": cells[0],
                "seed": cells[1],
                "constraint": cells[2],
                "target": target,
                "achieved": achieved,
                "displacement_norm": float(cells[5]),
            })
        except ValueError as err:
            raise ConfigError(f"{path} line {lineno}: bad manifest row "
                              f"({err})") from None
    return rows


def read_dataset(directory) -> Dataset:
    """Load the sample stack, in manifest order, from the dataset container;
    the faces are checked once, and the constraint that every manifest row
    must carry is decoded once."""
    rows = read_manifest(directory)
    manifest = os.path.join(directory, "manifest.tsv")
    if not rows:
        raise EmptyInputError(f"dataset {directory} holds no samples")
    kind, target = rows[0]["constraint"], rows[0]["target"]
    for lineno, row in enumerate(rows[1:], start=3):
        if row["constraint"] != kind or not np.array_equal(row["target"],
                                                           target):
            raise ConfigError(f"{manifest} line {lineno}: constraint differs "
                              f"from line 2")
    path = os.path.join(directory, DATASET_FILE)
    tensors = load_tensors(path)
    vertices = require_tensor(tensors, path, "vertices", (None, None, 3))
    faces = require_faces(tensors, path, vertices.shape[1])
    if len(vertices) != len(rows):
        raise ContainerError(f"{path}: holds {len(vertices)} samples, "
                             f"manifest.tsv lists {len(rows)}")
    try:
        constraint = Constraint(kind, target)
    except ConfigError as err:
        raise ConfigError(f"{manifest} line 2: {err}") from None
    displacements = None
    if "displacements" in tensors:
        displacements = require_tensor(tensors, path, "displacements",
                                       (len(rows), None))
    meta = os.path.join(directory, "meta.txt")
    n_train = read_key_values(meta).get("n_train")
    if n_train is not None:
        if not (n_train.isdigit() and 0 < int(n_train) <= len(rows)):
            raise ConfigError(f"{meta}: n_train {n_train!r} is not a count "
                              f"in 1..{len(rows)}")
        n_train = int(n_train)
    return Dataset(vertices, faces, rows, constraint, displacements, n_train)


def export_stl(directory, out) -> int:
    """Write each sample of a dataset as the ASCII STL file its manifest
    row names; returns the number of files written."""
    dataset = read_dataset(directory)
    os.makedirs(out, exist_ok=True)
    for cloud, row in zip(dataset.vertices, dataset.rows):
        if os.path.basename(row["file"]) != row["file"]:
            raise ConfigError(f"manifest file name {row['file']!r} is not "
                              f"a plain file name")
        stl_write(TriSurface(cloud, dataset.faces),
                  os.path.join(out, row["file"]))
    return len(dataset.rows)
