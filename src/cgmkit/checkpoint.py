"""Self-describing tensor container.

Layout (documented here and in the README):

    CGMTENSORS 1\n
    tensor <name> <ndim> <dim0> ... <dimK> <byte-offset>\n   (one per tensor)
    end\n
    <payload>

The header is UTF-8 text; names contain no whitespace. Offsets are byte
positions into the payload, which is the concatenation of all tensors as
little-endian 64-bit floats in row-major order. Writing the same tensors
twice produces byte-identical files. Datasets, model checkpoints and
matrix files all use this one format.
"""

import math

import numpy as np

from .errors import ContainerError

MAGIC = "CGMTENSORS 1"


def save_tensors(path, tensors):
    """Write an ordered mapping of name -> array."""
    items = list(tensors.items())
    header = [MAGIC]
    offset = 0
    payload = []
    for name, arr in items:
        if any(ch.isspace() for ch in name):
            raise ValueError(f"tensor name {name!r} contains whitespace")
        arr = np.asarray(arr, dtype=np.float64)
        dims = " ".join(str(d) for d in arr.shape)
        header.append(f"tensor {name} {arr.ndim}{' ' + dims if dims else ''} {offset}")
        payload.append(arr.astype("<f8").tobytes(order="C"))
        offset += arr.size * 8
    header.append("end")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        for chunk in payload:
            fh.write(chunk)


def load_tensors(path):
    """Read a container back into an ordered dict of name -> float64 array.

    The magic, every header line, each tensor's offset and extent and the
    payload length are checked; the first defect raises ContainerError
    naming the path."""
    with open(path, "rb") as fh:
        blob = fh.read()

    def defect(message):
        return ContainerError(f"{path}: {message}")

    magic = (MAGIC + "\n").encode("utf-8")
    if not blob.startswith(magic):
        raise defect("not a tensor container (bad magic)")
    split = blob.find(b"\nend\n", len(magic) - 1)
    if split < 0:
        raise defect("header has no 'end' line (truncated?)")
    try:
        header = blob[len(magic):split + 1].decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError:
        raise defect("header is not UTF-8 text") from None
    payload = memoryview(blob)[split + len(b"\nend\n"):]
    out = {}
    expected = 0
    for line in header:
        parts = line.split(" ")
        numbers = parts[2:]
        if (parts[0] != "tensor" or len(parts) < 4 or not parts[1]
                or not all(p.isascii() and p.isdigit() for p in numbers)
                or int(numbers[0]) != len(numbers) - 2):
            raise defect(f"bad header line {line!r}")
        name = parts[1]
        shape = tuple(int(d) for d in numbers[1:-1])
        offset = int(numbers[-1])
        if name in out:
            raise defect(f"duplicate tensor {name!r}")
        if offset != expected:
            raise defect(f"tensor {name!r} starts at byte {offset}, "
                         f"expected {expected}")
        end = offset + 8 * math.prod(shape)
        if end > len(payload):
            raise defect(f"tensor {name!r} needs payload bytes up to {end}, "
                         f"file holds {len(payload)} (truncated?)")
        arr = np.frombuffer(payload[offset:end], dtype="<f8")
        out[name] = arr.reshape(shape).astype(np.float64)
        expected = end
    if expected != len(payload):
        raise defect(f"{len(payload) - expected} payload bytes left over "
                     f"after the last tensor")
    return out


def require_tensor(tensors, path, key, shape):
    """tensors[key], checked to exist with the given shape, in which None
    matches any extent; a defect raises ContainerError naming path and key."""
    if key not in tensors:
        raise ContainerError(f"{path}: missing tensor {key!r}")
    arr = tensors[key]
    if arr.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, arr.shape)):
        want = ", ".join("*" if d is None else str(d) for d in shape)
        raise ContainerError(f"{path}: tensor {key!r} has shape {arr.shape}, "
                             f"expected ({want})")
    return arr


def require_faces(tensors, path, n_vertices):
    """tensors['faces'] as (F, 3) int64 vertex indices in [0, n_vertices),
    no face repeating an index, checked like require_tensor."""
    faces = require_tensor(tensors, path, "faces", (None, 3))
    if not np.all((np.floor(faces) == faces) & (faces >= 0)
                  & (faces < n_vertices)):
        raise ContainerError(f"{path}: tensor 'faces' holds values that are "
                             f"not vertex indices in [0, {n_vertices})")
    if np.any(faces == np.roll(faces, 1, axis=1)):
        raise ContainerError(f"{path}: tensor 'faces' holds a face with "
                             f"repeated vertex indices")
    return faces.astype(np.int64)


def read_key_values(path) -> dict:
    """A text file's key=value lines as a dict; ContainerError on others."""
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    for line in lines:
        if "=" not in line:
            raise ContainerError(f"{path}: line {line!r} is not key=value")
    return dict(line.split("=", 1) for line in lines)
