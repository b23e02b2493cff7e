"""ASCII STL reading and writing.

Grammar written by stl_write (floats at 17 significant digits, so float64
coordinates survive a round trip bit-exactly):

    solid shape
     facet normal nx ny nz
      outer loop
       vertex x y z
       vertex x y z
       vertex x y z
      endloop
     endfacet
    endsolid shape

Normals are recomputed on write from the CCW orientation. On read, facet
vertices are welded into shared indices (tolerance WELD_TOL, first-occurrence
order); the stored normals are ignored.
"""

import numpy as np

from .errors import StlParseError
from .geometry import TriSurface

WELD_TOL = 1e-9


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def stl_write(surface: TriSurface, path):
    tri = surface.vertices[surface.faces]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    norms = np.linalg.norm(cross, axis=1)
    normals = np.where(norms[:, None] > 0.0, cross / np.maximum(norms, 1e-300)[:, None], 0.0)
    lines = ["solid shape"]
    for f in range(len(tri)):
        nx, ny, nz = normals[f]
        lines.append(f" facet normal {_fmt(nx)} {_fmt(ny)} {_fmt(nz)}")
        lines.append("  outer loop")
        for v in range(3):
            x, y, z = tri[f, v]
            lines.append(f"   vertex {_fmt(x)} {_fmt(y)} {_fmt(z)}")
        lines.append("  endloop")
        lines.append(" endfacet")
    lines.append("endsolid shape")
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)


class _Welder:
    """Incremental vertex welding with a spatial hash over WELD_TOL-sized
    cells."""

    def __init__(self):
        self.points = []
        self.cells = {}

    def index_of(self, p):
        base = np.floor(p / WELD_TOL).astype(np.int64)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    cell = (base[0] + dx, base[1] + dy, base[2] + dz)
                    for idx in self.cells.get(cell, ()):
                        if np.max(np.abs(self.points[idx] - p)) <= WELD_TOL:
                            return idx
        key = (int(base[0]), int(base[1]), int(base[2]))
        idx = len(self.points)
        self.points.append(p)
        self.cells.setdefault(key, []).append(idx)
        return idx


def stl_read(path) -> TriSurface:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    lines = [(i + 1, line.split()) for i, line in enumerate(raw)]
    lines = [(no, toks) for no, toks in lines if toks]
    if not lines:
        raise StlParseError("empty file", line=1)
    pos = 0

    def expect(*words):
        nonlocal pos
        if pos >= len(lines):
            raise StlParseError(f"unexpected end of file, expected {' '.join(words)}",
                                line=lines[-1][0])
        no, toks = lines[pos]
        if tuple(toks[: len(words)]) != words:
            raise StlParseError(f"expected {' '.join(words)!r}, got {' '.join(toks)!r}",
                                line=no)
        pos += 1
        return no, toks

    def parse_floats(no, toks, count):
        if len(toks) != count:
            raise StlParseError(f"expected {count} numbers, got {len(toks)}", line=no)
        try:
            return [float(t) for t in toks]
        except ValueError:
            raise StlParseError(f"non-numeric coordinate in {' '.join(toks)!r}",
                                line=no) from None

    expect("solid")
    welder = _Welder()
    faces = []
    while True:
        if pos >= len(lines):
            raise StlParseError("unexpected end of file, expected 'endsolid'",
                                line=lines[-1][0])
        no, toks = lines[pos]
        if toks[0] == "endsolid":
            pos += 1
            break
        no, toks = expect("facet", "normal")
        parse_floats(no, toks[2:], 3)
        expect("outer", "loop")
        idx = []
        for _ in range(3):
            no, toks = expect("vertex")
            coords = parse_floats(no, toks[1:], 3)
            idx.append(welder.index_of(np.asarray(coords)))
        expect("endloop")
        no, _ = expect("endfacet")
        if len(set(idx)) != 3:
            raise StlParseError("facet degenerate after vertex welding", line=no)
        faces.append(idx)
    if pos < len(lines):
        raise StlParseError(f"trailing content {' '.join(lines[pos][1])!r}",
                            line=lines[pos][0])
    if not faces:
        raise StlParseError("solid contains no facets", line=lines[0][0])
    return TriSurface(np.asarray(welder.points), np.asarray(faces, dtype=np.int64))
