"""Print a fingerprint of every artifact one benchmark workload writes.

Runs the `cgmkit` CLI sequence of a workload from `bench/workloads.py`
(imported, never changed) in WORKDIR at a given seed, one fresh process
per command with BLAS pinned to one thread and `CGM_*` variables removed,
as the benchmark runs them. Then prints `path sha256[:16]` for every file
under WORKDIR, sorted by path. Commands run inside WORKDIR with relative
paths, so two source trees give comparable listings:

    python3 tools/artifact_hashes.py desk-volume /tmp/new --seed 1
    python3 tools/artifact_hashes.py desk-volume /tmp/old --seed 1 --src OLD/src

With `--against OLD_SRC` it runs the workload under OLD_SRC into
WORKDIR/old and under `--src` into WORKDIR/new, prints only the paths
whose bytes differ or that one run lacks (`path old new`, `-` for a
missing file) and exits 1 if there is any. A tensor container (`.cgmt`,
`.bin`) that both runs wrote also gets the tensor names only one run
wrote, the shapes that changed and the largest absolute difference over
the tensors of one name and shape in both (`removed constraint.matrix
max|diff| 0`). A text table (`.tsv`, `.csv`) that both runs wrote with
the same rows and the same cells per row gets the largest absolute
difference over the cells both read as numbers (`max|diff| 1.2e-12`):

    python3 tools/artifact_hashes.py desk-volume /tmp/cmp --against OLD/src"""

import argparse
import hashlib
import importlib.util
import os
import re
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from cgmkit.checkpoint import load_tensors  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def load_workloads():
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def run_workload(workload, workdir, seed, src):
    """Write the workload's config into `workdir` and run its commands
    there; raises RuntimeError naming the first command that fails."""
    os.makedirs(workdir, exist_ok=True)
    values = workload.values()
    with open(os.path.join(workdir, "workload.cfg"), "w", newline="\n") as fh:
        for key in sorted(values):
            fh.write(f"{key} = {values[key]}\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("CGM_")}
    env.update(BLAS_ENV, PYTHONPATH=os.path.abspath(src))
    for name, argv, _ in workload.steps("workload.cfg", seed, ".", values):
        proc = subprocess.run([sys.executable, "-m", "cgmkit.cli", *argv],
                              cwd=workdir, env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")


def artifact_hashes(workdir):
    """(relative path, first 16 hex digits of its sha256) per file."""
    rows = []
    for root, _, files in os.walk(workdir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()[:16]
            rows.append((os.path.relpath(path, workdir), digest))
    return sorted(rows)


def differences(old_rows, new_rows):
    """`path old_digest new_digest` for each path whose digests differ or
    that only one listing holds (`-` on the missing side), sorted by path."""
    old, new = dict(old_rows), dict(new_rows)
    return [f"{path} {old.get(path, '-')} {new.get(path, '-')}"
            for path in sorted(old.keys() | new.keys())
            if old.get(path) != new.get(path)]


def tensor_difference(workdir, path):
    """How a tensor container (.cgmt, .bin) under both WORKDIR/old and
    WORKDIR/new changed: ' removed NAME' and ' added NAME' for each tensor
    only one side holds, ' NAME OLD_SHAPE->NEW_SHAPE' for each whose shape
    changed, then ' max|diff| D', the largest absolute difference over the
    tensors of the same name and shape on both sides (left out when there
    is none); '' for any other path."""
    old, new = (os.path.join(workdir, side, path) for side in ("old", "new"))
    if not (path.endswith((".cgmt", ".bin")) and os.path.exists(old)
            and os.path.exists(new)):
        return ""
    old, new = load_tensors(old), load_tensors(new)
    notes = [f" removed {k}" for k in sorted(old.keys() - new.keys())]
    notes += [f" added {k}" for k in sorted(new.keys() - old.keys())]
    shared = sorted(old.keys() & new.keys())
    notes += [f" {k} {old[k].shape}->{new[k].shape}"
              for k in shared if old[k].shape != new[k].shape]
    same = [k for k in shared if old[k].shape == new[k].shape]
    if same:
        largest = max(float(np.max(np.abs(old[k] - new[k]), initial=0.0))
                      for k in same)
        notes.append(f" max|diff| {largest:.3g}")
    return "".join(notes)


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def table_difference(workdir, path):
    """How a text table (.tsv, .csv) under both WORKDIR/old and WORKDIR/new
    changed: ' max|diff| D', the largest absolute difference over the cells
    that both sides read as numbers, when both have the same rows and the
    same cells per row (cells split at tabs and commas, so a vector cell of
    a manifest counts one cell per entry); '' for any other path."""
    old, new = (os.path.join(workdir, side, path) for side in ("old", "new"))
    if not (path.endswith((".tsv", ".csv")) and os.path.exists(old)
            and os.path.exists(new)):
        return ""
    old, new = ([re.split("[\t,]", line) for line in read_lines(p)]
                for p in (old, new))
    if [len(row) for row in old] != [len(row) for row in new]:
        return ""
    largest = 0.0
    for a, b in zip((c for row in old for c in row),
                    (c for row in new for c in row)):
        try:
            largest = max(largest, abs(float(a) - float(b)))
        except ValueError:
            pass
    return f" max|diff| {largest:.3g}"


def main(argv=None):
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(workloads))
    parser.add_argument("workdir", help="empty directory for the run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree holding the cgmkit package")
    parser.add_argument("--against", metavar="OLD_SRC", default=None,
                        help="compare with a run under this source tree")
    args = parser.parse_args(argv)
    if os.path.isdir(args.workdir) and os.listdir(args.workdir):
        parser.error(f"{args.workdir} is not empty")
    runs = ({"old": args.against, "new": args.src} if args.against
            else {"": args.src})
    try:
        for name, src in runs.items():
            run_workload(workloads[args.workload],
                         os.path.join(args.workdir, name), args.seed, src)
    except RuntimeError as err:
        print(f"error: under {src}: {err}", file=sys.stderr)
        return 1
    if args.against:
        old = artifact_hashes(os.path.join(args.workdir, "old"))
        new = artifact_hashes(os.path.join(args.workdir, "new"))
        lines = differences(old, new)
        for line in lines:
            path = line.split()[0]
            print(line + tensor_difference(args.workdir, path)
                  + table_difference(args.workdir, path))
        print(f"{len(lines)} of {len(dict(old) | dict(new))} files differ",
              file=sys.stderr)
        return 1 if lines else 0
    for path, digest in artifact_hashes(args.workdir):
        print(path, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
