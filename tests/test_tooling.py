"""Guards for the tooling that reaches into the package from outside."""

import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np

from cgmkit import cli
from cgmkit.checkpoint import save_tensors
from cgmkit.config import PipelineConfig, write_resolved
from cgmkit.reduction import save_matrix

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
WORKLOADS = ROOT / "bench" / "workloads.py"
HASHES = ROOT / "tools" / "artifact_hashes.py"


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_resolve_on_package():
    # the benchmark tracer wraps these names by string; a refactor that
    # renames or deletes one must fail here rather than in a traced run
    tracer = load(TRACER, "bench_tracer")
    missing = []
    for module_name, names in tracer.LAYERS.items():
        module = importlib.import_module(f"cgmkit.{module_name}")
        for qualname in names:
            owner, _, attr = qualname.rpartition(".")
            scope = vars(getattr(module, owner, object)) if owner else vars(module)
            if not callable(scope.get(attr)):
                missing.append(f"{module_name}.{qualname}")
    assert not missing, f"bench/tracer.py LAYERS names missing: {missing}"


def test_numpy_names_in_src_predate_the_declared_floor():
    # every np.<name> the package uses must exist at the numpy floor that
    # pyproject.toml and README declare: no function-level `versionadded` tag
    # (one before the docstring's Parameters section) of the installed numpy
    # may be newer than the floor
    floor = re.search(r'"numpy>=([\d.]+)"',
                      (ROOT / "pyproject.toml").read_text()).group(1)
    assert f"numpy >= {floor}" in (ROOT / "README.md").read_text()

    def version(text):
        return tuple(int(part) for part in (text.split(".") + ["0"] * 3)[:3])

    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names |= set(re.findall(r"\bnp\.([A-Za-z_][\w.]*)", path.read_text()))
    assert {"matvec", "vecmat", "linalg.qr"} <= names
    newer = {}
    for name in sorted(names):
        obj = np
        for part in name.split("."):
            obj = getattr(obj, part)
        head = re.split(r"\n\s*Parameters\n\s*-{3,}", obj.__doc__ or "")[0]
        tags = re.findall(r"versionadded::\s*([\d.]+)", head)
        if any(version(tag) > version(floor) for tag in tags):
            newer[name] = tags
    assert not newer, f"newer than numpy {floor}: {newer}"


def test_artifact_hashes_lists_every_file(tmp_path):
    # the byte-evidence tool reads the benchmark's workload table and
    # fingerprints every file under a run directory by relative path
    tool = load(HASHES, "artifact_hashes")
    assert {"desk-barycenter", "desk-volume"} <= set(tool.load_workloads())
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "a.bin").write_bytes(b"abc")
    (tmp_path / "b.tsv").write_bytes(b"")
    assert tool.artifact_hashes(tmp_path) == [
        ("b.tsv", "e3b0c44298fc1c14"), ("data/a.bin", "ba7816bf8f01cfea")]


def test_artifact_differences_lists_changed_and_missing_paths():
    # the --against comparison names only paths whose bytes differ or that
    # one run lacks, with '-' for the missing side
    tool = load(HASHES, "artifact_hashes")
    old = [("a.bin", "1111"), ("gen/dataset.cgmt", "2222"), ("old.txt", "3333"),
           ("same.tsv", "4444")]
    new = [("a.bin", "1111"), ("gen/dataset.cgmt", "2223"), ("new.txt", "5555"),
           ("same.tsv", "4444")]
    assert tool.differences(old, new) == [
        "gen/dataset.cgmt 2222 2223", "new.txt - 5555", "old.txt 3333 -"]
    assert tool.differences(old, old) == []


def test_tensor_difference_reports_largest_change(tmp_path):
    # --against follows each differing container with the tensors only one
    # side holds, the shapes that changed and the largest absolute
    # difference over the rest, so a change that moves bytes reports how
    tool = load(HASHES, "artifact_hashes")
    for side, shift in (("old", 0.0), ("new", 0.25)):
        (tmp_path / side / "gen").mkdir(parents=True)
        save_tensors(tmp_path / side / "gen" / "dataset.cgmt",
                     {"a": np.zeros(3), "b": np.array([[1.0, 2.0 + shift]])})
        save_matrix(tmp_path / side / "latents.bin",
                    np.zeros((2, 2 if side == "old" else 3)))
        (tmp_path / side / "metrics.tsv").write_text(side)
    save_tensors(tmp_path / "old" / "model.cgmt",
                 {"c.matrix": np.ones((3, 6)), "c.target": np.ones(3),
                  "w": np.zeros((2, 2))})
    save_tensors(tmp_path / "new" / "model.cgmt",
                 {"c.target": np.ones(3) + 1e-3, "v": np.ones(1),
                  "w": np.zeros((1, 4))})
    save_tensors(tmp_path / "new" / "only.cgmt", {"a": np.zeros(1)})
    assert tool.tensor_difference(tmp_path, "gen/dataset.cgmt") == (
        " max|diff| 0.25")
    assert tool.tensor_difference(tmp_path, "latents.bin") == (
        " matrix (2, 2)->(2, 3)")
    assert tool.tensor_difference(tmp_path, "model.cgmt") == (
        " removed c.matrix added v w (2, 2)->(1, 4) max|diff| 0.001")
    assert tool.tensor_difference(tmp_path, "metrics.tsv") == ""
    assert tool.tensor_difference(tmp_path, "only.cgmt") == ""


def test_table_difference_reports_largest_change(tmp_path):
    # --against follows each differing text table whose rows and cells
    # match with the largest absolute difference over its numeric cells,
    # the entries of a comma-separated vector cell included
    tool = load(HASHES, "artifact_hashes")
    tables = {"val/metrics.tsv": ("name\tvalue\njsd\t0.5\n",
                                  "name\tvalue\njsd\t0.25\n"),
              "gen/manifest.tsv": ("f\ta\nx.stl\t1.0,2.0\n",
                                   "f\ta\nx.stl\t1.0,2.001\n"),
              "grown.csv": ("a,b\n1,2\n", "a,b\n1,2\n3,4\n"),
              "text.csv": ("a\nyes\n", "a\nno\n")}
    for path, sides in tables.items():
        for side, text in zip(("old", "new"), sides):
            (tmp_path / side / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / path).write_text(text)
    assert tool.table_difference(tmp_path, "val/metrics.tsv") == " max|diff| 0.25"
    assert tool.table_difference(tmp_path, "gen/manifest.tsv") == (
        " max|diff| 0.001")
    assert tool.table_difference(tmp_path, "grown.csv") == ""
    assert tool.table_difference(tmp_path, "text.csv") == " max|diff| 0"
    assert tool.table_difference(tmp_path, "missing.tsv") == ""


def test_benchmark_commands_parse():
    # every command line the benchmark runs must parse with the package's
    # parser; dropping a flag it passes (such as --threads) must fail here
    # rather than as an argparse error in every benchmark command
    workloads = load(WORKLOADS, "bench_workloads").WORKLOADS
    parser = cli.build_parser()
    for workload in workloads.values():
        steps = workload.steps("workload.cfg", 1, "work", workload.values())
        for name, argv, _ in steps:
            assert parser.parse_args(argv).command == argv[0], name


def test_benchmark_worker_setup_builds_each_gated_workload(tmp_path):
    # bench/worker.py loads each workload's config and builds its base
    # shape, lattice and constraint before the first command; a config
    # change that breaks this set-up must fail here rather than in every
    # benchmark run. The config file is written as bench/run.py writes it.
    workloads = load(WORKLOADS, "bench_workloads").WORKLOADS
    gated = [w for w in workloads.values() if w.gated]
    assert {w.name for w in gated} == {"desk-barycenter", "desk-volume"}
    for workload in gated:
        path = tmp_path / f"{workload.name}.cfg"
        write_resolved(workload.values(), path)
        config = PipelineConfig.load(path, environ={})
        base = config.base_shape()
        config.lattice(base)
        assert config.constraint(base).kind == \
            workload.config["constraint.kind"]
