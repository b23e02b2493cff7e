"""Workload definitions: a config (written by the benchmark into its work
directory) plus the fixed sequence of `cgmkit` CLI commands run on it.

A step is (name, argv, shapes): `shapes` is how many shapes the command
must emit, so a failed command also fails every shape it owed."""

from dataclasses import dataclass

# configs/desk.cfg with 25 of its 80 samples (20 train, the batch size),
# `sample --n 25` instead of 100 and half its epochs, so that each command
# runs 4 to 20 times in one run of the benchmark
DESK = {
    "shape.kind": "icosphere",
    "shape.subdivision": "2",
    "lattice.grid": "2 2 2",
    "constraint.kind": "barycenter",
    "dataset.n_train": "20",
    "dataset.n_test": "5",
    "dataset.sigma_d": "0.05",
    "rom.n_train": "80",
    "rom.n_test": "20",
    "rom.pod_modes": "3",
    "rom.as_dim": "1",
    "gm.latent_dim": "8",
    "gm.pca_modes": "10",
    "gm.epochs": "60",
    "gm.batch_size": "20",
}

KINDS = ("ae", "vae", "aae", "began")
SURROGATES = ("rbf", "gpr", "nn", "as")
SAMPLE_N = 25


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    full_pipeline: bool = True   # False: generate only
    gated: bool = True           # listed in BENCHMARK.json

    def values(self, overrides=None) -> dict:
        values = dict(self.config)
        values.update(overrides or {})
        return values

    def steps(self, config_path, seed, work, values):
        """The command sequence, with every output under `work`."""
        n_generate = int(values["dataset.n_train"]) + int(values["dataset.n_test"])
        common = ["--config", config_path, "--seed", str(seed), "--threads", "1"]
        data, model = f"{work}/data", f"{work}/model"
        steps = [("generate", ["generate", *common, "--out", data], n_generate)]
        if not self.full_pipeline:
            return steps
        for kind in KINDS:
            steps.append((f"train_{kind}", ["train", *common, "--kind", kind,
                                            "--data", data, "--out", model], 0))
        checkpoint = f"{model}/model_ae.cgmt"
        steps.append(("sample", ["sample", checkpoint, *common,
                                 "--n", str(SAMPLE_N), "--out", f"{work}/gen"],
                      SAMPLE_N))
        steps.append(("validate", ["validate", data, f"{work}/gen", *common,
                                   "--out", f"{work}/val"], 0))
        for method in SURROGATES:
            steps.append((f"surrogate_{method}",
                          ["surrogate", checkpoint, *common, "--method", method,
                           "--out", f"{work}/rom_{method}"], 0))
        return steps


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-barycenter",
        why="quarter-size configs/desk.cfg pipeline, all four kinds: ASCII STL "
            "and nn dominate; the linear enforcer bypasses the volume kernel",
        config=DESK,
    ),
    Workload(
        name="desk-volume",
        why="desk shape with the volume constraint: the volume enforcer, "
            "volume_gradient and is_closed dominate training and sampling",
        config=dict(DESK, **{"constraint.kind": "volume", "gm.epochs": "30"}),
    ),
    Workload(
        name="large-cffd",
        why="icosphere subdivision 4, 3x3x3 lattice, generate only: "
            "cffd_correct, FfdLattice.influence and stl_write at 16x desk",
        config=dict(DESK, **{"shape.subdivision": "4", "lattice.grid": "3 3 3",
                             "dataset.n_train": "60", "dataset.n_test": "20"}),
        full_pipeline=False,
        gated=False,
    ),
)}
