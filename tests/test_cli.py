import os
from pathlib import Path

import numpy as np
import pytest

from cgmkit import cli
from cgmkit.checkpoint import load_tensors, save_tensors
from cgmkit.cli import main
from cgmkit.config import PipelineConfig
from cgmkit.constraints import barycenter_rows
from cgmkit.datasets import MANIFEST_COLUMNS, read_dataset, read_manifest
from cgmkit.generative import load_model
from cgmkit.reduction import as_fit, fd_gradients, load_matrix, save_matrix
from cgmkit.synthfield import snapshot_of

DESK_CONFIG = """
# small pipeline for tests
shape.subdivision = 1
dataset.n_train = 16
dataset.n_test = 4
dataset.sigma_d = 0.05
rom.n_train = 12
rom.n_test = 4
rom.pod_modes = 2
rom.bootstrap = 10
rom.nn_epochs = 50
gm.latent_dim = 3
gm.pca_modes = 6
gm.hidden_width = 16
gm.hidden_depth = 1
gm.epochs = 8
gm.batch_size = 8
"""

DESK_CFG = str(Path(__file__).resolve().parent.parent / "configs" / "desk.cfg")


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text(DESK_CONFIG)
    return str(path)


def run(args):
    return main(args)


def test_generate_deterministic(tmp_path, config_file):
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    assert run(["generate", "--config", config_file, "--seed", "7",
                "--out", out1]) == 0
    assert run(["generate", "--config", config_file, "--seed", "7",
                "--out", out2]) == 0
    for name in ("dataset.cgmt", "manifest.tsv", "meta.txt"):
        assert (tmp_path / "d1" / name).read_bytes() == \
            (tmp_path / "d2" / name).read_bytes()
    assert (tmp_path / "d1" / "config.resolved.txt").exists()


def test_generate_threads_merge_order_independent(tmp_path, config_file):
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s4")
    assert run(["generate", "--config", config_file, "--seed", "3",
                "--out", out1, "--threads", "1"]) == 0
    assert run(["generate", "--config", config_file, "--seed", "3",
                "--out", out2, "--threads", "4"]) == 0
    assert (tmp_path / "s1" / "manifest.tsv").read_bytes() == \
        (tmp_path / "s4" / "manifest.tsv").read_bytes()


def test_manifest_achieved_matches_target(tmp_path, config_file):
    out = str(tmp_path / "data")
    assert run(["generate", "--config", config_file, "--seed", "5",
                "--out", out]) == 0
    for row in read_manifest(out):
        assert np.max(np.abs(row["achieved"] - row["target"])) <= 1e-9


def test_invalid_config_nonzero_exit(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("shape.kind = dodecahedron\n")
    assert run(["generate", "--config", str(bad),
                "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("variable, key", [
    ("CGM_PIPELINE_SEED", "pipeline.seed"),
    ("CGM_DATASET_SIGMA_D", "dataset.sigma_d"),
])
def test_non_numeric_config_value_exits_1_naming_key(tmp_path, monkeypatch,
                                                     capsys, variable, key):
    monkeypatch.setenv(variable, "abc")
    assert run(["generate", "--out", str(tmp_path / "x")]) == 1
    assert f"config key {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, key", [
    ("--seed", "-1", "pipeline.seed"),
    ("--threads", "-3", "pipeline.threads"),
    ("--threads", "0", "pipeline.threads"),
    # flag text is read like the config value of its key
    ("--seed", "abc", "pipeline.seed"),
    ("--threads", "1.5", "pipeline.threads"),
])
def test_out_of_range_seed_and_threads_exit_1(tmp_path, capsys, flag, value,
                                              key):
    out = tmp_path / "x"
    assert run(["generate", flag, value, "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["rom.nn_width", "rom.pod_modes",
                                 "rom.as_dim"])
def test_rom_size_below_one_exits_1_naming_key(tmp_path, capsys, monkeypatch,
                                               key):
    monkeypatch.setenv("CGM_" + key.replace(".", "_").upper(), "0")
    out = tmp_path / "x"
    assert run(["surrogate", str(tmp_path), "--method", "rbf",
                "--out", str(out)]) == 1
    assert f"error: {key} must be at least 1, got 0" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, count", [
    ("shape.radii", "1 1", 2), ("shape.radii", "1 1 1 1", 4),
    ("shape.radii", "", 0), ("lattice.grid", "2 2", 2),
    ("lattice.grid", "2,2,2,2", 4)])
def test_triple_with_wrong_count_exits_1_naming_key(tmp_path, capsys,
                                                    monkeypatch, key, value,
                                                    count):
    monkeypatch.setenv("CGM_" + key.replace(".", "_").upper(), value)
    assert run(["generate", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == \
        f"error: config key {key} needs 3 values, got {count}\n"


@pytest.mark.parametrize("kind, target, message", [
    ("barycenter", "1 2", "'constraint.target' of a barycenter constraint "
                          "holds 2 values, needs 3"),
    ("volume", "1 2", "'constraint.target' of a volume constraint holds 2 "
                      "values, needs 1"),
    ("cube", "keep", "constraint.kind must be one of barycenter, volume, "
                     "got cube"),
], ids=["barycenter", "volume", "unknown-kind"])
@pytest.mark.parametrize("command", ["generate", "train", "validate"])
def test_malformed_config_constraint_exits_1_naming_key(
        tmp_path, capsys, monkeypatch, command, kind, target, message):
    # every command checks the record at load, though only generate builds
    # a constraint from it
    monkeypatch.setenv("CGM_CONSTRAINT_KIND", kind)
    monkeypatch.setenv("CGM_CONSTRAINT_TARGET", target)
    out = tmp_path / "x"
    extra = {"generate": [],
             "train": ["--kind", "ae", "--data", str(tmp_path)],
             "validate": [str(tmp_path), str(tmp_path)]}[command]
    assert run([command, "--out", str(out), *extra]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("target, message", [
    ("-1", "'constraint.target' of a volume constraint must be positive and "
           "finite, got -1.0"),
    ("0", "'constraint.target' of a volume constraint must be positive and "
          "finite, got 0.0"),
    ("inf", "config key constraint.target must be a finite number, got 'inf'"),
])
def test_volume_target_not_positive_finite_exits_1_naming_key(
        tmp_path, capsys, monkeypatch, target, message):
    # a negative target made generate write inside-out samples and exit 0,
    # and a zero one failed on a relative residual of 1.5e+284
    monkeypatch.setenv("CGM_CONSTRAINT_KIND", "volume")
    monkeypatch.setenv("CGM_CONSTRAINT_TARGET", target)
    out = tmp_path / "x"
    assert run(["generate", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_singular_lattice_nonzero_exit(tmp_path):
    bad = tmp_path / "bad.cfg"
    # a flat shape with zero margin would collapse the lattice box to zero
    # extent; the zero radius is rejected by name at load, before a lattice
    # is built (test_geometry.py checks FfdLattice's own singular check)
    bad.write_text("shape.kind = ellipsoid\nshape.subdivision = 0\n"
                   "shape.radii = 1 1 0\nlattice.margin = 0\n")
    assert run(["generate", "--config", str(bad),
                "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("command, key, value, message", [
    ("generate", "shape.radii", "0 1 1", "must be positive, got 0.0"),
    ("generate", "shape.radii", "-1 1 1", "must be positive, got -1.0"),
    ("generate", "lattice.grid", "0 2 2", "must be at least 1, got 0"),
    ("generate", "shape.subdivision", "7", "must be in 0..6, got 7"),
    ("generate", "shape.subdivision", "-1", "must be in 0..6, got -1"),
    ("generate", "shape.kind", "cube",
     "must be one of icosphere, ellipsoid, got cube"),
    ("train", "field.kind", "wave", "must be one of bump, multibump, got wave"),
    ("generate", "lattice.pin_planes", "top",
     "must be one of imin, imax, jmin, jmax, kmin, kmax, got top"),
    # a model setting is checked at load by every command, not only train
    ("generate", "gm.k_gain", "-1", "must be nonnegative, got -1.0"),
])
def test_setting_out_of_rule_exits_1_at_load_naming_key(
        tmp_path, capsys, monkeypatch, command, key, value, message):
    monkeypatch.setenv("CGM_" + key.replace(".", "_").upper(), value)
    out = tmp_path / "x"
    extra = ["--kind", "ae", "--data", str(tmp_path)] if command == "train" \
        else []
    assert run([command, "--out", str(out), *extra]) == 1
    assert capsys.readouterr().err == f"error: {key} {message}\n"
    assert not out.exists()


def test_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("shape.sides = 4\n")
    assert run(["generate", "--config", str(bad),
                "--out", str(tmp_path / "x")]) == 1


def test_full_pipeline(tmp_path, config_file):
    data = str(tmp_path / "data")
    assert run(["generate", "--config", config_file, "--seed", "11",
                "--out", data]) == 0
    # train twice: identical checkpoint bytes
    run1, run2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    for out in (run1, run2):
        assert run(["train", "--config", config_file, "--seed", "11",
                    "--out", out, "--kind", "ae", "--data", data]) == 0
    assert (tmp_path / "r1" / "model_ae.cgmt").read_bytes() == \
        (tmp_path / "r2" / "model_ae.cgmt").read_bytes()
    # sample: deterministic dataset + latents
    gen1, gen2 = str(tmp_path / "g1"), str(tmp_path / "g2")
    ckpt = os.path.join(run1, "model_ae.cgmt")
    for out in (gen1, gen2):
        assert run(["sample", ckpt, "--config", config_file, "--n", "8",
                    "--seed", "2", "--out", out]) == 0
    assert (tmp_path / "g1" / "dataset.cgmt").read_bytes() == \
        (tmp_path / "g2" / "dataset.cgmt").read_bytes()
    assert (tmp_path / "g1" / "latents.bin").read_bytes() == \
        (tmp_path / "g2" / "latents.bin").read_bytes()
    # validate
    val = str(tmp_path / "val")
    assert run(["validate", data, gen1, "--config", config_file,
                "--out", val]) == 0
    metrics = (tmp_path / "val" / "metrics.tsv").read_text().splitlines()
    assert metrics[0] == "metric\tvalue"
    names = {line.split("\t")[0] for line in metrics[1:]}
    assert {"jsd_I_xx", "jsd_area", "var_reference",
            "max_constraint_residual"} <= names
    # surrogate with the interpolating regressor
    sur = str(tmp_path / "sur")
    assert run(["surrogate", ckpt, "--config", config_file, "--seed", "4",
                "--method", "rbf", "--out", sur]) == 0
    errors = (tmp_path / "sur" / "errors.tsv").read_text().splitlines()
    header = errors[0].split("\t")
    assert header == ["method", "train_error", "test_error"]
    rbf_row = [l for l in errors if l.startswith("rbf-podi")][0]
    trunc_row = [l for l in errors if l.startswith("pod-truncation")][0]
    train_err = float(rbf_row.split("\t")[1])
    truncation = float(trunc_row.split("\t")[1])
    assert train_err <= truncation + 1e-9
    # report collates artifacts
    assert run(["report", gen1]) == 0
    assert (tmp_path / "g1" / "summary.txt").exists()
    assert run(["report", sur]) == 0


def test_surrogate_as_method(tmp_path, config_file):
    data = str(tmp_path / "data")
    assert run(["generate", "--config", config_file, "--seed", "11",
                "--out", data]) == 0
    run_dir = str(tmp_path / "r")
    assert run(["train", "--config", config_file, "--seed", "11",
                "--out", run_dir, "--kind", "ae", "--data", data]) == 0
    sur = str(tmp_path / "as")
    assert run(["surrogate", os.path.join(run_dir, "model_ae.cgmt"),
                "--config", config_file, "--seed", "4", "--method", "as",
                "--out", sur]) == 0
    errors = (tmp_path / "as" / "errors.tsv").read_text()
    assert "as-gpr" in errors
    evals = load_matrix(tmp_path / "as" / "as_eigenvalues.bin")
    assert np.all(evals >= 0)
    # bootstrap eigenvalue bands: rows band_min, band_max, band_mean
    band_min, band_max, band_mean = load_matrix(
        tmp_path / "as" / "as_bands.bin")
    assert len(band_min) == evals.shape[1]
    assert np.all(band_min <= band_mean) and np.all(band_mean <= band_max)


@pytest.fixture(scope="module", params=["barycenter", "volume"])
def as_checkpoint(request, tmp_path_factory):
    """(config path, ae checkpoint) trained under each constraint kind."""
    root = tmp_path_factory.mktemp(f"as-{request.param}")
    cfg = root / "pipeline.cfg"
    cfg.write_text(DESK_CONFIG + f"constraint.kind = {request.param}\n")
    assert run(["generate", "--config", str(cfg), "--seed", "11",
                "--out", str(root / "data")]) == 0
    assert run(["train", "--config", str(cfg), "--seed", "11", "--kind", "ae",
                "--data", str(root / "data"), "--out", str(root / "run")]) == 0
    return str(cfg), str(root / "run" / "model_ae.cgmt")


@pytest.mark.parametrize("n", [0, -3])
def test_sample_count_below_one_rejected_by_name(tmp_path, as_checkpoint, n,
                                                 capsys):
    # rejected before the checkpoint is read or the output directory made
    cfg, ckpt = as_checkpoint
    capsys.readouterr()
    assert run(["sample", ckpt, "--config", cfg, "--n", str(n),
                "--out", str(tmp_path / "gen")]) == 1
    assert f"sample --n must be at least 1, got {n}" in capsys.readouterr().err
    assert not (tmp_path / "gen").exists()


def test_surrogate_as_rerun_byte_identical(tmp_path, as_checkpoint):
    cfg, ckpt = as_checkpoint
    for tag in ("one", "two"):
        assert run(["surrogate", ckpt, "--config", cfg, "--seed", "4",
                    "--method", "as", "--out", str(tmp_path / tag)]) == 0
    for name in ("errors.tsv", "as_eigenvalues.bin", "as_bands.bin",
                 "snapshots.bin"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes(), name


def test_surrogate_as_gradients_match_per_latent_reference(
        tmp_path, as_checkpoint, monkeypatch):
    # the adjoint gradients `as` fits against central differences of each
    # latent's mean field, decoded one latent at a time, at the latents cli
    # takes the gradients at
    cfg, ckpt = as_checkpoint
    latents, fitted = [], []
    as_gradients = cli._as_gradients

    def recording_gradients(model, mus, spec):
        latents.append(mus)
        return as_gradients(model, mus, spec)

    def recording_fit(gradients, *args, **kwargs):
        fitted.append(gradients)
        return as_fit(gradients, *args, **kwargs)

    monkeypatch.setattr(cli, "_as_gradients", recording_gradients)
    monkeypatch.setattr(cli, "as_fit", recording_fit)
    assert run(["surrogate", ckpt, "--config", cfg, "--seed", "4",
                "--method", "as", "--out", str(tmp_path / "as")]) == 0
    (samples,), (grads,) = latents, fitted
    model = load_model(ckpt)
    spec = PipelineConfig.load(cfg).field_spec()

    def f_each(mus):
        return np.array([snapshot_of(model.decode(mu[None])[0].reshape(-1, 3),
                                     spec).mean() for mu in mus])

    want = fd_gradients(f_each, samples, h=1e-5)
    assert np.linalg.norm(grads - want) <= 1e-6 * np.linalg.norm(want)


def test_surrogate_from_dataset_displacements(tmp_path, config_file):
    data = str(tmp_path / "data")
    assert run(["generate", "--config", config_file, "--seed", "21",
                "--out", data]) == 0
    stored = load_tensors(tmp_path / "data" / "dataset.cgmt")
    assert stored["displacements"].shape[0] == 20
    sur = str(tmp_path / "sur")
    assert run(["surrogate", data, "--config", config_file, "--seed", "4",
                "--method", "gpr", "--out", sur]) == 0
    errors = (tmp_path / "sur" / "errors.tsv").read_text()
    assert "gpr-podi" in errors
    # gradient-based method requires the latent-space route
    assert run(["surrogate", data, "--config", config_file, "--seed", "4",
                "--method", "as", "--out", str(tmp_path / "x")]) == 1
    # the interpolating regressor needs at least dim + 2 training sites
    assert run(["surrogate", data, "--config", config_file, "--seed", "4",
                "--method", "rbf", "--out", str(tmp_path / "y")]) == 1


def test_unknown_model_kind_usage_error(tmp_path, config_file):
    with pytest.raises(SystemExit) as err:
        run(["train", "--config", config_file, "--kind", "gan",
             "--out", str(tmp_path / "x")])
    assert err.value.code == 2


def test_report_empty_dir_fails(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["report", str(empty)]) == 1


def test_report_header_only_manifest_exits_1_naming_dir(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.tsv").write_text("\t".join(MANIFEST_COLUMNS) + "\n")
    assert run(["report", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert str(run_dir) in err and "holds no samples" in err


def test_env_override(tmp_path, config_file, monkeypatch):
    monkeypatch.setenv("CGM_DATASET_N_TRAIN", "6")
    monkeypatch.setenv("CGM_DATASET_N_TEST", "2")
    out = str(tmp_path / "env")
    assert run(["generate", "--config", config_file, "--seed", "1",
                "--out", out]) == 0
    assert len(read_manifest(out)) == 8
    resolved = (tmp_path / "env" / "config.resolved.txt").read_text()
    assert "dataset.n_train = 6" in resolved


def test_resolved_config_reloads_and_regenerates_the_same(
        tmp_path, config_file, monkeypatch):
    # a run's config.resolved.txt is itself a config: given back with a new
    # --out it loads to the same values and regenerates the same dataset
    _without_cgm_env(monkeypatch)
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["generate", "--config", config_file, "--seed", "5",
                "--out", str(first)]) == 0
    resolved = first / "config.resolved.txt"
    assert run(["generate", "--config", str(resolved),
                "--out", str(second)]) == 0
    given = PipelineConfig.load(config_file, overrides={"pipeline.seed": "5"})
    reloaded = PipelineConfig.load(resolved)
    assert reloaded.values["pipeline.out"] == str(first)
    assert {**reloaded.values, "pipeline.out": "-"} == \
        {**given.values, "pipeline.out": "-"}
    for name in ("dataset.cgmt", "manifest.tsv", "meta.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_train_n_train_above_dataset_size_exits_1_naming_key(
        tmp_path, trained, capsys, monkeypatch):
    # training would take every sample, the held-out ones included
    monkeypatch.setenv("CGM_DATASET_N_TRAIN", "500")
    data, out = str(trained / "data"), tmp_path / "run"
    assert run(["train", "--config", str(trained / "pipeline.cfg"),
                "--kind", "ae", "--data", data, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset.n_train must be at most the 16 training samples of "
        f"{data}, got 500\n")
    assert not out.exists()


def _without_cgm_env(monkeypatch):
    for name in [n for n in os.environ if n.startswith("CGM_")]:
        monkeypatch.delenv(name)


@pytest.fixture(scope="module")
def desk_data(tmp_path_factory):
    """An 80-sample dataset of the shipped desk config: 60 training and 20
    held-out samples."""
    data = tmp_path_factory.mktemp("desk") / "data"
    with pytest.MonkeyPatch.context() as monkeypatch:
        _without_cgm_env(monkeypatch)
        assert run(["generate", "--config", DESK_CFG, "--out", str(data)]) == 0
    return data


def test_train_never_takes_held_out_samples(tmp_path, desk_data, capsys,
                                            monkeypatch):
    # 70 is within the 80 samples but past the dataset's own split of 60
    _without_cgm_env(monkeypatch)
    monkeypatch.setenv("CGM_GM_EPOCHS", "1")
    monkeypatch.setenv("CGM_DATASET_N_TRAIN", "70")
    out = tmp_path / "run"
    capsys.readouterr()
    assert run(["train", "--config", DESK_CFG, "--kind", "ae", "--data",
                str(desk_data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset.n_train must be at most the 60 training samples of "
        f"{desk_data}, got 70\n")
    assert not out.exists()


def test_train_batch_above_split_exits_1_naming_key(tmp_path, desk_data,
                                                   capsys, monkeypatch):
    # 70 samples a batch cannot come from a split of 60, and the check runs
    # before the output directory is made
    _without_cgm_env(monkeypatch)
    monkeypatch.setenv("CGM_GM_BATCH_SIZE", "70")
    out = tmp_path / "run"
    capsys.readouterr()
    assert run(["train", "--config", DESK_CFG, "--kind", "ae", "--data",
                str(desk_data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: gm.batch_size must be at most the 60 training samples, "
        "got 70\n")
    assert not out.exists()


def test_train_pca_modes_above_split_exits_1_naming_key(tmp_path, desk_data,
                                                        capsys, monkeypatch):
    # a PCA of 60 samples keeps at most 60 modes; the check names the key
    # before the output directory is made
    _without_cgm_env(monkeypatch)
    monkeypatch.setenv("CGM_GM_PCA_MODES", "70")
    out = tmp_path / "run"
    capsys.readouterr()
    assert run(["train", "--config", DESK_CFG, "--kind", "ae", "--data",
                str(desk_data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: gm.pca_modes must be at most the 60 modes of the split, "
        "got 70\n")
    assert not out.exists()


def test_train_pca_modes_without_room_for_the_volume_mode_exits_1(
        tmp_path, capsys, monkeypatch):
    # 12 points: a split of 36 allows 36 PCA modes, but the volume's scaling
    # mode leaves room for 35 on the 36 coordinates; training rejects them
    # by key, and no output directory is made
    _without_cgm_env(monkeypatch)
    config = tmp_path / "small.cfg"
    config.write_text("shape.subdivision = 0\nconstraint.kind = volume\n"
                      "dataset.n_train = 36\ndataset.n_test = 4\n"
                      "gm.pca_modes = 36\ngm.batch_size = 36\n")
    data, out = tmp_path / "data", tmp_path / "run"
    assert run(["generate", "--config", str(config), "--out", str(data)]) == 0
    capsys.readouterr()
    assert run(["train", "--config", str(config), "--kind", "ae", "--data",
                str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: gm.pca_modes must be at most 35 under a volume constraint on "
        "12 points, got 36\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "validate", "surrogate"])
def test_missing_input_exits_1_without_output_dir(tmp_path, trained, capsys,
                                                  command):
    # the output directory is made only once the inputs have loaded
    missing, out = str(tmp_path / "nonexist"), tmp_path / "out"
    argv = {"sample": ["sample", missing + ".cgmt"],
            "validate": ["validate", str(trained / "data"), missing],
            "surrogate": ["surrogate", missing, "--method", "rbf"]}[command]
    capsys.readouterr()
    assert run(argv + ["--config", str(trained / "pipeline.cfg"),
                       "--out", str(out)]) == 1
    assert "No such file or directory" in capsys.readouterr().err
    assert not out.exists()


def test_sampled_dataset_splits_at_its_sample_count(tmp_path, trained,
                                                    capsys):
    # a `sample` output records no split: all 4 of its samples may train
    assert read_dataset(trained / "data").n_train == 16
    assert read_dataset(trained / "gen").n_train is None
    capsys.readouterr()
    gen = trained / "gen"
    assert run(["train", "--config", str(trained / "pipeline.cfg"),
                "--kind", "ae", "--data", str(gen),
                "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset.n_train must be at most the 4 training samples of "
        f"{gen}, got 16\n")


def test_built_in_defaults_generate_and_train(tmp_path, monkeypatch):
    # no config file: every setting but the epoch count is its default
    _without_cgm_env(monkeypatch)
    monkeypatch.setenv("CGM_GM_EPOCHS", "2")
    data, out = tmp_path / "d", tmp_path / "t"
    assert run(["generate", "--out", str(data)]) == 0
    assert run(["train", "--kind", "ae", "--data", str(data),
                "--out", str(out)]) == 0
    assert (out / "model_ae.cgmt").exists()


@pytest.mark.parametrize("kind", ["barycenter", "volume"])
@pytest.mark.parametrize("margin", ["-0.5", "-1"])
def test_lattice_box_without_base_vertex_exits_1_naming_key(
        tmp_path, capsys, monkeypatch, kind, margin):
    # -0.5 shrinks the unit sphere's box inside every vertex, -1 to a point
    _without_cgm_env(monkeypatch)
    monkeypatch.setenv("CGM_LATTICE_MARGIN", margin)
    monkeypatch.setenv("CGM_CONSTRAINT_KIND", kind)
    out = tmp_path / "x"
    assert run(["generate", "--config", DESK_CFG, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: lattice.margin must leave a box with sides above 0 that "
        f"holds a base vertex, got {float(margin)}\n")
    assert not out.exists()


def test_matrix_round_trip(tmp_path):
    m = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "m.bin"
    save_matrix(path, m)
    assert np.array_equal(load_matrix(path), m)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A generated dataset and an ae checkpoint trained on it."""
    root = tmp_path_factory.mktemp("trained")
    cfg = root / "pipeline.cfg"
    cfg.write_text(DESK_CONFIG)
    assert run(["generate", "--config", str(cfg), "--seed", "13",
                "--out", str(root / "data")]) == 0
    assert run(["train", "--config", str(cfg), "--seed", "13", "--kind", "ae",
                "--data", str(root / "data"), "--out", str(root / "run")]) == 0
    assert run(["sample", str(root / "run" / "model_ae.cgmt"), "--config",
                str(cfg), "--n", "4", "--seed", "2",
                "--out", str(root / "gen")]) == 0
    return root


def _truncate(path):
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])


def _copy_dir(src, dst):
    dst.mkdir()
    for item in src.iterdir():
        (dst / item.name).write_bytes(item.read_bytes())
    return dst


@pytest.mark.parametrize("case", ["sample", "train", "validate-reference",
                                  "validate-generated"])
def test_truncated_container_exits_1_with_diagnostic(tmp_path, trained, case,
                                                     capsys):
    cfg = str(trained / "pipeline.cfg")
    common = ["--config", cfg, "--out", str(tmp_path / "out")]
    if case == "sample":
        run_dir = _copy_dir(trained / "run", tmp_path / "run")
        broken = run_dir / "model_ae.cgmt"
        argv = ["sample", str(broken), "--n", "2", *common]
    else:
        source = trained / ("gen" if case == "validate-generated" else "data")
        copy = _copy_dir(source, tmp_path / "broken")
        broken = copy / "dataset.cgmt"
        argv = {"train": ["train", "--kind", "ae", "--data", str(copy), *common],
                "validate-reference": ["validate", str(copy),
                                       str(trained / "gen"), *common],
                "validate-generated": ["validate", str(trained / "data"),
                                       str(copy), *common]}[case]
    _truncate(broken)
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(broken) in err
    assert "truncated" in err


def _without_line(prefix):
    return lambda tensors, lines: (tensors, [l for l in lines
                                             if not l.startswith(prefix)])


def _without_tensor(key):
    return lambda tensors, lines: (
        {k: v for k, v in tensors.items() if k != key}, lines)


def _config_value(name, text):
    return lambda tensors, lines: (tensors, [
        f"config.{name}={text}" if l.startswith(f"config.{name}=") else l
        for l in lines])


def _constraint_kind(kind):
    return lambda tensors, lines: (tensors, [
        f"constraint.kind={kind}" if l.startswith("constraint.kind=") else l
        for l in lines])


# case -> (edit of the ae checkpoint's tensors and sidecar lines, the key
# the diagnostic must name)
CHECKPOINT_DEFECTS = {
    "line-without-equals": (lambda t, lines: (t, lines + ["garbage"]),
                            "garbage"),
    "missing-kind": (_without_line("kind="), "kind"),
    "missing-config": (_without_line("config.epochs="), "config.epochs"),
    "missing-constraint": (_without_line("constraint.kind="),
                           "constraint.kind"),
    "unknown-kind": (lambda t, lines: (t, ["kind=gan" if l == "kind=ae" else l
                                           for l in lines]), "kind"),
    "missing-net": (_without_tensor("net.dec.layer0.bias"),
                    "net.dec.layer0.bias"),
    "missing-pca": (_without_tensor("pca.modes"), "pca.modes"),
    "missing-faces": (_without_tensor("faces"), "faces"),
    "bias-shape": (lambda t, lines: (
        {**t, "net.dec.layer0.bias": t["net.dec.layer0.bias"][:1]}, lines),
        "net.dec.layer0.bias"),
    "faces-non-integral": (lambda t, lines: ({**t, "faces": t["faces"] + 0.5},
                                             lines), "faces"),
    "faces-out-of-range": (lambda t, lines: (
        {**t, "faces": np.where(t["faces"] == 0, 1e6, t["faces"])}, lines),
        "faces"),
    "faces-repeated-index": (lambda t, lines: (
        {**t, "faces": np.where(np.arange(3) == 2, t["faces"][:, :1],
                                t["faces"])}, lines), "faces"),
    "unknown-constraint-kind": (_constraint_kind("surface"),
                                "constraint.kind"),
    # no command writes a linear constraint, so no checkpoint carries one
    "linear-constraint-kind": (_constraint_kind("linear"), "constraint.kind"),
    # a float where GmConfig takes an int (the latent count)
    "latent-dim-float": (_config_value("latent_dim", "8.0"),
                         "config.latent_dim"),
    # values of the right type outside their field's rule
    "latent-dim-zero": (_config_value("latent_dim", "0"), "config.latent_dim"),
    "gamma-zero": (_config_value("gamma", "0.0"), "config.gamma"),
    "constraint-target-length": (lambda t, lines: (
        {**t, "constraint.target": t["constraint.target"][:2]}, lines),
        "constraint.target"),
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_DEFECTS))
def test_malformed_checkpoint_exits_1_naming_key(tmp_path, trained, case,
                                                 capsys):
    defect, key = CHECKPOINT_DEFECTS[case]
    run_dir = _copy_dir(trained / "run", tmp_path / "run")
    broken = run_dir / "model_ae.cgmt"
    sidecar = run_dir / "model_ae.cgmt.txt"
    tensors, lines = defect(load_tensors(broken),
                            sidecar.read_text().splitlines())
    save_tensors(broken, tensors)
    sidecar.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["sample", str(broken), "--n", "2", "--config",
                str(trained / "pipeline.cfg"), "--out",
                str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken}") and repr(key) in err


def _samples_the_same(tmp_path, cfg, ckpt, older):
    for tag, path in (("now", ckpt), ("older", older)):
        assert run(["sample", str(path), "--config", cfg, "--n", "5",
                    "--seed", "3", "--out", str(tmp_path / f"gen-{tag}")]) == 0
    for name in ("dataset.cgmt", "latents.bin"):
        assert (tmp_path / "gen-now" / name).read_bytes() == \
            (tmp_path / "gen-older" / name).read_bytes(), name


@pytest.mark.parametrize("as_checkpoint", ["volume"], indirect=True)
def test_volume_checkpoint_with_older_sidecar_keys_samples_the_same(
        tmp_path, as_checkpoint):
    # older sidecars also carry constraint.order=x,y,z and
    # constraint.split=first-pass; they are ignored, as every version wrote
    # exactly those values for its one x pass
    cfg, ckpt = as_checkpoint
    older = _copy_dir(Path(ckpt).parent, tmp_path / "older") / "model_ae.cgmt"
    sidecar = Path(str(older) + ".txt")
    sidecar.write_text(sidecar.read_text() + "constraint.order=x,y,z\n"
                       "constraint.split=first-pass\n")
    assert load_model(older).constraint.kind == "volume"
    _samples_the_same(tmp_path, cfg, ckpt, older)


@pytest.mark.parametrize("as_checkpoint", ["barycenter"], indirect=True)
def test_barycenter_checkpoint_with_older_matrix_tensor_samples_the_same(
        tmp_path, as_checkpoint):
    # older barycenter checkpoints also carry the dense (3, 3 M)
    # constraint.matrix tensor, just before constraint.target; it is not
    # read, as the barycenter is rebuilt from its target
    cfg, ckpt = as_checkpoint
    older = _copy_dir(Path(ckpt).parent, tmp_path / "older") / "model_ae.cgmt"
    tensors = load_tensors(older)
    target = tensors.pop("constraint.target")
    n_points = len(tensors["pca.mean"]) // 3
    tensors["constraint.matrix"] = barycenter_rows(n_points)
    tensors["constraint.target"] = target
    save_tensors(older, tensors)
    assert "constraint.matrix" not in load_tensors(ckpt)
    _samples_the_same(tmp_path, cfg, ckpt, older)


def _cell(column, edit, rows=None):
    """A manifest edit that rewrites the `column` cell of every sample row,
    or of the 0-based sample rows listed, as edit(cell)."""
    col = MANIFEST_COLUMNS.index(column)

    def apply(lines):
        out = lines[:1]
        for i, line in enumerate(lines[1:]):
            cells = line.split("\t")
            if rows is None or i in rows:
                cells[col] = edit(cells[col])
            out.append("\t".join(cells))
        return out
    return apply


def _target_and_achieved(edit):
    """The same cell edit on the target and the achieved cells, so each row
    stays self-consistent and only its constraint record is wrong."""
    def apply(lines):
        return _cell("achieved", edit)(_cell("target", edit)(lines))
    return apply


# case -> (constraint kind of the dataset, edit of its manifest lines, the
# diagnostic that follows the manifest path)
MANIFEST_DEFECTS = {
    "barycenter-target-of-2": (
        "barycenter",
        _target_and_achieved(lambda c: ",".join(c.split(",")[:2])),
        "line 2: 'constraint.target' of a barycenter constraint holds 2 "
        "values, needs 3"),
    "volume-target-of-2": (
        "volume", _target_and_achieved(lambda c: c + ",1"),
        "line 2: 'constraint.target' of a volume constraint holds 2 values, "
        "needs 1"),
    "volume-target-negative": (
        "volume", _target_and_achieved(lambda c: "-1"),
        "line 2: 'constraint.target' of a volume constraint must be positive "
        "and finite, got -1.0"),
    "row-differs": (
        "barycenter", _cell("target", lambda c: "0,0,0", rows={3}),
        "line 5: constraint differs from line 2"),
    "unknown-kind": (
        "volume", _cell("constraint", lambda c: "linear"),
        "line 2: 'constraint.kind' names unknown kind 'linear'"),
    "barycenter-achieved-of-2": (
        "barycenter",
        _cell("achieved", lambda c: ",".join(c.split(",")[:2]), rows={1}),
        "line 3: bad manifest row (2 achieved values for 3 target values)"),
    "volume-achieved-of-2": (
        "volume", _cell("achieved", lambda c: c + ",4", rows={0}),
        "line 2: bad manifest row (2 achieved values for 1 target values)"),
}


@pytest.mark.parametrize("command", ["train", "validate"])
@pytest.mark.parametrize("as_checkpoint, case", [
    pytest.param(kind, case, id=case)
    for case, (kind, _, _) in sorted(MANIFEST_DEFECTS.items())],
    indirect=["as_checkpoint"])
def test_malformed_manifest_constraint_exits_1_naming_path(
        tmp_path, as_checkpoint, case, command, capsys):
    cfg, ckpt = as_checkpoint
    _, edit, message = MANIFEST_DEFECTS[case]
    data = Path(ckpt).parent.parent / "data"
    copy = _copy_dir(data, tmp_path / "broken")
    manifest = copy / "manifest.tsv"
    manifest.write_text("\n".join(edit(manifest.read_text().splitlines()))
                        + "\n")
    argv = {"train": ["train", "--kind", "ae", "--data", str(copy)],
            "validate": ["validate", str(copy), str(data)]}[command]
    capsys.readouterr()
    assert run([*argv, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {manifest} {message}\n"


@pytest.mark.parametrize("as_checkpoint, case", [
    pytest.param(MANIFEST_DEFECTS[case][0], case, id=case)
    for case in ("barycenter-achieved-of-2", "volume-achieved-of-2")],
    indirect=["as_checkpoint"])
def test_report_rejects_achieved_of_other_length_naming_line(
        tmp_path, as_checkpoint, case, capsys):
    # report reads each row's |achieved - target|, which a short achieved
    # cell cannot broadcast and a long one would report wrongly
    _, ckpt = as_checkpoint
    _, edit, message = MANIFEST_DEFECTS[case]
    copy = _copy_dir(Path(ckpt).parent.parent / "data", tmp_path / "broken")
    manifest = copy / "manifest.tsv"
    manifest.write_text("\n".join(edit(manifest.read_text().splitlines()))
                        + "\n")
    capsys.readouterr()
    assert run(["report", str(copy)]) == 1
    assert capsys.readouterr().err == f"error: {manifest} {message}\n"


def test_bad_magic_dataset_exits_1(tmp_path, trained, capsys):
    copy = _copy_dir(trained / "data", tmp_path / "broken")
    (copy / "dataset.cgmt").write_bytes(b"CGMMAT 2 3\n")
    capsys.readouterr()
    assert run(["train", "--config", str(trained / "pipeline.cfg"), "--kind",
                "ae", "--data", str(copy), "--out", str(tmp_path / "o")]) == 1
    assert "bad magic" in capsys.readouterr().err


def test_degenerate_dataset_face_exits_1_naming_path(tmp_path, trained,
                                                    capsys):
    # a face repeating a vertex index is rejected when the container is read,
    # by path and tensor name
    copy = _copy_dir(trained / "data", tmp_path / "broken")
    broken = copy / "dataset.cgmt"
    tensors = load_tensors(broken)
    faces = tensors["faces"].copy()
    faces[5, 1] = faces[5, 0]
    save_tensors(broken, dict(tensors, faces=faces))
    capsys.readouterr()
    assert run(["train", "--config", str(trained / "pipeline.cfg"), "--kind",
                "ae", "--data", str(copy), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken}") and "'faces'" in err


def test_validate_takes_constraint_from_data(tmp_path, config_file, capsys):
    # a volume dataset against itself, validated with the default config
    # (whose constraint is a barycenter)
    cfg = tmp_path / "volume.cfg"
    cfg.write_text(DESK_CONFIG + "constraint.kind = volume\n")
    vol = str(tmp_path / "vol")
    assert run(["generate", "--config", str(cfg), "--seed", "1",
                "--out", vol]) == 0
    assert run(["validate", vol, vol, "--out", str(tmp_path / "val")]) == 0
    rows = dict(line.split("\t") for line in
                (tmp_path / "val" / "metrics.tsv").read_text().splitlines()[1:])
    assert float(rows["max_constraint_residual"]) <= 1e-9
    # datasets carrying different constraints are not compared
    bary = str(tmp_path / "bary")
    assert run(["generate", "--config", config_file, "--seed", "1",
                "--out", bary]) == 0
    capsys.readouterr()
    assert run(["validate", bary, vol, "--out", str(tmp_path / "v2")]) == 1
    err = capsys.readouterr().err
    assert "constraint mismatch" in err and bary in err and vol in err
