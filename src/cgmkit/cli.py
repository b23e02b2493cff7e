"""Pipeline command line: dataset generation, model training, sampling,
validation, surrogate fitting, STL export and report collation.

Every command is deterministic given its config and seed, writes a copy of
the resolved configuration into its output directory, and exits nonzero
with a diagnostic naming the failing sample when a postcondition (such as
a constraint residual bound) does not hold. The constraint travels with
the data: `train` and `validate` take it from the dataset
(`Dataset.constraint`), `sample` and `surrogate` from the checkpoint."""

import argparse
import os
import sys

import numpy as np

from . import datasets
from .config import PipelineConfig, write_resolved
from .constraints import (RESIDUAL_BOUND, achieved_value, constraint_residual,
                          sample_cffd_dataset)
from .errors import CgmError, ConfigError
from .generative import MODEL_KINDS, load_model, save_model, train_model
from .reduction import as_fit, as_response_surface, podi_fit, save_matrix
from .rng import Rng
from .synthfield import snapshot_mean_gradient, snapshot_of
from .validation import metric_report


class CommandFailure(Exception):
    """Raised when a postcondition check fails; carries the exit message."""


def _ensure_out(config: PipelineConfig):
    out = config["pipeline.out"]
    os.makedirs(out, exist_ok=True)
    write_resolved(config.values, os.path.join(out, "config.resolved.txt"))
    return out


def _checked_achieved(constraint, vertices, faces, label):
    """The achieved values of a stack (`achieved_value`), after failing on
    the first sample whose residual exceeds the bound or is NaN."""
    achieved = achieved_value(constraint.kind, vertices, faces)
    residuals = constraint_residual(constraint, achieved)
    failing = np.flatnonzero(~(residuals <= RESIDUAL_BOUND))
    if failing.size:
        i = failing[0]
        raise CommandFailure(
            f"{label} sample {i}: constraint residual {residuals[i]:.3e} "
            f"exceeds {RESIDUAL_BOUND:.0e}")
    return achieved


def cmd_generate(config: PipelineConfig) -> int:
    base = config.base_shape()
    lattice = config.lattice(base)
    constraint = config.constraint(base)
    out = _ensure_out(config)
    rng = Rng(config["pipeline.seed"], ("generate",))
    n = config["dataset.n_train"] + config["dataset.n_test"]
    vertices, displacements = sample_cffd_dataset(
        lattice, base, constraint, n, config["dataset.sigma_d"], rng,
        weights=config.weights(lattice))
    achieved = _checked_achieved(constraint, vertices, base.faces, "generated")
    meta = {
        "shape": config.values["shape.kind"],
        "subdivision": config.values["shape.subdivision"],
        "lattice_grid": config.values["lattice.grid"],
        "lattice_margin": config.values["lattice.margin"],
        "pin_planes": config.values["lattice.pin_planes"],
        "sigma_d": config["dataset.sigma_d"],
        "n_train": config["dataset.n_train"],
        "n_test": config["dataset.n_test"],
        "seed": config["pipeline.seed"],
    }
    datasets.write_dataset(out, vertices, base.faces, constraint, achieved,
                           f"{rng.seed}:cffd-sample", displacements, meta=meta)
    print(f"generate: wrote {n} samples to {out}")
    return 0


def cmd_train(config: PipelineConfig, kind, data_dir=None) -> int:
    data_dir = data_dir or config["pipeline.out"]
    dataset = datasets.read_dataset(data_dir)
    n_train = config["dataset.n_train"]
    gm = config.gm_config()
    # samples past the recorded split are held out (`sample` records none);
    # a PCA of the split keeps at most one mode per sample or coordinate
    for key, value, limit, what in (
            ("dataset.n_train", n_train, dataset.n_train or len(dataset.vertices),
             f"training samples of {data_dir}"),
            ("gm.batch_size", gm.batch_size, n_train, "training samples"),
            ("gm.pca_modes", gm.pca_modes,
             min(n_train, dataset.vertices[0].size), "modes of the split")):
        if value > limit:
            raise ConfigError(f"{key} must be at most the {limit} {what}, "
                              f"got {value}", key)
    # a setting that training itself rejects leaves no output directory
    model = train_model(kind, dataset.vertices[:n_train], dataset.faces,
                        dataset.constraint, gm)
    path = os.path.join(_ensure_out(config), f"model_{kind}.cgmt")
    save_model(model, path)
    print(f"train: {kind} final epoch loss {model.epoch_losses[-1]:.6g}, "
          f"checkpoint {path}")
    return 0


def cmd_sample(config: PipelineConfig, checkpoint, n, seed) -> int:
    if n < 1:
        raise ConfigError(f"sample --n must be at least 1, got {n}")
    model = load_model(checkpoint)
    out = _ensure_out(config)
    rng = Rng(seed, ("sample",))
    clouds, latents = model.sample(n, rng)
    achieved = _checked_achieved(model.constraint, clouds, model.faces,
                                 "sampled")
    datasets.write_dataset(out, clouds, model.faces, model.constraint,
                           achieved, f"{seed}:sample",
                           meta={"checkpoint": str(checkpoint), "seed": seed,
                                 "kind": model.kind})
    save_matrix(os.path.join(out, "latents.bin"), latents)
    print(f"sample: wrote {n} samples from {model.kind} to {out}")
    return 0


def cmd_validate(config: PipelineConfig, reference_dir, generated_dir) -> int:
    reference = datasets.read_dataset(reference_dir)
    generated = datasets.read_dataset(generated_dir)
    # the constraint travels with the data: both manifests must carry the
    # same one, and the config plays no part
    ref, gen = reference.constraint, generated.constraint
    if gen.kind != ref.kind or not np.array_equal(gen.target, ref.target):
        raise CommandFailure(
            f"constraint mismatch: reference {reference_dir} carries "
            f"{ref.kind} {ref.target.tolist()}, generated {generated_dir} "
            f"carries {gen.kind} {gen.target.tolist()}")
    out = _ensure_out(config)
    report = metric_report((reference.vertices, reference.faces),
                           (generated.vertices, generated.faces),
                           constraint=reference.constraint)
    report.write_tsv(os.path.join(out, "metrics.tsv"))
    report.write_histograms(os.path.join(out, "histograms"))
    for name, value in report.rows:
        print(f"validate: {name} = {value:.6g}")
    residual = report.value("max_constraint_residual")
    if not residual <= RESIDUAL_BOUND:
        raise CommandFailure(
            f"generated dataset violates the constraint: residual {residual:.3e}")
    return 0


def _surrogate_errors(model, inputs, snapshots):
    pred = model(inputs)
    return float(np.linalg.norm(pred - snapshots)
                 / max(np.linalg.norm(snapshots), 1e-300))


def _as_gradients(model, latents, spec):
    """Adjoint gradient of each latent's mean field value: one eval-mode
    decode and one backward pass through basis, enforcer and decoder. The
    decode caches are released on return."""
    clouds, vjp = model.decode_vjp(latents)
    field_grads = snapshot_mean_gradient(clouds.reshape(len(clouds), -1, 3),
                                         spec)
    return vjp(field_grads.reshape(len(clouds), -1))


def cmd_surrogate(config: PipelineConfig, source, method, seed) -> int:
    """Fit a surrogate either over a checkpoint's latent space (samples are
    drawn from the model) or over a dataset directory (inputs are the
    stored control-point displacements)."""
    rng = Rng(seed, ("surrogate",))
    n = config["rom.n_train"] + config["rom.n_test"]
    model = None
    if os.path.isdir(source):
        if method == "as":
            raise CommandFailure(
                "the as method needs a checkpoint (gradients are taken in "
                "the model's latent space)")
        dataset = datasets.read_dataset(source)
        if dataset.displacements is None:
            raise CommandFailure(f"{source} stores no control-point "
                                 f"displacements")
        clouds, latents = dataset.vertices, dataset.displacements
        if len(clouds) < n:
            raise CommandFailure(
                f"dataset holds {len(clouds)} samples, ROM split needs {n}")
        clouds, latents = clouds[:n], latents[:n]
        # constant columns (pinned control points) carry no information
        latents = latents[:, latents.std(axis=0) > 0]
    else:
        model = load_model(source)
        clouds, latents = model.sample(n, rng)
    out = _ensure_out(config)
    spec = config.field_spec()
    snapshots = snapshot_of(clouds, spec)
    save_matrix(os.path.join(out, "snapshots.bin"), snapshots)
    save_matrix(os.path.join(out, "inputs.bin"), latents)
    split = config["rom.n_train"]
    mu_train, mu_test = latents[:split], latents[split:]
    s_train, s_test = snapshots[:split], snapshots[split:]
    lines = ["method\ttrain_error\ttest_error"]
    if method in ("rbf", "gpr", "nn"):
        podi = podi_fit(mu_train, s_train, config["rom.pod_modes"],
                        regressor=method, rng=rng.derive("nn"),
                        nn_width=config["rom.nn_width"],
                        nn_epochs=config["rom.nn_epochs"])
        train_err = _surrogate_errors(podi, mu_train, s_train)
        test_err = _surrogate_errors(podi, mu_test, s_test)
        truncation = podi.basis.reconstruction_error / max(
            np.linalg.norm(s_train - s_train.mean(axis=0)), 1e-300)
        lines.append(f"{method}-podi\t{train_err:.12g}\t{test_err:.12g}")
        lines.append(f"pod-truncation\t{truncation:.12g}\t-")
        if method == "rbf" and not np.all(np.isfinite([train_err, test_err])):
            raise CommandFailure("rbf-podi produced non-finite errors")
    elif method == "as":
        f_train = s_train.mean(axis=1)
        f_test = s_test.mean(axis=1)
        grads = _as_gradients(model, mu_train, spec)
        subspace = as_fit(grads, config["rom.as_dim"],
                          n_bootstrap=config["rom.bootstrap"],
                          rng=rng.derive("boot"))
        surface = as_response_surface(subspace, mu_train, f_train)
        train_err = _surrogate_errors(surface, mu_train, f_train)
        test_err = _surrogate_errors(surface, mu_test, f_test)
        lines.append(f"as-gpr\t{train_err:.12g}\t{test_err:.12g}")
        save_matrix(os.path.join(out, "as_eigenvalues.bin"),
                    subspace.eigenvalues[None, :])
        save_matrix(os.path.join(out, "as_bands.bin"),
                    np.stack([subspace.band_min, subspace.band_max,
                              subspace.band_mean]))
    else:
        raise CommandFailure(f"unknown surrogate method {method!r}")
    with open(os.path.join(out, "errors.tsv"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines[1:]:
        print("surrogate:", line.replace("\t", "  "))
    return 0


def cmd_export_stl(dataset_dir, out) -> int:
    count = datasets.export_stl(dataset_dir, out)
    print(f"export-stl: wrote {count} STL files to {out}")
    return 0


def cmd_report(run_dir) -> int:
    """Collate whatever artifacts a run directory holds."""
    sections = []
    manifest = os.path.join(run_dir, "manifest.tsv")
    if os.path.exists(manifest):
        rows = datasets.read_manifest(run_dir)
        if not rows:
            raise CommandFailure(f"{run_dir}: manifest.tsv holds no samples")
        worst = max(float(np.max(np.abs(r["achieved"] - r["target"])))
                    for r in rows)
        sections.append(f"dataset: {len(rows)} samples, "
                        f"worst |achieved - target| = {worst:.3e}")
    for name in ("metrics.tsv", "errors.tsv"):
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            with open(path) as fh:
                body = fh.read().strip()
            sections.append(f"{name}:\n{body}")
    if not sections:
        raise CommandFailure(f"no artifacts found under {run_dir}")
    text = "\n\n".join(sections)
    print(text)
    with open(os.path.join(run_dir, "summary.txt"), "w", newline="\n") as fh:
        fh.write(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgmkit", description="constrained shape generation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", default=None)

    common(sub.add_parser("generate", help="write a constrained dataset"))

    p_train = sub.add_parser("train", help="train a generative model")
    common(p_train)
    p_train.add_argument("--kind", choices=MODEL_KINDS, required=True)
    p_train.add_argument("--data", default=None,
                         help="dataset directory (default: the out dir)")

    p_sample = sub.add_parser("sample", help="sample from a checkpoint")
    common(p_sample)
    p_sample.add_argument("checkpoint")
    p_sample.add_argument("--n", type=int, default=100)

    p_val = sub.add_parser("validate", help="compare two datasets")
    common(p_val)
    p_val.add_argument("reference")
    p_val.add_argument("generated")

    p_sur = sub.add_parser("surrogate", help="fit a reduced-order surrogate")
    common(p_sur)
    p_sur.add_argument("source",
                       help="model checkpoint, or a dataset directory whose "
                            "stored displacements become the inputs")
    p_sur.add_argument("--method", choices=("rbf", "gpr", "nn", "as"),
                       required=True)

    p_exp = sub.add_parser("export-stl",
                           help="write a dataset's samples as ASCII STL files")
    p_exp.add_argument("dataset_dir")
    p_exp.add_argument("--out", required=True, help="output directory")

    p_rep = sub.add_parser("report", help="summarize a run directory")
    p_rep.add_argument("run_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.run_dir)
        if args.command == "export-stl":
            return cmd_export_stl(args.dataset_dir, args.out)
        # flag text is read like any other value of its key; None: not given
        config = PipelineConfig.load(args.config, overrides={
            "pipeline.seed": args.seed, "pipeline.out": args.out,
            "pipeline.threads": args.threads})
        seed = config["pipeline.seed"]
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "train":
            return cmd_train(config, args.kind, data_dir=args.data)
        if args.command == "sample":
            return cmd_sample(config, args.checkpoint, args.n, seed)
        if args.command == "validate":
            return cmd_validate(config, args.reference, args.generated)
        if args.command == "surrogate":
            return cmd_surrogate(config, args.source, args.method, seed)
        raise CommandFailure(f"unknown command {args.command!r}")
    except (CommandFailure, CgmError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
