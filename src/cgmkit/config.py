"""Flat key=value pipeline configuration.

Files hold `section.key = value` lines ('#' comments allowed). Environment
variables prefixed CGM_ override file values: CGM_DATASET_N_TRAIN maps to
dataset.n_train (first underscore-separated token is the section); a
variable naming an unknown key of a known section is rejected, variables of
other sections are ignored. Command line flags override both. `SETTINGS`
gives each key its default, kind, count and rule (the gm.* entries take
theirs from `GmConfig`); each, the constraint record included, is checked
once, at load, and a failure names its key. `_number` reads every number a
setting holds here or in a checkpoint sidecar."""

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .constraints import TARGET_LENGTHS, Constraint, achieved_value
from .errors import ConfigError
from .geometry import SHAPE_KINDS, FfdLattice, synth_shape
from .synthfield import FIELD_KINDS, FieldSpec

_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_NONNEGATIVE = ("nonnegative", lambda v: v >= 0)
_POSITIVE = ("positive", lambda v: v > 0)
_RATE = ("in [0, 1)", lambda v: 0 <= v < 1)
_ANY = ("any value", lambda v: True)  # `_number` has required it finite


def _one_of(*words):
    return ("one of " + ", ".join(words), lambda v: v in words)


# GmConfig field -> its rule, read by GmConfig and by SETTINGS' gm.* entries
_GM_RULES = {
    "latent_dim": _AT_LEAST_1, "pca_modes": _AT_LEAST_1,
    "hidden_width": _AT_LEAST_1, "hidden_depth": _NONNEGATIVE,
    "dropout": _RATE, "disc_dropout": _RATE, "epochs": _AT_LEAST_1,
    "batch_size": ("at least 2", lambda v: v >= 2), "lr": _POSITIVE,
    "weight_decay": _NONNEGATIVE, "alpha": _NONNEGATIVE, "sigma": _POSITIVE,
    "gamma": ("in (0, 1]", lambda v: 0 < v <= 1), "k_gain": _NONNEGATIVE,
    "k0": ("in [0, 1]", lambda v: 0 <= v <= 1), "seed": _NONNEGATIVE,
}


@dataclass
class GmConfig:
    """Settings of a generative model, each finite and within its rule."""

    latent_dim: int = 8
    pca_modes: int = 10
    hidden_width: int = 64
    hidden_depth: int = 3
    dropout: float = 0.1
    disc_dropout: float = 0.95
    epochs: int = 500
    batch_size: int = 20
    lr: float = 1e-3
    weight_decay: float = 1e-2
    alpha: float = 1e-2      # KL weight of the variational model
    sigma: float = 1.0       # decoder observation scale
    gamma: float = 0.5       # equilibrium target ratio
    k_gain: float = 1e-3     # proportional gain of the k update
    k0: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            _check(f.name, [getattr(self, f.name)], _GM_RULES[f.name])
        if self.latent_dim > self.pca_modes:
            raise ConfigError("latent_dim must not exceed pca_modes", "latent_dim")


def read_gm_config(setting, prefix, **given) -> GmConfig:
    """GmConfig with the given fields and each other field f read from
    setting(prefix + f) as f's type; a ConfigError names the setting's key,
    in its message and as its key."""
    values = {f.name: _number(prefix + f.name, setting(prefix + f.name), f.type)
              for f in fields(GmConfig) if f.name not in given}
    try:
        return GmConfig(**values, **given)
    except ConfigError as err:
        raise ConfigError(prefix + str(err), prefix + err.key) from None


# setting -> (default text, kind, count, rule): kind int, float or str
# (words), count how many values it holds (None: any number) and rule the
# (text, test) that each value meets. The gm.* entries are GmConfig's
# fields but its seed, which is pipeline.seed.
SETTINGS = {
    "pipeline.seed": ("0", int, 1, _NONNEGATIVE),
    "pipeline.out": ("out", str, 1, _ANY),
    # no effect; kept because the benchmark passes --threads
    "pipeline.threads": ("1", int, 1, _AT_LEAST_1),
    "shape.kind": ("icosphere", str, 1, _one_of(*SHAPE_KINDS)),
    "shape.subdivision": ("2", int, 1, ("in 0..6", lambda v: 0 <= v <= 6)),
    "shape.radii": ("1 1 1", float, 3, _POSITIVE),
    "lattice.grid": ("2 2 2", int, 3, _AT_LEAST_1),
    "lattice.margin": ("0.05", float, 1, _ANY),
    "lattice.pin_planes": ("", str, None, _one_of("imin", "imax", "jmin",
                                                   "jmax", "kmin", "kmax")),
    "constraint.kind": ("barycenter", str, 1, _one_of(*TARGET_LENGTHS)),
    # or "keep": the base shape's own value; its count is the kind's
    "constraint.target": ("keep", float, None, _ANY),
    "dataset.n_train": ("60", int, 1, _AT_LEAST_1),
    "dataset.n_test": ("20", int, 1, _NONNEGATIVE),
    "dataset.sigma_d": ("0.05", float, 1, _NONNEGATIVE),
    "rom.n_train": ("80", int, 1, _AT_LEAST_1),
    "rom.n_test": ("20", int, 1, _AT_LEAST_1),
    "rom.pod_modes": ("3", int, 1, _AT_LEAST_1),
    "rom.as_dim": ("1", int, 1, _AT_LEAST_1),
    "rom.bootstrap": ("100", int, 1, _NONNEGATIVE),
    "rom.nn_width": ("64", int, 1, _AT_LEAST_1),
    "rom.nn_epochs": ("1000", int, 1, _AT_LEAST_1),
    "field.kind": ("bump", str, 1, _one_of(*FIELD_KINDS)),
    **{"gm." + f.name: (str(f.default), f.type, 1, _GM_RULES[f.name])
       for f in fields(GmConfig) if f.name != "seed"},
}


def parse_config_text(text) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.count(".") != 1:
            raise ConfigError(f"line {lineno}: key {key!r} needs one dotted section")
        values[key] = value
    return values


def env_overrides(environ=None) -> dict:
    environ = os.environ if environ is None else environ
    out = {}
    for name, value in environ.items():
        if not name.startswith("CGM_") or name.count("_") < 2:
            continue
        _, section, key = name.split("_", 2)
        out[f"{section.lower()}.{key.lower()}"] = value
    return out


def resolve_config(path=None, environ=None, overrides=None) -> dict:
    values = {key: default for key, (default, *_) in SETTINGS.items()}
    if path is not None:
        with open(path) as fh:
            file_values = parse_config_text(fh.read())
        unknown = set(file_values) - set(SETTINGS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    sections = {key.split(".", 1)[0] for key in SETTINGS}
    for key, value in env_overrides(environ).items():
        if key in SETTINGS:
            values[key] = value
        elif key.split(".", 1)[0] in sections:
            name = "CGM_" + key.replace(".", "_").upper()
            raise ConfigError(f"unknown config key {key!r} (from {name})")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return values


def write_resolved(values: dict, path):
    with open(path, "w", newline="\n") as fh:
        for key in sorted(values):
            fh.write(f"{key} = {values[key]}\n")


def _number(key, text, kind):
    """text as kind (int or float); ConfigError naming key and text if it
    does not parse or is not finite. The one reader of a setting's text."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"config key {key} must be {noun}, got {text!r}", key)
    return value


def _numbers(key, text, kind, count=None) -> list:
    """The space- or comma-separated values of text (all of it when count is
    1), each read by `_number` (or kept as a word when kind is str);
    ConfigError naming key unless there are count of them, when given."""
    tokens = [text] if count == 1 else text.replace(",", " ").split()
    values = tokens if kind is str else [_number(key, t, kind) for t in tokens]
    if count is not None and len(values) != count:
        raise ConfigError(f"config key {key} needs {count} values, "
                          f"got {len(values)}", key)
    return values


def _check(key, values, rule):
    """ConfigError `<key> must be <rule>, got <value>` for the first of the
    values that breaks the rule or is a number that is not finite."""
    text, holds = rule
    for value in values:
        if not (holds(value) and (isinstance(value, str) or math.isfinite(value))):
            raise ConfigError(f"{key} must be {text}, got {value}", key)


@dataclass
class PipelineConfig:
    """Typed view over the resolved key=value mapping: config[key] is the
    checked value of a SETTINGS key outside gm.*, read once, here (None for
    a constraint.target of "keep")."""

    values: dict

    def __post_init__(self):
        self._settings = {}
        for key, (_, kind, count, rule) in SETTINGS.items():
            if key == "constraint.target" and self.values[key] == "keep":
                self._settings[key] = None
            elif not key.startswith("gm."):
                values = _numbers(key, self.values[key], kind, count)
                _check(key, values, rule)
                self._settings[key] = values[0] if count == 1 else values
        if self["constraint.target"] is not None:
            # as many values as constraint.kind needs
            Constraint(self["constraint.kind"], self["constraint.target"])
        self._gm = read_gm_config(self.values.__getitem__, "gm.",
                                  seed=self["pipeline.seed"])

    def __getitem__(self, key):
        return self._settings[key]

    @classmethod
    def load(cls, path=None, environ=None, overrides=None) -> "PipelineConfig":
        return cls(resolve_config(path, environ, overrides))

    def base_shape(self):
        return synth_shape(self["shape.kind"], self["shape.subdivision"],
                           self["shape.radii"])

    def lattice(self, surface) -> FfdLattice:
        """The surface's bounding box grown by lattice.margin on each side."""
        margin = self["lattice.margin"]
        lower = surface.vertices.min(axis=0) - margin
        upper = surface.vertices.max(axis=0) + margin
        inside = (lower <= surface.vertices) & (surface.vertices <= upper)
        if not (np.all(lower < upper) and inside.all(axis=1).any()):
            raise ConfigError(
                f"lattice.margin must leave a box with sides above 0 that "
                f"holds a base vertex, got {margin}", "lattice.margin")
        return FfdLattice.from_box(self["lattice.grid"], lower, upper)

    def weights(self, lattice: FfdLattice):
        """Per-control-point weights; pinned cut planes get weight zero."""
        tokens = self["lattice.pin_planes"]
        if not tokens:
            return None
        weights = np.ones(lattice.n_control)
        local = lattice.control_points_local()
        for token in tokens:
            axis = "ijk".index(token[0])
            value = 0.0 if token.endswith("min") else 1.0
            weights[local[:, axis] == value] = 0.0
        return weights

    def constraint(self, surface) -> Constraint:
        kind, target = self["constraint.kind"], self["constraint.target"]
        if target is None:
            target = achieved_value(kind, surface.vertices[None],
                                    surface.faces)
        return Constraint(kind, target)

    def gm_config(self) -> GmConfig:
        """GmConfig from the gm.* keys; the seed is pipeline.seed."""
        return self._gm

    def field_spec(self) -> FieldSpec:
        return FieldSpec(self["field.kind"])
