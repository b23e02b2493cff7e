"""Flat key=value pipeline configuration.

Files hold `section.key = value` lines ('#' comments allowed). Environment
variables prefixed CGM_ override file values: CGM_DATASET_N_TRAIN maps to
dataset.n_train (first underscore-separated token is the section); a
variable naming an unknown key of a known section is rejected, variables of
other sections are ignored. Command line flags override both. `_number`
reads every number a setting holds here or in a checkpoint sidecar."""

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .constraints import constraint_from
from .errors import ConfigError
from .geometry import FfdLattice, barycenter_of, synth_shape, volume_of
from .synthfield import FieldSpec

_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_NONNEGATIVE = ("nonnegative", lambda v: v >= 0)
_POSITIVE = ("positive", lambda v: v > 0)
_DROP_RATE = ("in [0, 1)", lambda v: 0 <= v < 1)

# GmConfig field -> (the rule its value must meet, the test of that rule)
_GM_BOUNDS = {
    "latent_dim": _AT_LEAST_1, "pca_modes": _AT_LEAST_1,
    "hidden_width": _AT_LEAST_1, "hidden_depth": _NONNEGATIVE,
    "dropout": _DROP_RATE, "disc_dropout": _DROP_RATE, "epochs": _AT_LEAST_1,
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
    batch_size: int = 200
    lr: float = 1e-3
    weight_decay: float = 1e-2
    alpha: float = 1e-2      # KL weight of the variational model
    sigma: float = 1.0       # decoder observation scale
    gamma: float = 0.5       # equilibrium target ratio
    k_gain: float = 1e-3     # proportional gain of the k update
    k0: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, (rule, holds) in _GM_BOUNDS.items():
            value = getattr(self, name)
            if not (math.isfinite(value) and holds(value)):
                raise ConfigError(f"{name} must be {rule}, got {value}", name)
        if self.latent_dim > self.pca_modes:
            raise ConfigError("latent_dim must not exceed pca_modes", "latent_dim")


def read_gm_config(setting, prefix, **given) -> GmConfig:
    """GmConfig with the given fields and each other field f read as its
    type from setting(prefix + f); a ConfigError's key is the setting's."""
    values = {f.name: _number(prefix + f.name, setting(prefix + f.name), f.type)
              for f in fields(GmConfig) if f.name not in given}
    try:
        return GmConfig(**values, **given)
    except ConfigError as err:
        raise ConfigError(str(err), prefix + err.key) from None


DEFAULTS = {
    "pipeline.seed": "0",
    "pipeline.out": "out",
    "pipeline.threads": "1",
    "shape.kind": "icosphere",
    "shape.subdivision": "2",
    "shape.radii": "1 1 1",
    "lattice.grid": "2 2 2",
    "lattice.margin": "0.05",
    "lattice.pin_planes": "",
    "constraint.kind": "barycenter",
    "constraint.target": "keep",
    "dataset.n_train": "60",
    "dataset.n_test": "20",
    "dataset.sigma_d": "0.05",
    "rom.n_train": "80",
    "rom.n_test": "20",
    "rom.pod_modes": "3",
    "rom.as_dim": "1",
    "rom.bootstrap": "100",
    "rom.nn_width": "64",
    "rom.nn_epochs": "1000",
    "field.kind": "bump",
    # the model defaults are GmConfig's own; the seed is pipeline.seed
    **{f"gm.{f.name}": str(f.default) for f in fields(GmConfig)
       if f.name != "seed"},
}

_PIN_PLANES = ("imin", "imax", "jmin", "jmax", "kmin", "kmax")


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
    values = dict(DEFAULTS)
    if path is not None:
        with open(path) as fh:
            file_values = parse_config_text(fh.read())
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    sections = {key.split(".", 1)[0] for key in DEFAULTS}
    for key, value in env_overrides(environ).items():
        if key in DEFAULTS:
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
    """The space- or comma-separated values of text, each read by `_number`;
    ConfigError naming key unless there are count of them, when given."""
    values = [_number(key, t, kind) for t in text.replace(",", " ").split()]
    if count is not None and len(values) != count:
        raise ConfigError(f"config key {key} needs {count} values, "
                          f"got {len(values)}", key)
    return values


@dataclass
class PipelineConfig:
    """Typed view over the resolved key=value mapping."""

    values: dict = field(default_factory=lambda: dict(DEFAULTS))

    def __post_init__(self):
        self.seed = self.number("pipeline.seed", int, minimum=0)
        self.out = self.values["pipeline.out"]
        # checked but unused: sample generation is one stacked solve
        self.number("pipeline.threads", int, minimum=1)
        self.n_train = self.number("dataset.n_train", int, minimum=1)
        self.n_test = self.number("dataset.n_test", int, minimum=0)
        self.sigma_d = self.number("dataset.sigma_d", float, minimum=0)
        self.rom_train = self.number("rom.n_train", int, minimum=1)
        self.rom_test = self.number("rom.n_test", int, minimum=1)
        self.pod_modes = self.number("rom.pod_modes", int, minimum=1)
        self.as_dim = self.number("rom.as_dim", int, minimum=1)
        self.bootstrap = self.number("rom.bootstrap", int, minimum=0)
        self.nn_width = self.number("rom.nn_width", int, minimum=1)
        self.nn_epochs = self.number("rom.nn_epochs", int, minimum=1)

    @classmethod
    def load(cls, path=None, environ=None, overrides=None) -> "PipelineConfig":
        return cls(resolve_config(path, environ, overrides))

    def number(self, key, kind, minimum=None):
        """The value of key as kind (int or float), or ConfigError; so is a
        value below the minimum, when one is given."""
        value = _number(key, self.values[key], kind)
        if minimum is not None and value < minimum:
            raise ConfigError(f"{key} must be at least {minimum}, got {value}")
        return value

    def base_shape(self):
        radii = _numbers("shape.radii", self.values["shape.radii"], float, 3)
        return synth_shape(self.values["shape.kind"],
                           self.number("shape.subdivision", int), radii)

    def lattice(self, surface) -> FfdLattice:
        grid = _numbers("lattice.grid", self.values["lattice.grid"], int, 3)
        margin = self.number("lattice.margin", float)
        lower = surface.vertices.min(axis=0) - margin
        upper = surface.vertices.max(axis=0) + margin
        return FfdLattice.from_box(grid, lower, upper)

    def weights(self, lattice: FfdLattice):
        """Per-control-point weights; pinned cut planes get weight zero."""
        tokens = self.values["lattice.pin_planes"].split()
        if not tokens:
            return None
        weights = np.ones(lattice.n_control)
        local = lattice.control_points_local()
        for token in tokens:
            if token not in _PIN_PLANES:
                raise ConfigError(f"unknown pin plane {token!r}")
            axis = "ijk".index(token[0])
            value = 0.0 if token.endswith("min") else 1.0
            weights[local[:, axis] == value] = 0.0
        return weights

    def constraint(self, surface):
        kind = self.values["constraint.kind"]
        target = self.values["constraint.target"]
        if target != "keep":
            target = _numbers("constraint.target", target, float)
        elif kind == "volume":
            target = volume_of(surface)
        else:
            target = barycenter_of(surface.vertices)
        return constraint_from(kind, target)

    def gm_config(self) -> GmConfig:
        """GmConfig from the gm.* keys; the seed is pipeline.seed."""
        return read_gm_config(self.values.__getitem__, "gm.", seed=self.seed)

    def field_spec(self) -> FieldSpec:
        return FieldSpec(self.values["field.kind"])
