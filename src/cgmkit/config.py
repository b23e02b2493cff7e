"""Flat key=value pipeline configuration.

Files hold `section.key = value` lines ('#' comments allowed). Environment
variables prefixed CGM_ override file values: CGM_DATASET_N_TRAIN maps to
dataset.n_train (first underscore-separated token is the section); a
variable naming an unknown key of a known section is rejected, variables of
other sections are ignored. Command line flags override both. Each setting
in `_RULES` is checked once, at load, and a failure names its key. `_number`
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
# the (kind, count, rule) entries that several settings share
_COUNT = (int, 1, _AT_LEAST_1)
_NATURAL = (int, 1, _NONNEGATIVE)
_SCALE = (float, 1, _NONNEGATIVE)
_RATE = (float, 1, ("in [0, 1)", lambda v: 0 <= v < 1))


def _one_of(*words):
    return ("one of " + ", ".join(words), lambda v: v in words)


# setting -> (kind, count, rule): int, float or str (words), how many values
# it holds (None: any number) and the (rule, test of that rule) each value
# meets. The gm.* entries are GmConfig's fields.
_RULES = {
    "pipeline.seed": _NATURAL,
    "pipeline.threads": _COUNT,  # no effect; the benchmark passes --threads
    "shape.kind": (str, 1, _one_of("icosphere", "ellipsoid")),
    "shape.subdivision": (int, 1, ("in 0..6", lambda v: 0 <= v <= 6)),
    "shape.radii": (float, 3, _POSITIVE), "lattice.grid": (int, 3, _AT_LEAST_1),
    "lattice.margin": (float, 1, ("finite", lambda v: True)),
    "lattice.pin_planes": (str, None, _one_of("imin", "imax", "jmin", "jmax",
                                              "kmin", "kmax")),
    "dataset.n_train": _COUNT, "dataset.n_test": _NATURAL,
    "dataset.sigma_d": _SCALE, "rom.n_train": _COUNT, "rom.n_test": _COUNT,
    "rom.pod_modes": _COUNT, "rom.as_dim": _COUNT, "rom.bootstrap": _NATURAL,
    "rom.nn_width": _COUNT, "rom.nn_epochs": _COUNT,
    "field.kind": (str, 1, _one_of("bump", "multibump")),
    "gm.latent_dim": _COUNT, "gm.pca_modes": _COUNT, "gm.hidden_width": _COUNT,
    "gm.hidden_depth": _NATURAL, "gm.dropout": _RATE, "gm.disc_dropout": _RATE,
    "gm.epochs": _COUNT, "gm.lr": (float, 1, _POSITIVE),
    "gm.batch_size": (int, 1, ("at least 2", lambda v: v >= 2)),
    "gm.weight_decay": _SCALE, "gm.alpha": _SCALE, "gm.k_gain": _SCALE,
    "gm.sigma": (float, 1, _POSITIVE), "gm.seed": _NATURAL,
    "gm.gamma": (float, 1, ("in (0, 1]", lambda v: 0 < v <= 1)),
    "gm.k0": (float, 1, ("in [0, 1]", lambda v: 0 <= v <= 1)),
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
        for f in fields(self):
            _check(f.name, [getattr(self, f.name)], _RULES["gm." + f.name][2])
        if self.latent_dim > self.pca_modes:
            raise ConfigError("latent_dim must not exceed pca_modes", "latent_dim")


def read_gm_config(setting, prefix, **given) -> GmConfig:
    """GmConfig with the given fields and each other field f read from
    setting(prefix + f) as its `_RULES` kind; a ConfigError's key is the
    setting's."""
    values = {f.name: _number(prefix + f.name, setting(prefix + f.name),
                              _RULES["gm." + f.name][0])
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
    checked value of a `_RULES` setting outside gm.*, read once, here."""

    values: dict = field(default_factory=lambda: dict(DEFAULTS))

    def __post_init__(self):
        self._settings = {}
        for key, (kind, count, rule) in _RULES.items():
            if not key.startswith("gm."):
                values = _numbers(key, self.values[key], kind, count)
                _check(key, values, rule)
                self._settings[key] = values[0] if count == 1 else values
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
        margin = self["lattice.margin"]
        lower = surface.vertices.min(axis=0) - margin
        upper = surface.vertices.max(axis=0) + margin
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
        return self._gm

    def field_spec(self) -> FieldSpec:
        return FieldSpec(self["field.kind"])
