import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cgmkit.config import (_GM_RULES, SETTINGS, GmConfig, PipelineConfig,
                           env_overrides, parse_config_text, resolve_config)
from cgmkit.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]


def test_parse_basics():
    values = parse_config_text("""
    # comment
    shape.kind = ellipsoid
    gm.epochs = 250   # trailing comment
    """)
    assert values == {"shape.kind": "ellipsoid", "gm.epochs": "250"}


def test_parse_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("a.b.c = 1\n")


def test_env_mapping():
    out = env_overrides({"CGM_GM_LATENT_DIM": "5", "CGM_DATASET_N_TRAIN": "9",
                         "PATH": "/bin", "CGM_X": "ignored"})
    assert out == {"gm.latent_dim": "5", "dataset.n_train": "9"}


def test_resolution_order(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("gm.epochs = 100\n")
    values = resolve_config(cfg, environ={"CGM_GM_EPOCHS": "200"},
                            overrides={"gm.epochs": "300"})
    assert values["gm.epochs"] == "300"
    values = resolve_config(cfg, environ={"CGM_GM_EPOCHS": "200"})
    assert values["gm.epochs"] == "200"
    assert resolve_config(cfg)["gm.epochs"] == "100"


def test_pipeline_builders():
    config = PipelineConfig.load(overrides={"pipeline.seed": "4"})
    base = config.base_shape()
    lattice = config.lattice(base)
    assert lattice.n_control == 27
    constraint = config.constraint(base)
    assert constraint.kind == "barycenter"
    gm = config.gm_config()
    assert gm.seed == 4 and gm.latent_dim == 8


def test_pin_planes_weights():
    config = PipelineConfig.load(overrides={"lattice.pin_planes": "imin kmax"})
    base = config.base_shape()
    lattice = config.lattice(base)
    weights = config.weights(lattice)
    local = lattice.control_points_local()
    pinned = (local[:, 0] == 0.0) | (local[:, 2] == 1.0)
    assert np.all(weights[pinned] == 0.0)
    assert np.all(weights[~pinned] == 1.0)
    # the planes are checked at load, like every other setting
    with pytest.raises(ConfigError, match="^lattice.pin_planes must be one of"):
        PipelineConfig.load(overrides={"lattice.pin_planes": "imin sideways"})


def test_volume_constraint_from_config():
    config = PipelineConfig.load(overrides={"constraint.kind": "volume"})
    base = config.base_shape()
    constraint = config.constraint(base)
    from cgmkit.geometry import volume_of
    assert constraint.target == pytest.approx(volume_of(base))


@pytest.mark.parametrize("key, value", [("dataset.n_test", "-2"),
                                        ("rom.n_test", "-10"),
                                        ("rom.n_test", "0"),
                                        ("dataset.sigma_d", "-0.05")])
def test_test_set_size_out_of_range_rejected_by_name(key, value):
    with pytest.raises(ConfigError, match=key):
        PipelineConfig.load(overrides={key: value})


def test_env_unknown_key_in_known_section_rejected():
    with pytest.raises(ConfigError, match="CGM_GM_EPOCS"):
        resolve_config(environ={"CGM_GM_EPOCS": "1"})
    # variables of sections the config does not have are left alone
    assert resolve_config(environ={"CGM_HOME_DIR": "/x"}) == \
        resolve_config(environ={})


def test_negative_bootstrap_rejected_by_name():
    with pytest.raises(ConfigError, match="rom.bootstrap"):
        PipelineConfig.load(overrides={"rom.bootstrap": "-5"})
    # no replicate is valid: the bands are the estimate itself
    assert PipelineConfig.load(overrides={"rom.bootstrap": "0"})[
        "rom.bootstrap"] == 0


@pytest.mark.parametrize("value", ["-5", "0"])
def test_nn_epochs_below_one_rejected_by_name(value):
    with pytest.raises(ConfigError, match="rom.nn_epochs"):
        PipelineConfig.load(overrides={"rom.nn_epochs": value})


@pytest.mark.parametrize("value", ["-1e-3", "0", "inf", "nan"])
def test_learning_rate_not_positive_finite_rejected_by_name(value):
    with pytest.raises(ConfigError, match="lr"):
        PipelineConfig.load(overrides={"gm.lr": value})


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_negative_weight_decay_rejected_by_name(value):
    with pytest.raises(ConfigError, match="weight_decay"):
        PipelineConfig.load(overrides={"gm.weight_decay": value})
    assert PipelineConfig.load(
        overrides={"gm.weight_decay": "0"}).gm_config().weight_decay == 0.0


@pytest.mark.parametrize("field,value", [("k_gain", "-1"), ("dropout", "-0.5"),
                                         ("disc_dropout", "1.0"),
                                         ("batch_size", "1"), ("gamma", "0.0"),
                                         ("k0", "1.5"), ("sigma", "0")])
def test_gm_out_of_range_rejected_by_name(field, value):
    with pytest.raises(ConfigError, match=f"^gm.{field} must"):
        PipelineConfig.load(overrides={f"gm.{field}": value})


@pytest.mark.parametrize("key, value", [
    ("dataset.sigma_d", "inf"), ("dataset.sigma_d", "nan"),
    ("lattice.margin", "-inf"), ("shape.radii", "1 nan 1"),
    ("constraint.target", "0 inf 0"), ("gm.sigma", "nan"),
    ("gm.alpha", "inf"), ("gm.gamma", "NaN"), ("gm.k0", "Infinity")])
def test_non_finite_value_rejected_by_key(key, value):
    # a list value names the number that is not finite
    token = next(t for t in value.split() if not math.isfinite(float(t)))
    with pytest.raises(ConfigError, match=f"^config key {key} must be a "
                                          f"finite number, got '{token}'$"):
        config = PipelineConfig.load(overrides={key: value})
        base = config.base_shape()
        config.lattice(base)
        config.constraint(base)
        config.gm_config()


def test_rule_table_covers_every_setting_and_field():
    # a key or GmConfig field without an entry would go unchecked: load
    # reads every key of the table outside gm.*, and GmConfig every field
    config = PipelineConfig.load(environ={})
    gm_keys = {"gm." + f.name for f in fields(GmConfig) if f.name != "seed"}
    assert set(SETTINGS) == set(config._settings) | gm_keys
    assert set(_GM_RULES) == {f.name for f in fields(GmConfig)}
    for f in fields(GmConfig):
        if f.name != "seed":
            assert SETTINGS["gm." + f.name][:3] == (str(f.default), f.type, 1)


@pytest.mark.parametrize("name, value", [
    ("alpha", math.inf), ("sigma", math.nan), ("lr", math.inf),
    ("k_gain", -math.inf), ("seed", -1)])
def test_gm_config_non_finite_or_negative_seed_rejected_by_field(name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be ") as err:
        GmConfig(**{name: value})
    assert err.value.key == name


def test_gm_config_latent_dim_above_pca_modes_rejected_by_field():
    with pytest.raises(ConfigError, match="^latent_dim must not exceed "
                                          "pca_modes") as err:
        GmConfig(latent_dim=9, pca_modes=8)
    assert err.value.key == "latent_dim"
    with pytest.raises(ConfigError) as err:
        PipelineConfig.load(overrides={"gm.latent_dim": "9",
                                       "gm.pca_modes": "8"})
    assert err.value.key == "gm.latent_dim"


def test_shipped_desk_config_builds():
    path = ROOT / "configs" / "desk.cfg"
    values = parse_config_text(path.read_text())
    assert set(values) <= set(SETTINGS)
    config = PipelineConfig.load(path, environ={})
    assert {key: config.values[key] for key in values} == values
    base = config.base_shape()
    lattice = config.lattice(base)
    assert lattice.grid == (2, 2, 2)
    assert config.constraint(base).kind == "barycenter"
    gm = config.gm_config()
    assert (gm.latent_dim, gm.pca_modes, gm.epochs, gm.batch_size) == \
        (8, 10, 120, 20)
