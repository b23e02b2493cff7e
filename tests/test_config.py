import numpy as np
import pytest

from cgmkit.config import (PipelineConfig, env_overrides, parse_config_text,
                           resolve_config)
from cgmkit.errors import ConfigError


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
    config = PipelineConfig.load()
    config.values["lattice.pin_planes"] = "imin kmax"
    base = config.base_shape()
    lattice = config.lattice(base)
    weights = config.weights(lattice)
    local = lattice.control_points_local()
    pinned = (local[:, 0] == 0.0) | (local[:, 2] == 1.0)
    assert np.all(weights[pinned] == 0.0)
    assert np.all(weights[~pinned] == 1.0)
    config.values["lattice.pin_planes"] = "sideways"
    with pytest.raises(ConfigError):
        config.weights(lattice)


def test_volume_constraint_from_config():
    config = PipelineConfig.load()
    config.values["constraint.kind"] = "volume"
    base = config.base_shape()
    constraint = config.constraint(base)
    from cgmkit.geometry import volume_of
    assert constraint.target == pytest.approx(volume_of(base))


@pytest.mark.parametrize("key, value", [("dataset.n_test", "-2"),
                                        ("rom.n_test", "-10"),
                                        ("rom.n_test", "0")])
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
    assert PipelineConfig.load(overrides={"rom.bootstrap": "0"}).bootstrap == 0


@pytest.mark.parametrize("value", ["-5", "0"])
def test_nn_epochs_below_one_rejected_by_name(value):
    with pytest.raises(ConfigError, match="rom.nn_epochs"):
        PipelineConfig.load(overrides={"rom.nn_epochs": value})


@pytest.mark.parametrize("value", ["-1e-3", "0", "inf", "nan"])
def test_learning_rate_not_positive_finite_rejected_by_name(value):
    config = PipelineConfig.load(overrides={"gm.lr": value})
    with pytest.raises(ConfigError, match="lr"):
        config.gm_config()


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_negative_weight_decay_rejected_by_name(value):
    config = PipelineConfig.load(overrides={"gm.weight_decay": value})
    with pytest.raises(ConfigError, match="weight_decay"):
        config.gm_config()
    assert PipelineConfig.load(
        overrides={"gm.weight_decay": "0"}).gm_config().weight_decay == 0.0


@pytest.mark.parametrize("field,value", [("k_gain", "-1"), ("dropout", "-0.5"),
                                         ("disc_dropout", "1.0")])
def test_gm_out_of_range_rejected_by_name(field, value):
    config = PipelineConfig.load(overrides={f"gm.{field}": value})
    with pytest.raises(ConfigError, match=f"^{field} must"):
        config.gm_config()
