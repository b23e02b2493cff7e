import numpy as np
import pytest

from cgmkit.config import PipelineConfig
from cgmkit.constraints import Constraint, sample_cffd_dataset
from cgmkit.errors import DegenerateDistributionError, EmptyInputError
from cgmkit.generative import VolumeEnforcer, enforcer_basis
from cgmkit.geometry import synth_shape, volumes
from cgmkit.reduction import pca_fit
from cgmkit.rng import Rng
from cgmkit.validation import jsd, kde_fit, metric_report, total_variance

from references import barycenter_rows


# --- KDE ----------------------------------------------------------------------

def test_kde_symmetric_samples():
    model = kde_fit(np.array([-1.0, 1.0]))
    grid = np.linspace(-4, 4, 201)
    dens = model(grid)
    assert np.max(np.abs(dens - dens[::-1])) < 1e-12
    assert np.all(dens >= 0)


def test_kde_integrates_to_one():
    rng = Rng(1)
    samples = rng.normal(300) * 2.0 + 1.0
    model = kde_fit(samples)
    grid = np.linspace(samples.min() - 6 * model.bandwidth,
                       samples.max() + 6 * model.bandwidth, 2000)
    integral = np.trapezoid(model(grid), grid)
    assert abs(integral - 1.0) <= 1e-3


def test_kde_scott_bandwidth():
    rng = Rng(2)
    samples = rng.normal(200)
    model = kde_fit(samples)
    assert model.bandwidth == pytest.approx(
        samples.std(ddof=1) * 200 ** -0.2, rel=1e-12)


def test_kde_degenerate_rejected():
    with pytest.raises(DegenerateDistributionError):
        kde_fit(np.full(10, 3.0))
    with pytest.raises(DegenerateDistributionError):
        kde_fit(np.array([1.0]))


# --- JSD ----------------------------------------------------------------------

def test_jsd_identical_is_zero():
    rng = Rng(3)
    x = rng.normal(200)
    assert jsd(x, x.copy()) <= 1e-9


def test_jsd_disjoint_support():
    rng = Rng(4)
    x = rng.normal(500) * 0.1
    y = rng.normal(500) * 0.1 + 100.0
    assert jsd(x, y) > 0.99


def test_jsd_symmetric():
    rng = Rng(5)
    x = rng.normal(150)
    y = rng.normal(150) * 1.5 + 0.2
    assert abs(jsd(x, y) - jsd(y, x)) <= 1e-12


def test_jsd_bounded():
    rng = Rng(6)
    for trial in range(10):
        s = rng.derive(trial)
        x = s.normal(60) * (1 + trial)
        y = s.normal(60) + trial * 2.0
        value = jsd(x, y)
        assert 0.0 <= value <= 1.0


def test_jsd_affine_invariance():
    rng = Rng(7)
    x = rng.normal(300)
    y = rng.normal(300) * 1.3 + 0.4
    base = jsd(x, y)
    for a, b in ((2.0, 1.0), (-0.5, 3.0), (10.0, -7.0)):
        assert abs(jsd(a * x + b, a * y + b) - base) <= 1e-3


def test_jsd_point_mass_convention():
    assert jsd(np.full(5, 2.0), np.full(3, 2.0)) == 0.0
    assert jsd(np.full(5, 2.0), np.full(3, 4.0)) == 1.0
    assert jsd(np.full(5, 2.0), np.array([1.0, 2.0, 5.0])) == 1.0
    # a spread within 1e-9 of the magnitude is roundoff: still a point mass
    assert jsd(np.full(5, 2.0), 2.0 + np.array([0.0, 1e-10, -1e-10])) == 0.0
    assert jsd(np.full(5, 2.0), np.full(3, 2.0 + 1e-6)) == 1.0


def test_jsd_of_held_volume_is_zero_whatever_its_roundoff():
    # the desk-volume pipeline: reference volumes held by cFFD, generated
    # ones by the enforcing layer, both constant up to roundoff
    config = PipelineConfig.load(overrides={"constraint.kind": "volume"})
    base = config.base_shape()
    constraint = config.constraint(base)
    reference, _ = sample_cffd_dataset(config.lattice(base), base, constraint,
                                       20, 0.05, Rng(1))
    noisy = reference[::-1] * (1.0 + 0.01 * Rng(2).normal(reference.shape))
    pca = pca_fit(reference.reshape(len(reference), -1), n_modes=10)
    basis = enforcer_basis("volume", pca.mean, pca.modes)
    enforcer = VolumeEnforcer(constraint, base.faces, pca.mean, basis)
    coords = pca.project(noisy.reshape(len(noisy), -1))
    out, _ = enforcer.forward(np.column_stack([np.zeros(len(coords)), coords]))
    generated = (pca.mean + out @ basis).reshape(noisy.shape)
    report = metric_report((reference, base.faces), (generated, base.faces),
                           constraint=constraint)
    assert report.value("jsd_volume") == 0.0
    gen_volumes = volumes(generated, base.faces)
    assert np.ptp(gen_volumes) > 0.0
    assert jsd(volumes(reference, base.faces),
               np.nextafter(gen_volumes, np.inf)) == 0.0
    _, ref_counts, gen_counts = report.histograms["volume"]
    assert ref_counts[0] == gen_counts[0] == 20


# --- total variance -------------------------------------------------------------

def test_total_variance_identical_clouds():
    cloud = np.ones((4, 3))
    assert total_variance([cloud, cloud.copy(), cloud.copy()]) == 0.0


def test_total_variance_hand_case():
    # two 1-point clouds at x = 0 and x = 2: single coordinate variance 2
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[2.0, 0.0, 0.0]])
    assert total_variance([a, b]) == pytest.approx(2.0)


def test_total_variance_translation_invariant():
    rng = Rng(8)
    clouds = [rng.normal((6, 3)) for _ in range(5)]
    base = total_variance(clouds)
    shift = np.array([10.0, -5.0, 2.0])
    assert total_variance([c + shift for c in clouds]) == pytest.approx(base)


def test_total_variance_block_additive():
    rng = Rng(9)
    clouds = [rng.normal((8, 3)) for _ in range(4)]
    whole = total_variance(clouds)
    first = total_variance([c[:3] for c in clouds])
    second = total_variance([c[3:] for c in clouds])
    assert whole == pytest.approx(first + second)
    with pytest.raises(EmptyInputError):
        total_variance([clouds[0]])


# --- metric report ---------------------------------------------------------------

def jiggled_dataset(seed, n=30):
    """(vertices (n, M, 3), faces) of n jiggled icospheres."""
    rng = Rng(seed)
    base = synth_shape("icosphere", 1)
    vertices = np.stack([
        base.vertices * (1.0 + 0.05 * rng.derive(i).normal((base.n_vertices, 3)))
        for i in range(n)])
    return vertices, base.faces


def test_metric_report_self_comparison(tmp_path):
    data = jiggled_dataset(11)
    c = Constraint("barycenter", np.zeros(3))
    report = metric_report(data, data, constraint=c)
    for name, value in report.rows:
        if name.startswith("jsd_"):
            assert value <= 0.05
    assert report.value("var_reference") == report.value("var_generated")
    out = tmp_path / "report.tsv"
    report.write_tsv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "metric\tvalue"
    assert any(l.startswith("jsd_I_zz\t") for l in lines)
    report.write_histograms(tmp_path / "hists")
    assert (tmp_path / "hists" / "hist_I_xx.csv").exists()


def test_metric_report_constraint_residual():
    data = jiggled_dataset(12, n=10)
    target = np.zeros(3)
    from cgmkit.generative import LinearEnforcer
    vertices, faces = data
    c = Constraint("barycenter", target)
    enforcer = LinearEnforcer(barycenter_rows(vertices.shape[1]), target)
    enforced = np.stack([enforcer.forward(v.reshape(1, -1))[0].reshape(-1, 3)
                         for v in vertices])
    report = metric_report(data, (enforced, faces), constraint=c)
    assert report.value("max_constraint_residual") <= 1e-9


def test_metric_report_empty_dataset_error():
    data = jiggled_dataset(13, n=4)
    c = Constraint("barycenter", np.zeros(3))
    with pytest.raises(EmptyInputError):
        metric_report((data[0][:0], data[1]), data, constraint=c)
