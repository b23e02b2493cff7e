"""Distribution-comparison metrics between shape datasets: KDE-based
Jensen-Shannon distance (base-2 logarithms, so the value lies in [0, 1]),
total variance, and per-quantity report tables, each computed once over a
dataset's stack of clouds (n, M, 3) on one face array."""

from dataclasses import dataclass

import numpy as np

from .constraints import RESIDUAL_BOUND, achieved_value, constraint_residual
from .errors import DegenerateDistributionError, EmptyInputError
from .geometry import inertia_tensor_of, surface_area_of, volumes

GRID_POINTS = 512
GRID_PAD_BANDWIDTHS = 3.0
HISTOGRAM_BINS = 30


def _point_mass(lo, hi) -> bool:
    """Whether values spanning [lo, hi] are one value (as a held quantity
    is, up to roundoff): their spread is within RESIDUAL_BOUND of |lo|, |hi|."""
    return hi - lo <= RESIDUAL_BOUND * max(abs(lo), abs(hi))


@dataclass
class KdeModel:
    samples: np.ndarray
    bandwidth: float

    def __call__(self, grid) -> np.ndarray:
        grid = np.asarray(grid, dtype=np.float64)
        z = (grid[:, None] - self.samples[None, :]) / self.bandwidth
        dens = np.exp(-0.5 * z * z).sum(axis=1)
        return dens / (self.samples.size * self.bandwidth * np.sqrt(2.0 * np.pi))


def kde_fit(samples) -> KdeModel:
    """Gaussian KDE with Scott's-rule bandwidth n^(-1/5) * std."""
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if samples.size < 2:
        raise DegenerateDistributionError("need at least two samples")
    std = samples.std(ddof=1)
    if std == 0.0:
        raise DegenerateDistributionError("zero sample variance")
    return KdeModel(samples=samples, bandwidth=float(std * samples.size ** -0.2))


def jsd(samples_x, samples_y) -> float:
    """Jensen-Shannon distance between two sample vectors.

    Densities are KDE estimates on a shared 512-point grid spanning the
    union range plus three bandwidths; KL terms use base-2 logarithms and
    trapezoid quadrature with 0 * log 0 := 0. Inputs whose spread is
    roundoff (`_point_mass`) use the point-mass convention: 0 when both
    sit on the same value to that bound, 1 otherwise."""
    x = np.asarray(samples_x, dtype=np.float64).reshape(-1)
    y = np.asarray(samples_y, dtype=np.float64).reshape(-1)
    if x.size == 0 or y.size == 0:
        raise EmptyInputError("jsd of empty sample vector")
    if _point_mass(min(x.min(), y.min()), max(x.max(), y.max())):
        return 0.0
    if _point_mass(x.min(), x.max()) or _point_mass(y.min(), y.max()):
        return 1.0
    kx, ky = kde_fit(x), kde_fit(y)
    pad = GRID_PAD_BANDWIDTHS * max(kx.bandwidth, ky.bandwidth)
    grid = np.linspace(min(x.min(), y.min()) - pad,
                       max(x.max(), y.max()) + pad, GRID_POINTS)
    p = kx(grid)
    q = ky(grid)
    p = p / np.trapezoid(p, grid)
    q = q / np.trapezoid(q, grid)
    m = 0.5 * (p + q)

    def kl(a, b):
        ratio = np.divide(a, b, out=np.ones_like(a), where=b > 0)
        term = np.where(a > 0, a * np.log2(np.maximum(ratio, 1e-300)), 0.0)
        return np.trapezoid(term, grid)

    divergence = 0.5 * kl(p, m) + 0.5 * kl(q, m)
    return float(np.sqrt(min(max(divergence, 0.0), 1.0)))


def total_variance(clouds) -> float:
    """Sum over every coordinate of the unbiased per-coordinate variance of
    a stack of clouds (n, M, 3) or (n, 3M)."""
    clouds = np.asarray(clouds, dtype=np.float64)
    if len(clouds) < 2:
        raise EmptyInputError("total variance needs at least two clouds")
    return float(clouds.reshape(len(clouds), -1).var(axis=0, ddof=1).sum())


_INERTIA_ENTRIES = {"I_xx": (0, 0), "I_xy": (0, 1), "I_xz": (0, 2),
                    "I_yy": (1, 1), "I_yz": (1, 2), "I_zz": (2, 2)}


def shape_quantities(vertices, faces) -> dict:
    """name -> (n,) values of each reported quantity over a stack (n, M, 3)
    on the faces, in report order: inertia about the origin, surface area
    and signed volume (no closedness check)."""
    inertia = inertia_tensor_of(vertices, np.zeros(3))
    values = {name: inertia[:, i, j]
              for name, (i, j) in _INERTIA_ENTRIES.items()}
    values["area"] = surface_area_of(vertices, faces)
    values["volume"] = volumes(vertices, faces)
    return values


@dataclass
class MetricReport:
    rows: list            # (name, value) pairs, JSD rows first
    histograms: dict      # name -> (bin_edges, ref_counts, gen_counts)

    def write_tsv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("metric\tvalue\n")
            for name, value in self.rows:
                fh.write(f"{name}\t{value:.12g}\n")

    def write_histograms(self, directory):
        import os
        os.makedirs(directory, exist_ok=True)
        for name, (edges, ref_counts, gen_counts) in self.histograms.items():
            with open(os.path.join(directory, f"hist_{name}.csv"), "w",
                      newline="\n") as fh:
                fh.write("bin_left,count,dataset\n")
                for e, c in zip(edges[:-1], ref_counts):
                    fh.write(f"{e:.12g},{int(c)},reference\n")
                for e, c in zip(edges[:-1], gen_counts):
                    fh.write(f"{e:.12g},{int(c)},generated\n")

    def value(self, name):
        for row_name, value in self.rows:
            if row_name == name:
                return value
        raise KeyError(name)


def metric_report(reference, generated, constraint) -> MetricReport:
    """Per-quantity JSD and histogram between two datasets, each a
    (vertices (n, M, 3), faces (F, 3)) pair, plus total variance and the
    worst constraint residual of the generated set."""
    (ref_vertices, ref_faces), (gen_vertices, gen_faces) = reference, generated
    if not len(ref_vertices) or not len(gen_vertices):
        raise EmptyInputError("both datasets must be nonempty")
    ref_values = shape_quantities(ref_vertices, ref_faces)
    gen_values = shape_quantities(gen_vertices, gen_faces)
    rows = []
    histograms = {}
    for name, ref_vals in ref_values.items():
        gen_vals = gen_values[name]
        rows.append((f"jsd_{name}", jsd(ref_vals, gen_vals)))
        lo = min(ref_vals.min(), gen_vals.min())
        hi = max(ref_vals.max(), gen_vals.max())
        if _point_mass(lo, hi):
            hi = max(hi, lo + 1.0)
        edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
        histograms[name] = (edges,
                            np.histogram(ref_vals, bins=edges)[0],
                            np.histogram(gen_vals, bins=edges)[0])
    rows.append(("var_reference", total_variance(ref_vertices)))
    rows.append(("var_generated", total_variance(gen_vertices)))
    achieved = achieved_value(constraint.kind, gen_vertices, gen_faces)
    rows.append(("max_constraint_residual", float(np.max(
        constraint_residual(constraint, achieved)))))
    return MetricReport(rows=rows, histograms=histograms)
