"""End-to-end acceptance checks for the Granger-causality laboratory.

Each test prints one "criterion N: PASS|FAIL" line via the terminal-summary
hook in conftest.py. All runs are seeded and deterministic. Only criterion
5's zero-rate threshold carries a three-standard-error slack; the other
Monte Carlo criteria compare their estimates with fixed bounds, and
criterion 7 compares the extremes over 125 cells of 500 iterations with
0.02 and 0.10 and has no slack at all.
"""

import math

import numpy as np
import pytest

from granger_lab.cli import load_phase_csv, main
from granger_lab.core import TopologyKind
from granger_lab.criteria import Criterion, statistic_from_rss
from granger_lab.experiments import (estimate_rates, extract_plane, phase_space,
                                     snr_grid, sweep_sample_size,
                                     sweep_significance)
from granger_lab.datagen import GeneratorConfig, NoiseKind
from granger_lab.granger import GrangerConfig

from kernel_reference import chi2_sf, ols_fit, read_ppm, rgb_to_rate


def _se(rate: float, cases: int) -> float:
    return math.sqrt(max(rate, 1e-12) * (1 - min(rate, 1 - 1e-12)) / cases)


def test_criterion_1_statistic_ordering():
    # Wald >= LR >= LM strictly whenever the restriction hurts the fit
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        rss_u = rng.uniform(0.01, 50.0)
        rss_r = rss_u * (1.0 + rng.uniform(1e-6, 2.0))
        n = int(rng.integers(10, 2000))
        q = int(rng.integers(1, 6))
        k = q + int(rng.integers(1, 6))
        w = statistic_from_rss(Criterion.WALD, rss_r, rss_u, n, q, k)[0]
        lr = statistic_from_rss(Criterion.LR, rss_r, rss_u, n, q, k)[0]
        lm = statistic_from_rss(Criterion.LM, rss_r, rss_u, n, q, k)[0]
        assert w > lr > lm > 0.0


def test_criterion_2_chi2_closed_form():
    xs = np.linspace(0.0, 100.0, 10_000)
    worst = max(abs(chi2_sf(x, 2) - math.exp(-x / 2)) for x in xs)
    assert worst <= 1e-12


def test_criterion_3_ols_matches_normal_equations():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(20, 201))
        p = int(rng.integers(2, 9))
        matrix = rng.normal(size=(n, p))
        response = matrix @ rng.normal(size=p) + rng.normal(size=n)
        fit = ols_fit(matrix, response)
        brute = np.linalg.solve(matrix.T @ matrix, matrix.T @ response)
        np.testing.assert_allclose(fit.coefficients, brute, rtol=1e-8, atol=1e-10)


def test_criterion_4_optimal_significance_levels():
    alphas = tuple(round(0.05 * i, 2) for i in range(1, 11))  # 0.05 .. 0.5
    targets = {TopologyKind.INDIRECT: 0.2, TopologyKind.DRIVER: 0.3}
    for topology, target in targets.items():
        sweep = sweep_significance(topology, alphas, n_points=50,
                                   iterations=2000, seed=101, workers=1)
        for criterion in (Criterion.LR, Criterion.WALD, Criterion.RAO):
            optimum = sweep.optimal(criterion)
            assert abs(optimum - target) <= 0.1 + 1e-9, (
                f"{topology.value}/{criterion.value}: optimum {optimum}")


def test_criterion_5_unidentified_thresholds():
    cases = 1000
    settings = ((TopologyKind.INDIRECT, 0.2, 175), (TopologyKind.DRIVER, 0.3, 300))
    for topology, alpha, n_zero in settings:
        cfg = GrangerConfig(significance=alpha)
        at_zero = estimate_rates(GeneratorConfig(topology=topology, length=n_zero),
                                 cfg, iterations=cases, master_seed=505, workers=1)
        rate = at_zero.unidentified_rate
        assert rate <= 0.01 + 3 * _se(max(rate, 0.01), cases), (
            f"{topology.value}: unidentified {rate} at n={n_zero}")
        small = estimate_rates(GeneratorConfig(topology=topology, length=50),
                               cfg, iterations=cases, master_seed=505, workers=1)
        assert small.unidentified_rate > 0.05


def test_criterion_6_criterion_convergence():
    sizes = (25, 50, 75, 100, 150, 300)
    sweep = sweep_sample_size(TopologyKind.DRIVER, alpha=0.05, sizes=sizes,
                              criteria=(Criterion.LR, Criterion.WALD, Criterion.RAO),
                              cases=1000, seed=202, workers=1)
    lr_wald = dict(zip(sizes, sweep.comparisons[(Criterion.LR, Criterion.WALD)]))
    wald_rao = dict(zip(sizes, sweep.comparisons[(Criterion.WALD, Criterion.RAO)]))
    assert lr_wald[50].spurious_different, "LR vs Wald should differ at n=50"
    for n in (100, 150):
        assert not lr_wald[n].spurious_different, f"LR vs Wald differs at n={n}"
    for n in sizes:
        assert not wald_rao[n].spurious_different, f"Wald vs Rao differs at n={n}"


GRID5 = snr_grid(points=5)  # (-40, -20, 0, 20, 40) dB


@pytest.fixture(scope="module")
def intrinsic_grids():
    grids = {}
    for topology in (TopologyKind.DRIVER, TopologyKind.INDIRECT):
        grids[topology] = phase_space(
            NoiseKind.INTRINSIC_SNR, topology, n=300, alpha=0.05,
            iterations=500, grids=(GRID5, GRID5, GRID5), seed=707, workers=1)
    return grids


def test_criterion_7_intrinsic_spurious_flatness(intrinsic_grids):
    for topology, grid in intrinsic_grids.items():
        low, high = grid.spurious.min(), grid.spurious.max()
        assert 0.02 <= low and high <= 0.10, (
            f"{topology.value}: spurious range [{low}, {high}]")


def test_criterion_8_intrinsic_polarisation(intrinsic_grids):
    grid = intrinsic_grids[TopologyKind.DRIVER]
    plane_hi = extract_plane(grid, "z", 40.0, "unidentified")
    plane_lo = extract_plane(grid, "z", -40.0, "unidentified")
    assert plane_hi.mean() <= 0.05, f"mean unidentified {plane_hi.mean()} at +40 dB"
    assert plane_lo.mean() >= 0.80, f"mean unidentified {plane_lo.mean()} at -40 dB"


def test_criterion_9_extrinsic_key_link_behavior():
    cfg = GrangerConfig(significance=0.05)

    def link_rate(topology, snrs, link):
        gen = GeneratorConfig(topology=topology, length=300,
                              noise_kind=NoiseKind.EXTRINSIC_SNR,
                              sigmas_or_snrs=snrs)
        est = estimate_rates(gen, cfg, iterations=500, master_seed=31, workers=1)
        return est.per_link_rates[link]

    assert link_rate(TopologyKind.INDIRECT, (20.0, -20.0, 20.0), "x->z") >= 0.90
    assert link_rate(TopologyKind.INDIRECT, (20.0, -20.0, -40.0), "x->z") <= 0.15
    assert link_rate(TopologyKind.DRIVER, (-20.0, 20.0, 20.0), "y->z") >= 0.90


def test_criterion_10_worker_count_determinism(tmp_path):
    def run(out, workers):
        return main(["sweep-alpha", "--topology", "driver", "--n", "50",
                     "--alpha-grid", "0.05,0.2", "--criteria", "lr,wald,rao",
                     "--iterations", "200", "--seed", "9", "--workers",
                     str(workers), "--out", str(out)])

    assert run(tmp_path / "w1", 1) == 0
    assert run(tmp_path / "w2", 2) == 0
    assert ((tmp_path / "w1" / "sweep_alpha.csv").read_bytes()
            == (tmp_path / "w2" / "sweep_alpha.csv").read_bytes())


def test_criterion_11_render_round_trip(tmp_path):
    out = tmp_path / "ps"
    rc = main(["phase-space", "--topology", "driver", "--noise", "intrinsic",
               "--n", "60", "--alpha", "0.05", "--iterations", "40",
               "--grid=-20,0,20", "--seed", "13", "--workers", "1",
               "--out", str(out)])
    assert rc == 0
    meta, cells = load_phase_csv(str(out / "phase_space.csv"))
    scale = 8
    for value in (-20.0, 0.0, 20.0):
        ppm = tmp_path / f"plane_{value}.ppm"
        assert main(["render", "--input", str(out / "phase_space.csv"),
                     "--axis", "z", "--value", str(value),
                     "--field", "unidentified_rate", "--scale", str(scale),
                     "--out", str(ppm)]) == 0
        image = read_ppm(str(ppm))
        expected = {(c["snr_x_db"], c["snr_y_db"]): c["unidentified_rate"]
                    for c in cells if c["snr_z_db"] == value}
        axes = sorted({k[0] for k in expected})
        for i, sx in enumerate(axes):
            for j, sy in enumerate(axes):
                pixel = image[i * scale, j * scale]
                recovered = rgb_to_rate(*(int(v) for v in pixel))
                assert abs(recovered - expected[(sx, sy)]) <= 1.0 / 255.0
