"""End-to-end acceptance checks for the Granger-causality laboratory.

Each test prints one "criterion N: PASS|FAIL" line via the terminal-summary
hook in conftest.py. All runs are seeded and deterministic. The Monte Carlo
criteria (4 to 9) run the experiments and bounds of acceptance_criteria.py
at pinned seeds; tools/criteria_seeds.py runs them at other seeds. Only
criterion 5's zero-rate threshold carries a three-standard-error slack; the
other Monte Carlo criteria compare their estimates with fixed bounds, and
criterion 7 compares the extremes over 125 cells of 500 iterations with
0.02 and 0.10 and has no slack at all.
"""

import math

import numpy as np

from granger_lab.cli import _phase_csv_rows, main
from granger_lab.criteria import Criterion, statistic_from_rss

from acceptance_criteria import (criterion_4, criterion_5, criterion_6,
                                 criterion_7, criterion_8, criterion_9)
from kernel_reference import chi2_sf, ols_fit, read_ppm, rgb_to_rate


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
    faults = criterion_4(seed=101, workers=1)
    assert not faults, faults


def test_criterion_5_unidentified_thresholds():
    faults = criterion_5(seed=505, workers=1)
    assert not faults, faults


def test_criterion_6_criterion_convergence():
    faults = criterion_6(seed=202, workers=1)
    assert not faults, faults


def test_criterion_7_intrinsic_spurious_flatness():
    faults = criterion_7(seed=707, workers=1)
    assert not faults, faults


def test_criterion_8_intrinsic_polarisation():
    faults = criterion_8(seed=707, workers=1)
    assert not faults, faults


def test_criterion_9_extrinsic_key_link_behavior():
    faults = criterion_9(seed=31, workers=1)
    assert not faults, faults


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
    with open(out / "phase_space.csv", "rb") as fh:
        cells = [cell for _, cell in _phase_csv_rows(str(out / "phase_space.csv"), fh)]
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
