"""Null calibration of the lab's p-values.

Under driver truth z depends on its own lags and x's, never on y's, so the
trivariate comparison ``tri:y->z`` tests a hypothesis that is exactly true.
Its F-calibrated p-values (Wald and Rao) should then be Uniform(0, 1), and
the chi-squared-calibrated LR and LM tests should reject too often at small
n, the paper's small-sample ordering. A wrong q or n - k in
``statistic_from_rss`` breaks one or the other.

Thresholds come from theory, not from the p-values of this seed:
- KS: a calibrated lab fails each uniformity check with probability 1e-3.
- Size: with an exact F(q, n - k) statistic F, LR > chi2_q(0.95) is
  F > (exp(chi2_q(0.95) / n) - 1) (n - k) / q and LM > chi2_q(0.95) is
  F > c (n - k) / (q (n - c)), c = chi2_q(0.95). At n = 23 observations,
  q = 2 and k = 6 these have probability 0.109 and 0.077, well above the
  bound checked, alpha plus three binomial standard errors (0.060).
"""

import math

import numpy as np
import pytest
from scipy.special import chdtri, fdtrc
from scipy.stats import kstest

from granger_lab.core import TopologyKind
from granger_lab.criteria import Criterion
from granger_lab.datagen import GeneratorConfig, chunk_rows, generate_rows, resolve_sigmas
from granger_lab.granger import FORWARD_KEYS, TRI_YZ, block_pvalues
from granger_lab.seeding import derive_seeds, generator_states

SAMPLES = 4000
LAGS = 2
ALPHA = 0.05
KS_LEVEL = 1e-3


@pytest.fixture(scope="module")
def null_pvalues():
    """{n: {criterion: (SAMPLES,) p-values of tri:y->z}} under driver truth."""
    pair = FORWARD_KEYS.index(TRI_YZ)
    out = {}
    for n in (25, 50, 300):
        states = generator_states(derive_seeds([((77, n), 0, SAMPLES)]))
        config = GeneratorConfig(topology=TopologyKind.DRIVER, length=n)
        levels, rows = np.array([resolve_sigmas(config)]), chunk_rows(config)
        pvalues = np.concatenate([
            block_pvalues(*generate_rows(config, levels, states[a:a + rows]), LAGS,
                          tuple(Criterion))[0] for a in range(0, SAMPLES, rows)])
        assert pvalues.shape == (SAMPLES, len(Criterion), len(FORWARD_KEYS))
        out[n] = dict(zip(Criterion, pvalues[:, :, pair].T))
    return out


@pytest.mark.parametrize("n", [50, 300])
@pytest.mark.parametrize("criterion", [Criterion.WALD, Criterion.RAO])
def test_f_calibrated_pvalues_are_uniform(null_pvalues, n, criterion):
    assert kstest(null_pvalues[n][criterion], "uniform").pvalue > KS_LEVEL


@pytest.mark.parametrize("criterion", [Criterion.LR, Criterion.LM])
def test_chi2_calibrated_tests_are_oversized_at_small_n(null_pvalues, criterion):
    size = float(np.mean(null_pvalues[25][criterion] < ALPHA))
    assert size > ALPHA + 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / SAMPLES)


def test_the_size_bound_follows_from_the_exact_f_law():
    # The fixed-regressor sizes the module docstring quotes.
    n_obs, q, k = 25 - LAGS, LAGS, 3 * LAGS
    c = float(chdtri(q, ALPHA))
    lr_cut = math.expm1(c / n_obs) * (n_obs - k) / q
    lm_cut = c * (n_obs - k) / (q * (n_obs - c))
    bound = ALPHA + 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / SAMPLES)
    assert fdtrc(q, n_obs - k, lr_cut) == pytest.approx(0.109, abs=5e-4)
    assert fdtrc(q, n_obs - k, lm_cut) == pytest.approx(0.077, abs=5e-4)
    assert fdtrc(q, n_obs - k, lm_cut) > bound
