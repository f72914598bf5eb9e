import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from granger_lab.criteria import (Criterion, PRESET_CRITERIA, compare_criteria, fdtrc,
                                  statistic_from_rss, two_proportion_z)
from kernel_reference import chi2_sf


def _f_sf_oracle(x, d1, d2):
    """Survival probability of F(d1, d2) by direct numerical integration."""
    if x <= 0:
        return 1.0
    const = (math.gamma((d1 + d2) / 2)
             / (math.gamma(d1 / 2) * math.gamma(d2 / 2))
             * (d1 / d2) ** (d1 / 2))

    def density(t):
        return const * t ** (d1 / 2 - 1) * (1 + d1 * t / d2) ** (-(d1 + d2) / 2)

    # Simpson's rule over [0, x]; tail = 1 - cdf
    m = 20001
    grid = np.linspace(1e-12, x, m)
    vals = np.array([density(t) for t in grid])
    h = grid[1] - grid[0]
    cdf = h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())
    return 1.0 - cdf


class TestReferenceDistributions:
    def test_chi2_dof2_closed_form(self):
        # chi-squared with 2 dof: SF(x) = exp(-x/2)
        for x in (0.0, 1.0, 5.991, 9.21):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)

    def test_chi2_rejects_negative(self):
        with pytest.raises(ValueError):
            chi2_sf(-0.1, 2)

    def test_f_sf_against_integration_oracle(self):
        for x, d1, d2 in ((1.0, 2, 40), (3.2, 2, 44), (4.4, 2, 44), (0.5, 3, 10)):
            assert fdtrc(d1, d2, x) == pytest.approx(_f_sf_oracle(x, d1, d2), abs=1e-7)

    def test_f_equals_chi2_in_large_sample_limit(self):
        # q * F(q, m) converges to chi-squared(q) as m grows
        assert fdtrc(2, 2_000_000, 5.991 / 2) == pytest.approx(chi2_sf(5.991, 2),
                                                               abs=1e-4)


class TestStatisticClosedForms:
    # n=50, q=2, k=6, rss_r=1.2, rss_u=1.0
    N, Q, K, RSS_R, RSS_U = 50, 2, 6, 1.2, 1.0

    def test_lr(self):
        stat, p_value = statistic_from_rss(Criterion.LR, self.RSS_R, self.RSS_U,
                                           self.N, self.Q, self.K)
        assert stat == pytest.approx(50 * math.log(1.2), rel=1e-12)
        assert p_value == pytest.approx(math.exp(-stat / 2), rel=1e-12)

    def test_wald(self):
        stat, p_value = statistic_from_rss(Criterion.WALD, self.RSS_R, self.RSS_U,
                                           self.N, self.Q, self.K)
        assert stat == pytest.approx(10.0, rel=1e-12)
        # p-value uses the exact F map: F = W (n-k) / (n q)
        assert p_value == pytest.approx(fdtrc(2, 44, 10.0 * 44 / 100), rel=1e-12)

    def test_lm(self):
        stat, p_value = statistic_from_rss(Criterion.LM, self.RSS_R, self.RSS_U,
                                           self.N, self.Q, self.K)
        assert stat == pytest.approx(50 * 0.2 / 1.2, rel=1e-12)
        assert p_value == pytest.approx(math.exp(-stat / 2), rel=1e-12)

    def test_rao(self):
        stat, p_value = statistic_from_rss(Criterion.RAO, self.RSS_R, self.RSS_U,
                                           self.N, self.Q, self.K)
        assert stat == pytest.approx((0.2 / 2) / (1.0 / 44), rel=1e-12)
        assert stat == pytest.approx(4.4, rel=1e-12)
        assert p_value == pytest.approx(fdtrc(2, 44, 4.4), rel=1e-12)

    def test_wald_and_rao_make_identical_decisions(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            rss_u = rng.uniform(0.1, 10.0)
            rss_r = rss_u * (1.0 + rng.uniform(0, 0.5))
            n, q, k = int(rng.integers(20, 400)), 2, 6
            _, w = statistic_from_rss(Criterion.WALD, rss_r, rss_u, n, q, k)
            _, r = statistic_from_rss(Criterion.RAO, rss_r, rss_u, n, q, k)
            assert w == pytest.approx(r, rel=1e-12)

    def test_ordering_w_ge_lr_ge_lm(self):
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            rss_u = rng.uniform(0.01, 100.0)
            rss_r = rss_u * (1.0 + rng.uniform(0, 3.0))
            n, q, k = int(rng.integers(10, 1000)), int(rng.integers(1, 5)), 8
            w = statistic_from_rss(Criterion.WALD, rss_r, rss_u, n, q, k)[0]
            lr = statistic_from_rss(Criterion.LR, rss_r, rss_u, n, q, k)[0]
            lm = statistic_from_rss(Criterion.LM, rss_r, rss_u, n, q, k)[0]
            assert w >= lr - 1e-9
            assert lr >= lm - 1e-9

    # Wald - LR and LR - LM are about n * gap^2 / 2 for the relative gap
    # (rss_r - rss_u) / rss_u. Below a gap of about 1e-8 that is less than the
    # rounding of ln(rss_r / rss_u), so the exact order starts there.
    @settings(max_examples=300, deadline=None)
    @given(rss_u=st.floats(1e-200, 1e200), gap=st.floats(1e-7, 1e6),
           q=st.integers(1, 10), extra=st.integers(1, 10), dof=st.integers(1, 10**6))
    def test_ordering_property(self, rss_u, gap, q, extra, dof):
        rss_r = rss_u * (1.0 + gap)
        k = q + extra
        n = k + dof
        w, lr, lm = (statistic_from_rss(c, rss_r, rss_u, n, q, k)[0]
                     for c in (Criterion.WALD, Criterion.LR, Criterion.LM))
        assert w >= lr >= lm > 0.0

    def test_no_improvement_gives_p_one(self):
        for criterion in Criterion:
            stat, p_value = statistic_from_rss(criterion, 1.0, 1.0, 50, 2, 6)
            assert stat == pytest.approx(0.0, abs=1e-12)
            assert p_value == pytest.approx(1.0, rel=1e-12)

    def test_perfect_unrestricted_fit(self):
        for criterion in Criterion:
            assert statistic_from_rss(criterion, 0.5, 0.0, 50, 2, 6)[1] == 0.0
            assert statistic_from_rss(criterion, 0.0, 0.0, 50, 2, 6)[1] == 1.0

    def test_asymptotic_agreement(self):
        # with a fixed per-observation RSS ratio all four p-values converge
        for n in (50, 100, 500, 5000):
            ratio = 1.0 + 8.0 / n  # keeps the statistics near chi2 ~ 8
            ps = [statistic_from_rss(c, ratio, 1.0, n, 2, 6)[1]
                  for c in Criterion]
            spread = max(ps) - min(ps)
            if n >= 5000:
                assert spread < 0.005
        assert Criterion.LM not in PRESET_CRITERIA
        assert len(PRESET_CRITERIA) == 3


class TestRateComparison:
    def test_two_proportion_example(self):
        z, p = two_proportion_z(0.30, 1000, 0.20, 1000)
        assert z == pytest.approx(5.1640, abs=1e-3)
        assert p < 1e-6

    def test_equal_rates(self):
        z, p = two_proportion_z(0.25, 500, 0.25, 500)
        assert z == 0.0 and p == pytest.approx(1.0)

    def test_degenerate_pooled_rate(self):
        z, p = two_proportion_z(0.0, 100, 0.0, 100)
        assert (z, p) == (0.0, 1.0)

    @pytest.mark.parametrize("target", [3.0, 5.0, 6.0, 8.0, 9.0])
    def test_tail_p_value_matches_mpmath(self, target):
        # Rates 0.5 +- d on a million trials each give z = 2 d / sqrt(0.5e-6).
        d = target * math.sqrt(0.5e-6) / 2
        z, p = two_proportion_z(0.5 + d, 10**6, 0.5 - d, 10**6)
        assert z == pytest.approx(target, rel=1e-9)
        with mpmath.workdps(40):
            exact = mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2))
        assert p > 0
        assert abs(p - float(exact)) <= 1e-13 * float(exact)

    def test_compare_criteria_verdicts(self):
        class Rates:
            def __init__(self, s, u, n):
                self.spurious_rate, self.unidentified_rate, self.iterations = s, u, n

        cmp = compare_criteria(Rates(0.30, 0.05, 1000), Rates(0.20, 0.05, 1000))
        assert cmp.spurious_different
        assert not cmp.unidentified_different
        # p in (0.05, 0.1): different at the default level of 0.1, not at 0.05
        near = compare_criteria(Rates(0.30, 0.05, 1000), Rates(0.265, 0.05, 1000))
        assert 0.05 < near.spurious_p < 0.1
        assert near.spurious_different
        assert not compare_criteria(Rates(0.30, 0.05, 1000), Rates(0.265, 0.05, 1000),
                                    level=0.05).spurious_different
        tight = compare_criteria(Rates(0.30, 0.05, 1000), Rates(0.20, 0.05, 1000),
                                 level=1e-9)
        assert not tight.spurious_different
