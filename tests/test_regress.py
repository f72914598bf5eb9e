import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernel_reference as reference
from kernel_reference import InsufficientData, ols_fit
from granger_lab import granger
from granger_lab.core import TopologyKind
from granger_lab.criteria import Criterion
from granger_lab.datagen import GeneratorConfig, NoiseKind, generate
from granger_lab.granger import (RANK_TOL, RankDeficient, _lag_stack, block_pvalues, nested_rss,
                                 rank_deficient)


def _nested_rss(matrix, response, boundaries):
    """``nested_rss`` on the F-ordered [matrix | response]."""
    return nested_rss(np.column_stack((matrix, response)).copy(order="F"), boundaries)


class TestBuildDesign:
    def test_shapes_and_alignment(self):
        v = np.arange(10.0)
        stack, [[full, zx, yx]] = _lag_stack(v[None] * 10, v[None] * 100, v[None], 2,
                                             np.empty((1, 8, 8)))
        assert stack.shape == (1, 8, 8)
        augmented = stack[0].T
        assert augmented.flags.f_contiguous
        # row t holds [z_{t-1}, z_{t-2}, y_{t-1}, y_{t-2}, x_{t-1}, x_{t-2}, y_t, z_t]
        # for t = 2 .. 9
        np.testing.assert_array_equal(augmented[0], [1.0, 0.0, 100.0, 0.0, 10.0, 0.0, 200.0, 2.0])
        np.testing.assert_array_equal(augmented[-1], [8.0, 7.0, 800.0, 700.0, 80.0, 70.0,
                                                      900.0, 9.0])
        squares = sum(t * t for t in range(1, 9))  # of lag 1 of v
        assert (full, zx, yx) == (math.sqrt(1e4 * squares), math.sqrt(100.0 * squares),
                                  math.sqrt(1e4 * squares))

    def test_lag_columns(self):
        v = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        stack, _ = _lag_stack(v[None], v[None], v[None], 2, np.empty((1, 8, 3)))
        np.testing.assert_array_equal(stack[0].T, [[1.0, 0.0] * 3 + [2.0] * 2,
                                                   [2.0, 1.0] * 3 + [3.0] * 2,
                                                   [3.0, 2.0] * 3 + [4.0] * 2])

    def test_layouts_share_one_stack_row_by_row(self):
        # Every row of the stack is the one built column by column from that
        # row's series, with the largest column norms of its [z, y, x],
        # [z, x] and [y, x] lags.
        rows = np.random.default_rng(9).normal(size=(3, 4, 30)) * [[[1.0]], [[1e3]], [[1e-3]]]
        x, y, z = rows
        stack, norms = _lag_stack(x, y, z, 3, np.empty((5, 11, 27)))
        assert stack.shape == (4, 11, 27)
        for b in range(4):
            expected = reference.lag_stack(x[b], y[b], z[b], 3)
            np.testing.assert_array_equal(stack[b].T, expected)
            for norm, columns in zip(norms[b], ([*range(9)], [0, 1, 2, 6, 7, 8], [*range(3, 9)])):
                matrix = np.asfortranarray(expected[:, columns])  # summed as the kernel once did
                assert norm == np.sqrt(np.einsum("ij,ij->j", matrix, matrix)).max()


class TestOlsFit:
    def test_exact_fit_has_zero_rss(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(40, 3))
        beta = np.array([1.5, -2.0, 0.25])
        fit = ols_fit(matrix, matrix @ beta)
        np.testing.assert_allclose(fit.coefficients, beta, rtol=1e-10)
        assert fit.rss == pytest.approx(0.0, abs=1e-18)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(60, 4))
        response = rng.normal(size=60)
        fit = ols_fit(matrix, response)
        beta = np.linalg.solve(matrix.T @ matrix, matrix.T @ response)
        np.testing.assert_allclose(fit.coefficients, beta, rtol=1e-9)
        resid = response - matrix @ beta
        assert fit.rss == pytest.approx(float(resid @ resid), rel=1e-10)
        assert fit.coefficients.shape == (4,)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(50, 5))
        response = rng.normal(size=50)
        fit = ols_fit(matrix, response)
        resid = response - matrix @ fit.coefficients
        np.testing.assert_allclose(matrix.T @ resid, np.zeros(5), atol=1e-9)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(30, 3))
        response = rng.normal(size=30)
        a = ols_fit(matrix, response)
        b = ols_fit(matrix, 7.0 * response)
        np.testing.assert_allclose(b.coefficients, 7.0 * a.coefficients, rtol=1e-10)
        assert b.rss == pytest.approx(49.0 * a.rss, rel=1e-10)

    def test_rank_deficient_raises(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=30)
        matrix = np.column_stack([col, 2.0 * col, rng.normal(size=30)])
        with pytest.raises(RankDeficient):
            ols_fit(matrix, rng.normal(size=30))

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientData):
            ols_fit(np.eye(3), np.ones(3))

    def test_recovers_generator_coefficients(self):
        # driver topology: z_t = 0.3 z_{t-1} + x_{t-2} with tiny gamma noise
        cfg = GeneratorConfig(topology=TopologyKind.DRIVER, length=5000,
                              sigmas_or_snrs=(0.0, 0.1, 0.01))
        s = generate(cfg, 11)
        z, x = s.z, s.x
        # row t = [z_{t-1}, z_{t-2}, x_{t-1}, x_{t-2}], response z_t, t >= 2
        matrix = np.column_stack([v[2 - k:5000 - k] for v in (z, x) for k in (1, 2)])
        fit = ols_fit(matrix, z[2:])
        np.testing.assert_allclose(fit.coefficients, [0.3, 0.0, 0.0, 1.0], atol=0.01)


class TestNestedRss:
    def test_matches_separate_fits(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(80, 6))
        response = rng.normal(size=80)
        rss = _nested_rss(matrix, response, (2, 4, 6))
        for k, value in zip((2, 4, 6), rss):
            assert value == pytest.approx(ols_fit(matrix[:, :k], response).rss,
                                          rel=1e-9)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            matrix = rng.normal(size=(40, 6))
            response = rng.normal(size=40)
            rss = _nested_rss(matrix, response, (1, 2, 3, 4, 5, 6))
            assert all(a >= b - 1e-12 for a, b in zip(rss, rss[1:]))
            assert all(v >= 0.0 for v in rss)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_params=st.integers(1, 8),
           spare_rows=st.integers(1, 60), spread=st.integers(0, 3), noise=st.integers(-12, 2))
    def test_prefix_rss_never_increases(self, seed, n_params, spare_rows, spread, noise):
        # Columns scaled over 10**+-spread; the response a fit of every
        # column plus noise of 10**noise, down to nearly exact fits.
        rng = np.random.default_rng(seed)
        n_obs = n_params + spare_rows
        matrix = rng.normal(size=(n_obs, n_params)) * 10.0 ** rng.uniform(-spread, spread, n_params)
        response = matrix @ rng.normal(size=n_params) + 10.0 ** noise * rng.normal(size=n_obs)
        rss = _nested_rss(matrix, response, range(n_params + 1))
        assert all(a >= b for a, b in zip(rss, rss[1:]))
        assert rss[-1] >= 0.0

    @pytest.mark.parametrize("snr_db", [40.0, 80.0, 120.0])
    def test_matches_lstsq_at_high_snr(self, snr_db):
        # Near-exact fits: ||b||^2 - ||Q^T b||^2 lost up to 6e-4 here at 120 dB.
        for seed in range(3):
            s = generate(GeneratorConfig(topology=TopologyKind.DRIVER, length=300,
                                         noise_kind=NoiseKind.INTRINSIC_SNR,
                                         sigmas_or_snrs=(snr_db,) * 3), seed)
            z, y, x = s.z, s.y, s.x
            matrix = np.column_stack([v[2 - k:300 - k] for v in (z, y, x) for k in (1, 2)])
            response = z[2:]
            rss = _nested_rss(matrix, response, (2, 4, 6))
            for k, value in zip((2, 4, 6), rss):
                coef = np.linalg.lstsq(matrix[:, :k], response, rcond=None)[0]
                resid = response - matrix[:, :k] @ coef
                assert value == pytest.approx(float(resid @ resid), rel=1e-9)


class TestRankRule:
    def test_collinear_columns_are_rank_deficient(self):
        # The kernel checks no rank: the factored [col, col | col] gives its
        # prefix RSS and leaves its pivots, which the rule judges against
        # the largest column norm of [col, col].
        col = np.linspace(0, 1, 30)
        augmented = np.column_stack([col, col, col]).copy(order="F")
        assert nested_rss(augmented, (1, 2)) == pytest.approx([0.0, 0.0], abs=1e-25)
        norm = math.sqrt(col @ col)
        assert rank_deficient(augmented.diagonal()[None, :2], np.full((1, 2), norm)).tolist() == [
            True]

    def test_a_row_is_deficient_when_any_pivot_is_at_or_below_the_tolerance(self):
        norms = np.array([[2.0, 2.0, 4.0]] * 5)
        edge = RANK_TOL * 2.0
        pivots = np.array([[1.0, 1.0, 1.0],
                           [1.0, edge, 1.0],  # at the edge: deficient
                           [1.0, -edge, 1.0],  # the pivot's sign does not count
                           [1.0, np.nextafter(edge, 1.0), 1.0],
                           [1.0, 1.0, RANK_TOL * 4.0]])  # each pivot against its own norm
        assert rank_deficient(pivots, norms).tolist() == [False, True, True, False, True]

    def test_a_zero_norm_is_floored(self):
        # A design of zero columns has only zero pivots, which the floor of
        # 1e-300 on its norm still flags: the tolerance is then 1e-310.
        zero = np.zeros((3, 2))
        pivots = np.array([[0.0, 0.0], [1e-311, 1.0], [1e-309, 1.0]])
        assert rank_deficient(pivots, zero).tolist() == [True, True, False]
        assert rank_deficient(pivots, np.full((3, 2), 1e-320)).tolist() == [True, True, False]


def _reference_rss(matrix, response, k):
    """RSS of the least-squares fit on the first k columns, from the normal
    equations at 50 significant digits."""
    with mpmath.workdps(50):
        design = mpmath.matrix(matrix[:, :k].tolist())
        target = mpmath.matrix(response.tolist())
        beta = mpmath.lu_solve(design.T * design, design.T * target)
        return mpmath.fsum(r ** 2 for r in target - design * beta)


class TestNestedRssAccuracy:
    """Relative RSS error of the three passes a Granger comparison makes,
    on driver samples of n=60 with intrinsic noise. Nearly exact fits at
    high SNR lose digits, so the envelope widens with the SNR."""

    @pytest.mark.parametrize("snr_db, bound", [(40.0, 1e-13), (120.0, 1e-9)])
    def test_relative_error_envelope(self, snr_db, bound, monkeypatch):
        # The RSS values of a sample's passes, as ``block_pvalues`` makes
        # them, against the designs each pass stands for.
        returned = []
        monkeypatch.setattr(granger, "nested_rss",
                            lambda *args: returned.append(nested_rss(*args)) or returned[-1])
        worst = 0.0
        for seed in range(3):
            s = generate(GeneratorConfig(topology=TopologyKind.DRIVER, length=60,
                                         noise_kind=NoiseKind.INTRINSIC_SNR,
                                         sigmas_or_snrs=(snr_db,) * 3), seed)
            x, y, z = s.x, s.y, s.z
            returned.clear()
            block_pvalues(x[None], y[None], z[None], 2, (Criterion.WALD,))
            for series, prefixes, values in zip(((z, y, x), (z, x), (y, x)),
                                                ((2, 4, 6), (4,), (2, 4)), returned, strict=True):
                design = reference.lag_design(series, 2)
                matrix, response = design[:, :-1], design[:, -1]
                for k, rss in zip(prefixes, values, strict=True):
                    reference_rss = _reference_rss(matrix, response, k)
                    worst = max(worst, float(abs(rss - reference_rss) / reference_rss))
        assert worst <= bound
