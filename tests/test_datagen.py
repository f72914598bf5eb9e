import functools
import math
import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from granger_lab.core import TopologyKind
from scipy.signal import lfilter

from granger_lab import datagen
from granger_lab.datagen import (BASELINE_SIGMAS, MAX_SAMPLE_VALUES, GenerationError,
                                 GeneratorConfig, NoiseKind, TrivariateSample, _ar_filter,
                                 _bidiagonal_band, _calibration_variances, _raw_draws,
                                 axis_sigmas, chunk_rows, generate, generate_rows,
                                 resolve_sigmas, snr_to_sigma)
from granger_lab.seeding import generator_states

UNIFORM_VAR = 4.0 / 3.0  # variance of U(-2, 2) = (b - a)^2 / 12


class TestSnrToSigma:
    def test_zero_db_equal_variances(self):
        assert snr_to_sigma(0.0, 1.0) == 1.0

    def test_plus_40db(self):
        assert snr_to_sigma(40.0, UNIFORM_VAR) == pytest.approx(
            math.sqrt(UNIFORM_VAR * 1e-4), rel=1e-12)
        assert snr_to_sigma(40.0, UNIFORM_VAR) == pytest.approx(0.011547, abs=1e-6)

    def test_minus_40db(self):
        assert snr_to_sigma(-40.0, UNIFORM_VAR) == pytest.approx(115.470054, abs=1e-5)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            snr = rng.uniform(-60, 60)
            var = 10.0 ** rng.uniform(-6, 6)
            sigma = snr_to_sigma(snr, var)
            back = 10.0 * math.log10(var / sigma**2)
            assert back == pytest.approx(snr, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("snr", [-3090.0, -3081.0, -1e300])
    def test_overflowing_level_is_a_value_error_naming_the_snr(self, snr):
        # Below about -3083 dB the power 10 ** (-snr / 10) overflows; just
        # above it, the product with the variance does.
        with pytest.raises(ValueError, match=f"^an SNR of {re.escape(repr(snr))} dB "):
            snr_to_sigma(snr, 2.0)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            snr_to_sigma(0.0, 0.0)
        with pytest.raises(ValueError):
            snr_to_sigma(math.inf, 1.0)


def _oracle_series(x, ar, topology):
    """Direct recurrence unrolling for noise-free y and z."""
    n = len(x)
    y = np.zeros(n)
    z = np.zeros(n)
    for t in range(n):
        xm1 = x[t - 1] if t >= 1 else 0.0
        xm2 = x[t - 2] if t >= 2 else 0.0
        ym1 = y[t - 1] if t >= 1 else 0.0
        zm1 = z[t - 1] if t >= 1 else 0.0
        y[t] = ar * ym1 + xm1
        z[t] = ar * zm1 + (xm2 if topology is TopologyKind.DRIVER else ym1)
    return y, z


class TestGenerateFixed:
    def test_noise_free_no_ar_driver(self):
        cfg = GeneratorConfig(topology=TopologyKind.DRIVER, length=200,
                              ar_coefficient=0.0, sigmas_or_snrs=(0, 0, 0))
        s = generate(cfg, 1)
        # z_t = x_{t-2} exactly (t >= 2 such that both lie after burn-in)
        np.testing.assert_allclose(s.z[2:], s.x[:-2], atol=0)

    def test_noise_free_recurrence_oracle(self):
        # burn_in=0 so the oracle sees the same zero-start transient
        for topology in (TopologyKind.DRIVER, TopologyKind.INDIRECT):
            cfg = GeneratorConfig(topology=topology, length=150, burn_in=0,
                                  sigmas_or_snrs=(0, 0, 0))
            s = generate(cfg, 9)
            y, z = _oracle_series(s.x, 0.3, topology)
            np.testing.assert_allclose(s.y, y, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(s.z, z, rtol=1e-12, atol=1e-12)

    def test_indirect_transmits_through_two_ar_stages(self):
        # With zero noise the indirect z at time t is
        # sum_m (m+1) * ar^m * x_{t-2-m}: the x signal passes through the
        # AR stage of y and then the AR stage of z.
        cfg = GeneratorConfig(topology=TopologyKind.INDIRECT, length=100,
                              burn_in=0, sigmas_or_snrs=(0, 0, 0))
        s = generate(cfg, 4)
        x = s.x
        t = 60
        expected = sum((m + 1) * 0.3**m * x[t - 2 - m] for m in range(t - 1))
        assert s.z[t] == pytest.approx(expected, rel=1e-12)

    def test_determinism(self):
        cfg = GeneratorConfig(topology=TopologyKind.DRIVER, length=100)
        a, b = generate(cfg, 77), generate(cfg, 77)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.z, b.z)
        c = generate(cfg, 78)
        assert not np.array_equal(a.x, c.x)

    def test_length_and_burn_in(self):
        s = generate(GeneratorConfig(topology=TopologyKind.DRIVER,
                                     length=123, burn_in=50))
        assert len(s.x) == len(s.y) == len(s.z) == 123

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            GeneratorConfig(topology=TopologyKind.DRIVER, length=2)

    def test_bounds_length_plus_burn_in(self):
        GeneratorConfig(topology=TopologyKind.DRIVER, length=MAX_SAMPLE_VALUES - 100)
        with pytest.raises(ValueError, match=f"length {MAX_SAMPLE_VALUES - 99} plus burn_in 100"):
            GeneratorConfig(topology=TopologyKind.DRIVER, length=MAX_SAMPLE_VALUES - 99)
        with pytest.raises(ValueError, match="length 300 plus burn_in"):
            GeneratorConfig(topology=TopologyKind.DRIVER, burn_in=MAX_SAMPLE_VALUES)

    def test_rejects_nonstationary_ar(self):
        with pytest.raises(ValueError):
            GeneratorConfig(topology=TopologyKind.DRIVER, length=50,
                            ar_coefficient=1.0)

    @pytest.mark.parametrize("ar", [math.nan, -math.nan, math.inf])
    def test_rejects_nan_and_infinite_ar(self, ar):
        with pytest.raises(ValueError, match="ar_coefficient"):
            GeneratorConfig(topology=TopologyKind.DRIVER, length=50, ar_coefficient=ar)

    def test_magnitude_bound(self):
        cfg = GeneratorConfig(topology=TopologyKind.DRIVER, length=50,
                              sigmas_or_snrs=(1e15, 0, 0))
        with pytest.raises(GenerationError):
            generate(cfg)


#: Length of the noise-free simulations that the closed-form variances are
#: checked against.
SIMULATION_LENGTH = 1_000_000
BACKBONES = [(topology, c) for topology in (TopologyKind.DRIVER, TopologyKind.INDIRECT)
             for c in (0.3, -0.5, 0.0)]


@functools.cache
def _simulated_variances(topology, c):
    """Sample variances of (x, y, z) over one long noise-free sample drawn
    the direct way (``_reference_generate``)."""
    config = GeneratorConfig(topology=topology, length=SIMULATION_LENGTH, ar_coefficient=c,
                             sigmas_or_snrs=(0.0, 0.0, 0.0))
    return tuple(float(np.var(s)) for s in _reference_generate(config, 20_191))


def _tolerances(topology, c):
    """Five standard errors of each sample variance in ``_simulated_variances``.

    Each series is sum_j psi_j u_{t-j} over the white uniforms u, with psi_j
    = 1 at j = 0 only for x, c^j for y and the driver z, and (j + 1) c^j for
    the indirect z. Bartlett's formula gives the variance of a sample
    variance of n values as (2 sum_k gamma_k^2 + (eta - 3) gamma_0^2) / n,
    gamma_k the autocovariances; the uniform's kurtosis eta = 1.8 is below
    3, so dropping its term bounds the variance from above.
    """
    j = np.arange(200.0)  # |c| <= 0.5: c^200 is far below double precision
    ar = c ** j
    weights = ([1.0], ar, ar if topology is TopologyKind.DRIVER else (j + 1) * ar)
    tolerances = []
    for psi in weights:
        gamma = UNIFORM_VAR * np.correlate(psi, psi, "full")
        tolerances.append(5.0 * math.sqrt(2.0 * np.sum(gamma**2) / SIMULATION_LENGTH))
    return tolerances


class TestSignalVariance:
    # The noise-free stationary variances of (x, y, z) that SNRs refer to,
    # in closed form, against a long noise-free simulation of each backbone.
    def _check_simulated(self, topology, c, series):
        got = _calibration_variances(topology, c)[series]
        simulated = _simulated_variances(topology, c)[series]
        assert abs(got - simulated) <= _tolerances(topology, c)[series], (topology, c)

    def test_x_is_uniform_variance(self):
        for topology, c in BACKBONES:
            var_x, _, _ = _calibration_variances(topology, c)
            assert var_x == pytest.approx(UNIFORM_VAR, rel=0.02)
            self._check_simulated(topology, c, 0)

    def test_y_matches_ar1_stationary_variance(self):
        # y is an AR(1) driven by white x: Var = Var(x) / (1 - c^2); so is
        # the driver's z
        for topology, c in BACKBONES:
            _, var_y, var_z = _calibration_variances(topology, c)
            expected = UNIFORM_VAR / (1 - c**2)
            assert var_y == pytest.approx(expected, rel=0.02)
            self._check_simulated(topology, c, 1)
            if topology is TopologyKind.DRIVER:
                assert var_z == pytest.approx(expected, rel=0.02)
                self._check_simulated(topology, c, 2)

    def test_indirect_z_larger_than_driver_z(self):
        # the indirect z accumulates two AR stages, hence more variance;
        # with c = 0 both z are the uniforms delayed by two steps
        for c in (0.3, -0.5, 0.0):
            indirect = _calibration_variances(TopologyKind.INDIRECT, c)[2]
            driver = _calibration_variances(TopologyKind.DRIVER, c)[2]
            assert indirect > driver if c else indirect == driver
            self._check_simulated(TopologyKind.INDIRECT, c, 2)

    def test_resolve_sigmas_draws_nothing(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a random number was drawn")
        monkeypatch.setattr(datagen, "generator_states", fail)
        monkeypatch.setattr(datagen, "state_generator", fail)
        snrs = (-10.0, 0.0, 20.0)
        for topology, c in [(TopologyKind.DRIVER, 0.45), (TopologyKind.INDIRECT, -0.2)]:
            var_y = UNIFORM_VAR / (1 - c**2)
            var_z = var_y if topology is TopologyKind.DRIVER else var_y * (1 + c**2) / (1 - c**2)**2
            for kind in (NoiseKind.INTRINSIC_SNR, NoiseKind.EXTRINSIC_SNR):
                noise = resolve_sigmas(GeneratorConfig(topology=topology, length=50,
                                                       ar_coefficient=c, noise_kind=kind,
                                                       sigmas_or_snrs=snrs))
                expected = [math.sqrt(var * 10 ** (-s / 10))
                            for var, s in zip((UNIFORM_VAR, var_y, var_z), snrs)]
                assert list(noise) == pytest.approx(expected, rel=1e-12)


def _python_recurrence(driving, coeff):
    """s_t = coeff * s_{t-1} + driving_t, one Python float operation at a time."""
    out = np.empty_like(driving)
    for r, row in enumerate(driving.tolist()):
        s = 0.0
        for t, d in enumerate(row):
            s = d + coeff * s
            out[r, t] = s
    return out


@st.composite
def _driving(draw, max_rows=100, max_length=700):
    """(rows, length) driving terms: magnitudes from 1e-12 to 1e8 with random
    signs, after a leading block of zeros."""
    rows = draw(st.integers(1, max_rows), label="rows")
    length = draw(st.integers(3, max_length), label="length")
    lo = draw(st.integers(-12, 8), label="lo")
    hi = draw(st.integers(lo, 8), label="hi")
    zeros = draw(st.integers(0, length), label="zeros")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    values = rng.choice([-1.0, 1.0], (rows, length)) * 10.0 ** rng.uniform(lo, hi, (rows, length))
    values[:, :zeros] = 0.0
    return values


class TestArFilter:
    COEFFS = st.one_of(st.sampled_from([0.0, 0.3, -0.3, -0.999999]),
                       st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))

    @settings(max_examples=60, deadline=None)
    @given(driving=_driving(), coeff=COEFFS)
    def test_bitwise_equal_to_lfilter_and_the_recurrence(self, driving, coeff):
        expected = lfilter([1.0], [1.0, -coeff], driving, axis=-1)
        got = _ar_filter(driving.copy(), coeff)
        assert got.shape == driving.shape and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() == _python_recurrence(driving, coeff).tobytes()

    @pytest.mark.parametrize("n", [3, 4, 50])
    @pytest.mark.parametrize("coeff", [0.3, -0.9, 0.0])
    def test_band_is_the_cached_read_only_bidiagonal_matrix(self, n, coeff):
        band = _bidiagonal_band(n, coeff)
        assert band.shape == (2, n) and band.dtype == np.float64
        assert band.flags.f_contiguous
        # Upper band storage of I - coeff * (superdiagonal): row 0 from column 1.
        matrix = np.eye(n) - coeff * np.eye(n, k=1)
        np.testing.assert_array_equal(band[0, 1:], np.diagonal(matrix, 1))
        np.testing.assert_array_equal(band[1], np.diagonal(matrix))

    @pytest.mark.parametrize("coeff", [0.3, -0.7, 0.0])
    def test_one_long_row(self, coeff):
        # One row of about 10^5 values, well inside MAX_SAMPLE_VALUES.
        rng = np.random.default_rng(11)
        driving = rng.uniform(-2.0, 2.0, (1, 100_100))
        driving[0, :100] = 0.0
        got = _ar_filter(driving.copy(), coeff)
        assert got.tobytes() == lfilter([1.0], [1.0, -coeff], driving, axis=-1).tobytes()
        assert got.tobytes() == _python_recurrence(driving, coeff).tobytes()


class TestIntrinsic:
    def test_zero_db_alpha_equals_signal_std(self):
        cfg = GeneratorConfig(topology=TopologyKind.DRIVER, length=50,
                              noise_kind=NoiseKind.INTRINSIC_SNR,
                              sigmas_or_snrs=(0.0, 40.0, 40.0))
        noise = resolve_sigmas(cfg)
        assert noise[0] == pytest.approx(math.sqrt(UNIFORM_VAR), rel=0.02)

    def test_matches_fixed_with_same_sigmas(self):
        cfg = GeneratorConfig(topology=TopologyKind.DRIVER, length=100,
                              noise_kind=NoiseKind.INTRINSIC_SNR,
                              sigmas_or_snrs=(10.0, 20.0, 30.0))
        noise = resolve_sigmas(cfg)
        fixed = GeneratorConfig(topology=TopologyKind.DRIVER, length=100,
                                sigmas_or_snrs=noise)
        a, b = generate(cfg, 5), generate(fixed, 5)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.z, b.z)

    @pytest.mark.parametrize("kind", [NoiseKind.INTRINSIC_SNR, NoiseKind.EXTRINSIC_SNR])
    @pytest.mark.parametrize("topology", [TopologyKind.DRIVER, TopologyKind.INDIRECT])
    def test_axis_sigmas_resolve_every_triple_of_the_grid(self, topology, kind):
        shape = GeneratorConfig(topology=topology, length=60, noise_kind=kind, ar_coefficient=0.4)
        axes = ((-40.0, 0.0, 12.5), (3.0, -7.0), (40.0, 0.0, -20.0, 5.0))
        levels = list(product(*axis_sigmas(shape, axes)))
        assert levels == [resolve_sigmas(replace(shape, sigmas_or_snrs=snrs))
                          for snrs in product(*axes)]

    def test_axis_sigmas_name_an_overflowing_snr_anywhere_on_an_axis(self):
        shape = GeneratorConfig(noise_kind=NoiseKind.INTRINSIC_SNR)
        with pytest.raises(ValueError, match=r"^an SNR of -4000\.0 dB "):
            axis_sigmas(shape, ((0.0,), (0.0,), (0.0, 10.0, -4000.0)))

    def test_noise_propagates_downstream(self):
        # intrinsic noise on X must change Y; extrinsic noise on X must not
        base = GeneratorConfig(topology=TopologyKind.DRIVER, length=100,
                               noise_kind=NoiseKind.INTRINSIC_SNR,
                               sigmas_or_snrs=(0.0, 40.0, 40.0))
        quiet = GeneratorConfig(topology=TopologyKind.DRIVER, length=100,
                                noise_kind=NoiseKind.INTRINSIC_SNR,
                                sigmas_or_snrs=(40.0, 40.0, 40.0))
        assert not np.array_equal(generate(base, 6).y, generate(quiet, 6).y)
        ext0 = GeneratorConfig(topology=TopologyKind.DRIVER, length=100,
                               noise_kind=NoiseKind.EXTRINSIC_SNR,
                               sigmas_or_snrs=(0.0, 40.0, 40.0))
        ext1 = GeneratorConfig(topology=TopologyKind.DRIVER, length=100,
                               noise_kind=NoiseKind.EXTRINSIC_SNR,
                               sigmas_or_snrs=(40.0, 40.0, 40.0))
        np.testing.assert_array_equal(generate(ext0, 6).y, generate(ext1, 6).y)


def _noise_free(config, seed):
    """The noise-free series underlying an extrinsic-noise sample."""
    return generate(replace(config, noise_kind=NoiseKind.FIXED_SIGMA,
                            sigmas_or_snrs=(0.0, 0.0, 0.0)), seed)


class TestExtrinsic:
    def test_backbone_invariant_under_noise_levels(self):
        # changing the SNR triple only rescales the additive observer
        # noise; the noise-free backbone underneath is bit identical
        def cfg(snrs):
            return GeneratorConfig(topology=TopologyKind.INDIRECT, length=200,
                                   noise_kind=NoiseKind.EXTRINSIC_SNR,
                                   sigmas_or_snrs=snrs)
        clean = _noise_free(cfg((0, 0, 0)), 12)
        s1, s2 = generate(cfg((10, 5, -5)), 12), generate(cfg((0, 0, 0)), 12)
        n1, n2 = resolve_sigmas(cfg((10, 5, -5))), resolve_sigmas(cfg((0, 0, 0)))
        # standardized residuals match between the two noise levels
        np.testing.assert_allclose(
            (s1.x - clean.x) / n1[0],
            (s2.x - clean.x) / n2[0], rtol=1e-10)
        np.testing.assert_allclose(
            (s1.z - clean.z) / n1[2],
            (s2.z - clean.z) / n2[2], rtol=1e-10)

    def test_high_snr_approaches_noise_free(self):
        cfg = GeneratorConfig(topology=TopologyKind.DRIVER, length=100,
                              noise_kind=NoiseKind.EXTRINSIC_SNR,
                              sigmas_or_snrs=(200.0, 200.0, 200.0))
        zeros = GeneratorConfig(topology=TopologyKind.DRIVER, length=100,
                                sigmas_or_snrs=(0, 0, 0))
        a, b = generate(cfg, 3), generate(zeros, 3)
        np.testing.assert_allclose(a.x, b.x, atol=1e-7)
        np.testing.assert_allclose(a.z, b.z, atol=1e-7)

    def test_lag_relation_holds_on_backbone_only(self):
        cfg = GeneratorConfig(topology=TopologyKind.DRIVER, length=100,
                              ar_coefficient=0.0,
                              noise_kind=NoiseKind.EXTRINSIC_SNR,
                              sigmas_or_snrs=(-10.0, -10.0, -10.0))
        clean = _noise_free(cfg, 8)
        np.testing.assert_allclose(clean.z[2:], clean.x[:-2])
        noisy = generate(cfg, 8)
        assert not np.allclose(noisy.z[2:], noisy.x[:-2])


class TestGenerateDispatch:
    def test_baseline_sigmas_are_default(self):
        cfg = GeneratorConfig(topology=TopologyKind.DRIVER, length=50)
        assert cfg.sigmas_or_snrs == BASELINE_SIGMAS
        sample = generate(cfg)
        assert isinstance(sample, TrivariateSample)
        assert all(s.dtype == np.float64 and s.shape == (50,) for s in sample)


def _reference_generate(config, seed):
    """One sample the direct way: one generator, one 1-D pass per series."""
    alpha, beta, gamma = resolve_sigmas(config)
    total = config.burn_in + config.length
    rng = np.random.default_rng(seed)
    u = rng.uniform(-2.0, 2.0, total)
    nx = rng.standard_normal(total)
    ny = rng.standard_normal(total)
    nz = rng.standard_normal(total)

    def ar(driving):
        return lfilter([1.0], [1.0, -config.ar_coefficient], driving)

    def shift(values, k):
        out = np.zeros_like(values)
        out[k:] = values[:-k]
        return out

    extrinsic = config.noise_kind is NoiseKind.EXTRINSIC_SNR
    ex, ey, ez = ((0.0, 0.0, 0.0) if extrinsic
                  else (alpha * nx, beta * ny, gamma * nz))
    x = u + ex
    y = ar(shift(x, 1) + ey)
    z = ar(shift(x, 2) + ez) if config.topology is TopologyKind.DRIVER else ar(shift(y, 1) + ez)
    if extrinsic:
        x, y, z = x + alpha * nx, y + beta * ny, z + gamma * nz
    b = config.burn_in
    return x[b:], y[b:], z[b:]


def _own_rows(config, states):
    """``generate_rows`` of ``states`` at ``config``'s own levels, one broadcast row."""
    return generate_rows(config, np.array([resolve_sigmas(config)]), states)


class TestGenerateChunks:
    """``generate_rows`` on chunks of states, with one row of levels per
    sample or one broadcast row for all."""

    CASES = [(topology, kind, params)
             for topology in (TopologyKind.DRIVER, TopologyKind.INDIRECT)
             for kind, params in ((NoiseKind.FIXED_SIGMA, (0.0, 0.1, 0.5)),
                                  (NoiseKind.INTRINSIC_SNR, (-40.0, 10.0, 40.0)),
                                  (NoiseKind.EXTRINSIC_SNR, (20.0, -5.0, 0.0)))]

    @pytest.mark.parametrize("topology,kind,params", CASES)
    def test_rows_are_bitwise_per_sample_generate(self, topology, kind, params):
        cfg = GeneratorConfig(topology=topology, length=300, noise_kind=kind,
                              sigmas_or_snrs=params)
        seeds = [1_000_003 * i + 17 for i in range(chunk_rows(cfg) + 3)]
        rows = _own_rows(cfg, generator_states(np.array(seeds, np.uint64)))
        for seed, x, y, z in zip(seeds, *rows, strict=True):
            sample = generate(cfg, seed)
            for got, single, ref in zip((x, y, z), (sample.x, sample.y, sample.z),
                                        _reference_generate(cfg, seed)):
                assert got.tobytes() == single.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", [NoiseKind.INTRINSIC_SNR, NoiseKind.EXTRINSIC_SNR])
    @pytest.mark.parametrize("topology", [TopologyKind.DRIVER, TopologyKind.INDIRECT])
    def test_chunk_mixes_noise_levels(self, topology, kind):
        # One chunk of seven rows under three SNR triples, one level row per state.
        triples = [(-40.0, 10.0, 40.0)] * 2 + [(0.0, 0.0, 0.0)] * 3 + [(25.0, -5.0, 5.0)] * 2
        configs = [GeneratorConfig(topology=topology, length=80, noise_kind=kind,
                                   sigmas_or_snrs=snrs) for snrs in triples]
        seeds = [31 * i + 2 for i in range(len(configs))]
        levels = np.array([resolve_sigmas(cfg) for cfg in configs])
        chunk = generate_rows(configs[0], levels, generator_states(np.array(seeds, np.uint64)))
        for cfg, seed, x, y, z in zip(configs, seeds, *chunk, strict=True):
            for got, single in zip((x, y, z), generate(cfg, seed)):
                assert got.tobytes() == single.tobytes()

    def test_chunk_mixes_one_and_two_word_seeds(self):
        # default_rng hashes a seed below 2**32 as one word and a larger one
        # as two; the bulk states of one chunk must match both kinds.
        cfg = GeneratorConfig(topology=TopologyKind.INDIRECT, length=60,
                              noise_kind=NoiseKind.INTRINSIC_SNR, sigmas_or_snrs=(0.0, 10.0, 20.0))
        seeds = [0, 5, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1, 77]
        chunk = _own_rows(cfg, generator_states(np.array(seeds, np.uint64)))
        for seed, x, y, z in zip(seeds, *chunk):
            for got, ref in zip((x, y, z), _reference_generate(cfg, seed)):
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("total", [1, 2, 3, 150, 400, 30_100])
    def test_uniform_rows_are_generator_uniform_bits(self, total):
        # The uniforms are drawn as U in [0, 1) and mapped to -2 + 4 U once
        # per chunk; Generator.uniform(-2.0, 2.0) computes the same sum, and
        # 4 U is exact, so every row must equal its bits. One- and two-word
        # seeds, in one chunk of several rows.
        seeds = [0, 9, 2**32 - 1, 2**32, 2**63 + 11]
        draws = _raw_draws(generator_states(np.array(seeds, np.uint64)), total)
        assert draws.shape == (4, len(seeds), total)
        for seed, row in zip(seeds, draws[0], strict=True):
            assert row.tobytes() == np.random.default_rng(seed).uniform(-2.0, 2.0, total).tobytes()

    @pytest.mark.parametrize("total", [1, 2, 150, 30_100])
    def test_normal_rows_are_one_call_of_three_blocks(self, total):
        # Each series' block is its own standard_normal call; the generator
        # keeps no state between calls, so the three blocks are the bits of
        # one call for all of them, after the uniforms.
        seeds = [0, 9, 2**63 + 11]
        draws = _raw_draws(generator_states(np.array(seeds, np.uint64)), total)
        assert draws.flags.c_contiguous
        for seed, normals in zip(seeds, draws[1:].transpose(1, 0, 2), strict=True):
            rng = np.random.default_rng(seed)
            rng.random(total)
            assert normals.tobytes() == rng.standard_normal(3 * total).tobytes()

    @pytest.mark.parametrize("topology", [TopologyKind.DRIVER, TopologyKind.INDIRECT])
    @pytest.mark.parametrize("kind, params", [
        (NoiseKind.FIXED_SIGMA, (0.0, 0.0, 0.0)), (NoiseKind.FIXED_SIGMA, BASELINE_SIGMAS),
        (NoiseKind.INTRINSIC_SNR, (-10.0, 0.0, 20.0)), (NoiseKind.EXTRINSIC_SNR, (20.0, -5.0, 0.0))])
    def test_sums_in_the_draw_buffer_have_the_out_of_place_bits(self, topology, kind, params):
        # The recurrences written out of place, on the same draws. burn_in=0
        # keeps t < lag in the sample, where a zero-level normal is -0.0 half
        # the time and 0.0 + -0.0 must give 0.0.
        config = GeneratorConfig(topology=topology, length=40, burn_in=0, noise_kind=kind,
                                 sigmas_or_snrs=params)
        states = generator_states(np.arange(6, dtype=np.uint64))
        u, nx, ny, nz = _raw_draws(states, 40)
        alpha, beta, gamma = np.array([resolve_sigmas(config)]).T[:, :, None]

        def shift(values, k):
            out = np.zeros_like(values)
            out[:, k:] = values[:, :-k]
            return out

        def backbone(ex, ey, ez):
            x = u + ex
            y = _ar_filter(shift(x, 1) + ey, 0.3)
            lagged = shift(x, 2) if topology is TopologyKind.DRIVER else shift(y, 1)
            return x, y, _ar_filter(lagged + ez, 0.3)

        if kind is NoiseKind.EXTRINSIC_SNR:
            x, y, z = backbone(0.0, 0.0, 0.0)
            expected = (x + alpha * nx, y + beta * ny, z + gamma * nz)
        else:
            expected = backbone(alpha * nx, beta * ny, gamma * nz)
        got = _own_rows(config, states)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in expected]
        if params == (0.0, 0.0, 0.0):
            assert np.signbit(beta * ny[:, 0]).any() and not np.signbit(got[1][:, 0]).any()

    @pytest.mark.parametrize("kind, params", [
        (NoiseKind.FIXED_SIGMA, BASELINE_SIGMAS), (NoiseKind.INTRINSIC_SNR, (0.0, 10.0, 20.0)),
        (NoiseKind.EXTRINSIC_SNR, (20.0, -5.0, 0.0))])
    @pytest.mark.parametrize("topology", [TopologyKind.DRIVER, TopologyKind.INDIRECT])
    def test_recurrences_are_solved_in_place(self, monkeypatch, topology, kind, params):
        # x, y and z are rows of one C-ordered buffer: the draws, whose
        # normals are scaled in place (or, with extrinsic noise, the
        # backbone's zeros), and every dtbtrs solve writes its contiguous
        # rows in place.
        solves, dtbtrs = [], datagen.dtbtrs

        def recording(band, b, **kwargs):
            solved, info = dtbtrs(band, b, **kwargs)
            solves.append(np.shares_memory(solved, b))
            return solved, info

        monkeypatch.setattr(datagen, "dtbtrs", recording)
        config = GeneratorConfig(topology=topology, length=60, noise_kind=kind,
                                 sigmas_or_snrs=params)
        x, y, z = _own_rows(config, generator_states(np.arange(5, dtype=np.uint64)))
        buffer = x.base
        extrinsic = kind is NoiseKind.EXTRINSIC_SNR
        assert buffer.shape == ((3 if extrinsic else 4), 5, 160) and buffer.flags.c_contiguous
        assert np.shares_memory(y, buffer) and np.shares_memory(z, buffer)
        assert solves == [True, True]

    @pytest.mark.parametrize("series", [0, 1, 2], ids=["x", "y", "z"])
    @pytest.mark.parametrize("value, accepted", [
        (np.nan, False), (np.inf, False), (-np.inf, False),
        (np.nextafter(1e12, np.inf), False), (np.nextafter(-1e12, -np.inf), False),
        (1e12, True), (-1e12, True)])
    def test_magnitude_check_on_each_series(self, monkeypatch, series, value, accepted):
        # One value planted after the burn-in of one row of one series.
        backbone = datagen._backbone

        def planted(*args):
            out = backbone(*args)
            out[series][1, -1] = value
            return out

        monkeypatch.setattr(datagen, "_backbone", planted)
        config = GeneratorConfig(topology=TopologyKind.DRIVER, length=30)
        states = generator_states(np.arange(3, dtype=np.uint64))
        if accepted:
            assert _own_rows(config, states)[series][1, -1] == value
        else:
            with pytest.raises(GenerationError, match="magnitude bound"):
                _own_rows(config, states)

    def test_chunk_memory_is_bounded(self):
        short = GeneratorConfig(topology=TopologyKind.DRIVER, length=50)
        long = GeneratorConfig(topology=TopologyKind.DRIVER, length=1_000_000)
        assert chunk_rows(short) > chunk_rows(long) == 1
