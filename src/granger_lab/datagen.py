"""Synthetic trivariate series for driver and indirect topologies.

Backbone recurrences (AR coefficient 0.3 in all presets):

    x_t = U(-2, 2)                      [+ N(0, alpha) intrinsic]
    y_t = c*y_{t-1} + x_{t-1}           [+ N(0, beta)  intrinsic]
    z_t = c*z_{t-1} + x_{t-2}           [+ N(0, gamma) intrinsic]   driver
    z_t = c*z_{t-1} + y_{t-1}           [+ N(0, gamma) intrinsic]   indirect

With extrinsic noise the backbone is generated noise free and the three
noise terms are added afterwards, so they are visible to the observer but
not to the system's own dynamics.

An SNR of s dB sets a series' noise std to sqrt(var * 10^(-s/10)), var being
its noise-free stationary variance: with v = var U(-2, 2) = 4/3, var x = v,
var y = v/(1 - c^2), var z = v/(1 - c^2) (driver) or v(1 + c^2)/(1 - c^2)^3
(indirect).

All three modes consume random draws in the same order (uniforms, then one
standard-normal block per series), so samples with different noise settings
but the same seed share the same underlying realization. The uniforms are
drawn as U in [0, 1) and mapped to -2 + 4 U once per chunk: 4 U is exact, so
these are the bits of ``Generator.uniform(-2.0, 2.0)``. A sample is three
equal-length 1-D float64 arrays with every value finite. ``generate_rows``,
the one sample generator, scales each row's normals by that row's own
resolved noise levels, or every row's by one broadcast row, so one chunk may
hold samples of several SNR triples.

The AR(1) recurrences are one LAPACK band solve per chunk (``dtbtrs`` on the
unit-diagonal bidiagonal band, so no division by the diagonal),
bit-identical to SciPy's ``lfilter``, in place on contiguous rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .core import TopologyKind
from .seeding import generator_states, state_generator


class NoiseKind(str, Enum):
    FIXED_SIGMA = "fixed"
    INTRINSIC_SNR = "intrinsic"
    EXTRINSIC_SNR = "extrinsic"


class GenerationError(Exception):
    pass


#: Noise standard deviations of the criterion-comparison experiments.
BASELINE_SIGMAS = (0.0, 0.1, 0.5)

MAGNITUDE_BOUND = 1e12
DEFAULT_BURN_IN = 100

#: Values per series of one sample, burn-in included, at most (~300 MB peak).
MAX_SAMPLE_VALUES = 1 << 20

#: Values per generated array in one chunk (``chunk_rows``): 256 KiB of
#: float64, 81 samples at n=300 and 218 at n=50.
CHUNK_VALUES = 1 << 15


@dataclass(frozen=True)
class GeneratorConfig:
    topology: TopologyKind = TopologyKind.DRIVER
    length: int = 300
    ar_coefficient: float = 0.3
    noise_kind: NoiseKind = NoiseKind.FIXED_SIGMA
    sigmas_or_snrs: tuple[float, float, float] = BASELINE_SIGMAS
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self) -> None:
        if self.topology not in (TopologyKind.DRIVER, TopologyKind.INDIRECT):
            raise ValueError("topology must be driver or indirect")
        if self.length <= 2:
            raise ValueError("length must exceed the backbone's maximum lag (2)")
        if not abs(self.ar_coefficient) < 1.0:  # also rejects NaN
            raise ValueError("|ar_coefficient| must be < 1 for stationarity")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.length + self.burn_in > MAX_SAMPLE_VALUES:
            raise ValueError(f"length {self.length} plus burn_in {self.burn_in} exceeds "
                             f"{MAX_SAMPLE_VALUES} values per series")
        object.__setattr__(self, "sigmas_or_snrs", tuple(float(v) for v in self.sigmas_or_snrs))


class TrivariateSample(NamedTuple):
    """One sample: the X, Y and Z series as equal-length 1-D float64 arrays."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


def snr_to_sigma(snr_db: float, signal_variance: float) -> float:
    """Noise std giving the requested SNR (dB) against ``signal_variance``,
    else a ValueError naming an SNR whose std is not a finite float."""
    if not signal_variance > 0.0:
        raise ValueError("signal variance must be positive")
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    try:
        sigma = math.sqrt(signal_variance * 10.0 ** (-snr_db / 10.0))
    except OverflowError:  # 10 ** 309 and above
        sigma = math.inf
    if not math.isfinite(sigma):  # the product overflowed instead
        raise ValueError(f"an SNR of {snr_db!r} dB needs a noise std beyond the float range")
    return sigma


def _add_lagged(out: np.ndarray, values: np.ndarray, k: int) -> None:
    """out_t += values_{t-k} along the last axis, in place, with 0.0 for
    t < k: those entries get + 0.0, so a -0.0 there becomes 0.0 as it
    would in 0.0 + out_t."""
    out[..., k:] += values[..., :-k]
    out[..., :k] += 0.0


def _bidiagonal_band(n: int, coeff: float) -> np.ndarray:
    """The unit upper bidiagonal matrix with superdiagonal -coeff as a (2, n)
    F-ordered LAPACK upper band."""
    band = np.ones((2, n), order="F")
    band[0] = -coeff
    return band


def _ar_filter(driving: np.ndarray, coeff: float) -> np.ndarray:
    """s_t = coeff * s_{t-1} + driving_t along the last axis, started from zero.

    This is the transposed solve U^T s = driving, U unit upper bidiagonal with
    superdiagonal -coeff, by ``dtbtrs`` on U's band. Under ``diag="U"`` step t
    computes driving_t - (-coeff) * s_{t-1} with no division by the diagonal,
    which in IEEE arithmetic is ``lfilter``'s driving_t + coeff * s_{t-1}. The
    rows of a C-ordered ``driving`` are the right-hand sides of its F-ordered
    transpose, solved in place.
    """
    band = _bidiagonal_band(driving.shape[-1], coeff)
    solved, info = dtbtrs(band, driving.T, uplo="U", trans="T", diag="U", overwrite_b=True)
    if info != 0:
        raise GenerationError(f"AR recurrence solve failed (LAPACK info={info})")
    return solved.T


def _raw_draws(states: Sequence[np.ndarray], total: int) -> np.ndarray:
    """C-ordered (4, len(states), total) draws: uniforms, then the X, Y and Z
    normals.

    Row r consumes one generator started from ``states[r]`` (a row of
    ``generator_states``), in that order, one call a block. The generator
    keeps no state between calls, so these are the bits of one call drawing
    the three normal blocks end to end.
    """
    draws = np.empty((4, len(states), total))
    uniforms, nx, ny, nz = draws
    for r, state in enumerate(states):
        rng = state_generator(state)
        rng.random(out=uniforms[r])
        rng.standard_normal(out=nx[r])
        rng.standard_normal(out=ny[r])
        rng.standard_normal(out=nz[r])
    uniforms *= 4.0  # -2 + 4 U, as Generator.uniform(-2.0, 2.0) computes it
    uniforms -= 2.0
    return draws


def _backbone(u: np.ndarray, ex: np.ndarray, ey: np.ndarray, ez: np.ndarray, coeff: float,
              topology: TopologyKind) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the recurrences with the given additive innovation terms, which
    are overwritten: x is built in ``ex``."""
    ex += u
    _add_lagged(ey, ex, 1)
    y = _ar_filter(ey, coeff)
    if topology is TopologyKind.DRIVER:
        _add_lagged(ez, ex, 2)
    else:
        _add_lagged(ez, y, 1)
    return ex, y, _ar_filter(ez, coeff)


def generate_rows(config: GeneratorConfig, levels: np.ndarray,
                  states: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Samples of ``config``'s shape as (rows, length) x, y, z arrays, row r
    drawn from ``states[r]`` with the resolved noise levels ``levels[r]``,
    or ``levels[0]`` for every row of a one-row ``levels``.

    Row r equals ``generate(config_r, seed_r)`` bit for bit when
    ``states[r]`` is seed_r's row of ``generator_states`` and ``levels[r]``
    resolves config_r, which may differ from ``config`` in its noise levels
    only. A (rows, 1) column of levels scales each row's normals by the same
    IEEE product a scalar would. The normals are scaled, summed, with the
    bits of the out-of-place sums, and solved in the C-ordered draw buffer,
    whose rows are contiguous. Memory grows with the rows, so a stream passes
    ``chunk_rows(config)`` states at a time.
    """
    draws = _raw_draws(states, config.burn_in + config.length)
    u, noise = draws[0], draws[1:]
    noise *= levels.T[:, :, None]
    if config.noise_kind is NoiseKind.EXTRINSIC_SNR:
        x, y, z = _backbone(u, *np.zeros(noise.shape), config.ar_coefficient, config.topology)
        x += noise[0]
        y += noise[1]
        z += noise[2]
    else:
        x, y, z = _backbone(u, *noise, config.ar_coefficient, config.topology)
    b = config.burn_in
    x, y, z = x[:, b:], y[:, b:], z[:, b:]
    for arr in (x, y, z):
        # NaN propagates through min and max, so it fails the check as well.
        if not (-MAGNITUDE_BOUND <= arr.min() and arr.max() <= MAGNITUDE_BOUND):
            raise GenerationError("generated values exceeded the magnitude bound")
    return x, y, z


def _calibration_variances(topology: TopologyKind,
                           ar_coefficient: float) -> tuple[float, float, float]:
    """Closed-form noise-free stationary variances of (X, Y, Z) for one
    backbone; the indirect Z's MA(inf) weights are (j + 1) c^j (Hamilton,
    *Time Series Analysis*, 1994, section 3.4)."""
    v, c2 = 4.0 / 3.0, ar_coefficient * ar_coefficient  # v = var U(-2, 2)
    var_y = v / (1.0 - c2)
    var_z = var_y if topology is TopologyKind.DRIVER else var_y * (1.0 + c2) / (1.0 - c2) ** 2
    return v, var_y, var_z


def resolve_sigmas(config: GeneratorConfig) -> tuple[float, float, float]:
    """The config's noise standard deviations (sigma_x, sigma_y, sigma_z):
    its fixed triple, which must be finite and >= 0, or its SNR triple's."""
    if config.noise_kind is NoiseKind.FIXED_SIGMA:
        if not all(math.isfinite(v) and v >= 0.0 for v in config.sigmas_or_snrs):
            raise ValueError("noise standard deviations must be finite and >= 0")
        return config.sigmas_or_snrs
    return tuple(sigma for [sigma] in axis_sigmas(config, [[snr] for snr in config.sigmas_or_snrs]))


def axis_sigmas(config: GeneratorConfig, axes: Sequence[Sequence[float]]) -> list[list[float]]:
    """The X, Y and Z SNR ``axes`` as noise stds of ``config``'s backbone, one
    per value: their product is ``resolve_sigmas`` of the axes' product, in order."""
    variances = _calibration_variances(config.topology, config.ar_coefficient)
    return [[snr_to_sigma(snr, var) for snr in axis] for axis, var in zip(axes, variances)]


def generate(config: GeneratorConfig, seed: int = 0) -> TrivariateSample:
    """One sample of the config's model, drawn from ``default_rng(seed)``."""
    x, y, z = generate_rows(config, np.array([resolve_sigmas(config)]), generator_states([seed]))
    return TrivariateSample(x[0], y[0], z[0])


def chunk_rows(config: GeneratorConfig) -> int:
    """Samples per ``generate_rows`` call of a stream, for this config's length."""
    return max(1, CHUNK_VALUES // (config.burn_in + config.length))
