"""Test criteria for nested-model comparison: LR, Wald, LM and Rao score.

Closed forms for a Gaussian linear model with n observations, q restrictions
and k unrestricted parameters:

    LR   = n * ln(rss_r / rss_u)            ~ chi2(q)
    Wald = n * (rss_r - rss_u) / rss_u      ~ chi2(q)
    LM   = n * (rss_r - rss_u) / rss_r      ~ chi2(q)
    Rao  = ((rss_r - rss_u) / q) / (rss_u / (n - k))   ~ F(q, n - k)

The Rao statistic is the finite-sample-exact F form, chosen for its small
sample behaviour. Wald's p-value is the F(q, n - k) tail of W (n - k) / (n q),
which is algebraically the Rao statistic, so Wald and Rao agree by construction.
``statistic_from_rss`` takes these five plain numbers and returns the
statistic with its p-value. The Monte Carlo loop calls it for every p-value,
so it matches the criterion by identity against module-level aliases of the
members, LR first, and clamps with conditional expressions instead of
``max`` calls. For any nested pair with rss_r > rss_u the statistics
order as Wald >= LR >= LM. In floating point the order is exact once
(rss_r - rss_u) / rss_u exceeds about 1e-8; closer pairs, whose p-values
are all near 1, are ordered by the rounding of ln(rss_r / rss_u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from scipy.special import cython_special

# The scalar C kernels behind the ``scipy.special`` ufuncs of the same names,
# pinned to their double variants: bit for bit the ufuncs' float64 tails,
# without the ufunc dispatch on every call.
chdtrc = cython_special.chdtrc
fdtrc = cython_special.fdtrc["double"]
ndtr = cython_special.ndtr["double"]


class Criterion(str, Enum):
    LR = "lr"
    WALD = "wald"
    RAO = "rao"
    LM = "lm"


#: Criteria used in experiment presets. LM is dominated by the Rao score
#: test (equal power, more work) and is kept only for the ordering property.
PRESET_CRITERIA = (Criterion.LR, Criterion.WALD, Criterion.RAO)


_LR, _WALD, _LM, _RAO = Criterion.LR, Criterion.WALD, Criterion.LM, Criterion.RAO


def statistic_from_rss(criterion: Criterion, rss_r: float, rss_u: float,
                       n: int, q: int, k: int) -> tuple[float, float]:
    """(statistic, p-value) from the two RSS values."""
    if rss_u <= 0.0:
        # Perfect unrestricted fit: limit behaviour of every statistic.
        return (math.inf, 0.0) if rss_r > rss_u else (0.0, 1.0)
    # OLS guarantees rss_r >= rss_u on a common window; clamp round-off,
    # picking what ``max(rss_r, rss_u)`` and ``max(delta, 0.0)`` would, NaN included.
    if criterion is _LR:
        stat = n * math.log((rss_u if rss_u > rss_r else rss_r) / rss_u)
        return stat, chdtrc(q, stat)
    delta = rss_r - rss_u
    if delta < 0.0:
        delta = 0.0
    if criterion is _WALD:
        stat = n * delta / rss_u
        return stat, fdtrc(q, n - k, stat * (n - k) / (n * q))
    if criterion is _RAO:
        stat = (delta / q) / (rss_u / (n - k))
        return stat, fdtrc(q, n - k, stat)
    if criterion is _LM:
        stat = n * delta / rss_r
        return stat, chdtrc(q, stat)
    raise ValueError(f"unknown criterion {criterion!r}")


def two_proportion_z(rate_a: float, n_a: int, rate_b: float, n_b: int) -> tuple[float, float]:
    """Pooled two-proportion z statistic and its two-sided p-value."""
    if n_a < 1 or n_b < 1:
        raise ValueError("iteration counts must be positive")
    pooled = (rate_a * n_a + rate_b * n_b) / (n_a + n_b)
    var = pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b)
    if var == 0.0:
        return 0.0, 1.0
    z = (rate_a - rate_b) / math.sqrt(var)
    p = 2.0 * ndtr(-abs(z))  # 1 - ndtr(|z|) cancels to 0 in the tail
    return z, p


@dataclass(frozen=True)
class RateComparison:
    """Two-proportion z-test p-values and verdicts for a pair of rate estimates."""

    spurious_p: float
    spurious_different: bool
    unidentified_p: float
    unidentified_different: bool


def compare_criteria(rates_a, rates_b, level: float = 0.1) -> RateComparison:
    """Decide whether two RateEstimates differ statistically at ``level``."""
    _, sp = two_proportion_z(rates_a.spurious_rate, rates_a.iterations,
                             rates_b.spurious_rate, rates_b.iterations)
    _, up = two_proportion_z(rates_a.unidentified_rate, rates_a.iterations,
                             rates_b.unidentified_rate, rates_b.iterations)
    return RateComparison(spurious_p=sp, spurious_different=sp < level,
                          unidentified_p=up, unidentified_different=up < level)
