"""The per-sample kernels as they were first written, with array arithmetic
and int degrees of freedom: the reference that ``regress.nested_rss`` and
``criteria.statistic_from_rss`` must match bit for bit. ``lag_design`` and
``forward_rss`` build one sample's designs column by column, as the
reference for the stacked designs of ``granger``."""

import math

import numpy as np
from scipy.linalg.lapack import dgeqrf
from scipy.special import chdtrc, fdtrc

from granger_lab.criteria import Criterion
from granger_lab.regress import RANK_TOL, InsufficientData, RankDeficient


def nested_rss(matrix, response, boundaries):
    """Prefix RSS from one R-only QR: pivots and column norms as arrays, the
    tail's suffix sums by ``cumsum``."""
    n_obs, n_params = matrix.shape
    if n_obs < n_params + 1:
        raise InsufficientData(f"{n_obs} rows for {n_params} columns")
    augmented = np.empty((n_obs, n_params + 1), order="F")
    augmented[:, :n_params] = matrix
    augmented[:, n_params] = response
    r, _, _, info = dgeqrf(augmented, overwrite_a=True)
    assert info == 0
    col_norms = np.sqrt(np.einsum("ij,ij->j", matrix, matrix))
    if np.abs(r.diagonal()[:n_params]).min() <= RANK_TOL * max(col_norms.max(), 1e-300):
        raise RankDeficient("design matrix is rank deficient")
    tail = r[:n_params + 1, n_params]
    rss = (tail * tail)[::-1].cumsum()[::-1]
    return [float(rss[k]) for k in boundaries]


def lag_design(series, p):
    """[lags 1..p of each series | series[0]] on t = p .. n-1: column
    i*p + k-1 holds lag k of series[i], the last column the response."""
    n = len(series[0])
    return np.column_stack([values[p - k:n - k] for values in series for k in range(1, p + 1)]
                           + [series[0][p:]])


def forward_rss(x, y, z, p):
    """(rss_restricted, rss_unrestricted, k) of the five forward model pairs
    of one sample, in the order of ``FORWARD_KEYS``, from three reference
    passes on [z-lags | y-lags | x-lags | z], [z-lags | x-lags | z] and
    [y-lags | x-lags | y]."""
    passes = [((z, y, x), (p, 2 * p, 3 * p)), ((z, x), (2 * p,)), ((y, x), (p, 2 * p))]
    designs = [(lag_design(series, p), boundaries) for series, boundaries in passes]
    (rss_z, rss_zy, rss_zyx), (rss_zx,), (rss_y, rss_yx) = [
        nested_rss(design[:, :-1], design[:, -1], boundaries) for design, boundaries in designs]
    return [(rss_y, rss_yx, 2 * p), (rss_z, rss_zx, 2 * p), (rss_z, rss_zy, 2 * p),
            (rss_zy, rss_zyx, 3 * p), (rss_zx, rss_zyx, 3 * p)]


def statistic_from_rss(criterion, rss_r, rss_u, n, q, k):
    """(statistic, p-value), with the int degrees of freedom passed to
    ``chdtrc`` and ``fdtrc`` as they are."""
    if rss_u <= 0.0:
        return (math.inf, 0.0) if rss_r > rss_u else (0.0, 1.0)
    delta = max(rss_r - rss_u, 0.0)
    if criterion is Criterion.LR:
        stat = n * math.log(max(rss_r, rss_u) / rss_u)
        return stat, float(chdtrc(q, stat))
    if criterion is Criterion.WALD:
        stat = n * delta / rss_u
        return stat, float(fdtrc(q, n - k, stat * (n - k) / (n * q)))
    if criterion is Criterion.LM:
        stat = n * delta / rss_r
        return stat, float(chdtrc(q, stat))
    stat = (delta / q) / (rss_u / (n - k))
    return stat, float(fdtrc(q, n - k, stat))
