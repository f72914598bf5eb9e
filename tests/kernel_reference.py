"""The per-sample kernels as they were first written, with array arithmetic
and int degrees of freedom: the reference that ``regress.nested_rss`` and
``criteria.statistic_from_rss`` must match bit for bit."""

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
