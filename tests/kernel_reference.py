"""The per-sample kernels as they were first written, with array arithmetic
and int degrees of freedom: the reference that ``regress.nested_rss`` and
``criteria.statistic_from_rss`` must match bit for bit. Its ``nested_rss``
keeps the rank check that the product moved to ``regress.rank_deficient``,
so the two verdicts are compared too. ``lag_design``, ``lag_stack`` and
``forward_rss`` build one sample's designs column by column and factor
them as ``granger.block_pvalues`` does: one QR of the
stack [z-lags | y-lags | x-lags | y | z], then two QRs of column subsets
of its R factor. ``forward_rss_three_pass`` is the form before that, one
full-length QR for each of [z | y | x], [z | x] and [y | x].

It also holds the readers that only tests need: ``ols_fit``, a plain QR
least-squares fit with coefficients and its own rank rule; ``chi2_sf``,
the sign-checked chi-squared tail over the product's ``chdtrc`` kernel;
and ``read_ppm`` and ``rgb_to_rate``, which decode a rendered P6 image and
invert its color map."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgeqrf
from scipy.special import chdtrc, fdtrc

from granger_lab import criteria
from granger_lab.criteria import Criterion
from granger_lab.regress import RANK_TOL, InsufficientData, RankDeficient


@dataclass(frozen=True)
class FitResult:
    """OLS output for one model: coefficients and RSS."""

    coefficients: np.ndarray
    rss: float


def ols_fit(matrix: np.ndarray, response: np.ndarray) -> FitResult:
    """Least-squares fit via QR; raises RankDeficient on degenerate designs."""
    matrix = np.asarray(matrix, dtype=np.float64)
    response = np.asarray(response, dtype=np.float64)
    n_obs, n_params = matrix.shape
    if n_obs < n_params + 1:
        raise InsufficientData(f"{n_obs} rows for {n_params} columns")
    q, r = np.linalg.qr(matrix)
    col_norms = np.linalg.norm(matrix, axis=0)
    if np.any(np.abs(np.diag(r)) <= RANK_TOL * max(col_norms.max(), 1e-300)):
        raise RankDeficient("design matrix is rank deficient")
    coef = solve_triangular(r, q.T @ response, lower=False)
    resid = response - matrix @ coef
    return FitResult(coefficients=coef, rss=float(resid @ resid))


def chi2_sf(statistic: float, dof: int) -> float:
    """Chi-squared survival function; for dof=2 equals exp(-x/2)."""
    if statistic < 0:
        raise ValueError("statistic must be non-negative")
    return criteria.chdtrc(dof, statistic)


def rgb_to_rate(r: int, g: int, b: int) -> float:
    """Invert the color map (exact inverse of rate_to_rgb up to rounding)."""
    if b == 255 and r < 255:
        return r / 510.0
    return 1.0 - g / 510.0


def read_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    header, rest = data.split(b"\n", 1)
    if header != b"P6":
        raise ValueError("not a binary PPM file")
    dims, rest = rest.split(b"\n", 1)
    maxval, raster = rest.split(b"\n", 1)
    w, h = (int(v) for v in dims.split())
    if maxval != b"255":
        raise ValueError("unsupported max value")
    return np.frombuffer(raster[: w * h * 3], dtype=np.uint8).reshape(h, w, 3)


def nested_rss(matrix, response, boundaries, norm_columns=None):
    """Prefix RSS from one R-only QR: pivots of the largest prefix and its
    column norms as arrays (or those of ``norm_columns``, the columns the
    prefix was reduced from), the tail's suffix sums by ``cumsum`` over the
    rows of R that exist."""
    n_obs, n_params = matrix.shape
    k_max = boundaries[-1]
    if n_obs < k_max + 1:
        raise InsufficientData(f"{n_obs} rows for {k_max} columns")
    augmented = np.empty((n_obs, n_params + 1), order="F")
    augmented[:, :n_params] = matrix
    augmented[:, n_params] = response
    r, _, _, info = dgeqrf(augmented, overwrite_a=True)
    assert info == 0
    columns = matrix[:, :k_max] if norm_columns is None else norm_columns
    col_norms = np.sqrt(np.einsum("ij,ij->j", columns, columns))
    if np.abs(r.diagonal()[:k_max]).min() <= RANK_TOL * max(col_norms.max(), 1e-300):
        raise RankDeficient("design matrix is rank deficient")
    tail = r[:min(n_params + 1, n_obs), n_params]
    rss = (tail * tail)[::-1].cumsum()[::-1]
    return [float(rss[k]) for k in boundaries]


def lag_design(series, p):
    """[lags 1..p of each series | series[0]] on t = p .. n-1: column
    i*p + k-1 holds lag k of series[i], the last column the response."""
    n = len(series[0])
    return np.column_stack([values[p - k:n - k] for values in series for k in range(1, p + 1)]
                           + [series[0][p:]])


def lag_stack(x, y, z, p):
    """[z-lags | y-lags | x-lags | y | z] on t = p .. n-1, column by column."""
    return np.column_stack([lag_design((z, y, x), p)[:, :-1], y[p:], z[p:]])


def subset_columns(p):
    """The stack's columns of [z-lags | x-lags | z] and [y-lags | x-lags | y]."""
    return ([*range(p), *range(2 * p, 3 * p), 3 * p + 1], [*range(p, 3 * p), 3 * p])


def r_factor(design):
    """The upper triangle of an F-ordered copy of ``design`` factored by
    ``dgeqrf``, on its first min(rows, columns) rows."""
    r, _, _, info = dgeqrf(np.asfortranarray(design.copy()), overwrite_a=True)
    assert info == 0
    return np.triu(r[:min(design.shape)])


def forward_rss(x, y, z, p):
    """(rss_restricted, rss_unrestricted, k) of the five forward model pairs
    of one sample, in the order of ``FORWARD_KEYS``: [z], [z, y] and [z, y,
    x] from one pass on the stack, [z, x] from the R factor's [z-lags |
    x-lags | z] columns and [y], [y, x] from its [y-lags | x-lags | y]
    columns, each with the norms of the stack columns it was reduced from."""
    stack = lag_stack(x, y, z, p)
    rss_z, rss_zy, rss_zyx = nested_rss(stack[:, :-1], stack[:, -1], (p, 2 * p, 3 * p))
    r = r_factor(stack)
    (rss_zx,), (rss_y, rss_yx) = [
        nested_rss(r[:, columns[:-1]], r[:, columns[-1]], boundaries, stack[:, columns[:-1]])
        for columns, boundaries in zip(subset_columns(p), ((2 * p,), (p, 2 * p)))]
    return [(rss_y, rss_yx, 2 * p), (rss_z, rss_zx, 2 * p), (rss_z, rss_zy, 2 * p),
            (rss_zy, rss_zyx, 3 * p), (rss_zx, rss_zyx, 3 * p)]


def forward_rss_three_pass(x, y, z, p):
    """``forward_rss`` from three full-length passes on [z-lags | y-lags |
    x-lags | z], [z-lags | x-lags | z] and [y-lags | x-lags | y]."""
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
