"""Least-squares kernels for nested VAR model pairs.

``nested_rss`` gives the residual sum of squares of every column-prefix
model of one design in a single R-only QR pass, factoring the caller's
[X | b] in place, with X's largest column norm from ``largest_norms``;
every Granger test goes through it. It calls ``dgeqrf`` with positional
arguments and reads back only R's diagonal and last column. ``ols_fit`` is
the plain QR fit with coefficients, kept as the reference the kernel is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgeqrf


class RegressionError(Exception):
    pass


class InsufficientData(RegressionError):
    """Too few observations for the requested number of coefficients."""


class RankDeficient(RegressionError):
    """The design matrix is numerically rank deficient (degenerate input)."""


# Relative singular-value cutoff for declaring rank deficiency.
RANK_TOL = 1e-10


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


def largest_norms(stack: np.ndarray, widths: Sequence[int]) -> list[list[float]]:
    """Per row, X's largest column norm in each [X | b] of ``widths`` columns
    side by side in ``stack`` (rows, columns, n_obs), by one ``einsum``."""
    squares = np.einsum("bcn,bcn->bc", stack, stack)
    starts = accumulate(widths, initial=0)
    return [np.sqrt(squares[:, a:a + width - 1].max(axis=1)).tolist()
            for a, width in zip(starts, widths)]


def nested_rss(augmented: np.ndarray, boundaries: Sequence[int],
               largest_norm: float) -> list[float]:
    """RSS of each column-prefix model in one QR pass, overwriting ``augmented``.

    ``augmented`` is the F-ordered float64 [X | b]: the design's p columns
    with the response last. ``boundaries`` are prefix lengths (e.g. (2, 4, 6)
    for own-lags, +first predictor, +second predictor). One R-only QR of
    [X | b], done in place, gives every prefix RSS without forming Q: the
    RSS of the model using the first ``k`` columns is
    ``sum_{i=k}^{p} R[i, p]^2`` (Golub & Van Loan, Matrix Computations,
    section 5.3). Unlike ``||b||^2 - ||Q^T b||^2`` this sum does not cancel
    when the fit is nearly exact. Raises RankDeficient when a pivot of R
    falls below tolerance relative to ``largest_norm`` (``largest_norms``).
    """
    n_obs, n_params = augmented.shape[0], augmented.shape[1] - 1
    if n_obs < n_params + 1:
        raise InsufficientData(f"{n_obs} rows for {n_params} columns")
    # R is the upper triangle of the result; Householder vectors lie below it.
    # Positional arguments: the wrapper's default lwork of 3 (p + 1), in place.
    r, _, _, info = dgeqrf(augmented, 3 * n_params + 3, 1)
    if info != 0:
        raise RegressionError(f"QR factorization failed (LAPACK info={info})")
    if min(map(abs, r.diagonal()[:n_params].tolist())) <= RANK_TOL * max(largest_norm, 1e-300):
        raise RankDeficient("design matrix is rank deficient")
    suffix, total = [], 0.0  # sums of R[i, p]^2 from i = p down, in ``cumsum`` order
    for value in r[n_params::-1, n_params].tolist():
        total += value * value
        suffix.append(total)
    return [suffix[n_params - k] for k in boundaries]
