"""Lagged design matrices and ordinary-least-squares fits for VAR models.

Restricted and unrestricted models are always fitted on the window defined
by the unrestricted model's maximum lag so that their residual sums of
squares are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgeqrf

from .core import LagSpec


class RegressionError(Exception):
    pass


class InsufficientData(RegressionError):
    """Too few observations for the requested number of coefficients."""


class RankDeficient(RegressionError):
    """The design matrix is numerically rank deficient (degenerate input)."""


# Relative singular-value cutoff for declaring rank deficiency.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class ModelSpec:
    """One VAR regression: a target series plus an ordered predictor list."""

    target: str
    predictors: tuple[str, ...]
    lags: LagSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if len(set(self.predictors)) != len(self.predictors):
            raise ValueError("duplicate predictor")
        if self.target in self.predictors:
            raise ValueError("target cannot also be a predictor")
        if len(self.predictors) != len(self.lags.predictor_lags):
            raise ValueError("one lag count per predictor is required")


@dataclass(frozen=True)
class FitResult:
    """OLS output for one model: coefficients, RSS and size bookkeeping."""

    coefficients: np.ndarray
    rss: float
    n_obs: int
    n_params: int


def lag_columns(values: np.ndarray, n_lags: int, start: int) -> np.ndarray:
    """Columns [v_{t-1}, ..., v_{t-n_lags}] for t = start .. len(v)-1."""
    n = values.shape[0]
    return np.column_stack([values[start - k:n - k] for k in range(1, n_lags + 1)])


def build_design(series: Mapping[str, np.ndarray], spec: ModelSpec,
                 window_lag: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the lagged design matrix and response vector for ``spec``.

    ``window_lag`` overrides the first usable time index (rows start at
    ``max(window_lag, spec.lags.max_lag)``); pass the unrestricted model's
    max lag when fitting a restricted model on the common window.
    """
    target = np.asarray(series[spec.target], dtype=np.float64)
    n = target.shape[0]
    start = spec.lags.max_lag if window_lag is None else max(window_lag, spec.lags.max_lag)
    n_params = spec.lags.n_params
    n_obs = n - start
    if n_obs < n_params + 1:
        raise InsufficientData(
            f"{n_obs} observations for {n_params} coefficients (need >= {n_params + 1})")
    blocks = [lag_columns(target, spec.lags.target_lags, start)]
    for name, p_lags in zip(spec.predictors, spec.lags.predictor_lags):
        blocks.append(lag_columns(np.asarray(series[name], dtype=np.float64), p_lags, start))
    return np.hstack(blocks), target[start:]


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
    return FitResult(coefficients=coef, rss=float(resid @ resid),
                     n_obs=n_obs, n_params=n_params)


def nested_rss(matrix: np.ndarray, response: np.ndarray,
               boundaries: Sequence[int]) -> list[float]:
    """RSS of each column-prefix model in one QR pass.

    ``boundaries`` are prefix lengths (e.g. (2, 4, 6) for own-lags, +first
    predictor, +second predictor). One R-only QR of the augmented matrix
    [X | b] gives every prefix RSS without forming Q: with p columns in X,
    the RSS of the model using the first ``k`` columns is
    ``sum_{i=k}^{p} R[i, p]^2`` (Golub & Van Loan, Matrix Computations,
    section 5.3). Unlike ``||b||^2 - ||Q^T b||^2`` this sum does not cancel
    when the fit is nearly exact. Raises RankDeficient when a pivot of R
    falls below tolerance relative to the largest column norm of X.
    """
    n_obs, n_params = matrix.shape
    if n_obs < n_params + 1:
        raise InsufficientData(f"{n_obs} rows for {n_params} columns")
    augmented = np.empty((n_obs, n_params + 1), order="F")
    augmented[:, :n_params] = matrix
    augmented[:, n_params] = response
    # R is the upper triangle of the result; Householder vectors lie below it.
    r, _, _, info = dgeqrf(augmented, overwrite_a=True)
    if info != 0:
        raise RegressionError(f"QR factorization failed (LAPACK info={info})")
    col_norms = np.sqrt(np.einsum("ij,ij->j", matrix, matrix))
    if np.abs(r.diagonal()[:n_params]).min() <= RANK_TOL * max(col_norms.max(), 1e-300):
        raise RankDeficient("design matrix is rank deficient")
    tail = r[:n_params + 1, n_params]
    rss = (tail * tail)[::-1].cumsum()[::-1]
    return [float(rss[k]) for k in boundaries]
