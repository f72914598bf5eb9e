"""Least-squares kernels for nested VAR model pairs.

``nested_rss`` gives the residual sum of squares of every column-prefix
model of one design in a single R-only QR pass, factoring the caller's
[X | b] in place; every Granger test goes through it. It calls ``dgeqrf``
with positional arguments, reads R's last column once, into a list, sums
its squares from the bottom up to each boundary, and checks no rank. So
the caller keeps R in the upper triangle of its array, factors column
subsets of it again, and has ``rank_deficient``, the one rank rule, judge
the pivots of a whole block of R factors at once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgeqrf


class RegressionError(Exception):
    pass


class InsufficientData(RegressionError):
    """Too few observations for the requested number of coefficients."""


class RankDeficient(RegressionError):
    """The design matrix is numerically rank deficient (degenerate input)."""


# Relative singular-value cutoff for declaring rank deficiency.
RANK_TOL = 1e-10


def rank_deficient(pivots: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Which rows of ``pivots`` (rows, k), R factors' diagonals, are rank
    deficient: those with a pivot at or below ``RANK_TOL`` times its entry
    of ``norms`` (rows, k), the largest column norm of the columns its
    factor was built from."""
    return (np.abs(pivots) <= RANK_TOL * np.maximum(norms, 1e-300)).any(axis=1)


def nested_rss(augmented: np.ndarray, boundaries: Sequence[int]) -> list[float]:
    """RSS of each column-prefix model in one QR pass, overwriting ``augmented``.

    ``augmented`` is the F-ordered float64 [X | b]: the design's p columns
    with the response last. ``boundaries`` are increasing prefix lengths
    (e.g. (2, 4, 6) for own-lags, +first predictor, +second predictor); X
    may hold columns beyond the largest, which no model uses. One R-only
    QR of [X | b], done in place, gives every prefix RSS without forming
    Q: the RSS of the model using the first ``k`` columns is
    ``sum_{i=k}^{p} R[i, p]^2`` over the rows of R that exist (Golub & Van
    Loan, Matrix Computations, section 5.3). Unlike ``||b||^2 - ||Q^T b||^2``
    this sum does not cancel when the fit is nearly exact. Afterwards R is
    the upper triangle of ``augmented``, pivots included.
    """
    n_obs, k_max = augmented.shape[0], boundaries[-1]
    if n_obs < k_max + 1:
        raise InsufficientData(f"{n_obs} rows for {k_max} columns")
    # R is the upper triangle of the result; Householder vectors lie below it.
    # Positional arguments: the wrapper's default lwork of 3 (p + 1), in place.
    r, _, _, info = dgeqrf(augmented, 3 * augmented.shape[1], 1)
    if info != 0:
        raise RegressionError(f"QR factorization failed (LAPACK info={info})")
    column = r[:min(augmented.shape), -1].tolist()  # R's rows in the response's column
    # Sums of R[i, p]^2 from R's last row up, read at each boundary on the way.
    rss, total, i = [], 0.0, len(column)
    for k in reversed(boundaries):
        while i > k:
            i -= 1
            total += column[i] * column[i]
        rss.append(total)
    rss.reverse()
    return rss
