"""Bivariate Granger tests and the two-step trivariate procedure.

Step one tests the three forward links pairwise. Only when the pairwise
scan returns the complete topology does step two run the two conditional
tests on Z (does X help beyond Y, does Y help beyond X) and replace the
X->Z and Y->Z edges with those verdicts.

Every sample reaches its edges along one path: ``block_pvalues`` scores
the five forward comparisons of each sample of a block (a generated chunk
in the Monte Carlo loop), and ``decide_edge_array`` applies the two-step
rule to any stack of them. A rank-deficient sample keeps its row with NaN
p-values, from which the rule accepts no edge. ``sample_pvalues`` scores
one sample for ``analyze`` as a block of two rows, (x, y, z) and (z, y,
x): the reversed sample's pairwise links are the reverse links z->y, z->x
and y->x, which ``analyze`` reports but never classifies.

Each sample is factored once. Its lag stack [z-lags | y-lags | x-lags |
y | z] on the common window gives the RSS of [z], [z, y] and [z, y, x]
from one ``nested_rss`` pass, which factors it in place with ``dgeqrf``
and checks no rank, so R stays in the upper triangle of the block's
buffer, pivots included. Since A[:, S] = Q R[:, S], a column subset of R
has the R factor of the same subset of A, so [z, x] and [y], [y, x] come
from two more passes on the upper triangle of R's [z-lags | x-lags | z]
and [y-lags | x-lags | y] columns, at most 3 * lags + 2 rows each,
whatever the sample's length (Golub & Van Loan, Matrix Computations,
section 5.3). No pass runs short of rows: ``require_length``'s n >= 4 *
lags + 1 leaves the first 3 * lags + 1 rows for 3 * lags columns, and
the others min(n - lags, 3 * lags + 2) >= 2 * lags + 1 rows for at most
2 * lags. The stacks and their column norms are built once per block.
Every sample makes the three passes, and one ``rank_deficient`` call a
block, the one rank rule, marks from their pivots the rows not to score.
The rows kept are scored one comparison at a time. The Monte Carlo loop
passes its process's ``datagen.Workspace``, whose stack buffer holds one
block of ``CHUNK_VALUES`` values and whose reduced buffer the R subsets,
so no chunk makes either anew; ``analyze`` passes none.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgeqrf

from .criteria import Criterion, statistic_from_rss
from .datagen import CHUNK_VALUES, MAX_SAMPLE_VALUES, Workspace

#: Keys for the five forward-model comparisons the two-step procedure uses.
BIV_XY, BIV_XZ, BIV_YZ = "x->y", "x->z", "y->z"
TRI_XZ, TRI_YZ = "tri:x->z", "tri:y->z"
FORWARD_KEYS = (BIV_XY, BIV_XZ, BIV_YZ, TRI_XZ, TRI_YZ)

#: Keys for the three reverse links, each a pairwise test on its own.
REVERSE_KEYS = ("y->x", "z->x", "z->y")

#: Lag depth of every Monte Carlo experiment, and of ``analyze`` unless
#: ``--lags`` is given.
LAGS = 2


class RankDeficient(RuntimeError):
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
    QR of [X | b] gives every prefix RSS without forming Q: the RSS of the
    model using the first ``k`` columns is ``sum_{i=k}^{p} R[i, p]^2`` over
    the rows of R that exist. Unlike ``||b||^2 - ||Q^T b||^2`` this sum
    does not cancel when the fit is nearly exact.
    """
    # R is the upper triangle of the result; Householder vectors lie below it.
    # Positional arguments: the wrapper's default lwork of 3 (p + 1), in place.
    r, _, _, info = dgeqrf(augmented, 3 * augmented.shape[1], 1)
    if info != 0:
        raise RuntimeError(f"QR factorization failed (LAPACK info={info})")
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


def require_significance(alpha: float) -> float:
    """``alpha`` as a float strictly between 0 and 1, else a ValueError."""
    if not 0.0 < float(alpha) < 1.0:
        raise ValueError(f"significance level must lie strictly in (0, 1), got {alpha!r}")
    return float(alpha)


def require_length(n: int, lags: int) -> None:
    """A ValueError unless ``lags`` is at least 1 and ``n`` values leave the
    full [z | y | x] design of ``lags`` lags (3 * lags coefficients on n -
    lags observations) one residual degree of freedom: n >= 4 * lags + 1."""
    if lags < 1:
        raise ValueError("lags must be >= 1")
    if n < 4 * lags + 1:
        raise ValueError(f"series length {n} is too short for lag depth {lags}: "
                         f"at least {4 * lags + 1} values are needed")


def _lag_stack(x: np.ndarray, y: np.ndarray, z: np.ndarray, p: int,
               out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's [z lags 1..p | y lags | x lags | y | z] on t = p .. n-1 in
    the first rows of ``out``, a C-ordered (rows, 3p + 2, n - p) buffer, and
    the (rows, 3) largest column norms of its [z, y, x], [z, x] and [y, x]
    lags. A row of the stack, transposed, is the F-ordered [X | b]
    ``nested_rss`` takes."""
    rows, n = z.shape
    stack = out[:rows]
    lagged = [*product((z, y, x), range(1, p + 1)), (y, 0), (z, 0)]
    for column, (values, k) in enumerate(lagged):
        stack[:, column] = values[:, p - k:n - k]
    squares = np.einsum("bcn,bcn->bc", stack[:, :3 * p], stack[:, :3 * p])
    z_y_x = squares.reshape(rows, 3, p).max(axis=2)  # each series' largest squared lag norm
    norms = [z_y_x.max(axis=1), z_y_x[:, ::2].max(axis=1), z_y_x[:, 1:].max(axis=1)]
    return stack, np.sqrt(norms).T


def block_pvalues(xs: np.ndarray, ys: np.ndarray, zs: np.ndarray, lags: int,
                  criteria: Sequence[Criterion], workspace: Workspace | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """P-values (sample, criterion, comparison), in ``FORWARD_KEYS`` order,
    of the rows of (rows, n) x, y and z, and the (rows,) mask of the rows
    that are rank deficient; each of those has NaN for every p-value, which
    ``decide_edge_array`` accepts no edge from. On n - lags observations,
    the stack [z-lags | y-lags | x-lags | y | z] gives the RSS of [z], [z,
    y] and [z, y, x]; the upper triangle of its R factor's [z-lags |
    x-lags | z] columns that of [z, x], and of its [y-lags | x-lags | y]
    columns those of [y] and [y, x]. The three R factors stay in the
    block's buffers, where ``rank_deficient`` reads their pivots; then each
    criterion scores each comparison over the block's kept rows, one list
    a column of ``pvalues``. Stacks are built for blocks of at most
    ``CHUNK_VALUES`` values, in new buffers or in ``workspace``'s, and none
    may outgrow the longest generated sample's at depth ``LAGS``."""
    require_length(zs.shape[1], lags)
    p, rows, n_obs = lags, zs.shape[0], zs.shape[1] - lags
    if (3 * p + 2) * n_obs > (3 * LAGS + 2) * MAX_SAMPLE_VALUES:
        raise ValueError(f"lag depth {lags} is too deep for series length {zs.shape[1]}: its "
                         f"lag stack exceeds {(3 * LAGS + 2) * MAX_SAMPLE_VALUES} values")
    pvalues = np.empty((rows, len(criteria), len(FORWARD_KEYS)))
    deficient = np.empty(rows, dtype=bool)
    step = max(1, CHUNK_VALUES // ((3 * p + 2) * n_obs))  # the stack's 3p + 2 columns
    k2, k3 = 2 * p, 3 * p
    # The stack's [z-lags | x-lags | z] and [y-lags | x-lags | y] columns, on
    # R's min(n - p, 3p + 2) rows, and which of those lie below R's diagonal.
    subset = [*range(p), *range(k2, k3), k3 + 1, *range(p, k3), k3]
    m = min(n_obs, k3 + 2)
    below = np.arange(m) > np.array(subset)[:, None]
    # The stack block and the R subsets, refilled block by block.
    blocks = min(step, rows)
    stack_shape, reduced_shape = (blocks, 3 * p + 2, n_obs), (blocks, len(subset), m)
    if workspace is None:
        buffer, reduced = np.empty(stack_shape), np.empty(reduced_shape)
    else:
        buffer = workspace.empty("stack", stack_shape, CHUNK_VALUES)
        reduced = workspace.empty("reduced", reduced_shape, CHUNK_VALUES)
    for a in range(0, rows, step):
        stack, norms = _lag_stack(xs[a:a + step], ys[a:a + step], zs[a:a + step], p, buffer)
        # Each row of the transposed stack is the F-ordered [X | b] itself.
        rss_z, rss_zy, rss_zyx = zip(*[nested_rss(design, (p, k2, k3))
                                       for design in stack.transpose(0, 2, 1)])
        # R's subsets, upper triangle only; each row is F-ordered once transposed.
        subsets = np.take(stack[:, :, :m], subset, axis=1, out=reduced[:len(stack)], mode="clip")
        np.copyto(subsets, 0.0, where=below)
        rss_zx, rss_y, rss_yx = zip(*[(*nested_rss(zx, (k2,)), *nested_rss(yx, (p, k2)))
                                      for zx, yx in zip(subsets[:, :k2 + 1].transpose(0, 2, 1),
                                                        subsets[:, k2 + 1:].transpose(0, 2, 1))])
        # The pivots of the three factors, each against the largest column
        # norm of the stack columns it was reduced from.
        pivots = np.concatenate((stack.diagonal(0, 1, 2)[:, :k3], subsets.diagonal(0, 1, 2)[:, :k2],
                                 subsets.diagonal(-k2 - 1, 1, 2)[:, :k2]), axis=1)
        skipped = deficient[a:a + len(stack)] = rank_deficient(
            pivots, np.repeat(norms, (k3, k2, k2), axis=1))
        comparisons = ((rss_y, rss_yx, k2), (rss_z, rss_zx, k2), (rss_z, rss_zy, k2),
                       (rss_zy, rss_zyx, k3), (rss_zx, rss_zyx, k3))
        block, kept = pvalues[a:a + len(stack)], slice(None)
        if skipped.any():  # NaN p-values, and no scores, for the rank-deficient rows
            block[skipped], kept = np.nan, np.flatnonzero(~skipped)
            comparisons = [([restricted[i] for i in kept], [unrestricted[i] for i in kept], k)
                           for restricted, unrestricted, k in comparisons]
        # One comparison of every kept row at a time, in FORWARD_KEYS order.
        for c, criterion in enumerate(criteria):
            for j, (restricted, unrestricted, k) in enumerate(comparisons):
                block[kept, c, j] = [statistic_from_rss(criterion, rss_r, rss_u, n_obs, p, k)[1]
                                     for rss_r, rss_u in zip(restricted, unrestricted)]
    return pvalues, deficient


def sample_pvalues(x: np.ndarray, y: np.ndarray, z: np.ndarray, lags: int,
                   criteria: Sequence[Criterion]) -> tuple[np.ndarray, np.ndarray]:
    """P-values (criterion, comparison) of one sample: the forward ones in
    ``FORWARD_KEYS`` order and the reverse links in ``REVERSE_KEYS`` order.
    ``block_pvalues`` scores (x, y, z) and (z, y, x) as one block: the
    reversed sample's pairwise links z->y, z->x and y->x are the reverse
    links backwards. A rank-deficient sample raises RankDeficient."""
    if not x.shape == y.shape == z.shape:
        raise ValueError(f"series lengths differ: {x.size}, {y.size}, {z.size}")
    pvalues, deficient = block_pvalues(np.stack((x, z)), np.broadcast_to(y, (2, y.size)),
                                       np.stack((z, x)), lags, criteria)
    if deficient.any():
        raise RankDeficient("rank-deficient design: a series is constant or duplicated; "
                            "check the input columns")
    return pvalues[0], pvalues[1, :, 2::-1]


def decide_edge_array(pvalues: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The two-step decision rule over arrays: p-values (..., 5) in the order
    of ``FORWARD_KEYS``, significance levels (A,) -> accepted edges
    (..., A, 3) in the order of ``FORWARD_LINKS``.

    The three pairwise edges are accepted below the level; when all three
    are, the x->z and y->z edges are replaced by the verdicts of the two
    conditional tests.
    """
    accepted = pvalues[..., None, :] < alphas[:, None]
    edges = accepted[..., :3].copy()
    trivariate = accepted[..., 0] & accepted[..., 1] & accepted[..., 2]
    np.copyto(edges[..., 1:], accepted[..., 3:], where=trivariate[..., None])
    return edges
