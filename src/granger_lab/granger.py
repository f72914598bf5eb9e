"""Bivariate Granger tests and the two-step trivariate procedure.

Step one tests the three forward links pairwise. Only when the pairwise
scan returns the complete topology does step two run the two conditional
tests on Z (does X help beyond Y, does Y help beyond X) and replace the
X->Z and Y->Z edges with those verdicts.

Every sample reaches its edges along one path: ``forward_pvalues`` scores
the five forward comparisons of one ``comparison_rss`` pass, and
``decide_edge_array`` applies the two-step rule to any stack of them. The
Monte Carlo loop and ``analyze`` both take it; ``reverse_pvalues`` scores
the reverse links, which ``analyze`` reports but never classifies. Every
test takes the RSS of its nested model pair from one ``regress.nested_rss``
pass over a ``_lag_design`` [lags | response] as a plain (restricted RSS,
unrestricted RSS, k) triple, and ``_pvalues`` scores forward and reverse
triples alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criteria import Criterion, statistic_from_rss
from .regress import InsufficientData, nested_rss

#: Keys for the five forward-model comparisons the two-step procedure uses.
BIV_XY, BIV_XZ, BIV_YZ = "x->y", "x->z", "y->z"
TRI_XZ, TRI_YZ = "tri:x->z", "tri:y->z"
FORWARD_KEYS = (BIV_XY, BIV_XZ, BIV_YZ, TRI_XZ, TRI_YZ)

#: Keys for the three reverse links, each a pairwise test on its own.
REVERSE_KEYS = ("y->x", "z->x", "z->y")


def require_significance(alpha: float) -> float:
    """``alpha`` as a float strictly between 0 and 1, else a ValueError."""
    if not 0.0 < float(alpha) < 1.0:
        raise ValueError(f"significance level must lie strictly in (0, 1), got {alpha!r}")
    return float(alpha)


@dataclass(frozen=True)
class GrangerConfig:
    """Look-back depth, test criterion and significance level for all tests."""

    lags: int = 2
    criterion: Criterion = Criterion.WALD
    significance: float = 0.05

    def __post_init__(self) -> None:
        require_significance(self.significance)
        if self.lags < 1:
            raise ValueError("lags must be >= 1")


def _lag_design(series: tuple[np.ndarray, ...], p: int) -> np.ndarray:
    """[lags 1..p of each series | series[0]] on the window t = p .. n-1:
    the F-ordered [X | b] that ``nested_rss`` factors in place.

    Column i*p + k-1 holds lag k of series[i]; the last column is the
    response, series[0] itself.
    """
    n_obs = series[0].shape[0] - p
    design = np.empty((n_obs, len(series) * p + 1), order="F")
    for i, values in enumerate(series):
        for k in range(1, p + 1):
            design[:, i * p + k - 1] = values[p - k:p - k + n_obs]
    design[:, -1] = series[0][p:]
    return design


def comparison_rss(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                   lags: int) -> list[tuple[float, float, int]]:
    """(rss_restricted, rss_unrestricted, k) of the five forward model pairs,
    in the order of ``FORWARD_KEYS``, via three QR passes.

    The full z-model [z-lags | y-lags | x-lags | z] yields the nested RSS of
    [z] and [z, y] as column prefixes; a second ordering [z-lags | x-lags | z]
    yields [z, x]; the y-model pass [y-lags | x-lags | y] yields [y] and
    [y, x]. Every pair lies on the common window of len(z) - lags
    observations.
    """
    p = lags
    n_obs = z.shape[0] - p  # common window: max lag of the widest model
    if n_obs < 3 * p + 1:
        raise ValueError(f"series too short for lag depth {p}")
    full = _lag_design((z, y, x), p)
    # The two narrower designs are column blocks of the full one, copied
    # out before ``nested_rss`` overwrites it.
    zx = np.empty((n_obs, 2 * p + 1), order="F")
    zx[:, :p], zx[:, p:] = full[:, :p], full[:, 2 * p:]
    yx = np.empty((n_obs, 2 * p + 1), order="F")
    yx[:, :-1], yx[:, -1] = full[:, p:3 * p], y[p:]

    rss_z, rss_zy, rss_zyx = nested_rss(full, (p, 2 * p, 3 * p))
    (rss_zx,) = nested_rss(zx, (2 * p,))
    rss_y, rss_yx = nested_rss(yx, (p, 2 * p))

    return [(rss_y, rss_yx, 2 * p), (rss_z, rss_zx, 2 * p), (rss_z, rss_zy, 2 * p),
            (rss_zy, rss_zyx, 3 * p), (rss_zx, rss_zyx, 3 * p)]


def _pvalues(pairs: Sequence[tuple[float, float, int]], n_obs: int, q: int,
             criteria: Sequence[Criterion]) -> np.ndarray:
    """P-values (criterion, pair) of nested pairs (rss_restricted,
    rss_unrestricted, k) on ``n_obs`` observations with ``q`` restrictions."""
    return np.array([[statistic_from_rss(crit, rss_r, rss_u, n_obs, q, k).p_value
                      for rss_r, rss_u, k in pairs] for crit in criteria])


def _require_equal_lengths(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> None:
    if not x.shape == y.shape == z.shape:
        raise ValueError(f"series lengths differ: {x.size}, {y.size}, {z.size}")


def forward_pvalues(x: np.ndarray, y: np.ndarray, z: np.ndarray, lags: int,
                    criteria: Sequence[Criterion]) -> np.ndarray:
    """P-values (criterion, comparison) of the five forward comparisons, in
    the order of ``FORWARD_KEYS``, from one ``comparison_rss`` pass."""
    _require_equal_lengths(x, y, z)
    return _pvalues(comparison_rss(x, y, z, lags), z.shape[0] - lags, lags, criteria)


def decide_edge_array(pvalues: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The two-step decision rule over arrays: p-values (..., 5) in the order
    of ``FORWARD_KEYS``, significance levels (A,) -> accepted edges
    (..., A, 3) in the order of ``FORWARD_LINKS``.

    The three pairwise edges are accepted below the level; when all three
    are, the x->z and y->z edges are replaced by the verdicts of the two
    conditional tests.
    """
    accepted = pvalues[..., None, :] < alphas[:, None]
    biv = accepted[..., :3]
    trivariate = biv.all(axis=-1, keepdims=True)
    edges = biv.copy()
    edges[..., 1:] = np.where(trivariate, accepted[..., 3:], biv[..., 1:])
    return edges


def reverse_pvalues(x: np.ndarray, y: np.ndarray, z: np.ndarray, lags: int,
                    criteria: Sequence[Criterion]) -> np.ndarray:
    """P-values (criterion, link) of the reverse links, in the order of
    ``REVERSE_KEYS``: do the cause's lags improve the effect's own-lag
    model? One ``nested_rss`` pass on [effect lags | cause lags | effect] per
    link."""
    _require_equal_lengths(x, y, z)
    p = lags
    n_obs = x.size - p
    if n_obs < 2 * p + 1:
        raise InsufficientData(f"{n_obs} observations for {2 * p} coefficients")
    pairs = [(*nested_rss(_lag_design((effect, cause), p), (p, 2 * p)), 2 * p)
             for effect, cause in ((x, y), (x, z), (y, z))]
    return _pvalues(pairs, n_obs, p, criteria)
