"""``regress.nested_rss`` and ``criteria.statistic_from_rss`` against their
first array-and-int forms in ``kernel_reference``: the same RSS values,
p-values and rank-deficiency verdicts, bit for bit."""

import numpy as np
from hypothesis import given, settings, strategies as st

import kernel_reference as reference
from granger_lab.core import TopologyKind
from granger_lab.criteria import Criterion, statistic_from_rss
from granger_lab.datagen import BASELINE_SIGMAS, GeneratorConfig, NoiseKind, generate
from granger_lab.granger import _lag_rows
from granger_lab.regress import RANK_TOL, RankDeficient, nested_rss

NOISE = st.one_of(
    st.just((NoiseKind.FIXED_SIGMA, BASELINE_SIGMAS)),
    st.tuples(st.just(NoiseKind.FIXED_SIGMA), st.tuples(*[st.floats(0.0, 2.0)] * 3)),
    st.tuples(st.just(NoiseKind.INTRINSIC_SNR), st.tuples(*[st.sampled_from([-40.0, 40.0])] * 3)),
    st.just((NoiseKind.EXTRINSIC_SNR, (120.0, 120.0, 120.0))),
)

#: Ways to make two lag blocks collinear: exactly, or up to a perturbation
#: of relative size 10**e (drawn around RANK_TOL = 1e-10).
COLLINEAR = st.one_of(st.none(), st.sampled_from(["y=x", "x=3z", "x=0"]),
                      st.floats(-14.0, -6.0))


def _hex(values):
    return [float(v).hex() for v in values]


def _outcome(kernel, matrix, response, boundaries):
    """Prefix RSS as hex strings, or "rank deficient"."""
    try:
        return _hex(kernel(matrix.copy(), response.copy(), boundaries))
    except RankDeficient:
        return "rank deficient"


def _designs(x, y, z, p):
    """Every (matrix, response, boundaries) that a forward or reverse Granger
    comparison passes to ``nested_rss``."""
    lagged = _lag_rows((z, y, x), p)
    forward = [(lagged.T, z[p:], (p, 2 * p, 3 * p)),
               (np.concatenate((lagged[:p], lagged[2 * p:])).T, z[p:], (2 * p,)),
               (lagged[p:].T, y[p:], (p, 2 * p))]
    reverse = [(_lag_rows((effect, cause), p).T, effect[p:], (p, 2 * p))
               for effect, cause in ((x, y), (x, z), (y, z))]
    return forward + reverse


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([25, 50, 300]),
       topology=st.sampled_from([TopologyKind.DRIVER, TopologyKind.INDIRECT]),
       noise=NOISE, lags=st.integers(1, 3), collinear=COLLINEAR)
def test_nested_rss_and_pvalues_match_the_reference(seed, n, topology, noise, lags, collinear):
    kind, params = noise
    x, y, z = generate(GeneratorConfig(topology=topology, length=n, noise_kind=kind,
                                       sigmas_or_snrs=params), seed)
    if collinear == "y=x":
        y = x.copy()
    elif collinear == "x=3z":
        x = 3.0 * z
    elif collinear == "x=0":
        x = np.zeros_like(x)
    elif collinear is not None:
        y = x + 10.0 ** collinear * np.random.default_rng(seed).standard_normal(n)
    for matrix, response, boundaries in _designs(x, y, z, lags):
        got = _outcome(nested_rss, matrix, response, boundaries)
        assert got == _outcome(reference.nested_rss, matrix, response, boundaries)
        if got == "rank deficient":
            continue
        rss = [float.fromhex(v) for v in got]
        n_obs = response.size
        for crit in Criterion:
            for k_r, k_u in zip(boundaries, boundaries[1:]):
                args = (rss[boundaries.index(k_r)], rss[boundaries.index(k_u)], n_obs, lags, k_u)
                assert (_hex(statistic_from_rss(crit, *args))
                        == _hex(reference.statistic_from_rss(crit, *args)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_obs=st.sampled_from([23, 48, 298]),
       n_params=st.integers(2, 6), spread=st.floats(0.0, 3.0))
def test_rank_verdicts_match_across_the_tolerance_edge(seed, n_obs, n_params, spread):
    # The last column is a combination of the others plus delta * direction;
    # its pivot is then about delta * |direction out of their span|, so a
    # delta aimed at RANK_TOL * (largest column norm) straddles the edge.
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n_obs, n_params)) * 10.0 ** rng.uniform(-spread, spread, n_params)
    base = matrix[:, :-1] @ rng.standard_normal(n_params - 1)
    direction = rng.standard_normal(n_obs)
    response = rng.standard_normal(n_obs)
    delta = 1.0
    for _ in range(3):
        matrix[:, -1] = base + delta * direction
        pivot = abs(np.linalg.qr(matrix, mode="r")[-1, -1])
        delta *= RANK_TOL * np.linalg.norm(matrix, axis=0).max() / pivot
    verdicts = set()
    for step in range(-20, 21):
        matrix[:, -1] = base + delta * (1.0 + step * 1e-7) * direction
        got = _outcome(nested_rss, matrix, response, (n_params - 1, n_params))
        assert got == _outcome(reference.nested_rss, matrix, response, (n_params - 1, n_params))
        verdicts.add(got == "rank deficient")
    assert verdicts == {True, False}


def test_exactly_collinear_designs_are_rank_deficient_in_both():
    col = np.linspace(0.0, 1.0, 30)
    for matrix in (np.column_stack([col, col]), np.column_stack([col, np.zeros(30)]),
                   np.column_stack([col, -2.5 * col, col ** 2])):
        assert _outcome(nested_rss, matrix, col, (1, 2)) == "rank deficient"
        assert _outcome(reference.nested_rss, matrix, col, (1, 2)) == "rank deficient"


@settings(max_examples=400, deadline=None)
@given(crit=st.sampled_from(list(Criterion)),
       rss_u=st.one_of(st.just(0.0), st.floats(1e-300, 1e300)),
       ratio=st.one_of(st.just(1.0), st.floats(0.5, 1e6)),
       q=st.integers(1, 10), extra=st.integers(0, 10), dof=st.integers(1, 10**6))
def test_statistic_from_rss_matches_the_reference(crit, rss_u, ratio, q, extra, dof):
    rss_r = rss_u * ratio if rss_u else ratio - 1.0
    k = q + extra
    args = (rss_r, rss_u, k + dof, q, k)
    assert _hex(statistic_from_rss(crit, *args)) == _hex(reference.statistic_from_rss(crit, *args))
