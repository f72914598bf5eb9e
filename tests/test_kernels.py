"""``granger.nested_rss`` and ``criteria.statistic_from_rss`` against their
first array-and-int forms in ``kernel_reference``: the same RSS values,
p-values and rank-deficiency verdicts, bit for bit. The in-place kernel
factors a copy of the [X | b] that the reference reads as X and b, and
``granger.rank_deficient`` judges the pivots it leaves against the largest
column norm of the columns its largest prefix was built from; the scalar
tails in ``criteria`` match the ``scipy.special`` ufuncs bit
for bit. The one-QR reference agrees with the three-pass one to rounding."""

import math

import numpy as np
import scipy.special as ufuncs
from hypothesis import given, settings, strategies as st

import kernel_reference as reference
from granger_lab.core import TopologyKind
from granger_lab import criteria, granger
from granger_lab.criteria import Criterion, statistic_from_rss, two_proportion_z
from granger_lab.datagen import (BASELINE_SIGMAS, GeneratorConfig, NoiseKind, generate,
                                 resolve_sigmas)
from granger_lab.experiments import _count_run
from granger_lab.granger import RANK_TOL, RankDeficient, nested_rss, rank_deficient
from granger_lab.seeding import derive_seeds

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


def _augmented(matrix, response):
    """[matrix | response] as the F-ordered array ``nested_rss`` factors in place."""
    return np.column_stack((matrix, response)).copy(order="F")


def _outcome(kernel, *args):
    """Prefix RSS as hex strings, or "rank deficient"."""
    try:
        return _hex(kernel(*args))
    except RankDeficient:
        return "rank deficient"


def _kernel_outcome(augmented, boundaries, norm):
    """``_outcome`` of the product's path on an F-ordered [X | b], which it
    overwrites: ``nested_rss``, then the rank rule on the pivots of the
    largest prefix, each against ``norm``."""
    rss, k_max = nested_rss(augmented, boundaries), boundaries[-1]
    if rank_deficient(augmented.diagonal()[None, :k_max], np.full((1, k_max), norm))[0]:
        return "rank deficient"
    return _hex(rss)


def _norm(columns):
    """The largest column norm of ``columns``, as the block's stack gives it."""
    columns = np.asfortranarray(columns)
    return math.sqrt(max(np.einsum("ij,ij->j", columns, columns).tolist()))


def _outcomes(augmented, boundaries, norm_columns=None):
    """(kernel, reference) outcomes on one [X | b]: the kernel overwrites a
    copy, the reference reads X and b from the original. The rank check's
    norm is that of X's largest prefix, or of ``norm_columns``."""
    if norm_columns is None:
        norm_columns = augmented[:, :boundaries[-1]]
    return (_kernel_outcome(augmented.copy(order="F"), boundaries, _norm(norm_columns)),
            _outcome(reference.nested_rss, augmented[:, :-1], augmented[:, -1], boundaries,
                     norm_columns))


def _designs(x, y, z, p):
    """F-ordered ([X | b], boundaries, norm columns) for the kernel checks:
    the three passes a sample makes (its stack, then the upper triangle of
    its R factor's [z-lags | x-lags | z] and [y-lags | x-lags | y]
    columns, which take their norms from the stack), then the pairwise
    [effect lags | cause lags | effect] of each reverse link."""
    stack = reference.lag_stack(x, y, z, p)
    r = reference.r_factor(stack)
    passes = [(stack.copy(order="F"), (p, 2 * p, 3 * p), stack[:, :3 * p])]
    passes += [(r[:, columns].copy(order="F"), boundaries, stack[:, columns[:-1]])
               for columns, boundaries in zip(reference.subset_columns(p), ((2 * p,), (p, 2 * p)))]
    pairs = [(x, y), (x, z), (y, z)]
    return passes + [(design.copy(order="F"), (p, 2 * p), design[:, :-1])
                     for design in (reference.lag_design(pair, p) for pair in pairs)]


def _block_order(samples, rows):
    """The passes of ``samples`` in the order ``block_pvalues`` makes them
    on blocks of ``rows``: each sample's stack, then each one's two R passes."""
    order = []
    for a in range(0, len(samples), rows):
        designs = [_designs(*sample, 2)[:3] for sample in samples[a:a + rows]]
        order += [d[0] for d in designs] + [pass_ for d in designs for pass_ in d[1:]]
    return order


def _assert_passes(passed, judged, expected):
    """The recorded passes are the expected designs in order, and each
    block's rank rule saw, for each of its samples, the pivots of the
    largest prefix its three passes left (the stack, then R's two subsets),
    each against the largest column norm of the columns that pass was built
    from."""
    assert [b for _, b, _ in passed] == [b for _, b, _ in expected]
    for (got, _, _), (design, _, _) in zip(passed, expected, strict=True):
        np.testing.assert_array_equal(got, design)
    done = 0
    for pivots, norms in judged:
        rows = len(pivots)
        for row in range(rows):
            own = [done + row, done + rows + 2 * row, done + rows + 2 * row + 1]
            np.testing.assert_array_equal(pivots[row],
                                          np.concatenate([passed[i][2] for i in own]))
            assert norms[row].tolist() == [_norm(expected[i][2])
                                           for i in own for _ in range(expected[i][1][-1])]
        done += 3 * rows
    assert done == len(passed)


def test_designs_are_what_the_granger_passes_factor(monkeypatch):
    # The frozen-kernel checks below run on ``_designs``; the passes of
    # ``analyze`` and of the Monte Carlo loop must hand ``nested_rss`` the
    # same F-ordered arrays, and the rank rule the pivots each leaves with
    # its largest column norm.
    gen = GeneratorConfig(topology=TopologyKind.DRIVER, length=40)
    x, y, z = generate(gen, 3)
    passed, judged = [], []

    def recording(augmented, boundaries):
        assert augmented.flags.f_contiguous and augmented.dtype == np.float64
        design = augmented.copy()
        rss = nested_rss(augmented, boundaries)
        passed.append((design, tuple(boundaries), augmented.diagonal()[:boundaries[-1]].copy()))
        return rss

    def judging(pivots, norms):
        judged.append((pivots.copy(), norms.copy()))
        return rank_deficient(pivots, norms)

    monkeypatch.setattr(granger, "nested_rss", recording)
    monkeypatch.setattr(granger, "rank_deficient", judging)
    granger.sample_pvalues(x, y, z, 2, (Criterion.WALD,))
    # The reverse links come from the passes of (z, y, x), in the same block.
    _assert_passes(passed, judged, _block_order([(x, y, z), (z, y, x)], 2))
    # Five samples in stack blocks of two rows, so the loop crosses block edges.
    passed.clear()
    judged.clear()
    monkeypatch.setattr(granger, "CHUNK_VALUES", 2 * 8 * 38)
    [(_, deficient)] = _count_run([((gen, resolve_sigmas(gen), ()), 0, 5)],
                                  (Criterion.WALD,), (0.05,), 9)
    assert deficient == 0
    samples = [generate(gen, int(seed)) for seed in derive_seeds([((9,), 0, 5)])]
    _assert_passes(passed, judged, _block_order(samples, 2))


def _assert_references_agree(x, y, z, lags):
    """The one-QR reference and the three-pass one give the same verdict
    and RSS values that differ by at most 1e-13 * kappa(X) * ||b|| * ||r||,
    the scale of the rounding a least-squares residual carries (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 20.1).
    On a well conditioned fit that is not nearly exact, kappa and ||b|| /
    ||r|| are a few units, so the bound is about 1e-12 of the RSS; near-exact
    fits at high SNR and nearly collinear lags widen it."""
    outcomes = []
    for forward_rss in (reference.forward_rss, reference.forward_rss_three_pass):
        try:
            outcomes.append(forward_rss(x, y, z, lags))
        except RankDeficient:
            outcomes.append(None)
    one_qr, three_pass = outcomes
    assert (one_qr is None) == (three_pass is None)
    if one_qr is None:
        return
    kappa = np.linalg.cond(reference.lag_stack(x, y, z, lags)[:, :3 * lags])
    responses = [math.sqrt(float(v[lags:] @ v[lags:])) for v in (y, z, z, z, z)]
    for a, b, norm in zip(one_qr, three_pass, responses, strict=True):
        for rss_a, rss_b in zip(a[:2], b[:2]):
            assert abs(rss_a - rss_b) <= 1e-13 * kappa * norm * math.sqrt(rss_b)


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
    n_obs = n - lags
    for augmented, boundaries, norm_columns in _designs(x, y, z, lags):
        got, expected = _outcomes(augmented, boundaries, norm_columns)
        assert got == expected
        if got == "rank deficient":
            continue
        rss = [float.fromhex(v) for v in got]
        for crit in Criterion:
            for k_r, k_u in zip(boundaries, boundaries[1:]):
                args = (rss[boundaries.index(k_r)], rss[boundaries.index(k_u)], n_obs, lags, k_u)
                assert (_hex(statistic_from_rss(crit, *args))
                        == _hex(reference.statistic_from_rss(crit, *args)))
    _assert_references_agree(x, y, z, lags)


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
        got, expected = _outcomes(_augmented(matrix, response), (n_params - 1, n_params))
        assert got == expected
        verdicts.add(got == "rank deficient")
    assert verdicts == {True, False}


def test_exactly_collinear_designs_are_rank_deficient_in_both():
    col = np.linspace(0.0, 1.0, 30)
    for matrix in (np.column_stack([col, col]), np.column_stack([col, np.zeros(30)]),
                   np.column_stack([col, -2.5 * col, col ** 2])):
        got, expected = _outcomes(_augmented(matrix, col), (1, 2))
        assert got == "rank deficient"
        assert expected == "rank deficient"


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


#: Statistics at the edges of the double range and of each tail's domain,
#: with ordinary values between them.
EDGE_STATISTICS = [0.0, -0.0, 5e-324, 1e-300, 1e300, np.inf, np.nan,
                   *np.geomspace(1e-12, 1e4, 49).tolist(), 0.5, 1.0, 2.0, 3.0, 5.991, 9.21]
#: ``statistic_from_rss`` calls the kernels without ``reference.chi2_sf``'s
#: sign check, so they are checked on negative statistics too.
SIGNED_STATISTICS = [-np.inf, -1.0, *EDGE_STATISTICS]
RESTRICTIONS = (1, 2, 3, 4, 8)
RESIDUAL_DOF = (1, 2, 5, 17, 44, 291, 2993, 29993, 1048000)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def test_chi2_tails_match_the_ufunc_bit_for_bit():
    for q in RESTRICTIONS:
        expected = ufuncs.chdtrc(float(q), np.array(EDGE_STATISTICS))
        assert _bits([reference.chi2_sf(stat, q) for stat in EDGE_STATISTICS]) == _bits(expected)
        assert (_bits([criteria.chdtrc(q, stat) for stat in SIGNED_STATISTICS])
                == _bits(ufuncs.chdtrc(float(q), np.array(SIGNED_STATISTICS))))


def test_f_tails_match_the_ufunc_bit_for_bit():
    for q in RESTRICTIONS:
        for dof in RESIDUAL_DOF:
            assert (_bits([criteria.fdtrc(q, dof, stat) for stat in SIGNED_STATISTICS])
                    == _bits(ufuncs.fdtrc(float(q), float(dof), np.array(SIGNED_STATISTICS))))


def test_normal_tail_matches_the_ufunc_bit_for_bit():
    points = [0.0, -0.0, 40.0, -40.0, np.inf, -np.inf, np.nan,
              *np.linspace(-45.0, 45.0, 181).tolist()]
    assert _bits([criteria.ndtr(v) for v in points]) == _bits(ufuncs.ndtr(np.array(points)))
    for n_a, n_b in ((1, 1), (7, 30), (500, 500), (10**6, 10**6), (10**15, 10**15)):
        for rate_a in (0.0, 0.001, 0.05, 0.5, 0.999, 1.0):
            for rate_b in (0.0, 0.01, 0.06, 0.5, 1.0):
                z, p = two_proportion_z(rate_a, n_a, rate_b, n_b)
                assert _bits([p]) == _bits([2.0 * float(ufuncs.ndtr(-abs(z)))])
