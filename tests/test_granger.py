import tracemalloc

import numpy as np
import pytest

from granger_lab import granger
from granger_lab.core import Link, TopologyKind, topology_kind
from granger_lab.criteria import Criterion, statistic_from_rss
from granger_lab.datagen import (CHUNK_VALUES, MAX_SAMPLE_VALUES, GeneratorConfig, NoiseKind,
                                 TrivariateSample, chunk_rows, generate, generate_rows,
                                 resolve_sigmas)
from granger_lab.granger import (BIV_XY, BIV_XZ, BIV_YZ, TRI_XZ, TRI_YZ,
                                 FORWARD_KEYS, REVERSE_KEYS,
                                 block_pvalues, decide_edge_array, sample_pvalues)
from granger_lab.regress import RankDeficient
from granger_lab.seeding import derive_seeds, generator_states

import kernel_reference as reference
from decision_reference import decide_edges, edge_set

BASELINE = (0.0, 0.1, 0.5)


def _sample(topology, seed, length=500, sigmas=BASELINE):
    return generate(GeneratorConfig(topology=topology, length=length,
                                    sigmas_or_snrs=sigmas), seed)


def _pvalues(sample, criterion=Criterion.WALD):
    """The five forward p-values of one sample under one criterion."""
    return sample_pvalues(*sample, 2, (criterion,))[0][0]


def _pair_pvalue(cause, effect, third, criterion=Criterion.WALD):
    """The pairwise test cause->effect: the z->y slot of ``sample_pvalues``
    with z := cause and y := effect, scored on the standalone [effect lags |
    cause lags | effect] design."""
    return sample_pvalues(third, effect, cause, 2, (criterion,))[1][0, 2]


def _edges(sample, significance=0.05):
    """The edges the two-step procedure accepts on one sample."""
    return edge_set(decide_edge_array(_pvalues(sample), np.array([significance]))[0])


class TestBivariateTest:
    def test_detects_true_link(self):
        s = _sample(TopologyKind.DRIVER, seed=1)
        assert _pair_pvalue(s.x, s.y, s.z) < 1e-6

    def test_null_calibration(self):
        # independent white-noise pairs reject at roughly the nominal level
        rng = np.random.default_rng(42)
        alpha, n_cases = 0.05, 400
        rejections = 0
        for _ in range(n_cases):
            a, b, c = (rng.normal(size=200) for _ in range(3))
            if _pair_pvalue(a, b, c) < alpha:
                rejections += 1
        rate = rejections / n_cases
        se = (alpha * (1 - alpha) / n_cases) ** 0.5
        assert abs(rate - alpha) < 3 * se + 1e-9

    def test_identical_series_rank_deficient(self):
        s, other = np.random.default_rng(0).normal(size=(2, 100))
        with pytest.raises(RankDeficient):
            _pair_pvalue(s, s, other)

    def test_p_value_matches_kernel(self):
        s = _sample(TopologyKind.INDIRECT, seed=2)
        pvalues = _pvalues(s, Criterion.LR)
        assert _pair_pvalue(s.x, s.y, s.z, Criterion.LR) == pvalues[0]
        rss_r, rss_u, k = reference.forward_rss(*s, 2)[FORWARD_KEYS.index(TRI_YZ)]
        _, via_tri = statistic_from_rss(Criterion.LR, rss_r, rss_u, len(s.x) - 2, 2, k)
        assert via_tri == pvalues[FORWARD_KEYS.index(TRI_YZ)]

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_same_kernel_as_forward_comparisons(self, criterion):
        # [y lags | x lags] is the design of the forward x->y comparison, so
        # the pairwise test must reproduce its p-value bit for bit.
        # Independent series keep the p-values away from 0, where they would
        # agree trivially.
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = TrivariateSample(*(rng.normal(size=300) for _ in range(3)))
            p_value = _pair_pvalue(s.x, s.y, s.z, criterion)
            assert 0.0 < p_value < 1.0
            assert p_value == _pvalues(s, criterion)[FORWARD_KEYS.index(BIV_XY)]

    def test_unequal_lengths_raise(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            _pair_pvalue(rng.normal(size=50), rng.normal(size=49), rng.normal(size=50))

    @pytest.mark.parametrize("length", [1, 6, 8])
    def test_too_short_raises_value_error(self, length):
        # lags=2 leaves length - 2 rows for the full design's 6 coefficients;
        # 7 are needed, so 9 values
        rng = np.random.default_rng(8)
        message = f"^series length {length} is too short for lag depth 2: at least 9 "
        with pytest.raises(ValueError, match=message):
            sample_pvalues(*rng.normal(size=(3, length)), 2, (Criterion.WALD,))

    @pytest.mark.parametrize("lags", [0, -1])
    def test_a_lag_depth_below_one_raises_value_error(self, lags):
        # Refused before any stack is shaped, by the length check both share.
        rng = np.random.default_rng(8)
        x, y, z = rng.normal(size=(3, 50))
        with pytest.raises(ValueError, match="^lags must be >= 1$"):
            sample_pvalues(x, y, z, lags, (Criterion.WALD,))
        with pytest.raises(ValueError, match="^lags must be >= 1$"):
            block_pvalues(x[None], y[None], z[None], lags, (Criterion.WALD,))

    @pytest.mark.parametrize("lags, length, kept", [
        (2, MAX_SAMPLE_VALUES + 2, True), (2, MAX_SAMPLE_VALUES + 3, False),
        (962, 3865, True), (963, 3865, False)])
    def test_a_lag_stack_past_the_longest_samples_is_refused_unbuilt(self, monkeypatch, lags,
                                                                    length, kept):
        # (3 * lags + 2) * (length - lags) values against the 8 * 2^20 of the
        # longest generated sample at lags 2; a kept stack gets to be built.
        class Built(Exception):
            pass

        def built(*args):
            raise Built

        monkeypatch.setattr(granger, "_lag_stack", built)
        row = np.broadcast_to(0.0, (1, length))  # one value, viewed length times
        refusal = (f"^lag depth {lags} is too deep for series length {length}: "
                   f"its lag stack exceeds {8 * MAX_SAMPLE_VALUES} values$")
        with pytest.raises(Built) if kept else pytest.raises(ValueError, match=refusal):
            block_pvalues(row, row, row, lags, (Criterion.WALD,))


def _reference_pvalues(forward_rss, x, y, z, lags):
    """(criterion, comparison) p-values of ``forward_rss``'s model pairs."""
    pairs = forward_rss(x, y, z, lags)
    return np.array([[statistic_from_rss(criterion, rss_r, rss_u, len(x) - lags, lags, k)[1]
                      for rss_r, rss_u, k in pairs] for criterion in Criterion])


class TestShortestSample:
    """n = 4 * lags + 1 leaves the stack 3 * lags + 1 rows for its 3 * lags
    + 2 columns, so its R factor lacks the last row of the response's column."""

    @pytest.mark.parametrize("lags", [1, 2, 3])
    @pytest.mark.parametrize("topology", [TopologyKind.DRIVER, TopologyKind.INDIRECT])
    def test_p_values_match_both_references(self, lags, topology):
        n = 4 * lags + 1
        for seed in range(10):
            x, y, z = _sample(topology, seed, length=n)
            forward, reverse = sample_pvalues(x, y, z, lags, tuple(Criterion))
            assert forward.tobytes() == _reference_pvalues(
                reference.forward_rss, x, y, z, lags).tobytes()
            backward = _reference_pvalues(reference.forward_rss, z, y, x, lags)[:, 2::-1]
            assert reverse.tobytes() == backward.tobytes()
            # The three full-length passes each sample had before.
            for got, sample in ((forward, (x, y, z)), (reverse[:, ::-1], (z, y, x))):
                expected = _reference_pvalues(reference.forward_rss_three_pass, *sample, lags)
                np.testing.assert_allclose(got, expected[:, :got.shape[1]], rtol=1e-12, atol=0)

    def test_a_monte_carlo_block_runs(self):
        # A chunk of 40 samples of 9 values, scored as one block, row by row
        # as each sample alone.
        xs, ys, zs = _rows(GeneratorConfig(topology=TopologyKind.DRIVER, length=9), 40, 8)
        pvalues, deficient = block_pvalues(xs, ys, zs, 2, tuple(Criterion))
        assert deficient.sum() == 0 and pvalues.shape == (40, len(Criterion), 5)
        for row, sample in zip(pvalues, zip(xs, ys, zs)):
            assert row.tobytes() == sample_pvalues(*sample, 2, tuple(Criterion))[0].tobytes()


class TestReverseLinkDecisions:
    @pytest.mark.parametrize("snr_db", [40.0, 80.0, 120.0])
    def test_p_values_match_ols_reference(self, snr_db):
        # At 120 dB the y->x and z->y designs have condition number ~2e6 and
        # the two fits differ by up to ~2e-9 relative in the p-value (against
        # a 50-digit reference the kernel errs ~1e-9, ols_fit ~1e-10).
        for seed in range(3):
            s = generate(GeneratorConfig(topology=TopologyKind.INDIRECT, length=300,
                                         noise_kind=NoiseKind.INTRINSIC_SNR,
                                         sigmas_or_snrs=(snr_db,) * 3), seed)
            _, pvalues = sample_pvalues(*s, 2, tuple(Criterion))
            assert pvalues.shape == (len(Criterion), len(REVERSE_KEYS))
            for criterion, row in zip(Criterion, pvalues):
                for link, p_value in zip(REVERSE_KEYS, row):
                    cause, effect = (getattr(s, name) for name in link.split("->"))
                    design = np.column_stack([v[2 - k:300 - k]
                                              for v in (effect, cause) for k in (1, 2)])
                    rss_r = reference.ols_fit(design[:, :2], effect[2:]).rss
                    rss_u = reference.ols_fit(design, effect[2:]).rss
                    _, ref = statistic_from_rss(criterion, rss_r, rss_u, 298, 2, 4)
                    assert p_value == pytest.approx(ref, rel=1e-8)


class TestComparisonRss:
    def test_nesting_and_counts(self, monkeypatch):
        # The RSS of one sample's three passes, as ``block_pvalues`` gets them:
        # the block's two stacks (the sample's, then the reversed sample's),
        # then each sample's two passes on its R factor.
        s = _sample(TopologyKind.DRIVER, seed=3)
        kernel, passes = granger.nested_rss, []

        def recording(augmented, boundaries):
            rss = kernel(augmented, boundaries)
            passes.append((tuple(boundaries), rss))
            return rss

        monkeypatch.setattr(granger, "nested_rss", recording)
        pvalues, _ = sample_pvalues(*s, 2, tuple(Criterion))
        assert [b for b, _ in passes] == [(2, 4, 6)] * 2 + [(4,), (2, 4)] * 2
        (rss_z, rss_zy, rss_zyx), (rss_zx,), (rss_y, rss_yx) = [passes[i][1] for i in (0, 2, 3)]
        assert rss_z >= rss_zy >= rss_zyx >= 0.0 and rss_z >= rss_zx >= rss_zyx
        assert rss_y >= rss_yx >= 0.0
        # The z-models are shared: [z] restricts both pairwise z tests, [z, y]
        # and [z, x] are the conditional tests' restricted models, and
        # [z, y, x] is their common unrestricted model.
        pairs = {BIV_XY: (rss_y, rss_yx, 4), BIV_XZ: (rss_z, rss_zx, 4),
                 BIV_YZ: (rss_z, rss_zy, 4), TRI_XZ: (rss_zy, rss_zyx, 6),
                 TRI_YZ: (rss_zx, rss_zyx, 6)}
        for row, criterion in zip(pvalues, Criterion, strict=True):
            assert row.tolist() == [
                statistic_from_rss(criterion, rss_r, rss_u, len(s.x) - 2, 2, k)[1]
                for rss_r, rss_u, k in map(pairs.get, FORWARD_KEYS)]


def _decided(pvalues, significance):
    """``decide_edge_array`` on one sample's named p-values at one level."""
    row = np.array([pvalues[key] for key in FORWARD_KEYS])
    [flags] = decide_edge_array(row, np.array([significance]))
    return edge_set(flags)


class TestForwardPvalues:
    @pytest.mark.parametrize("topology", [TopologyKind.DRIVER, TopologyKind.INDIRECT])
    def test_rows_follow_criteria_and_columns_follow_forward_keys(self, topology):
        s = _sample(topology, seed=7, length=60)
        criteria = tuple(Criterion)
        pvalues, _ = sample_pvalues(*s, 2, criteria)
        assert pvalues.shape == (len(criteria), len(FORWARD_KEYS))
        pairs = reference.forward_rss(*s, 2)
        assert len(pairs) == len(FORWARD_KEYS)
        for row, criterion in zip(pvalues, criteria):
            for p_value, (rss_r, rss_u, k) in zip(row, pairs):
                assert p_value == statistic_from_rss(
                    criterion, rss_r, rss_u, len(s.x) - 2, 2, k)[1]

    def test_rank_deficient_sample_raises(self):
        x = np.random.default_rng(3).normal(size=100)
        with pytest.raises(RankDeficient):
            sample_pvalues(x, x, np.roll(x, 1), 2, (Criterion.WALD,))

    @pytest.mark.parametrize("lengths", [(250, 200, 200), (200, 250, 200), (200, 200, 150)],
                             ids=["x-longer", "y-longer", "z-shorter"])
    def test_unequal_lengths_raise_before_fitting(self, monkeypatch, lengths):
        def no_fit(*args):
            raise AssertionError("an RSS was computed")

        monkeypatch.setattr(granger, "nested_rss", no_fit)
        rng = np.random.default_rng(12)
        series = [rng.normal(size=n) for n in lengths]
        message = "^series lengths differ: {}, {}, {}$".format(*lengths)
        with pytest.raises(ValueError, match=message):
            sample_pvalues(*series, 2, (Criterion.WALD,))


def _rows(config, rows, seed):
    """The first ``rows`` samples of stream (seed,), as (rows, n) x, y, z."""
    states = generator_states(derive_seeds([((seed,), 0, rows)]))
    return generate_rows(config, np.array([resolve_sigmas(config)]), states)


class TestBlockPvalues:
    @pytest.mark.parametrize("chunk", [11, 4])
    @pytest.mark.parametrize("block", [1, 2, 3, 4, 11])
    def test_a_row_scores_alike_alone_and_in_any_block(self, monkeypatch, chunk, block):
        # Row 5 (y = x) is rank deficient: all NaN, counted once, and its
        # neighbours' p-values are those they have alone, bit for bit, in
        # chunks of ``chunk`` rows cut into design blocks of ``block``.
        xs, ys, zs = _rows(GeneratorConfig(topology=TopologyKind.INDIRECT, length=50), 11, 5)
        ys[5] = xs[5]
        criteria = tuple(Criterion)
        alone = []
        for row in range(11):
            if row == 5:
                with pytest.raises(RankDeficient):
                    sample_pvalues(xs[row], ys[row], zs[row], 2, criteria)
                continue
            alone.append(sample_pvalues(xs[row], ys[row], zs[row], 2, criteria)[0])
        monkeypatch.setattr(granger, "CHUNK_VALUES", block * (3 * 2 + 2) * 48)  # 3p + 2 columns
        got = [block_pvalues(xs[a:a + chunk], ys[a:a + chunk], zs[a:a + chunk], 2, criteria)
               for a in range(0, 11, chunk)]
        assert sum(deficient.sum() for _, deficient in got) == 1
        pvalues = np.concatenate([p for p, _ in got])
        assert pvalues.shape == (11, len(criteria), len(FORWARD_KEYS))
        assert np.isnan(pvalues[5]).all()
        assert np.delete(pvalues, 5, axis=0).tobytes() == np.stack(alone).tobytes()

    def test_a_rank_deficient_row_makes_three_passes_and_is_not_scored(self, monkeypatch):
        # Row 1 (y = x) of a three-row block goes through the same three
        # ``nested_rss`` passes as its neighbours but is never scored; each
        # neighbour makes the calls, and gets the p-values, it has alone.
        xs, ys, zs = _rows(GeneratorConfig(topology=TopologyKind.DRIVER, length=50), 3, 6)
        ys[1] = xs[1]
        criteria = tuple(Criterion)
        calls = {}

        def counting(name, kernel):
            def counted(*args):
                calls[name] += 1
                return kernel(*args)
            return counted

        for name in ("nested_rss", "statistic_from_rss"):
            monkeypatch.setattr(granger, name, counting(name, getattr(granger, name)))

        def scored(rows):
            calls.update(nested_rss=0, statistic_from_rss=0)
            got = block_pvalues(xs[rows], ys[rows], zs[rows], 2, criteria)
            return got, dict(calls)

        (pvalues, deficient), block = scored([0, 1, 2])
        assert deficient.tolist() == [False, True, False] and np.isnan(pvalues[1]).all()
        (_, alone_deficient), alone = scored([1])
        assert alone_deficient.tolist() == [True]
        assert alone == {"nested_rss": 3, "statistic_from_rss": 0}
        for row in (0, 2):
            (neighbour, _), own = scored([row])
            assert own == {"nested_rss": 3, "statistic_from_rss": 5 * len(criteria)}
            assert neighbour[0].tobytes() == pvalues[row].tobytes()
        assert block == {"nested_rss": 9, "statistic_from_rss": 10 * len(criteria)}

    def test_a_block_holds_at_most_chunk_values(self):
        # An 81-row chunk at n=300 is cut into stack blocks of 13 rows of 8
        # columns of 298 values; the stacks of all 81 rows at once would take
        # 1.5 MB. The bound is one such block plus 28,000 bytes beside it.
        config = GeneratorConfig(topology=TopologyKind.DRIVER, length=300)
        assert chunk_rows(config) == 81
        xs, ys, zs = _rows(config, 81, 3)
        tracemalloc.start()
        try:
            pvalues, deficient = block_pvalues(xs, ys, zs, 2, (Criterion.WALD,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pvalues.shape == (81, 1, len(FORWARD_KEYS)) and deficient.sum() == 0
        stack = 298 * (3 * 2 + 2)  # one row's stack: n - p values of 3p + 2 columns
        block = stack * (CHUNK_VALUES // stack)
        assert block == 13 * stack <= CHUNK_VALUES
        assert peak < 8 * block + 28_000  # the stack block, plus small arrays


class TestDecideEdges:
    ALL_LOW = {BIV_XY: 0.0, BIV_XZ: 0.0, BIV_YZ: 0.0, TRI_XZ: 0.0, TRI_YZ: 0.0}

    def test_incomplete_scan_skips_trivariate(self):
        p = dict(self.ALL_LOW, **{BIV_YZ: 0.9, TRI_XZ: 0.9})
        # scan found only {XY, XZ}; trivariate p-values must be ignored
        assert _decided(p, 0.05) == frozenset({Link.XY, Link.XZ})

    def test_complete_scan_replaces_z_edges(self):
        p = dict(self.ALL_LOW, **{TRI_YZ: 0.9})
        assert _decided(p, 0.05) == frozenset({Link.XY, Link.XZ})
        p = dict(self.ALL_LOW, **{TRI_XZ: 0.9})
        assert _decided(p, 0.05) == frozenset({Link.XY, Link.YZ})
        assert _decided(self.ALL_LOW, 0.05) == frozenset(
            {Link.XY, Link.XZ, Link.YZ})

    def test_significance_monotone(self):
        # the bivariate edge set can only grow as significance grows
        rng = np.random.default_rng(5)
        pvalues = rng.uniform(size=(200, 5))
        edges = decide_edge_array(pvalues, np.array([0.01, 0.5]))
        for p, (lo, hi) in zip(pvalues, edges):
            biv_lo, biv_hi = p[:3] < 0.01, p[:3] < 0.5
            assert (biv_lo <= biv_hi).all()
            named = dict(zip(FORWARD_KEYS, p))
            assert edge_set(lo) == _decided(named, 0.01)  # row-independent
            assert edge_set(hi) == _decided(named, 0.5)


class TestDecideEdgeArray:
    ALPHAS = np.array([0.01, 0.05, 0.2, 0.5])

    def test_matches_decide_edges_on_every_pattern(self):
        # Every accept/reject pattern of the five tests, with the accepted
        # p-values either below every level or equal to 0.05 (a tie rejects).
        patterns = [tuple(low if bits >> j & 1 else 0.7 for j in range(5))
                    for low in (0.001, 0.05) for bits in range(32)]
        pvalues = np.array(patterns)
        edges = decide_edge_array(pvalues, self.ALPHAS)
        assert edges.shape == (len(patterns), len(self.ALPHAS), 3)
        for row, pattern in zip(edges, patterns):
            named = dict(zip(FORWARD_KEYS, pattern))
            for flags, alpha in zip(row, self.ALPHAS):
                expected = decide_edges(named, float(alpha))
                assert edge_set(flags) == expected

    def test_leading_axes_are_kept(self):
        pvalues = np.random.default_rng(1).uniform(size=(4, 3, 5))
        assert decide_edge_array(pvalues, self.ALPHAS).shape == (4, 3, 4, 3)


class TestFullProcedure:
    """The two-step procedure as ``analyze`` and the Monte Carlo loop run it:
    ``sample_pvalues`` followed by ``decide_edge_array``."""

    def test_driver_scan_is_complete(self):
        # with baseline noise the pairwise scan accepts all three forward
        # links for both causal topologies (the indirect chain transmits
        # x into z, and the driver makes y a proxy for x)
        for topology in (TopologyKind.DRIVER, TopologyKind.INDIRECT):
            s = _sample(topology, seed=6)
            assert (_pvalues(s)[:3] < 0.05).all()

    def test_trivariate_removes_spurious_driver_link(self):
        # driver truth: conditioning on x should reject y->z most of the time
        removed = 0
        n_cases = 60
        for i in range(n_cases):
            s = _sample(TopologyKind.DRIVER, seed=1000 + i)
            if _pvalues(s)[FORWARD_KEYS.index(TRI_YZ)] >= 0.05:
                removed += 1
        assert removed / n_cases >= 0.9

    def test_infer_topology_recovers_truth(self):
        hits = {TopologyKind.DRIVER: 0, TopologyKind.INDIRECT: 0}
        n_cases = 40
        for topology in hits:
            for i in range(n_cases):
                s = _sample(topology, seed=2000 + i)
                if topology_kind(_edges(s)) is topology:
                    hits[topology] += 1
        assert hits[TopologyKind.DRIVER] / n_cases >= 0.85
        assert hits[TopologyKind.INDIRECT] / n_cases >= 0.85

    def test_null_sample_mostly_classified_null(self):
        hits = 0
        n_cases = 40
        rng = np.random.default_rng(9)
        for _ in range(n_cases):
            s = TrivariateSample(*(rng.normal(size=300) for _ in range(3)))
            if topology_kind(_edges(s)) is TopologyKind.NULL:
                hits += 1
        assert hits / n_cases >= 0.7  # 1 - alpha per link, three links

    def test_two_step_consistency(self):
        # the procedure agrees with composing the pairwise scan and the
        # conditional tests by hand
        for seed in range(20):
            s = _sample(TopologyKind.INDIRECT, seed=3000 + seed)
            p = dict(zip(FORWARD_KEYS, _pvalues(s)))
            scan = {link for link, key in ((Link.XY, BIV_XY), (Link.XZ, BIV_XZ),
                                           (Link.YZ, BIV_YZ)) if p[key] < 0.05}
            if len(scan) < 3:
                assert _edges(s) == scan
            else:
                edges = {Link.XY}
                if p[TRI_XZ] < 0.05:
                    edges.add(Link.XZ)
                if p[TRI_YZ] < 0.05:
                    edges.add(Link.YZ)
                assert _edges(s) == edges

    def test_reverse_links_rarely_accepted(self):
        accepted = 0
        n_cases = 30
        for i in range(n_cases):
            s = _sample(TopologyKind.DRIVER, seed=4000 + i)
            accepted += (sample_pvalues(*s, 2, (Criterion.WALD,))[1] < 0.05).sum()
        # y->x and z->x are non-causal; z->y likewise; expect near-alpha rates
        assert accepted / (3 * n_cases) < 0.2

