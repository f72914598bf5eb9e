import fcntl
import json
import os
import pickle
import re
import signal
import time
import tracemalloc
from contextlib import closing
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from granger_lab import cli, datagen, experiments, granger
from granger_lab.core import FORWARD_LINKS, Link, TopologyKind
from granger_lab.criteria import Criterion, statistic_from_rss
from granger_lab.datagen import (GenerationError, GeneratorConfig, NoiseKind, axis_sigmas,
                                 generate, resolve_sigmas)
from granger_lab.experiments import (PHASE_RATES, SNR_KEYS, DegenerateConfiguration,
                                     estimate_rates, extract_plane, phase_rows, snr_grid,
                                     sweep_sample_size, sweep_significance)
from granger_lab.granger import FORWARD_KEYS
from granger_lab.seeding import derive_seeds, generator_states

import kernel_reference as reference
from decision_reference import decide_edges


def _gen(topology=TopologyKind.DRIVER, length=100, **kwargs):
    return GeneratorConfig(topology=topology, length=length, **kwargs)


def _seed(master_seed, *key_and_index):
    """The generator seed of one iteration: stream (master_seed, *key), index last."""
    *key, i = key_and_index
    [seed] = derive_seeds([((master_seed, *key), i, i + 1)])
    return int(seed)


class TestSeeding:
    def test_derive_seed_deterministic_and_distinct(self):
        assert _seed(1, 2, 3) == _seed(1, 2, 3)
        seeds = derive_seeds([((1, k), 0, 50) for k in range(5)])
        assert len(set(seeds.tolist())) == 250
        assert _seed(1, 2, 3) != _seed(1, 3, 2)


class TestEstimateRates:
    def test_single_iteration_rates_are_binary(self):
        est = estimate_rates(_gen(), iterations=1, master_seed=0)
        assert est.spurious_rate in (0.0, 1.0)
        assert est.unidentified_rate in (0.0, 1.0)
        assert est.iterations == 1

    def test_rates_are_counts_over_iterations(self):
        est = estimate_rates(_gen(), iterations=40, master_seed=7)
        for rate in (est.spurious_rate, est.unidentified_rate,
                     *est.per_link_rates.values()):
            assert 0.0 <= rate <= 1.0
            assert round(rate * est.iterations) == pytest.approx(
                rate * est.iterations, abs=1e-9)

    def test_worker_partition_independence(self):
        kwargs = dict(iterations=30, master_seed=11)
        a = estimate_rates(_gen(), workers=1, **kwargs)
        b = estimate_rates(_gen(), workers=3, **kwargs)
        assert a == b

    def test_matches_manual_per_iteration_count(self):
        gen = _gen(length=80)
        iters, seed = 25, 13
        spurious = 0
        for i in range(iters):
            sample = generate(gen, _seed(seed, i))
            edges = decide_edges(_scalar_pvalues(sample, Criterion.WALD), 0.05)
            spurious += Link.YZ in edges  # driver truth: y->z is spurious
        est = estimate_rates(gen, iterations=iters, master_seed=seed)  # Wald at 0.05 by default
        assert est.spurious_rate == pytest.approx(spurious / iters)

    def test_null_snr_floor_calibration(self):
        # with heavy observer noise on all three channels the observed
        # series are effectively independent and the per-link acceptance
        # rates sit near the significance level
        gen = _gen(length=300, noise_kind=NoiseKind.EXTRINSIC_SNR,
                   sigmas_or_snrs=(-40.0, -40.0, -40.0))
        est = estimate_rates(gen, alpha=0.05, iterations=400, master_seed=21)
        se = est.standard_error(0.05)
        for rate in est.per_link_rates.values():
            assert abs(rate - 0.05) < 3 * se + 1e-9

    def test_degenerate_configuration_raises(self):
        # exact zero noise with no autoregression makes y a deterministic
        # copy of lagged x, so the trivariate design is always collinear
        gen = _gen(length=100, ar_coefficient=0.0, sigmas_or_snrs=(0.0, 0.0, 0.0))
        with pytest.raises(DegenerateConfiguration):
            estimate_rates(gen, iterations=10, master_seed=1)

    def test_rejects_nonpositive_iterations(self):
        with pytest.raises(ValueError):
            estimate_rates(_gen(), iterations=0, master_seed=0)

    def test_integer_text_runs_as_its_integer(self):
        # The checked count, not the argument, reaches the scheduler.
        def run(count, workers):
            return [estimate_rates(_gen(), iterations=count, master_seed=2,
                                   workers=workers),
                    sweep_significance(TopologyKind.DRIVER, (0.05,), n_points=40,
                                       iterations=count, seed=2, workers=workers),
                    sweep_sample_size(TopologyKind.DRIVER, 0.05, (40,), cases=count, seed=2,
                                      workers=workers),
                    list(phase_rows(NoiseKind.INTRINSIC_SNR, TopologyKind.DRIVER, 40, 0.05,
                                    iterations=count, grids=((0.0,),) * 3, workers=workers))]

        assert run("4", "1") == run(4, 1)


class TestEstimateFromCounts:
    """Accepted-edge counts become rates against the true topology."""

    @pytest.mark.parametrize("topology, spurious, unidentified", [
        (TopologyKind.DRIVER, 0.5, 0.7), (TopologyKind.INDIRECT, 0.3, 0.5)])
    def test_key_links_follow_the_truth(self, topology, spurious, unidentified):
        # x->y, x->z, y->z accepted 7, 3 and 5 times in 10 iterations
        est = experiments._estimate_from_counts(np.array([7, 3, 5]), topology, 10, 0)
        assert (est.spurious_rate, est.unidentified_rate) == (spurious, unidentified)
        assert est.per_link_rates == {"x->y": 0.7, "x->z": 0.3, "y->z": 0.5}
        assert (est.iterations, est.rank_deficient) == (10, 0)

    @pytest.mark.parametrize("topology", [TopologyKind.DRIVER, TopologyKind.INDIRECT])
    def test_rank_deficient_iterations_leave_the_denominator(self, topology):
        # 2 of 300 iterations were skipped: every rate is over the 298 kept
        edges = np.array([298, 101, 37])
        est = experiments._estimate_from_counts(edges, topology, 300, 2)
        assert (est.iterations, est.rank_deficient) == (298, 2)
        absent, present = (37, 101) if topology is TopologyKind.DRIVER else (101, 37)
        assert est.spurious_rate == absent / 298
        assert est.unidentified_rate == (298 - present) / 298
        assert list(est.per_link_rates.values()) == (edges / 298).tolist()

    @pytest.mark.parametrize("iterations, rank_deficient", [(300, 4), (1, 1)])
    def test_too_many_rank_deficient_iterations_raise(self, iterations, rank_deficient):
        with pytest.raises(DegenerateConfiguration,
                           match=f"^{rank_deficient}/{iterations} iterations"):
            experiments._estimate_from_counts(np.zeros(3, dtype=np.int64),
                                              TopologyKind.DRIVER, iterations,
                                              rank_deficient)


class TestCutRuns:
    @given(cells=st.integers(0, 6), iterations=st.integers(1, 12), size=st.integers(1, 40))
    def test_every_iteration_once_in_runs_of_size(self, cells, iterations, size):
        runs = list(experiments._cut_runs(list(range(cells)), iterations, size))
        assert [(c, i) for run in runs for c, a, b in run for i in range(a, b)] == [
            (c, i) for c in range(cells) for i in range(iterations)]
        lengths = [sum(b - a for _, a, b in run) for run in runs]
        assert all(n == size for n in lengths[:-1]) and all(0 < n <= size for n in lengths)
        for run in runs:
            assert len({c for c, _, _ in run}) == len(run)

    def test_no_cells_no_runs(self):
        assert list(experiments._cut_runs([], 5, 0)) == []

    def test_runs_are_cut_as_they_are_read(self):
        # 2 * 10**9 runs in all: the first one comes without the others.
        runs = experiments._cut_runs(["a", "b"], 10**12, 1000)
        assert next(runs) == [("a", 0, 1000)]
        assert next(runs) == [("a", 1000, 2000)]


class TestCountChecks:
    """Every entry point rejects a non-positive count, or a significance level
    outside (0, 1), before it draws a sample."""

    @pytest.fixture(autouse=True)
    def no_samples(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a sample was generated")
        monkeypatch.setattr(experiments, "generate_rows", fail)

    @pytest.mark.parametrize("count", [0, -4, 2.5, None, "three", "1e3", float("inf"),
                                       float("nan")])
    def test_every_entry_point_names_its_count(self, count):
        calls = {
            "iterations": [
                lambda: estimate_rates(_gen(), iterations=count,
                                       master_seed=0),
                lambda: sweep_significance(TopologyKind.DRIVER, (0.05,),
                                           iterations=count),
                lambda: phase_rows(NoiseKind.INTRINSIC_SNR, TopologyKind.DRIVER,
                                   n=60, alpha=0.05, iterations=count)],
            "cases": [
                lambda: sweep_sample_size(TopologyKind.DRIVER, 0.05, (50,), cases=count)],
        }
        for name, entry_points in calls.items():
            for call in entry_points:
                with pytest.raises(ValueError, match=f"^{name} must be a positive integer, "
                                                     f"got {re.escape(repr(count))}$"):
                    call()

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
    def test_every_entry_point_rejects_the_significance_level(self, alpha):
        calls = [
            lambda: estimate_rates(_gen(), alpha=alpha, iterations=4, master_seed=0),
            lambda: sweep_significance(TopologyKind.DRIVER, (0.05, alpha), iterations=4),
            lambda: sweep_sample_size(TopologyKind.DRIVER, alpha, (50,), cases=4),
            lambda: phase_rows(NoiseKind.INTRINSIC_SNR, TopologyKind.DRIVER,
                               n=60, alpha=alpha, iterations=4)]
        for call in calls:
            with pytest.raises(ValueError, match=r"^significance level must lie strictly "
                                                 rf"in \(0, 1\), got {alpha!r}$"):
                call()

    def test_every_entry_point_rejects_a_negative_seed(self):
        # A phase space's stream is refused when it is made, before a row is
        # read; a seed that is not integral is refused, not truncated.
        calls = [
            lambda seed: estimate_rates(_gen(), iterations=4, master_seed=seed),
            lambda seed: sweep_significance(TopologyKind.DRIVER, (0.05,), iterations=4, seed=seed),
            lambda seed: sweep_sample_size(TopologyKind.DRIVER, 0.05, (50,), cases=4, seed=seed),
            lambda seed: phase_rows(NoiseKind.INTRINSIC_SNR, TopologyKind.DRIVER, n=60,
                                    alpha=0.05, iterations=4, seed=seed)]
        for call, seed in product(calls, (-1, 1.5)):
            with pytest.raises(ValueError,
                               match=rf"^seeds must be non-negative integers, got {seed}$"):
                call(seed)


def _scalar_pvalues(sample, criterion):
    """The five forward p-values, one ``statistic_from_rss`` call each, from
    the reference passes."""
    pairs = reference.forward_rss(sample.x, sample.y, sample.z, 2)
    return {key: statistic_from_rss(criterion, rss_r, rss_u, len(sample.x) - 2, 2, k)[1]
            for key, (rss_r, rss_u, k) in zip(FORWARD_KEYS, pairs, strict=True)}


def _loop_counts(gen, criteria, alphas, master_seed, iterations):
    """Accepted-edge counts, one sample and one scalar decision at a time."""
    counts = np.zeros((len(criteria), len(alphas), len(FORWARD_LINKS)), dtype=np.int64)
    for i in range(iterations):
        s = generate(gen, _seed(master_seed, i))
        for ci, crit in enumerate(criteria):
            pvalues = _scalar_pvalues(s, crit)
            for ai, alpha in enumerate(alphas):
                edges = decide_edges(pvalues, alpha)
                counts[ci, ai] += [link in edges for link in FORWARD_LINKS]
    return counts


def _record_generate_rows(monkeypatch):
    """The (levels, states, samples) of every ``generate_rows`` call that
    ``experiments`` makes, in order; the samples are copied, since a
    workspace's next chunk overwrites them."""
    calls, generate_rows = [], experiments.generate_rows

    def spy(gen, levels, states, workspace=None):
        samples = generate_rows(gen, levels, states, workspace)
        calls.append((levels, states, tuple(sample.copy() for sample in samples)))
        return samples

    monkeypatch.setattr(experiments, "generate_rows", spy)
    return calls


class TestCountBlock:
    def test_a_block_is_generated_in_chunks_of_chunk_rows(self, monkeypatch):
        # chunk_rows(gen) states a call, then the remainder, in order.
        gen = _gen(length=60)
        rows = datagen.chunk_rows(gen)
        states = generator_states(derive_seeds([((9,), 0, rows + 3)]))
        calls = _record_generate_rows(monkeypatch)
        experiments._count_block(gen, [resolve_sigmas(gen)], [rows + 3], (Criterion.WALD,),
                                 (0.05,), states)
        assert [len(chunk) for _, chunk, _ in calls] == [rows, 3]
        assert np.concatenate([chunk for _, chunk, _ in calls]).tobytes() == states.tobytes()

    def test_a_chunk_passes_one_level_row_per_sample_only_across_cells(self, monkeypatch):
        # Chunks of 4 states over cells of 6, 3 and 6 samples: the first and
        # the last chunk lie inside one cell and pass its one row of levels,
        # which is broadcast; the two between span cells and pass a row per
        # sample. Either way each sample has the bits ``generate`` gives it
        # alone, at its own cell's SNRs.
        shape = _gen(length=60, noise_kind=NoiseKind.INTRINSIC_SNR)
        monkeypatch.setattr(datagen, "CHUNK_VALUES", 4 * (60 + shape.burn_in))
        gens = [replace(shape, sigmas_or_snrs=snrs)
                for snrs in ((0.0, 0.0, 0.0), (-10.0, 20.0, 5.0), (30.0, -5.0, 0.0))]
        levels, sizes = [list(resolve_sigmas(gen)) for gen in gens], [6, 3, 6]
        seeds = [7 * i + 1 for i in range(sum(sizes))]
        calls = _record_generate_rows(monkeypatch)
        experiments._count_block(shape, levels, sizes, (Criterion.WALD,), (0.05,),
                                 generator_states(np.array(seeds, np.uint64)))
        a, b, c = levels
        assert [chunk_levels.tolist() for chunk_levels, _, _ in calls] == [
            [a], [a, a, b, b], [b, c, c, c], [c]]
        samples = [row for _, _, chunk in calls for row in zip(*chunk)]
        cells = [gen for gen, size in zip(gens, sizes) for _ in range(size)]
        for gen, seed, sample in zip(cells, seeds, samples, strict=True):
            for got, alone in zip(sample, generate(gen, seed)):
                assert got.tobytes() == alone.tobytes()

    def test_chunked_block_matches_per_sample_loop(self, monkeypatch):
        gen = _gen(length=60)
        criteria, alphas = (Criterion.LR, Criterion.RAO), (0.05, 0.2, 0.5)
        monkeypatch.setattr(datagen, "CHUNK_VALUES", 7 * (60 + gen.burn_in))
        [(counts, rank_deficient)] = experiments._count_run(
            [((gen, resolve_sigmas(gen), ()), 0, 30)], criteria, alphas, 4)
        assert rank_deficient == 0
        np.testing.assert_array_equal(counts, _loop_counts(gen, criteria, alphas, 4, 30))


    def test_a_run_scores_each_cell_as_it_would_alone(self, monkeypatch):
        # Cells that share one shape config share one block, cut into
        # chunks of 5 rows: the first cell ends on a chunk's edge, the next
        # ones inside chunks. The block splits where the noise kind or the
        # length changes.
        monkeypatch.setattr(datagen, "CHUNK_VALUES", 5 * (60 + 100))
        shape = _gen(length=60, topology=TopologyKind.INDIRECT,
                     noise_kind=NoiseKind.INTRINSIC_SNR)
        gens = [replace(shape, sigmas_or_snrs=(0.0,) * 3),
                replace(shape, sigmas_or_snrs=(200.0,) * 3),
                replace(shape, sigmas_or_snrs=(0.0,) * 3),
                replace(shape, noise_kind=NoiseKind.EXTRINSIC_SNR),
                replace(shape, length=80, sigmas_or_snrs=(0.0,) * 3)]
        shapes, levels = [shape] * 3 + gens[3:], [resolve_sigmas(gen) for gen in gens]
        run = [((shapes[key], levels[key], (key,)), 2 if key == 0 else 0, 12)
               for key in range(len(gens))]
        criteria, alphas = (Criterion.LR, Criterion.WALD), (0.05, 0.3)
        groups, count_block = [], experiments._count_block

        def spy(gen, block_levels, *args):
            groups.append((gen, list(block_levels)))
            return count_block(gen, block_levels, *args)

        monkeypatch.setattr(experiments, "_count_block", spy)
        got = experiments._count_run(run, criteria, alphas, 8)
        assert groups == [(shape, levels[:3]), (gens[3], levels[3:4]), (gens[4], levels[4:])]
        alone = [experiments._count_run([segment], criteria, alphas, 8)[0]
                 for segment in run]
        assert [rd for _, rd in got] == [rd for _, rd in alone]
        assert [rd for _, rd in got] == [0, 11, 0, 0, 0]  # a mixed 200 dB cell
        for (counts, _), (single, _) in zip(got, alone):
            np.testing.assert_array_equal(counts, single)


def _record_block_pvalues(monkeypatch):
    """Copies of the (p-values, rank mask) of every ``block_pvalues`` call
    that ``experiments`` makes, in order."""
    calls, block_pvalues = [], experiments.block_pvalues

    def spy(*args):
        pvalues, deficient = block_pvalues(*args)
        calls.append((pvalues.copy(), deficient.copy()))
        return pvalues, deficient

    monkeypatch.setattr(experiments, "block_pvalues", spy)
    return calls


class TestWorkspace:
    def test_generate_between_chunks_leaves_every_earlier_sample(self):
        # Chunks drawn into one workspace, with ``generate`` called between
        # them: a returned sample owns its arrays, so no later chunk or
        # sample writes over it.
        shape = _gen(length=60, noise_kind=NoiseKind.EXTRINSIC_SNR)
        workspace, kept = datagen.Workspace(), []
        for k in range(4):
            sample = generate(shape, k)
            kept.append((k, sample, [series.tobytes() for series in sample]))
            states = generator_states(derive_seeds([((k,), 0, datagen.chunk_rows(shape) + 5)]))
            experiments._count_block(shape, [resolve_sigmas(shape)], [len(states)],
                                     (Criterion.WALD,), (0.05,), states, workspace)
        for k, sample, bits in kept:
            assert [series.tobytes() for series in sample] == bits
            assert [series.tobytes() for series in generate(shape, k)] == bits

    def test_one_workspace_through_cells_of_several_lengths(self, monkeypatch):
        # Cells of 25 values, of one sample longer than a chunk's values,
        # which outgrows the buffers, of 300 and of 25 again, in the grown
        # buffers, and an extrinsic cell, which also fills the backbone's:
        # the same p-values, bit for bit, and the same counts as each cell
        # scored alone in new buffers.
        long = datagen.CHUNK_VALUES + 100
        gens = [_gen(length=25), _gen(length=long), _gen(length=300), _gen(length=25),
                _gen(length=300, noise_kind=NoiseKind.EXTRINSIC_SNR)]
        run = [((gen, resolve_sigmas(gen), (k,)), 0, 2 if gen.length == long else 90)
               for k, gen in enumerate(gens)]
        criteria, alphas = (Criterion.LR, Criterion.WALD), (0.05, 0.3)
        calls = _record_block_pvalues(monkeypatch)
        got = experiments._count_run(run, criteria, alphas, 6, datagen.Workspace())
        shared, calls[:] = calls[:], []
        alone = [experiments._count_run([segment], criteria, alphas, 6)[0] for segment in run]
        # A long sample is a chunk of its own, and 90 samples of 300 values two chunks.
        assert len(shared) == len(calls) == 8
        for (pvalues, deficient), (single, single_deficient) in zip(shared, calls):
            assert pvalues.tobytes() == single.tobytes()
            assert deficient.tobytes() == single_deficient.tobytes()
        assert [rd for _, rd in got] == [rd for _, rd in alone]
        for (counts, _), (single, _) in zip(got, alone, strict=True):
            np.testing.assert_array_equal(counts, single)

    def test_a_command_makes_one_workspace(self, monkeypatch):
        # Runs of 7 iterations over cells of three lengths: one workspace for
        # the command, whose buffers are made for the first chunk and at most
        # once more, not per run or per chunk.
        made, buffers = [], {}

        class Recorded(datagen.Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

            def empty(self, name, shape, capacity):
                array = super().empty(name, shape, capacity)
                buffers.setdefault(name, []).append(array.base)
                return array

        monkeypatch.setattr(experiments, "Workspace", Recorded)
        monkeypatch.setattr(experiments, "RUN_ITERATIONS", 7)
        sweep_sample_size(TopologyKind.DRIVER, 0.05, (25, 60, 300), (Criterion.WALD,),
                          cases=20, seed=4, workers=1)
        assert len(made) == 1
        assert sorted(buffers) == ["draws", "reduced", "stack"]
        assert len(buffers["draws"]) >= 9  # a chunk, at least, for each of the nine runs
        for taken in buffers.values():
            assert len({id(buffer) for buffer in taken}) <= 2


def _no_child_left():
    """Whether every child of this process has been reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestWorkerCount:
    """The clamped worker count is the number of processes: this one and
    the children it forks."""

    def test_clamped_to_cpu_count(self, forks):
        est = estimate_rates(_gen(), iterations=30, master_seed=3,
                             workers=64)
        assert len(forks) == min(os.cpu_count() or 1, 15) - 1
        assert _no_child_left()
        assert est == estimate_rates(_gen(), iterations=30,
                                     master_seed=3, workers=1)

    def test_clamped_to_jobs(self, forks, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        estimate_rates(_gen(), iterations=3, master_seed=3, workers=8)
        assert forks == []  # one job: two iterations or more a process
        estimate_rates(_gen(), iterations=4, master_seed=3, workers=8)
        grids = ((0.0,), (0.0,), (-20.0, 20.0))
        list(phase_rows(NoiseKind.INTRINSIC_SNR, TopologyKind.DRIVER, n=60, alpha=0.05,
                        iterations=2, grids=grids, seed=1, workers=8))
        assert len(forks) == 2  # two processes each time
        assert _no_child_left()

    def test_environment_variable(self, forks, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        for env, processes in (("1", 1), ("2", 2)):
            monkeypatch.setenv("GRANGER_LAB_THREADS", env)
            forks.clear()
            estimate_rates(_gen(), iterations=30, master_seed=3)
            assert len(forks) == processes - 1
        for bad in ("four", "0", "-1"):
            monkeypatch.setenv("GRANGER_LAB_THREADS", bad)
            with pytest.raises(ValueError, match="GRANGER_LAB_THREADS"):
                estimate_rates(_gen(), iterations=30, master_seed=3)

    @pytest.mark.parametrize("workers", [0, -2, 1.5, "two"])
    def test_nonpositive_flag_rejected_like_the_variable(self, forks, monkeypatch, workers):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        for env in (None, "2"):
            if env:
                monkeypatch.setenv("GRANGER_LAB_THREADS", env)  # the flag still wins
            with pytest.raises(ValueError, match=f"^workers must be a positive integer, "
                                                 f"got {re.escape(repr(workers))}$"):
                estimate_rates(_gen(), iterations=30, master_seed=3,
                               workers=workers)
            with pytest.raises(ValueError, match="^workers must be"):
                _rows(workers=workers)
        assert forks == []
        with pytest.raises(ValueError, match="^workers must be"):
            list(_rows(workers=workers, start=27))  # nothing left to schedule

    def test_one_process_where_fork_is_missing(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        monkeypatch.delattr(experiments.os, "fork")
        assert experiments._worker_count(2, 100) == 1
        with pytest.raises(ValueError, match="^workers must be"):
            experiments._worker_count(0, 100)
        assert list(_rows(workers=2)) == list(_rows(workers=1))


GRID3 = ((-20.0, 0.0, 20.0),) * 3
#: The shape config that ``phase_rows`` gives every cell of ``_rows``.
_GRID3_SHAPE = GeneratorConfig(topology=TopologyKind.DRIVER, length=60,
                               noise_kind=NoiseKind.INTRINSIC_SNR)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_phase_space_rejects_a_repeated_axis_value(forks, axis):
    grids = [(0.0, 20.0)] * 3
    grids[axis] = (0.0, 20.0, -0.0)
    with pytest.raises(ValueError, match=f"^the {'xyz'[axis]} grid repeats a value$"):
        phase_rows(NoiseKind.INTRINSIC_SNR, TopologyKind.DRIVER, n=60, alpha=0.05,
                   iterations=2, grids=grids, seed=6, workers=2)
    assert forks == []


def _rows(workers, start=0):
    """The ``phase_rows`` stream of a 3 x 3 x 3 phase space on ``GRID3``."""
    return phase_rows(NoiseKind.INTRINSIC_SNR, TopologyKind.DRIVER, n=60, alpha=0.05,
                      iterations=2, grids=GRID3, seed=6, workers=workers, start=start)


class _RunLog:
    """The runs that each process computed, forked children included, read
    back from the file that every ``_count_run`` call appends a line to."""

    def __init__(self, path):
        self.path = path

    def by_process(self):
        """{pid: [[(stream key, start, stop), ...] of each run, in the order
        the process computed them]}."""
        runs = {}
        if self.path.exists():
            for line in self.path.read_text(encoding="utf-8").splitlines():
                pid, run = json.loads(line)
                runs.setdefault(pid, []).append([(tuple(key), a, b) for key, a, b in run])
        return runs

    def in_run_order(self, children):
        """The runs of this process and of ``children`` (in fork order),
        merged on the rule that run k went to process k % n, this one
        first: a process that computed other runs breaks the merge."""
        by_process = self.by_process()
        shares = [by_process.get(pid, []) for pid in [os.getpid(), *children]]
        return [shares[k % len(shares)][k // len(shares)]
                for k in range(sum(map(len, shares)))]

    def clear(self):
        self.path.unlink(missing_ok=True)


@pytest.fixture
def run_log(monkeypatch, tmp_path):
    log, count_run = _RunLog(tmp_path / "runs.jsonl"), experiments._count_run

    def logged(run, *args):
        results = count_run(run, *args)
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), [[key, a, b] for (_, _, key), a, b in run]])
                     + "\n")
        return results

    monkeypatch.setattr(experiments, "_count_run", logged)
    return log


def _iterations(runs):
    """(stream key, iteration) of every iteration of ``runs``, in order."""
    return [(key, i) for run in runs for key, a, b in run for i in range(a, b)]


class TestSchedule:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)

    def test_sweep_sample_size_forks_its_workers_once(self, forks):
        kwargs = dict(alpha=0.05, sizes=(40, 60, 80), cases=12, seed=3)
        parallel = sweep_sample_size(TopologyKind.INDIRECT, workers=2, **kwargs)
        assert len(forks) == 1 and _no_child_left()
        assert parallel == sweep_sample_size(TopologyKind.INDIRECT, workers=1, **kwargs)

    def test_phase_space_deals_runs_round_robin(self, forks, run_log):
        rows = list(_rows(workers=2))
        assert len(forks) == 1
        runs = run_log.in_run_order(forks)
        assert 1 < len(runs) < 27
        # Every iteration is computed once, in grid order, across the runs.
        assert _iterations(runs) == [((c,), i) for c in range(27) for i in range(2)]
        assert rows == list(_rows(workers=1))
        assert [tuple(row[key] for key in SNR_KEYS) for row in rows] == list(product(*GRID3))

    def test_phase_space_resume_keeps_grid_order(self, forks, run_log):
        full_rows = list(_rows(workers=1))
        run_log.clear()
        rows = list(_rows(workers=2, start=10))
        assert rows == full_rows[10:]
        assert len(forks) == 1
        assert _iterations(run_log.in_run_order(forks)) == [
            ((c,), i) for c in range(10, 27) for i in range(2)]

    def test_a_child_runs_ahead_only_as_far_as_its_pipe_holds(self, forks, run_log,
                                                              monkeypatch):
        # A run per cell, each sending back counts for 3 criteria x 40
        # alphas; the child is dealt twice the runs that its pipe can hold.
        monkeypatch.setattr(experiments, "RUN_ITERATIONS", 2)
        criteria, alphas = (Criterion.LR, Criterion.WALD, Criterion.RAO), tuple(
            np.linspace(0.01, 0.4, 40))
        read_fd, write_fd = os.pipe()
        pipe_bytes = fcntl.fcntl(read_fd, fcntl.F_GETPIPE_SZ)
        os.close(read_fd)
        os.close(write_fd)
        run_bytes = len(pickle.dumps((True, [(np.zeros((3, 40, 3), np.int64), 0)])))
        held = pipe_bytes // run_bytes + 2  # what the pipe holds, and the run writing
        gen = _gen(length=60)
        cells = [(gen, resolve_sigmas(gen), (c,)) for c in range(4 * held)]
        with closing(experiments._cell_counts(cells, criteria, alphas, 2, 6, 2)) as stream:
            counts = [next(stream)]  # the parent's first run
            computed, steady, deadline = -1, time.monotonic(), time.monotonic() + 30
            while time.monotonic() < deadline and time.monotonic() - steady < 1:
                now = len(run_log.by_process().get(forks[0], []))
                if now != computed:
                    computed, steady = now, time.monotonic()
                time.sleep(0.05)
            assert 0 < computed <= held  # of the 2 * held runs dealt to the child
            counts += stream
        reference = experiments._cell_counts(cells, criteria, alphas, 2, 6, 1)
        for (got, got_rd), (ref, ref_rd) in zip(counts, reference, strict=True):
            np.testing.assert_array_equal(got, ref)
            assert got_rd == ref_rd
        assert len(forks) == 1 and _no_child_left()

    def test_nothing_left_starts_no_pool(self, forks):
        assert list(_rows(workers=2, start=27)) == []
        assert forks == []

    def test_failure_cancels_queued_runs(self, forks, monkeypatch):
        count_block = experiments._count_block
        bad_levels = list(product(*axis_sigmas(_GRID3_SHAPE, GRID3)))[5]

        def failing(gen, levels, *args):
            if bad_levels in levels:
                raise GenerationError("generated values exceeded the magnitude bound")
            return count_block(gen, levels, *args)

        monkeypatch.setattr(experiments, "_count_block", failing)
        rows = []
        with pytest.raises(GenerationError,
                           match="^generated values exceeded the magnitude bound$"):
            for row in _rows(workers=2):
                rows.append(row)
        assert len(forks) == 1 and _no_child_left()
        # Runs of seven iterations: run 1, the child's first, holds cell 5.
        # The rows of the cells that run 0 finished were still delivered.
        runs = list(experiments._cut_runs(range(27), 2, 7))
        failed = next(k for k, run in enumerate(runs) if any(c == 5 for c, _, _ in run))
        finished = [c for run in runs[:failed] for c, _, stop in run if stop == 2]
        assert failed % 2 == 1
        assert [tuple(row[key] for key in SNR_KEYS) for row in rows] == list(
            product(*GRID3))[:len(finished)]
        assert len(rows) == 3

    def test_failure_in_caller_cancels_queued_runs(self, forks):
        with pytest.raises(OSError), closing(_rows(workers=2)) as rows:
            for _ in rows:
                raise OSError("disk full")
        assert len(forks) == 1 and _no_child_left()

    def test_interrupt_or_early_close_leaves_no_child(self, forks):
        with pytest.raises(KeyboardInterrupt), closing(_rows(workers=2)) as rows:
            next(rows)
            raise KeyboardInterrupt
        rows = _rows(workers=2)
        next(rows)
        rows.close()
        assert len(forks) == 2 and _no_child_left()

    def test_children_ignore_sigint(self, forks, run_log):
        rows = _rows(workers=2)
        first = next(rows)
        deadline = time.monotonic() + 30
        while forks[0] not in run_log.by_process() and time.monotonic() < deadline:
            time.sleep(0.01)  # the child is past its setup once it has computed a run
        os.kill(forks[0], signal.SIGINT)
        assert [first, *rows] == list(_rows(workers=1))
        assert _no_child_left()

    def test_a_killed_child_is_an_error_not_a_hang(self, forks, monkeypatch):
        parent, count_run = os.getpid(), experiments._count_run

        def dying(run, *args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return count_run(run, *args)

        def hung(signum, frame):
            raise TimeoutError("the parent waited 60 s on a killed child")

        monkeypatch.setattr(experiments, "_count_run", dying)
        rows, previous = [], signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError,
                               match="^a worker process ended before it sent its results$"):
                for row in _rows(workers=2):
                    rows.append(row)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(rows) == 3  # the cells that run 0, the parent's, finished
        assert len(forks) == 1 and _no_child_left()


def _grid_counts(iterations, workers):
    """``_cell_counts`` over the phase-space cells of GRID3."""
    cells = [(_GRID3_SHAPE, levels, (cell,))
             for cell, levels in enumerate(product(*axis_sigmas(_GRID3_SHAPE, GRID3)))]
    return list(experiments._cell_counts(cells, (Criterion.WALD,), (0.05,),
                                         iterations, 6, workers))


class TestPartitionInvariance:
    """Counts do not depend on the worker count or the runs."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)

    @pytest.fixture
    def batches(self, monkeypatch):
        """Rows of every bulk seed derivation in this process, in call order."""
        rows, derive = [], experiments.derive_seeds

        def recording(streams):
            seeds = derive(streams)
            rows.append(len(seeds))
            return seeds

        monkeypatch.setattr(experiments, "derive_seeds", recording)
        return rows

    def test_phase_space_cells_for_any_partition(self, forks, run_log, monkeypatch, batches):
        reference = _grid_counts(4, 1)
        assert batches == [4 * 27]  # inline: one derivation for the grid
        for run_iterations in (1000, 6, 3):
            monkeypatch.setattr(experiments, "RUN_ITERATIONS", run_iterations)
            for workers in (1, 2, 3):
                batches.clear()
                forks.clear()
                run_log.clear()
                counts = _grid_counts(4, workers)
                assert len(counts) == len(reference)
                for (got, got_rd), (ref, ref_rd) in zip(counts, reference):
                    np.testing.assert_array_equal(got, ref)
                    assert got_rd == ref_rd
                assert len(forks) == workers - 1 and _no_child_left()
                sizes = [sum(b - a for _, a, b in run) for run in run_log.in_run_order(forks)]
                assert sum(sizes) == 4 * 27 and max(sizes) <= run_iterations
                assert batches == sizes[::workers]  # one derivation per run of this process
                if workers > 1:
                    assert len(sizes) > 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_cells_split_across_runs(self, forks, run_log, monkeypatch, batches, workers):
        # Have the rank rule reject the samples whose first x value is
        # negative, so that the split cells' rank-deficient counts are
        # summed across runs too. A block's stack is [z-lags | y-lags |
        # x-lags | y | z]; its first observation holds x[0] as lag 2 of x,
        # column 5, until the stack is factored. Forked children inherit
        # the patches and each keeps its own queue.
        lag_stack, rule, first_x = granger._lag_stack, granger.rank_deficient, []

        def recording(*args):
            stack, norms = lag_stack(*args)
            first_x.append(stack[:, 5, 0] < 0)
            return stack, norms

        monkeypatch.setattr(granger, "_lag_stack", recording)
        monkeypatch.setattr(granger, "rank_deficient",
                            lambda pivots, norms: rule(pivots, norms) | first_x.pop())
        reference = _grid_counts(4, 1)
        assert 0 < sum(rd for _, rd in reference) < 4 * 27
        batches.clear()
        run_log.clear()
        monkeypatch.setattr(experiments, "RUN_ITERATIONS", 3)
        counts = _grid_counts(4, workers)
        for (got, got_rd), (ref, ref_rd) in zip(counts, reference, strict=True):
            np.testing.assert_array_equal(got, ref)
            assert got_rd == ref_rd
        assert len(forks) == workers - 1
        runs = run_log.in_run_order(forks)
        assert [sum(b - a for _, a, b in run) for run in runs] == [3] * 36
        assert batches == [3] * len(runs[::workers])  # one derivation per run
        assert runs[0] + runs[1] == [((0,), 0, 3), ((0,), 3, 4), ((1,), 0, 2)]

    def test_oversized_task_is_seeded_in_bounded_batches(self, monkeypatch, batches):
        gen = _gen(length=60)
        cell = (gen, resolve_sigmas(gen), ())
        [(whole, whole_rd)] = experiments._cell_counts(
            [cell], (Criterion.WALD,), (0.05,), 30, 6, 1)
        batches.clear()
        monkeypatch.setattr(experiments, "RUN_ITERATIONS", 7)
        states = []

        def recording(seeds):
            states.append(len(seeds))
            return generator_states(seeds)

        monkeypatch.setattr(experiments, "generator_states", recording)
        [(counts, rank_deficient)] = experiments._cell_counts(
            [cell], (Criterion.WALD,), (0.05,), 30, 6, 1)
        assert batches == states == [7, 7, 7, 7, 2]
        np.testing.assert_array_equal(counts, whole)
        assert rank_deficient == whole_rd


class TestSweeps:
    def test_sample_size_sweep_names_its_degenerate_size(self, monkeypatch):
        count_block = experiments._count_block

        def degenerate_at_60(gen, levels, sizes, *args):
            return [(counts, size if gen.length == 60 else rd) for (counts, rd), size
                    in zip(count_block(gen, levels, sizes, *args), sizes)]

        monkeypatch.setattr(experiments, "_count_block", degenerate_at_60)
        with pytest.raises(DegenerateConfiguration,
                           match="^12/12 iterations were rank deficient at n=60$"):
            sweep_sample_size(TopologyKind.INDIRECT, 0.05, (40, 60, 80), cases=12, seed=3,
                              workers=1)

    def test_sweep_significance_matches_estimate_rates(self):
        alphas = (0.05, 0.2)
        sweep = sweep_significance(TopologyKind.DRIVER, alphas, n_points=60,
                                   criteria=(Criterion.WALD,), iterations=50,
                                   seed=5, workers=1)
        assert sweep.axis == alphas
        for ai, alpha in enumerate(alphas):
            direct = estimate_rates(_gen(length=60), Criterion.WALD, alpha,
                                    iterations=50, master_seed=5, workers=1)
            assert sweep.rates[Criterion.WALD][ai] == direct

    def test_sweep_significance_validates_grid(self):
        with pytest.raises(ValueError):
            sweep_significance(TopologyKind.DRIVER, ())
        with pytest.raises(ValueError):
            sweep_significance(TopologyKind.DRIVER, (0.0, 0.5))

    def test_optimal_picks_minimum_distance(self):
        sweep = sweep_significance(TopologyKind.INDIRECT, (0.05, 0.15, 0.3),
                                   n_points=50, criteria=(Criterion.LR,),
                                   iterations=120, seed=9, workers=1)
        rates = sweep.rates[Criterion.LR]
        dist = [np.hypot(e.unidentified_rate, e.spurious_rate) for e in rates]
        assert sweep.optimal(Criterion.LR) == sweep.axis[int(np.argmin(dist))]

    def test_sweep_sample_size_shapes_and_comparisons(self):
        sweep = sweep_sample_size(TopologyKind.DRIVER, alpha=0.05,
                                  sizes=(50, 100), cases=40, seed=3, workers=1)
        assert sweep.axis == (50.0, 100.0)
        assert set(sweep.rates) == {Criterion.LR, Criterion.WALD, Criterion.RAO}
        assert (Criterion.LR, Criterion.WALD) in sweep.comparisons
        assert len(sweep.comparisons[(Criterion.WALD, Criterion.RAO)]) == 2
        # identical decision rules give identical rates, hence never different
        for cmp in sweep.comparisons[(Criterion.WALD, Criterion.RAO)]:
            assert not cmp.spurious_different and not cmp.unidentified_different

    def test_sweep_sample_size_rejects_unsorted(self):
        with pytest.raises(ValueError):
            sweep_sample_size(TopologyKind.DRIVER, 0.05, (100, 50), cases=10)


class TestPhaseSpace:
    def test_snr_grid_default(self):
        grid = snr_grid()
        assert len(grid) == 17
        assert grid[0] == -40.0 and grid[-1] == 40.0
        assert grid[1] - grid[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("start", [0, 1, 5, 23, 24, 30])
    def test_grid_cells_are_the_axes_product_from_start(self, start):
        sigmas = ((0.5, 1.5), (1.0, 2.0, 3.0), (4.0, 5.0, 6.0, 7.0))
        cells = experiments._GridCells(_GRID3_SHAPE, sigmas, start)
        expected = [(_GRID3_SHAPE, row, (i,)) for i, row in enumerate(product(*sigmas))]
        assert len(cells) == len(expected[start:]) and list(cells) == expected[start:]
        with pytest.raises(IndexError):
            cells[len(cells)]

    def test_negative_start_raises(self):
        with pytest.raises(ValueError, match=r"^start must be a cell index >= 0, got -1$"):
            _rows(workers=1, start=-1)

    def test_last_cell_of_an_801_cubed_grid_streams_in_bounded_memory(self):
        # 5.1e8 cells: a record for each, made before the first draw, would
        # take about 110 GB. Each is indexed from the axes when it is read.
        # The 41-value grid first, where such records would take 15 MB, so
        # that a grid built up front fails there.
        for spec, values in (("-40:40:2", 41), ("-40:40:0.1", 801)):
            axis = cli.parse_grid(spec)
            assert len(axis) == values
            tracemalloc.start()
            try:
                rows = list(phase_rows(NoiseKind.INTRINSIC_SNR, TopologyKind.DRIVER, n=60,
                                       alpha=0.05, iterations=1, grids=(axis,) * 3, seed=3,
                                       workers=1, start=values ** 3 - 1))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert [tuple(row[key] for key in SNR_KEYS) for row in rows] == [(40.0,) * 3]
            assert peak < 1 << 20

    def test_grid_shapes_and_plane_consistency(self):
        grids = ((-20.0, 20.0), (-20.0, 20.0), (-20.0, 0.0, 20.0))
        rows = list(phase_rows(NoiseKind.INTRINSIC_SNR, TopologyKind.DRIVER,
                               n=80, alpha=0.05, iterations=20, grids=grids,
                               seed=2, workers=1))
        # Grid order: z varies fastest, so the rows are the (2, 2, 3) grid.
        spurious = np.array([row["spurious_rate"] for row in rows]).reshape(2, 2, 3)
        plane = extract_plane(rows, "z", 0.0, "spurious_rate")
        assert plane.shape == (2, 2)
        np.testing.assert_array_equal(plane, spurious[:, :, 1])
        np.testing.assert_array_equal(extract_plane(rows, "x", 20.0, "spurious_rate"),
                                      spurious[1])
        np.testing.assert_array_equal(extract_plane(iter(rows), "Y", -20.0, "spurious_rate"),
                                      spurious[:, 0, :])

    def test_off_grid_raises(self):
        grids = ((-20.0, 20.0),) * 3
        rows = list(phase_rows(NoiseKind.INTRINSIC_SNR, TopologyKind.DRIVER,
                               n=80, alpha=0.05, iterations=5, grids=grids,
                               seed=2, workers=1))
        with pytest.raises(ValueError, match=r"^SNR\^Z = 5\.0 dB is not on the grid$"):
            extract_plane(rows, "z", 5.0)
        with pytest.raises(ValueError, match="^unknown field 'not_a_field'$"):
            extract_plane(rows, "z", 20.0, "not_a_field")

    @pytest.mark.parametrize("axis", ["xy", "w", "", "snr_x_db"])
    def test_extract_plane_refuses_an_unknown_axis(self, axis):
        with pytest.raises(ValueError, match=f"^unknown axis {re.escape(repr(axis))}$"):
            extract_plane([_plane_row(0.0, 0.0, 0.0, 0.5)], axis, 0.0)

    def test_extract_plane_refuses_a_triple_two_rows_share(self):
        # Checked over every row, also those off the requested plane.
        rows = [_plane_row(0.0, 0.0, 5.0, 0.5), _plane_row(0.0, 0.0, -5.0, 0.5),
                _plane_row(0.0, 0.0, -5.0, 0.25)]
        with pytest.raises(ValueError, match=r"^more than one row for the SNR triple "
                                             r"\(0\.0, 0\.0, -5\.0\)$"):
            extract_plane(rows, "z", 5.0)

    def test_fixed_sigma_rejected(self):
        with pytest.raises(ValueError):
            phase_rows(NoiseKind.FIXED_SIGMA, TopologyKind.DRIVER,
                       n=80, alpha=0.05)

    def test_resume_skips_done_cells(self):
        grids = ((0.0,), (0.0,), (-20.0, 20.0))
        kwargs = dict(n=80, alpha=0.05, iterations=15, grids=grids, seed=4, workers=1)
        full = list(phase_rows(NoiseKind.INTRINSIC_SNR, TopologyKind.INDIRECT, **kwargs))
        seen = list(phase_rows(NoiseKind.INTRINSIC_SNR, TopologyKind.INDIRECT, start=1,
                               **kwargs))
        # only the missing cell is recomputed, and the rows agree exactly
        assert len(seen) == 1 and seen[0]["snr_z_db"] == 20.0
        assert full[:1] + seen == full

    def test_extract_plane_places_rows_by_snr_and_leaves_nan(self):
        rates = (0.25, 0.5, 0.75, 1.0)
        rows = [_plane_row(20.0, 0.0, -5.0, 0.0), _plane_row(-20.0, 0.0, 5.0, *rates)]
        for name, value in zip(PHASE_RATES, rates):
            # Each axis holds the rows' values in ascending order: x (-20, 20), y (0,).
            plane = extract_plane(rows, "z", 5.0, name)
            assert plane.shape == (2, 1) and plane[0, 0] == value and np.isnan(plane[1, 0])
            plane = extract_plane(rows, "x", -20.0, name)  # y down, z (-5, 5) across
            assert plane.shape == (1, 2) and plane[0, 1] == value and np.isnan(plane[0, 0])

    def test_extract_plane_of_a_diagonal_holds_no_grid(self):
        # 100 rows on the diagonal span a 100^3 grid, whose four rate arrays
        # would take 32 MB; the plane takes 80 kB.
        rows = [_plane_row(v, v, v, 0.5) for v in map(float, range(100))]
        tracemalloc.start()
        try:
            plane = extract_plane(rows, "y", 42.0, "rate_xz")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert plane.shape == (100, 100) and plane[42, 42] == 0.5
        assert np.isnan(plane).sum() == 100 * 100 - 1


def _plane_row(x, y, z, *rates):
    """A phase-space row at SNR (x, y, z) with the four ``rates``, or one
    rate for all four."""
    rates = rates if len(rates) == 4 else rates * 4
    return dict(zip(SNR_KEYS, (x, y, z)), **dict(zip(PHASE_RATES, rates)))

