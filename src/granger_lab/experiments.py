"""Monte Carlo orchestration: significance sweeps, sample-size sweeps and
SNR phase spaces.

Determinism contract: every iteration draws its generator seed from
(master seed, stream key..., iteration index) through a seed sequence, so
results are bit-identical however the work is partitioned across workers.
Seeds and generator states are derived in bulk (``seeding``), for up to
``RUN_ITERATIONS`` iterations of consecutive tasks at a time. Rates are
exact count/iterations fractions.

Rate counting follows the key links: with driver truth, spurious means the
Y->Z link was accepted and unidentified means X->Z was rejected; with
indirect truth the roles of the two links swap. Each sample's edges come
from ``granger.forward_pvalues`` and ``granger.decide_edge_array``, the
same path ``analyze`` takes.

Iteration, case and worker counts must be positive integers, and
``require_positive`` checks each of them before any sample is drawn.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from itertools import combinations, islice, product
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .core import TopologyKind
from .criteria import PRESET_CRITERIA, Criterion, RateComparison, compare_criteria
from .datagen import GeneratorConfig, NoiseKind, generate_chunks, resolve_sigmas
from .granger import (FORWARD_KEYS, GrangerConfig, decide_edge_array, forward_pvalues,
                      require_significance)
from .regress import RankDeficient
from .seeding import derive_seeds, generator_states

_FLAG_NAMES = ("spurious", "unidentified", "xy", "xz", "yz")

_PHASE_FIELDS = ("spurious_rate", "unidentified_rate", "rate_xz", "rate_yz")

#: Iterations one pool task covers, at most (a task of more is sent alone).
RUN_ITERATIONS = 1000


class DegenerateConfiguration(RuntimeError):
    """More than 1% of iterations hit rank-deficient designs."""


class OffGrid(ValueError):
    """Requested plane coordinate is not a sampled grid value."""


@dataclass(frozen=True)
class RateEstimate:
    """Monte Carlo rates for one experiment cell."""

    spurious_rate: float
    unidentified_rate: float
    iterations: int
    per_link_rates: dict[str, float]
    rank_deficient: int = 0

    def standard_error(self, rate: float) -> float:
        return float(np.sqrt(rate * (1.0 - rate) / self.iterations))


@dataclass(frozen=True)
class SweepResult:
    """Per-criterion rate curves along one swept parameter axis."""

    axis: tuple[float, ...]
    rates: dict[Criterion, tuple[RateEstimate, ...]]
    comparisons: dict[tuple[Criterion, Criterion], tuple[RateComparison, ...]] = field(
        default_factory=dict)

    def optimal(self, criterion: Criterion) -> float:
        """Axis value minimizing distance of (unidentified, spurious) to (0, 0)."""
        estimates = self.rates[criterion]
        dist = [np.hypot(e.unidentified_rate, e.spurious_rate) for e in estimates]
        return self.axis[int(np.argmin(dist))]


@dataclass(frozen=True)
class PhaseGrid:
    """Rates over the full (SNR_X, SNR_Y, SNR_Z) grid."""

    axes: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]
    spurious: np.ndarray
    unidentified: np.ndarray
    rate_xz: np.ndarray
    rate_yz: np.ndarray
    metadata: dict


def snr_grid(lo: float = -40.0, hi: float = 40.0, points: int = 17) -> tuple[float, ...]:
    """Inclusive uniform grid in dB (default 5 dB spacing over [-40, 40])."""
    return tuple(float(v) for v in np.linspace(lo, hi, points))


def require_positive(name: str, given: object) -> int:
    """``given`` as a positive integer, else a ValueError that names ``name``."""
    try:
        value = int(given)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {given!r}")
    return value


def _worker_count(workers: Optional[int], jobs: int) -> int:
    """Worker processes for ``jobs`` independent tasks.

    The request (else ``GRANGER_LAB_THREADS``, else the CPU count) must be
    a positive integer. It is clamped to the CPU count and to ``jobs``, so
    no flag can start more processes than there are cores or tasks.
    """
    env = os.environ.get("GRANGER_LAB_THREADS")
    if workers is not None:
        workers = require_positive("workers", workers)
    elif env:
        workers = require_positive("GRANGER_LAB_THREADS", env)
    else:
        workers = os.cpu_count() or 1
    workers = min(workers, jobs)
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    return max(1, workers)


def _count_block(gen_template: GeneratorConfig, lags: int,
                 criteria: tuple[Criterion, ...], alphas: tuple[float, ...],
                 always_trivariate: bool, master_seed: int, key: tuple[int, ...],
                 start: int, stop: int, states: Iterator[np.ndarray]
                 ) -> tuple[np.ndarray, int]:
    """Flag counts over iterations start..stop of the stream (master_seed,
    *key), whose generator states ``states`` yields next (a task's unit).

    Samples come in chunks; each chunk's p-values are collected into a
    (sample, criterion, comparison) array and decided for every
    significance level at once.
    """
    counts = np.zeros((len(criteria), len(alphas), len(_FLAG_NAMES)), dtype=np.int64)
    rank_deficient = 0
    # Edge columns follow FORWARD_LINKS: x->y, x->z, y->z.
    spur, unid = (2, 1) if gen_template.topology is TopologyKind.DRIVER else (1, 2)
    alpha_levels = np.array(alphas)
    for xs, ys, zs in generate_chunks(gen_template, islice(states, stop - start)):
        pvalues = np.empty((len(xs), len(criteria), len(FORWARD_KEYS)))
        kept = 0
        for x, y, z in zip(xs, ys, zs):
            try:
                pvalues[kept] = forward_pvalues(x, y, z, lags, criteria)
            except RankDeficient:
                rank_deficient += 1
                continue
            kept += 1
        edges = decide_edge_array(pvalues[:kept], alpha_levels, always_trivariate)
        flags = np.stack([edges[..., spur], ~edges[..., unid],
                          edges[..., 0], edges[..., 1], edges[..., 2]], axis=-1)
        counts += flags.sum(axis=0)
    return counts, rank_deficient


def _batched(streams: Iterable[tuple[tuple[int, ...], int, int]], size: int
             ) -> Iterator[list[tuple[tuple[int, ...], int, int]]]:
    """(prefix, start, stop) streams regrouped into batches of ``size``
    iterations (the last may have fewer), split where a batch fills."""
    batch, rows = [], 0
    for prefix, start, stop in streams:
        while start < stop:
            end = min(stop, start + size - rows)
            batch.append((prefix, start, end))
            rows += end - start
            start = end
            if rows == size:
                yield batch
                batch, rows = [], 0
    if batch:
        yield batch


def _counts(tasks: Sequence[tuple]) -> Iterator[tuple[np.ndarray, int]]:
    """``_count_block`` of every task in order. The generator states of all
    the tasks' iterations are derived ``RUN_ITERATIONS`` at a time."""
    streams = (((master_seed, *key), start, stop)
               for *_, master_seed, key, start, stop in tasks)
    states = (state for batch in _batched(streams, RUN_ITERATIONS)
              for state in generator_states(derive_seeds(batch)))
    return (_count_block(*args, states) for args in tasks)


def _count_run(tasks: Sequence[tuple]) -> list[tuple[np.ndarray, int]]:
    """Pool task: ``_count_block`` over a contiguous run of argument tuples."""
    return list(_counts(tasks))


def _schedule(tasks: Sequence[tuple], workers: Optional[int]
              ) -> Iterator[tuple[np.ndarray, int]]:
    """Yield ``_count_block(*args)`` for every task, in task order.

    At most one process pool is started. It is fed contiguous runs of
    about a quarter of a worker's share of the tasks, capped at
    ``RUN_ITERATIONS`` iterations, one submit per run. On any failure the
    queued runs are cancelled. With one worker the tasks run inline.
    """
    n_workers = _worker_count(workers, len(tasks))
    if n_workers <= 1:
        yield from _counts(tasks)
        return
    # Every task of a command shares one backbone: calibrate it here, so
    # that forked workers inherit the cached variances.
    resolve_sigmas(tasks[0][0])
    per_task = max(1, max(stop - start for *_, start, stop in tasks))
    size = max(1, min(math.ceil(len(tasks) / (4 * n_workers)), RUN_ITERATIONS // per_task))
    pool = ProcessPoolExecutor(max_workers=n_workers)
    try:
        runs = [pool.submit(_count_run, tasks[i:i + size])
                for i in range(0, len(tasks), size)]
        for run in runs:
            yield from run.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _accumulate(cells: Sequence[tuple[GeneratorConfig, tuple[int, ...]]], lags: int,
                criteria: tuple[Criterion, ...], alphas: tuple[float, ...],
                always_trivariate: bool, iterations: int, master_seed: int,
                workers: Optional[int] = None) -> Iterator[tuple[np.ndarray, int]]:
    """Yield (counts, rank_deficient) per (generator config, stream key) cell.

    Each cell's iterations are split into contiguous blocks, one per worker
    (a block has at least two iterations); all blocks go through one schedule.
    """
    bounds = np.linspace(0, iterations, _worker_count(workers, iterations // 2) + 1,
                         dtype=int).tolist()
    tasks = [(gen, lags, criteria, alphas, always_trivariate, master_seed, key, a, b)
             for gen, key in cells for a, b in zip(bounds[:-1], bounds[1:])]
    with closing(_schedule(tasks, workers)) as results:
        for _ in cells:
            counts, rank_deficient = zip(*islice(results, len(bounds) - 1))
            yield sum(counts), sum(rank_deficient)


def _estimate_from_counts(row: np.ndarray, iterations: int,
                          rank_deficient: int) -> RateEstimate:
    effective = iterations - rank_deficient
    if rank_deficient > 0.01 * iterations or effective == 0:
        raise DegenerateConfiguration(
            f"{rank_deficient}/{iterations} iterations were rank deficient")
    r = row / effective
    return RateEstimate(
        spurious_rate=float(r[0]), unidentified_rate=float(r[1]),
        iterations=effective,
        per_link_rates={"x->y": float(r[2]), "x->z": float(r[3]), "y->z": float(r[4])},
        rank_deficient=rank_deficient)


def estimate_rates(gen_config: GeneratorConfig, granger_config: GrangerConfig,
                   iterations: int, master_seed: int,
                   stream_key: tuple[int, ...] = (),
                   workers: Optional[int] = None) -> RateEstimate:
    """Monte Carlo spurious/unidentified rates for one configuration."""
    require_positive("iterations", iterations)
    [(counts, rd)] = _accumulate([(gen_config, stream_key)], granger_config.lags,
                                 (granger_config.criterion,),
                                 (granger_config.significance,),
                                 granger_config.always_trivariate,
                                 iterations, master_seed, workers)
    return _estimate_from_counts(counts[0, 0], iterations, rd)


def sweep_significance(topology: TopologyKind, alphas: Sequence[float],
                       n_points: int = 50,
                       criteria: Sequence[Criterion] = PRESET_CRITERIA,
                       iterations: int = 1000, seed: int = 0,
                       lags: int = 2, workers: Optional[int] = None,
                       gen_config: Optional[GeneratorConfig] = None) -> SweepResult:
    """Rates against the significance level, at a fixed sample size.

    Samples are shared across significance levels and criteria (seeded per
    iteration only), which is exactly equivalent to repeated estimate_rates
    calls with the same master seed.
    """
    require_positive("iterations", iterations)
    alphas = tuple(require_significance(a) for a in alphas)
    if not alphas:
        raise ValueError("significance grid must be non-empty")
    gen = gen_config or GeneratorConfig(topology=topology, length=n_points)
    [(counts, rd)] = _accumulate([(gen, ())], lags, tuple(criteria), alphas, False,
                                 iterations, seed, workers)
    rates = {crit: tuple(_estimate_from_counts(counts[ci, ai], iterations, rd)
                         for ai in range(len(alphas)))
             for ci, crit in enumerate(criteria)}
    return SweepResult(axis=alphas, rates=rates)


def sweep_sample_size(topology: TopologyKind, alpha: float, sizes: Sequence[int],
                      criteria: Sequence[Criterion] = PRESET_CRITERIA,
                      cases: int = 1000, seed: int = 0, lags: int = 2,
                      workers: Optional[int] = None,
                      comparison_level: float = 0.1) -> SweepResult:
    """Rates against the sample size at a fixed significance level, plus
    pairwise criterion-difference tests at each size."""
    require_positive("cases", cases)
    alpha = require_significance(alpha)
    for n in sizes:
        if not float(n).is_integer():
            raise ValueError(f"sample sizes must be integers, got {n!r}")
    sizes = tuple(int(n) for n in sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    criteria = tuple(criteria)
    cells = [(GeneratorConfig(topology=topology, length=n), (n,)) for n in sizes]
    with closing(_accumulate(cells, lags, criteria, (alpha,), False, cases,
                             seed, workers)) as results:
        per_size = [{crit: _estimate_from_counts(counts[ci, 0], cases, rd)
                     for ci, crit in enumerate(criteria)} for counts, rd in results]
    rates = {crit: tuple(row[crit] for row in per_size) for crit in criteria}
    comparisons = {(ca, cb): tuple(compare_criteria(row[ca], row[cb], level=comparison_level)
                                   for row in per_size)
                   for ca, cb in combinations(criteria, 2)}
    return SweepResult(axis=tuple(float(n) for n in sizes), rates=rates,
                       comparisons=comparisons)


def phase_space(noise_kind: NoiseKind, topology: TopologyKind, n: int, alpha: float,
                criterion: Criterion = Criterion.WALD, iterations: int = 500,
                grids: Optional[Sequence[Sequence[float]]] = None, seed: int = 0,
                lags: int = 2, workers: Optional[int] = None,
                on_cell: Optional[Callable[[dict], None]] = None,
                done_cells: Optional[Mapping[tuple[float, float, float], dict]] = None
                ) -> PhaseGrid:
    """Rates over the 3-D SNR grid.

    ``on_cell`` is invoked once per cell, in grid order, after the cell
    completes (used for checkpointing). ``done_cells`` maps already-computed
    SNR triples to their rate dicts; those cells are not recomputed.
    """
    require_positive("iterations", iterations)
    require_significance(alpha)
    _worker_count(workers, 1)  # checked even when every cell is already done
    if noise_kind is NoiseKind.FIXED_SIGMA:
        raise ValueError("phase spaces require an SNR noise kind")
    if grids is None:
        grids = (snr_grid(), snr_grid(), snr_grid())
    axes = tuple(tuple(float(v) for v in g) for g in grids)
    fields = {name: np.zeros(tuple(len(a) for a in axes)) for name in _PHASE_FIELDS}
    done = dict(done_cells or {})
    # (grid index, SNR triple) of every cell, in grid order.
    coords = [tuple(zip(*c)) for c in product(*map(enumerate, axes))]
    tasks = [(GeneratorConfig(topology=topology, length=n, noise_kind=noise_kind,
                              sigmas_or_snrs=snrs),
              lags, (criterion,), (alpha,), False, seed, (cell_index,), 0, iterations)
             for cell_index, (_, snrs) in enumerate(coords) if snrs not in done]
    with closing(_schedule(tasks, workers)) as results:
        for idx, snrs in coords:
            cell = done.get(snrs)
            if cell is None:
                counts, rd = next(results)
                est = _estimate_from_counts(counts[0, 0], iterations, rd)
                cell = {"spurious_rate": est.spurious_rate,
                        "unidentified_rate": est.unidentified_rate,
                        "rate_xz": est.per_link_rates["x->z"],
                        "rate_yz": est.per_link_rates["y->z"]}
                if on_cell is not None:
                    on_cell(dict(zip(("snr_x_db", "snr_y_db", "snr_z_db"), snrs), **cell))
            for name, values in fields.items():
                values[idx] = cell[name]
    metadata = {"topology": topology.value, "noise_kind": noise_kind.value,
                "n": n, "alpha": alpha, "criterion": criterion.value,
                "iterations": iterations, "seed": seed, "lags": lags}
    return PhaseGrid(axes=axes, spurious=fields["spurious_rate"],
                     unidentified=fields["unidentified_rate"], rate_xz=fields["rate_xz"],
                     rate_yz=fields["rate_yz"], metadata=metadata)


_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def extract_plane(grid: PhaseGrid, axis: str, value_db: float,
                  field_name: str = "unidentified"
                  ) -> tuple[np.ndarray, tuple[str, tuple[float, ...]], tuple[str, tuple[float, ...]]]:
    """2-D slice of one rate field at a fixed SNR coordinate.

    Returns (plane, (row axis name, row values), (column axis name, column
    values)); rows vary along the first remaining axis.
    """
    ax = _AXIS_INDEX[axis.lower()]
    values = grid.axes[ax]
    matches = [i for i, v in enumerate(values) if v == float(value_db)]
    if not matches:
        raise OffGrid(f"SNR^{axis.upper()} = {value_db} dB is not on the grid")
    if field_name not in ("spurious", "unidentified", "rate_xz", "rate_yz"):
        raise ValueError(f"unknown field {field_name!r}")
    data = getattr(grid, field_name)
    plane = np.take(data, matches[0], axis=ax)
    names = [n for n in ("x", "y", "z") if n != axis.lower()]
    remaining = [grid.axes[_AXIS_INDEX[n]] for n in names]
    return plane, (names[0], remaining[0]), (names[1], remaining[1])
