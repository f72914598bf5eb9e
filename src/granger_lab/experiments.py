"""Monte Carlo orchestration: significance sweeps, sample-size sweeps and
SNR phase spaces.

Determinism contract: every iteration draws its generator seed from
(master seed, stream key..., iteration index) through a seed sequence, so
results are bit-identical however the work is partitioned across workers.
A command's iterations are cut into runs of consecutive iterations, and
each run's seeds and generator states are derived in bulk (``seeding``).
Rates are exact count/iterations fractions.

With n workers, the calling process is one of them: it forks n - 1
children before the first run, and the runs are dealt round-robin, run k
to process k % n. Each child gets its cells through the fork and sends
each run's counts back, pickled, through its own pipe, so a child runs
ahead of the reader only as far as its pipe buffer holds and memory does
not grow with the iteration count. The parent computes its own runs
inline and reads the children's in run order. A failure in any process,
an exception in the consumer, an early close or Ctrl-C kills and reaps
every child. Where ``os.fork`` is missing, one process computes every run.

A cell is one (shape config, noise levels, stream key) record. Each
sample's edges come from ``granger.block_pvalues`` and
``granger.decide_edge_array``, the same path ``analyze`` takes, and a cell
counts how often each edge was accepted. A run's consecutive cells that
share a shape config, such as a phase space's, are one block, which
``_count_block`` cuts into chunks. It finds each chunk's cells once: they
give each sample its own cell's levels (one broadcast row for a chunk
inside one cell), and the chunk's edges and rank-deficient samples are
summed back per cell, so a cell's counts do not depend on its neighbours.
Each process draws, stacks and reduces every chunk of a command in the
buffers of its one ``datagen.Workspace``, made once per command, which grow
to hold a chunk of ``CHUNK_VALUES`` values a block, and more only for a
longer sample.
``_estimate_from_counts`` alone turns those counts into rates against the
true topology: with driver truth, spurious means the Y->Z link was
accepted and unidentified means X->Z was rejected; with indirect truth the
roles of the two links swap.

A phase space is a stream of rows, one per cell in grid order
(``phase_rows``), and nothing else: its cells are indexed from its three
axes as they are read, a checkpointed run resumes by starting the stream
after the rows it has, and ``extract_plane`` builds one plane of any rows
in one pass, with no array the size of the grid.

Before any sample is drawn, ``require_positive`` checks that iteration,
case and worker counts are positive integers, ``seeding.require_seed``
that the master seed is a non-negative integer, and every entry point
resolves its cells' noise levels once (a phase space each axis value's
SNR, ``datagen.axis_sigmas``), so an SNR whose noise std overflows is
refused, and checks its sample lengths against the lag depth
(``granger.require_length``) before it builds a config of them. Every
experiment uses ``granger.LAGS`` lags.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import closing
from dataclasses import dataclass, field
from itertools import combinations, groupby, islice
from typing import BinaryIO, Optional

import numpy as np

from .core import FORWARD_LINKS, Link, TopologyKind
from .criteria import PRESET_CRITERIA, Criterion, RateComparison, compare_criteria
from .datagen import (GeneratorConfig, NoiseKind, Workspace, axis_sigmas, chunk_rows,
                      generate_rows, resolve_sigmas)
from .granger import LAGS, block_pvalues, decide_edge_array, require_length, require_significance
from .seeding import derive_seeds, generator_states, require_seed

#: Keys of a phase-space row: the cell's SNR triple, then its rates.
SNR_KEYS = ("snr_x_db", "snr_y_db", "snr_z_db")
PHASE_RATES = ("spurious_rate", "unidentified_rate", "rate_xz", "rate_yz")

#: Iterations of one run (one seed derivation, computed by one process), at most.
RUN_ITERATIONS = 1000

class DegenerateConfiguration(RuntimeError):
    """More than 1% of iterations hit rank-deficient designs."""


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


def snr_grid(lo: float = -40.0, hi: float = 40.0, points: int = 17) -> tuple[float, ...]:
    """Inclusive uniform grid in dB (default 5 dB spacing over [-40, 40])."""
    return tuple(float(v) for v in np.linspace(lo, hi, points))


def require_positive(name: str, given: object) -> int:
    """``given`` (an integral number or integer text) as a positive integer,
    else a ValueError that names ``name``."""
    try:
        value = int(given)
    except (TypeError, ValueError, OverflowError):
        value = 0
    if value < 1 or not (isinstance(given, str) or value == given):
        raise ValueError(f"{name} must be a positive integer, got {given!r}")
    return value


def require_distinct_axes(grids: Sequence[Sequence[float]]
                          ) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """The axes as float tuples. Reject an axis with a value that is not
    finite, or that repeats a value: it would alias two SNR-keyed cells."""
    axes = tuple(tuple(map(float, grid)) for grid in grids)
    for name, axis in zip("xyz", axes):
        if not all(map(math.isfinite, axis)):
            raise ValueError(f"the {name} grid has a non-finite value")
        if len(set(axis)) < len(axis):
            raise ValueError(f"the {name} grid repeats a value")
    return axes


def _grid_point(axes: Sequence[Sequence[float]], index: int) -> tuple[float, float, float]:
    """The ``index``-th triple of the three axes' product, in ``product`` order."""
    rest, k = divmod(index, len(axes[2]))
    i, j = divmod(rest, len(axes[1]))
    return axes[0][i], axes[1][j], axes[2][k]


class _GridCells(Sequence):
    """A phase space's cells from ``start`` on, in grid order, each made when
    it is read: (shape config, noise levels from the three sigma axes, (grid
    index,))."""

    def __init__(self, shape: GeneratorConfig, sigmas: Sequence[Sequence[float]], start: int):
        self.shape, self.sigmas, self.start = shape, sigmas, start
        self.size = max(math.prod(map(len, sigmas)) - start, 0)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, c: int) -> tuple:
        if not 0 <= c < self.size:
            raise IndexError(c)
        return self.shape, _grid_point(self.sigmas, self.start + c), (self.start + c,)


def _worker_count(workers: Optional[int], jobs: int) -> int:
    """Worker processes, this one included, for ``jobs`` independent tasks.

    The request (else ``GRANGER_LAB_THREADS``, else the CPU count) must be
    a positive integer. It is clamped to the CPU count and to ``jobs``, so
    no flag can start more processes than there are cores or tasks. Where
    ``os.fork`` is missing, every task runs in this process.
    """
    env = os.environ.get("GRANGER_LAB_THREADS")
    if workers is not None:
        workers = require_positive("workers", workers)
    elif env:
        workers = require_positive("GRANGER_LAB_THREADS", env)
    else:
        workers = os.cpu_count() or 1
    if not hasattr(os, "fork"):
        return 1
    workers = min(workers, jobs)
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    return max(1, workers)


def _count_block(gen: GeneratorConfig, levels: Sequence[Sequence[float]], sizes: Sequence[int],
                 criteria: tuple[Criterion, ...], alphas: tuple[float, ...], states: np.ndarray,
                 workspace: Optional[Workspace] = None) -> list[tuple[np.ndarray, int]]:
    """(accepted-edge counts, rank-deficient count) of each cell of shape
    ``gen``: cell c has the noise levels ``levels[c]`` and owns the next
    ``sizes[c]`` rows of ``states``. Counts are (criterion, alpha, link), in
    ``FORWARD_LINKS`` order. The cells' samples are generated and scored in
    chunks of ``chunk_rows(gen)`` states; a chunk's cells are found once,
    to give each sample its cell's levels and to sum the chunk's edges,
    decided for every alpha at once, back per cell. Every chunk is drawn,
    stacked and reduced in ``workspace``'s buffers, or in new ones without it."""
    cells, first_rows = len(sizes), np.cumsum(sizes) - sizes
    edges = np.zeros((cells, len(criteria), len(alphas), len(FORWARD_LINKS)), dtype=np.int64)
    rank_deficient = np.zeros(cells, dtype=np.int64)
    levels, alpha_levels, rows = np.array(levels), np.array(alphas), chunk_rows(gen)
    for done in range(0, len(states), rows):
        chunk = states[done:done + rows]
        # The cells of the chunk's first and last rows, and where each starts.
        first, last = np.searchsorted(first_rows, (done, done + len(chunk) - 1), "right") - 1
        starts = np.maximum(first_rows[first:last + 1] - done, 0)
        # A chunk inside one cell passes its one row of levels, which is
        # broadcast: scaling normals by a (rows, 1) column costs about 3x
        # one value's. A chunk across cells passes a row per sample.
        chunk_levels = levels[first:last + 1]
        if last > first:
            chunk_levels = np.repeat(chunk_levels, np.diff(starts, append=len(chunk)), axis=0)
        pvalues, deficient = block_pvalues(*generate_rows(gen, chunk_levels, chunk, workspace),
                                           LAGS, criteria, workspace)
        decided = decide_edge_array(pvalues, alpha_levels)
        edges[first:last + 1] += np.add.reduceat(decided, starts, dtype=np.int64)
        rank_deficient[first:last + 1] += np.add.reduceat(deficient, starts, dtype=np.int64)
    return list(zip(edges, rank_deficient.tolist()))


def _cut_runs(cells: Sequence[object], iterations: int, size: int
              ) -> Iterator[list[tuple[object, int, int]]]:
    """The cells' iterations, cell after cell, cut into runs of ``size``
    (the last may have fewer), one at a time. Run k covers the global
    iterations [k * size, (k + 1) * size), as (cell, start, stop) segments."""
    total = len(cells) * iterations
    for a in range(0, total, max(size, 1)):
        b = min(a + size, total)
        yield [(cells[c], max(a - c * iterations, 0), min(b - c * iterations, iterations))
               for c in range(a // iterations, (b - 1) // iterations + 1)]


def _count_run(run: Sequence[tuple], criteria: tuple[Criterion, ...],
               alphas: tuple[float, ...], master_seed: int,
               workspace: Optional[Workspace] = None) -> list[tuple[np.ndarray, int]]:
    """(counts, rank_deficient) of every (cell, start, stop) segment of a
    run, in order, from one seed derivation. Consecutive cells with the
    same shape config share one ``_count_block`` call, in ``workspace``."""
    states = generator_states(derive_seeds(
        [((master_seed, *key), start, stop) for (_, _, key), start, stop in run]))
    results, done = [], 0
    for gen, group in groupby(run, key=lambda segment: segment[0][0]):
        levels, sizes = zip(*((row, stop - start) for (_, row, _), start, stop in group))
        results += _count_block(gen, levels, sizes, criteria, alphas,
                                states[done:done + sum(sizes)], workspace)
        done += sum(sizes)
    return results


def _child(runs: Iterator[list], args: tuple, fd: int, inherited: list[int]) -> None:
    """A forked worker's whole life: close the ``inherited`` descriptors,
    compute ``runs`` in order, pickle (True, results) of each to the pipe
    ``fd``, or (False, exception) for the first that fails, and leave
    through ``os._exit``, so nothing the parent holds is flushed or
    finalised twice. It ignores SIGINT (the parent's Ctrl-C kills it), and
    a write to a parent that has died fails with EPIPE and ends it."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for inherited_fd in inherited:
            os.close(inherited_fd)
        with open(fd, "wb") as pipe:
            for run in runs:
                try:
                    ok, value = True, _count_run(run, *args)
                except Exception as exc:
                    ok, value = False, exc
                pipe.write(pickle.dumps((ok, value)))
                pipe.flush()
                if not ok:
                    break
    finally:
        os._exit(0)


def _receive(pipe: BinaryIO) -> list[tuple[np.ndarray, int]]:
    """The next run's results from a child's pipe; the child's exception
    is raised again here, and a pipe that ends first is a RuntimeError."""
    try:
        ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError("a worker process ended before it sent its results") from None
    if not ok:
        raise value
    return value


def _cell_counts(cells: Sequence[tuple], criteria: tuple[Criterion, ...],
                 alphas: tuple[float, ...], iterations: int, master_seed: int,
                 workers: Optional[int] = None) -> Iterator[tuple[np.ndarray, int]]:
    """Yield (counts, rank_deficient) per cell, in cell order.

    The cells' iterations are cut into runs as they are read, in order; a
    run may split a cell and is one seed derivation. One worker computes
    runs of ``RUN_ITERATIONS`` iterations here. n workers get about four
    runs each, capped at that size, dealt round-robin to this process and
    to n - 1 children forked before the first run, as the module docstring
    describes. The one ``Workspace`` is made before the forks, with no
    buffer yet, so each process makes its own on its first chunk.
    """
    total = len(cells) * iterations
    n_workers = _worker_count(workers, total // 2)  # two iterations or more each
    size = min(RUN_ITERATIONS, total if n_workers == 1 else math.ceil(total / (4 * n_workers)))
    args = (criteria, alphas, master_seed, Workspace())
    children, pipes = [], [None]  # pipes[i]: process i's results, None for this one
    try:
        for index in range(1, n_workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(islice(_cut_runs(cells, iterations, size), index, None, n_workers),
                       args, write_fd, [read_fd] + [pipe.fileno() for pipe in pipes[1:]])
            children.append(pid)
            os.close(write_fd)
            pipes.append(open(read_fd, "rb"))
        counts = rank_deficient = 0
        for k, run in enumerate(_cut_runs(cells, iterations, size)):
            pipe = pipes[k % n_workers]
            run_results = _count_run(run, *args) if pipe is None else _receive(pipe)
            for (_, _, stop), (block, block_rd) in zip(run, run_results):
                counts, rank_deficient = counts + block, rank_deficient + block_rd
                if stop == iterations:
                    yield counts, rank_deficient
                    counts = rank_deficient = 0
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        for pipe in pipes[1:]:
            pipe.close()
        for pid in children:
            os.waitpid(pid, 0)


def _estimate_from_counts(edges: np.ndarray, topology: TopologyKind, iterations: int,
                          rank_deficient: int, cell: str = "") -> RateEstimate:
    """A cell's rates from its accepted-edge counts (``FORWARD_LINKS``
    order) against the true ``topology``. A ``DegenerateConfiguration``
    names the ``cell`` when one is given."""
    effective = iterations - rank_deficient
    if rank_deficient > 0.01 * iterations or effective == 0:
        raise DegenerateConfiguration(
            f"{rank_deficient}/{iterations} iterations were rank deficient"
            + (f" at {cell}" if cell else ""))
    accepted = dict(zip(FORWARD_LINKS, edges.tolist()))
    absent, present = ((Link.YZ, Link.XZ) if topology is TopologyKind.DRIVER
                       else (Link.XZ, Link.YZ))
    return RateEstimate(
        spurious_rate=accepted[absent] / effective,
        unidentified_rate=(effective - accepted[present]) / effective,
        iterations=effective,
        per_link_rates={link.value: n / effective for link, n in accepted.items()},
        rank_deficient=rank_deficient)


def estimate_rates(gen_config: GeneratorConfig, criterion: Criterion = Criterion.WALD,
                   alpha: float = 0.05, *, iterations: int, master_seed: int,
                   workers: Optional[int] = None) -> RateEstimate:
    """Monte Carlo spurious/unidentified rates for one configuration, scored
    by ``criterion`` at the significance level ``alpha``."""
    alpha = require_significance(alpha)
    iterations = require_positive("iterations", iterations)
    require_seed(master_seed)
    require_length(gen_config.length, LAGS)
    cell = (gen_config, resolve_sigmas(gen_config), ())
    [(counts, rd)] = _cell_counts([cell], (criterion,), (alpha,), iterations, master_seed,
                                  workers)
    return _estimate_from_counts(counts[0, 0], gen_config.topology, iterations, rd)


def sweep_significance(topology: TopologyKind, alphas: Sequence[float],
                       n_points: int = 50,
                       criteria: Sequence[Criterion] = PRESET_CRITERIA,
                       iterations: int = 1000, seed: int = 0,
                       workers: Optional[int] = None,
                       ready: Callable[[], object] = lambda: None) -> SweepResult:
    """Rates against the significance level, at a fixed sample size.

    Samples are shared across significance levels and criteria (seeded per
    iteration only), which is exactly equivalent to repeated estimate_rates
    calls with the same master seed. ``ready`` is called once every
    argument has passed its checks, before the first sample is drawn.
    """
    iterations = require_positive("iterations", iterations)
    require_seed(seed)
    alphas = tuple(require_significance(a) for a in alphas)
    if not alphas:
        raise ValueError("significance grid must be non-empty")
    require_length(n_points, LAGS)
    _worker_count(workers, 1)
    gen = GeneratorConfig(topology=topology, length=n_points)
    ready()
    [(counts, rd)] = _cell_counts([(gen, resolve_sigmas(gen), ())], tuple(criteria),
                                  alphas, iterations, seed, workers)
    rates = {crit: tuple(_estimate_from_counts(counts[ci, ai], topology, iterations, rd)
                         for ai in range(len(alphas)))
             for ci, crit in enumerate(criteria)}
    return SweepResult(axis=alphas, rates=rates)


def sweep_sample_size(topology: TopologyKind, alpha: float, sizes: Sequence[int],
                      criteria: Sequence[Criterion] = PRESET_CRITERIA,
                      cases: int = 1000, seed: int = 0,
                      workers: Optional[int] = None,
                      ready: Callable[[], object] = lambda: None) -> SweepResult:
    """Rates against the sample size at a fixed significance level, plus
    pairwise criterion-difference tests at each size. ``ready`` is called
    once every argument has passed its checks, before the first sample."""
    cases = require_positive("cases", cases)
    require_seed(seed)
    alpha = require_significance(alpha)
    for n in sizes:
        if not float(n).is_integer():
            raise ValueError(f"sample sizes must be integers, got {n!r}")
    sizes = tuple(int(n) for n in sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    criteria = tuple(criteria)
    for n in sizes:
        require_length(n, LAGS)
    _worker_count(workers, 1)
    gens = [GeneratorConfig(topology=topology, length=n) for n in sizes]
    cells = [(gen, resolve_sigmas(gen), (gen.length,)) for gen in gens]
    ready()
    with closing(_cell_counts(cells, criteria, (alpha,), cases, seed, workers)) as results:
        per_size = [{crit: _estimate_from_counts(counts[ci, 0], topology, cases, rd, f"n={n}")
                     for ci, crit in enumerate(criteria)}
                    for n, (counts, rd) in zip(sizes, results)]
    rates = {crit: tuple(row[crit] for row in per_size) for crit in criteria}
    comparisons = {(ca, cb): tuple(compare_criteria(row[ca], row[cb]) for row in per_size)
                   for ca, cb in combinations(criteria, 2)}
    return SweepResult(axis=tuple(float(n) for n in sizes), rates=rates,
                       comparisons=comparisons)


def phase_rows(noise_kind: NoiseKind, topology: TopologyKind, n: int, alpha: float,
               criterion: Criterion = Criterion.WALD, iterations: int = 500,
               grids: Sequence[Sequence[float]] = (snr_grid(),) * 3, seed: int = 0,
               workers: Optional[int] = None, start: int = 0) -> Iterator[dict[str, float]]:
    """The rows of the 3-D SNR grid's cells in grid order, beginning at cell
    ``start``, each yielded as soon as its cell completes.

    A row maps ``SNR_KEYS`` to the cell's SNR triple and the names in
    ``PHASE_RATES`` to its rates. Cells before ``start`` are not computed,
    so a run resumes from a grid-order prefix of its rows. Every argument
    is checked here, when the stream is made, even if no cell is left to
    compute, and so is every SNR on the axes. Nothing is drawn and no
    worker is forked until the first row is read, and no cell exists
    before it is read.
    """
    iterations = require_positive("iterations", iterations)
    require_seed(seed)
    require_significance(alpha)
    _worker_count(workers, 1)
    if noise_kind is NoiseKind.FIXED_SIGMA:
        raise ValueError("phase spaces require an SNR noise kind")
    axes = require_distinct_axes(grids)
    require_length(n, LAGS)
    shape = GeneratorConfig(topology=topology, length=n, noise_kind=noise_kind)
    if start < 0:
        raise ValueError(f"start must be a cell index >= 0, got {start!r}")
    cells = _GridCells(shape, axis_sigmas(shape, axes), start)
    return _phase_stream(cells, axes, criterion, alpha, iterations, seed, workers)


def _phase_stream(cells: _GridCells, axes: Sequence[Sequence[float]], criterion: Criterion,
                  alpha: float, iterations: int, seed: int,
                  workers: Optional[int]) -> Iterator[dict[str, float]]:
    """The rows of ``phase_rows``' checked cells on SNR ``axes``, one a completed cell."""
    with closing(_cell_counts(cells, (criterion,), (alpha,), iterations, seed,
                              workers)) as results:
        for (gen, _, (index,)), (counts, rd) in zip(cells, results):
            snrs = _grid_point(axes, index)
            est = _estimate_from_counts(counts[0, 0], gen.topology, iterations, rd,
                                        f"SNR (x, y, z) = {snrs} dB")
            yield dict(zip(SNR_KEYS, snrs), spurious_rate=est.spurious_rate,
                       unidentified_rate=est.unidentified_rate,
                       rate_xz=est.per_link_rates["x->z"],
                       rate_yz=est.per_link_rates["y->z"])


def extract_plane(rows: Iterable[Mapping[str, float]], axis: str, value_db: float,
                  field_name: str = "unidentified_rate") -> np.ndarray:
    """One rate field of phase-space ``rows`` on the plane SNR ``axis`` =
    ``value_db``, built in one pass over the rows. The plane's rows follow
    the first remaining axis and its columns the second, each holding the
    values that the rows hold on that axis, in ascending order; NaN marks
    a cell with no row. An unknown axis or field, a coordinate that no row
    holds, or an SNR triple that two rows share is a ValueError."""
    fixed = f"snr_{axis.lower()}_db"
    if fixed not in SNR_KEYS:
        raise ValueError(f"unknown axis {axis!r}")
    if field_name not in PHASE_RATES:
        raise ValueError(f"unknown field {field_name!r}")
    rest = [i for i, key in enumerate(SNR_KEYS) if key != fixed]
    triples, cells = set(), {}
    for row in rows:
        triple = tuple(row[key] for key in SNR_KEYS)
        if triple in triples:
            raise ValueError(f"more than one row for the SNR triple {triple}")
        triples.add(triple)
        if row[fixed] == value_db:
            cells[tuple(triple[i] for i in rest)] = row[field_name]
    if not cells:
        raise ValueError(f"SNR^{axis.upper()} = {value_db} dB is not on the grid")
    index = [{v: j for j, v in enumerate(sorted({t[i] for t in triples}))} for i in rest]
    plane = np.full(tuple(map(len, index)), np.nan)
    for (a, b), rate in cells.items():
        plane[index[0][a], index[1][b]] = rate
    return plane
