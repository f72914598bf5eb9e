"""Command-line interface: experiment presets, CSV emission, manifests,
heatmap rendering of one ``experiments.extract_plane`` plane of a
phase-space CSV, and ``analyze``, which scores a sample's forward and
reverse links with one ``granger.sample_pvalues`` call. ``render`` and
``phase-space --resume`` read a phase-space CSV one row at a time, through
``_phase_csv_rows``, and neither holds the file's rows.

Each command raises on failure, and ``main`` alone maps the failure to an
exit code: 0 success, 2 invalid flags or malformed input (among them a
sample length below 4 * lags + 1, or a lag depth whose lag stack outgrows
the longest sample's, refused before any sample is drawn or stacked), 3
runtime failure, 4 resume-file conflict. ``phase-space`` has
``experiments.phase_rows`` check all of its flags, and every SNR on its
axes, before it compares, truncates or appends to a checkpoint, so a bad
flag or an SNR whose noise std overflows exits 2 and leaves the checkpoint
as it was. ``GRANGER_LAB_THREADS`` sets the worker count when
``--workers`` is absent. ``main`` removes an experiment's old manifest
before it runs and writes a flat key=value manifest next to its outputs
once it succeeds; ``granger-lab --from-manifest FILE`` re-runs its
``argv=`` line byte-identically (timestamps aside).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys
import time
from contextlib import ExitStack, closing, suppress
from itertools import chain, product
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np
import scipy

from . import __version__
from .core import FORWARD_LINKS, TopologyKind, topology_kind
from .criteria import Criterion
from .datagen import DEFAULT_BURN_IN, GeneratorConfig, NoiseKind, TrivariateSample, generate
from .experiments import (PHASE_RATES, SNR_KEYS, SweepResult, extract_plane, phase_rows,
                          sweep_sample_size, sweep_significance)
from .granger import (FORWARD_KEYS, LAGS, REVERSE_KEYS, decide_edge_array, require_significance,
                      sample_pvalues)
from .ppm import render_plane, write_ppm

#: The run's settings, repeated on every phase-space row, and how each parses.
PHASE_META = {"topology": str, "noise_kind": str, "n": int, "alpha": float,
              "criterion": str, "iterations": int}
PHASE_COLUMNS = (*SNR_KEYS, *PHASE_META, *PHASE_RATES)
PHASE_HEADER = ",".join(PHASE_COLUMNS)

#: Values a 'lo:hi:step' grid spec may expand to, at most.
MAX_GRID_VALUES = 10_000


def fmt(value: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(value))


def parse_grid(spec: str) -> tuple[float, ...]:
    """Parse a comma-separated value list, or 'lo:hi:step': lo, lo + step, ...
    up to the last value <= hi, 1e-9 of a step allowing for round-off.
    A range is three finite numbers giving at most ``MAX_GRID_VALUES`` values."""
    if ":" in spec:
        try:
            lo, hi, step = map(float, spec.split(":"))
        except ValueError:  # not three numbers: rejected below
            lo = hi = step = math.nan
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
            raise ValueError(f"bad grid spec {spec!r}")
        steps = (hi - lo) / step + 1e-9
        if not steps < MAX_GRID_VALUES:  # also an overflow to infinity
            raise ValueError(f"grid spec {spec!r} has more than {MAX_GRID_VALUES} values")
        return tuple(round(lo + i * step, 12) for i in range(int(steps) + 1))
    try:
        values = tuple(float(v) for v in spec.split(",") if v.strip())
    except ValueError:  # a value that is not a number
        raise ValueError(f"bad grid spec {spec!r}") from None
    if not values:
        raise ValueError("empty grid")
    return values


def parse_criterion(name: str, spec: str | None = None) -> Criterion:
    """The criterion called ``name``, in any case; an error also names
    ``spec``, the list that ``name`` came from."""
    try:
        return Criterion(name.strip().lower())
    except ValueError:
        where = f" in {spec!r}" if spec else ""
        raise ValueError(f"bad criterion {name.strip()!r}{where}: expected lr, wald, rao or lm"
                         ) from None


def parse_criteria(spec: str) -> tuple[Criterion, ...]:
    """The criteria of a comma list, each named at most once."""
    criteria = tuple(parse_criterion(name, spec) for name in spec.split(","))
    for i, crit in enumerate(criteria):
        if crit in criteria[:i]:
            raise ValueError(f"criterion '{crit.value}' is given twice in {spec!r}")
    return criteria


def write_manifest(path: str, experiment: str, argv: list[str],
                   seed: int, outputs: list[str], iterations: int,
                   started: float, finished: float, wall_s: float) -> None:
    """The run's key=value record. ``iterations`` counts the Monte Carlo
    iterations this invocation ran, so cells resumed from a checkpoint are
    not in it."""
    lines = [
        f"experiment={experiment}",
        f"argv={shlex.join(argv)}",
        f"seed={seed}",
        f"version={__version__}",
        f"python={sys.version.split()[0]}", f"numpy={np.__version__}", f"scipy={scipy.__version__}",
        f"blas={_lapack_build()}",
        f"started={time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime(started))}",
        f"finished={time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime(finished))}",
        f"wall_s={wall_s:.3f}",
        f"iterations={iterations}",
        f"iters_per_s={iterations / wall_s:.1f}",
    ]
    lines += [f"output={p}" for p in outputs]
    _write_lines(path, lines)


def _lapack_build() -> str:
    """Name and version of the LAPACK build behind ``dgeqrf`` and ``dtbtrs``,
    whose rounding RSS and sample bits follow; ``?`` for what scipy's build
    record lacks."""
    lapack = scipy.show_config(mode="dicts").get("Build Dependencies", {}).get("lapack", {})
    return f"{lapack.get('name', '?')} {lapack.get('version', '?')}"


def _manifest_argv(path: str) -> list[str]:
    """The argv of a manifest's first ``argv=`` line, split back into
    arguments. Replay reads no other line."""
    text = _read_input(lambda p: _decode(p, Path(p).read_bytes()), path)
    argv = next((line[5:] for line in map(str.strip, text.split("\n"))
                 if line.startswith("argv=")), None)
    if argv is None:
        raise ValueError(f"{path}: manifest has no argv entry")
    try:
        return shlex.split(argv)
    except ValueError as exc:
        raise ValueError(f"{path}: unreadable argv entry ({exc})") from None


def _read_input(read, path: str):
    """``read(path)``, with an input file that cannot be read reported as malformed."""
    try:
        return read(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.set_defaults(experiment=True)  # main manages its manifest
    p.add_argument("--topology", choices=["driver", "indirect"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")


def _sweep_alpha_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--alpha-grid", default="0.05:0.5:0.05")
    p.add_argument("--criteria", default="lr,wald,rao")
    p.add_argument("--iterations", type=int, default=1000)


def _sweep_n_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sizes", required=True, help="lo:hi:step or comma list")
    p.add_argument("--criteria", default="lr,wald,rao")
    p.add_argument("--cases", type=int, default=1000)


def _phase_space_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--noise", choices=["intrinsic", "extrinsic"], required=True)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--criterion", default="wald")
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--grid", default="-40:40:5", help="shared axis grid")
    p.add_argument("--grid-x"), p.add_argument("--grid-y"), p.add_argument("--grid-z")
    p.add_argument("--resume", action="store_true")


def _render_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="phase-space CSV")
    p.add_argument("--axis", choices=["x", "y", "z"], required=True)
    p.add_argument("--value", type=float, required=True, help="plane coordinate in dB")
    p.add_argument("--field", default="unidentified_rate", choices=list(PHASE_RATES))
    p.add_argument("--scale", type=int, default=16)
    p.add_argument("--out", required=True, help="output PPM path")


def _analyze_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV with header t,x,y,z")
    p.add_argument("--lags", type=int, default=LAGS)
    p.add_argument("--criterion", default="wald")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--json", action="store_true")


def _generate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", choices=["driver", "indirect"], required=True)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--noise", choices=["fixed", "intrinsic", "extrinsic"], default="fixed")
    p.add_argument("--params", default="0,0.1,0.5",
                   help="sigma triple (fixed) or SNR dB triple (intrinsic/extrinsic)")
    p.add_argument("--ar", type=float, default=GeneratorConfig.ar_coefficient)
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every command of ``COMMANDS`` or, given one of
    them, with only that command's subparser. The one-command parser names
    every command in its usage line, so for that command's arguments both
    print the same usage, help and errors; building one subparser instead
    of six is what ``main`` saves on every run."""
    parser = argparse.ArgumentParser(prog="granger-lab",
                                     description=__doc__.splitlines()[0])
    parser.set_defaults(experiment=False)
    parser.add_argument("--from-manifest", metavar="FILE",
                        help="re-run the experiment recorded in a manifest")
    every = "{" + ",".join(COMMANDS) + "}"  # argparse's own rendering of the choices
    sub = parser.add_subparsers(dest="command", metavar=every if command else None)
    for name, (text, run, add_flags) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            p.set_defaults(run=run)
            add_flags(p)
    return parser


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_rate_table(path: str, axis_name: str, axis_text: Callable[[float], str],
                      result: SweepResult, criteria: tuple[Criterion, ...]) -> None:
    """One row per criterion and axis value: the value as ``axis_text``
    writes it, the key-link rates and their standard errors."""
    lines = [f"{axis_name},criterion,spurious_rate,unidentified_rate,"
             "se_spurious,se_unidentified"]
    for crit in criteria:
        for value, est in zip(result.axis, result.rates[crit]):
            lines.append(",".join([
                axis_text(value), crit.value, fmt(est.spurious_rate),
                fmt(est.unidentified_rate), fmt(est.standard_error(est.spurious_rate)),
                fmt(est.standard_error(est.unidentified_rate))]))
    _write_lines(path, lines)


def cmd_sweep_alpha(args) -> tuple[list[str], int]:
    alphas = parse_grid(args.alpha_grid)
    criteria = parse_criteria(args.criteria)
    topology = TopologyKind(args.topology)
    result = sweep_significance(topology, alphas, n_points=args.n, criteria=criteria,
                                iterations=args.iterations, seed=args.seed, workers=args.workers,
                                ready=lambda: os.makedirs(args.out, exist_ok=True))
    csv_path = os.path.join(args.out, "sweep_alpha.csv")
    _write_rate_table(csv_path, "alpha", fmt, result, criteria)
    for crit in criteria:
        print(f"optimal alpha ({crit.value}): {fmt(result.optimal(crit))}")
    return [csv_path], args.iterations


def cmd_sweep_n(args) -> tuple[list[str], int]:
    sizes = parse_grid(args.sizes)
    criteria = parse_criteria(args.criteria)
    topology = TopologyKind(args.topology)
    result = sweep_sample_size(topology, args.alpha, sizes, criteria=criteria,
                               cases=args.cases, seed=args.seed, workers=args.workers,
                               ready=lambda: os.makedirs(args.out, exist_ok=True))
    csv_path = os.path.join(args.out, "sweep_n.csv")
    _write_rate_table(csv_path, "n", lambda n: str(int(n)), result, criteria)
    cmp_lines = ["n,criterion_a,criterion_b,spurious_p,spurious_different,"
                 "unidentified_p,unidentified_different"]
    for (ca, cb), comps in result.comparisons.items():
        for n, comp in zip(result.axis, comps):
            cmp_lines.append(",".join([
                str(int(n)), ca.value, cb.value, fmt(comp.spurious_p),
                str(comp.spurious_different).lower(), fmt(comp.unidentified_p),
                str(comp.unidentified_different).lower()]))
    cmp_path = os.path.join(args.out, "sweep_n_compare.csv")
    _write_lines(cmp_path, cmp_lines)
    final = {crit.value: result.rates[crit][-1].unidentified_rate for crit in criteria}
    print(f"final unidentified rates at n={int(sizes[-1])}: {final}")
    return [csv_path, cmp_path], len(sizes) * args.cases


def _phase_row(meta: dict, cell: dict) -> str:
    return ",".join([*(fmt(cell[key]) for key in SNR_KEYS),
                     *(str(read(meta[key])) for key, read in PHASE_META.items()),
                     *(fmt(cell[key]) for key in PHASE_RATES)])


def _phase_csv_rows(path: str, fh) -> Iterator[tuple[dict, dict]]:
    """(metadata, cell) of each row of the phase-space CSV ``fh``, the file
    at ``path`` opened in binary mode, read one line at a time. An
    unterminated final line was torn by an interrupted write: it is not
    read, ``fh`` is left at its start, and a torn header reads as no rows.
    The first fault raises a ValueError: a header other than
    ``PHASE_HEADER`` or, named by its row, a byte that is not UTF-8, a
    wrong field count, a field that is not its number, metadata unlike the
    first row's, a non-finite SNR or a rate outside [0, 1]."""
    header = fh.readline()
    if PHASE_HEADER.encode("utf-8").startswith(header):  # a torn or missing header
        fh.seek(0)
        return
    if not header.endswith(b"\n") or _decode(path, header).strip() != PHASE_HEADER:
        raise ValueError(f"unexpected header in {path}")
    meta = None
    for number, line in enumerate(fh, 2):
        if not line.endswith(b"\n"):
            fh.seek(-len(line), os.SEEK_CUR)
            return
        line = _decode(path, line, number).strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(PHASE_COLUMNS):
            raise ValueError(f"{path}: malformed row {line!r}")
        row = dict(zip(PHASE_COLUMNS, parts))
        try:
            row_meta = {key: read(row.pop(key)) for key, read in PHASE_META.items()}
            cell = {key: float(value) for key, value in row.items()}
        except ValueError:
            raise ValueError(f"{path}: row {number}: non-numeric value") from None
        if meta is None:
            meta = row_meta
        elif meta != row_meta:
            raise ValueError(f"{path}: row {number}: inconsistent metadata across rows")
        if not all(math.isfinite(cell[key]) for key in SNR_KEYS):
            raise ValueError(f"{path}: row {number}: an SNR is not finite")
        if not all(0.0 <= cell[key] <= 1.0 for key in PHASE_RATES):
            raise ValueError(f"{path}: row {number}: a rate is outside [0, 1]")
        yield meta, cell


class _ResumeConflict(Exception):
    """A ``--resume`` checkpoint that the requested run cannot continue."""


def cmd_phase_space(args) -> tuple[list[str], int]:
    topology = TopologyKind(args.topology)
    noise = NoiseKind(args.noise)
    criterion = parse_criterion(args.criterion)
    shared = parse_grid(args.grid)
    grids = tuple(parse_grid(g) if g is not None else shared
                  for g in (args.grid_x, args.grid_y, args.grid_z))
    csv_path = os.path.join(args.out, "phase_space.csv")
    meta = {"topology": topology.value, "noise_kind": noise.value, "n": args.n,
            "alpha": args.alpha, "criterion": criterion.value, "iterations": args.iterations}
    done, intact, conflict = 0, 0, None  # a conflict is raised once every flag has passed
    if args.resume and os.path.exists(csv_path):
        expected, misplaced = product(*grids), False
        try:
            with open(csv_path, "rb") as fh:
                for done, (old_meta, cell) in enumerate(_phase_csv_rows(csv_path, fh), 1):
                    misplaced |= tuple(cell[key] for key in SNR_KEYS) != next(expected, None)
                intact = fh.tell()
            conflict = ("checkpoint metadata differs from flags" if done and old_meta != meta
                        else "checkpoint cells do not match the grid" if misplaced else None)
        except ValueError as exc:
            conflict = str(exc)
    # phase_rows checks every flag first: a bad one exits 2, not 4, and touches no file.
    new_rows = phase_rows(noise, topology, args.n, args.alpha, criterion, args.iterations,
                          grids, args.seed, workers=args.workers, start=done)
    if conflict is not None:
        raise _ResumeConflict(conflict)
    os.makedirs(args.out, exist_ok=True)
    if intact:
        os.truncate(csv_path, intact)  # drop a torn final line before appending
    with ExitStack() as stack:
        # Closing the rows on a failed write cancels the queued runs.
        new_rows = stack.enter_context(closing(new_rows))
        fh, computed = None, 0
        for computed, row in enumerate(new_rows, 1):
            if fh is None:  # opened for the first row, so an early failure keeps --out
                fh = stack.enter_context(open(csv_path, "a" if intact else "w",
                                              encoding="utf-8", newline="\n"))
                # The flushed rows reach the disk once, when the stream ends or fails.
                stack.callback(os.fsync, fh.fileno())
                if not intact:
                    fh.write(PHASE_HEADER + "\n")
            fh.write(_phase_row(meta, row) + "\n")
            fh.flush()
    print(f"wrote {csv_path}")
    return [csv_path], computed * args.iterations


def cmd_render(args) -> None:
    with _read_input(lambda p: open(p, "rb"), args.input) as fh:
        cells = (cell for _, cell in _phase_csv_rows(args.input, fh))
        first = next(cells, None)
        if first is None:
            raise ValueError(f"{args.input} has no complete rows")
        plane = extract_plane(chain([first], cells), args.axis, args.value, args.field)
    if np.any(np.isnan(plane)):
        raise ValueError("plane has missing cells (incomplete CSV)")
    write_ppm(args.out, render_plane(plane, scale=args.scale))
    print(f"wrote {args.out}")


def _read_series_csv(path: str) -> TrivariateSample:
    """The columns of a 't,x,y,z' CSV. numpy's C reader parses the body,
    and its table is taken when it has four columns and finite x, y and z;
    in any other case ``_scan_series`` alone decides what the file holds
    or which faulty row it names in a ValueError. A file that is not UTF-8
    text raises one naming the row of its first bad byte instead."""
    import warnings  # only analyze needs it; the interpreter has loaded it already
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "t,x,y,z":
                raise ValueError(f"{path}: expected header 't,x,y,z', got {header!r}")
            body = fh.tell()
            try:
                with warnings.catch_warnings():  # an empty body is left to the scan
                    warnings.simplefilter("ignore")
                    table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:  # the scan finds the fault, or parses what float accepts
                table = None
            if table is not None and table.shape[1] == 4 and np.isfinite(table[:, 1:]).all():
                return TrivariateSample(*table[:, 1:].T)
            fh.seek(body)
            return _scan_series(path, fh)
    except ValueError:  # a bad byte anywhere outranks the fault found
        _decode(path, Path(path).read_bytes())
        raise


def _scan_series(path: str, lines) -> TrivariateSample:
    """The columns of the body ``lines`` of a 't,x,y,z' CSV (its file line
    2 onwards), in one pass of ``float`` per x, y and z field; the t field
    is not parsed. Blank lines are skipped. A malformed body raises a
    ValueError naming its first faulty row."""
    values: list[float] = []
    for lineno, line in enumerate(lines, start=2):
        try:
            _, x, y, z = line.strip().split(",")
            row = (float(x), float(y), float(z))
        except ValueError:
            if not line.strip():
                continue
            problem = "non-numeric value" if line.count(",") == 3 else "expected 4 fields"
            raise ValueError(f"{path}: row {lineno}: {problem}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}: row {lineno}: non-finite value")
        values += row
    return TrivariateSample(*np.array(values).reshape(-1, 3).T)


def _decode(path: str, data: bytes, row: int = 1) -> str:
    """``data``, the bytes of the file at ``path`` from its row ``row`` on,
    as UTF-8 text; a byte that does not decode raises a ValueError naming
    its row, counted the way text mode splits lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row += data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n")
        raise ValueError(f"{path}: row {row}: not UTF-8 text (byte 0x{data[exc.start]:02x})"
                         ) from None


def cmd_analyze(args) -> None:
    """Score the ``--input`` sample. Faults are checked in this order: the
    file, the criterion, the level, then the lag depth (by ``sample_pvalues``)."""
    sample = _read_input(_read_series_csv, args.input)
    criterion = parse_criterion(args.criterion)
    alpha = require_significance(args.alpha)
    [pvalues], [reverse] = sample_pvalues(*sample, args.lags, (criterion,))
    [accepted] = decide_edge_array(pvalues, np.array([alpha]))
    edges = [link for link, on in zip(FORWARD_LINKS, accepted) if on]
    forward_p = {key: float(p) for key, p in zip(FORWARD_KEYS, pvalues)}
    reverse_p = {key: float(p) for key, p in zip(REVERSE_KEYS, reverse)}
    report = {
        "topology": topology_kind(edges).value,
        "edges": sorted(e.value for e in edges),
        "forward_p_values": forward_p,
        "reverse_p_values": reverse_p,
        "criterion": criterion.value,
        "alpha": alpha,
        "lags": args.lags,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"inferred topology: {report['topology']}")
        print(f"edges: {', '.join(report['edges']) or '(none)'}")
        for key, p in forward_p.items():
            print(f"  p[{key}] = {fmt(p)}")
        for key, p in reverse_p.items():
            print(f"  p[{key}] (reverse) = {fmt(p)}")


def cmd_generate(args) -> None:
    try:
        a, b, c = map(float, args.params.split(","))
    except ValueError:  # not three numbers
        raise ValueError(f"--params must be three comma-separated numbers, "
                         f"got {args.params!r}") from None
    config = GeneratorConfig(topology=TopologyKind(args.topology), length=args.n,
                             ar_coefficient=args.ar, noise_kind=NoiseKind(args.noise),
                             sigmas_or_snrs=(a, b, c), burn_in=args.burn_in)
    sample = generate(config, args.seed)
    rows = enumerate(zip(*(series.tolist() for series in sample)))
    lines = (f"{t},{x!r},{y!r},{z!r}" for t, (x, y, z) in rows)
    _write_lines(args.out, chain(["t,x,y,z"], lines))
    print(f"wrote {args.out}")


#: Every command: its help line, the function that runs it, and the
#: function that registers its flags, in the order ``--help`` lists them.
COMMANDS = {
    "sweep-alpha": ("rates vs significance level", cmd_sweep_alpha, _sweep_alpha_flags),
    "sweep-n": ("rates vs sample size", cmd_sweep_n, _sweep_n_flags),
    "phase-space": ("rates over the 3-D SNR grid", cmd_phase_space, _phase_space_flags),
    "render": ("render a phase-space plane to PPM", cmd_render, _render_flags),
    "analyze": ("two-step trivariate test on a CSV file", cmd_analyze, _analyze_flags),
    "generate": ("dump one synthetic sample to CSV", cmd_generate, _generate_flags),
}


def main(argv: list[str] | None = None) -> int:
    clock = time.perf_counter()
    argv = list(sys.argv[1:] if argv is None else argv)
    # Only a named command gets the one-command parser; --help, a missing or
    # unknown command and --from-manifest get every command.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if args.from_manifest:
            manifest = args.from_manifest
            argv = _manifest_argv(manifest)
            args = parser.parse_args(argv)
            if args.from_manifest:
                raise ValueError(f"{manifest}: its argv replays a manifest itself")
        if not args.command:
            parser.print_usage(sys.stderr)
            return 2
        started = time.time()
        record = os.path.join(args.out, "manifest.txt") if args.experiment else None
        if record:  # an earlier run's manifest would claim this run's outputs
            with suppress(FileNotFoundError, NotADirectoryError):
                os.remove(record)
        result = args.run(args)
        if record:
            outputs, iterations = result  # an experiment's outputs and iterations run
            write_manifest(record, args.command, argv, args.seed, outputs, iterations,
                           started, time.time(), time.perf_counter() - clock)
        return 0
    except _ResumeConflict as exc:
        print(f"resume conflict: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # malformed input, an off-grid plane, bad flags
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
