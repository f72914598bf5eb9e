"""Per-layer times of two source trees, alternated in forked children.

For each of two Monte Carlo shapes, the ones the ``alpha_sweep`` and
``phase_space`` benchmark workloads run, this script times one sample
stream layer by layer in a child forked from this process, once for each
tree, alternating the trees pair by pair. It prints the median µs per
iteration of each layer for both trees, their ratio and the pairs the
second tree won, and the median minor page faults (``ru_minflt``) per
iteration of each layer for both trees. It fails (exit 1) unless both trees
give the same samples, p-values, rank masks and edges, bit for bit: each
kind of output is hashed across chunks in sample order, so trees that cut
the stream into chunks of different sizes compare alike.

The layers, per chunk of ``chunk_rows`` samples as ``experiments`` cuts them:

- draws: ``datagen._raw_draws``, the uniforms and normals;
- generation: ``datagen.generate_rows``, draws included;
- block_pvalues: ``granger.block_pvalues`` on the generated chunk;
- decision: ``granger.decide_edge_array`` at the shape's significance levels;
- total: generation, block_pvalues and decision;
- first chunk: the total of the stream's first chunk, run cold once before
  the timed loop (which starts with the same chunk again), per iteration
  of that chunk. A fresh process pays this cost on its first chunks, which
  the warm loop hides.

A tree whose ``datagen`` has a ``Workspace`` gets one for the stream and
passes it to every call, as a Monte Carlo process does.

Run it from the root of a checkout, with a second tree, such as a
``git archive`` of the parent commit, unpacked somewhere:

    python tools/layer_times.py --before ../parent --pairs 10

Each tree is a directory holding ``src/granger_lab``; ``--after`` is
this checkout unless given. Children import
their tree's package after the fork; numpy and scipy are imported once,
here, with one BLAS thread.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy  # noqa: E402,F401  (shared by both trees' children)
import scipy.linalg.lapack  # noqa: E402,F401
import scipy.special.cython_special  # noqa: E402,F401

LAYERS = ("draws", "generation", "block_pvalues", "decision")
#: The outputs hashed, each across chunks in sample order.
OUTPUTS = ("x", "y", "z", "pvalues", "mask", "edges")

#: (driver) n, noise kind, noise parameters, criteria and significance
#: levels of each shape; phase_space cycles its rows through the SNR grid's
#: cells four iterations at a time, as its workload does.
SHAPES = {
    "alpha_sweep": dict(n=50, noise="fixed", criteria=("lr", "wald", "rao"),
                        alphas=tuple(round(0.05 * i, 12) for i in range(1, 11))),
    "phase_space": dict(n=300, noise="intrinsic", criteria=("wald",), alphas=(0.05,)),
}
PHASE_AXIS = tuple(float(v) for v in range(-40, 41, 10))
PHASE_ITERATIONS = 4


def _measure(src: str, shape: str, iterations: int, seed: int) -> dict:
    """µs and minor page faults per iteration of each layer over
    ``iterations`` samples of ``shape``, those of the first chunk run cold,
    and the SHA-256 of the outputs, from the tree at ``src``."""
    sys.path.insert(0, src)
    import numpy as np
    from granger_lab import datagen
    from granger_lab.core import TopologyKind
    from granger_lab.criteria import Criterion
    from granger_lab.datagen import (GeneratorConfig, NoiseKind, _raw_draws, axis_sigmas,
                                     chunk_rows, generate_rows, resolve_sigmas)
    from granger_lab.granger import LAGS, block_pvalues, decide_edge_array
    from granger_lab.seeding import derive_seeds, generator_states

    spec = SHAPES[shape]
    gen = GeneratorConfig(topology=TopologyKind.DRIVER, length=spec["n"],
                          noise_kind=NoiseKind(spec["noise"]))
    criteria = tuple(Criterion(c) for c in spec["criteria"])
    alphas = np.array(spec["alphas"])
    if gen.noise_kind is NoiseKind.FIXED_SIGMA:
        levels = np.array([resolve_sigmas(gen)] * iterations)
    else:  # cell after cell of the 9^3 grid, four rows each
        sigmas = axis_sigmas(gen, [PHASE_AXIS] * 3)
        cells = [(i // 81 % 9, i // 9 % 9, i % 9)
                 for i in range(iterations // PHASE_ITERATIONS + 1)]
        levels = np.array([[sigmas[axis][k] for axis, k in enumerate(cell)]
                           for cell in cells for _ in range(PHASE_ITERATIONS)])[:iterations]
    states = generator_states(derive_seeds([((seed,), 0, iterations)]))
    rows, total = chunk_rows(gen), gen.burn_in + gen.length
    # A tree from before the per-process workspace takes none.
    workspace = (datagen.Workspace(),) if hasattr(datagen, "Workspace") else ()
    spent, faulted = dict.fromkeys(LAYERS, 0.0), dict.fromkeys(LAYERS, 0)
    digests = {output: hashlib.sha256() for output in OUTPUTS}

    def timed(layer, call, *args):
        """``call(*args)``, its time and faults added to ``layer``'s."""
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        clock = time.perf_counter()
        result = call(*args)
        spent[layer] += time.perf_counter() - clock
        faulted[layer] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return result

    # The first chunk runs once cold, without the draws layer, and then again
    # as the timed loop's first, so no layer of the loop pays a first call.
    for k, a in enumerate([0, *range(0, iterations, rows)]):
        chunk, chunk_levels = states[a:a + rows], levels[a:a + rows]
        if k > 0:
            timed("draws", _raw_draws, chunk, total, *workspace)
        samples = timed("generation", generate_rows, gen, chunk_levels, chunk, *workspace)
        pvalues, deficient = timed("block_pvalues", block_pvalues, *samples, LAGS, criteria,
                                   *workspace)
        edges = timed("decision", decide_edge_array, pvalues, alphas)
        if k == 0:
            first = {"us": 1e6 * sum(spent.values()) / len(chunk),
                     "faults": sum(faulted.values()) / len(chunk)}
            spent, faulted = dict.fromkeys(LAYERS, 0.0), dict.fromkeys(LAYERS, 0)
            continue
        for output, array in zip(OUTPUTS, (*samples, pvalues, deficient, edges)):
            digests[output].update(np.ascontiguousarray(array).tobytes())
    combined = hashlib.sha256(b"".join(digests[output].digest() for output in OUTPUTS))
    return {"us": {layer: 1e6 * spent[layer] / iterations for layer in LAYERS},
            "faults": {layer: faulted[layer] / iterations for layer in LAYERS},
            "first": first, "sha256": combined.hexdigest()}


def _forked(src: str, shape: str, iterations: int, seed: int) -> dict:
    """``_measure`` in a child forked from this process, which keeps no
    module of either tree."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            result = {"ok": _measure(src, shape, iterations, seed)}
        except BaseException:
            result, code = {"error": traceback.format_exc()}, 1
        with open(write_fd, "wb") as pipe:
            pickle.dump(result, pipe)
        os._exit(code)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        result = pickle.load(pipe)
    os.waitpid(pid, 0)
    if "error" in result:
        raise RuntimeError(f"{src}, {shape}:\n{result['error']}")
    return result["ok"]


def _layer(result: dict, key: str, layer: str) -> float:
    """A ``_measure`` result's ``key`` ("us" or "faults") per iteration of
    ``layer``, of "total" (the layers after the draws) or of "first chunk"."""
    if layer == "first chunk":
        return result["first"][key]
    if layer == "total":
        return sum(result[key][name] for name in LAYERS[1:])
    return result[key][layer]


def _tree(text: str) -> str:
    """A source tree's ``src`` directory, which must hold ``granger_lab``."""
    src = Path(text).resolve() / "src"
    if not (src / "granger_lab" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"{text!r} holds no src/granger_lab")
    return str(src)


def positive_int(text: str) -> int:
    """A count: an integer of 1 or more (``criteria_seeds.py``'s rule, not
    imported from it, because importing it loads a tree's package here)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """A master seed: an integer of 0 or more, as the package's seeds are."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=_tree, required=True, help="the first source tree")
    parser.add_argument("--after", type=_tree, default=str(ROOT),
                        help="the second source tree (default: this checkout)")
    parser.add_argument("--pairs", type=positive_int, default=10,
                        help="alternated runs of each tree per shape")
    parser.add_argument("--iterations", type=positive_int, default=2000,
                        help="samples per run")
    parser.add_argument("--seed", type=nonnegative_int, default=1)
    args = parser.parse_args(argv)
    identical = True
    for shape in SHAPES:
        pairs = []
        for k in range(args.pairs):
            # Alternate which tree runs first, so neither always runs warm.
            order = ("before", "after") if k % 2 == 0 else ("after", "before")
            pair = {side: _forked(getattr(args, side), shape, args.iterations, args.seed)
                    for side in order}
            pairs.append(pair)
        hashes = {pair[side]["sha256"] for pair in pairs for side in pair}
        identical &= len(hashes) == 1
        print(f"{shape}: {args.iterations} iterations, {args.pairs} alternated pairs; "
              f"µs and minor page faults per iteration, medians")
        print(f"  {'layer':<14}{'before':>10}{'after':>10}{'ratio':>8}{'after won':>11}"
              f"{'faults before':>15}{'after':>8}")
        for layer in (*LAYERS, "total", "first chunk"):
            # The draws are timed apart from, and again inside, generation.
            times, faults = ({side: [_layer(p[side], key, layer) for p in pairs]
                              for side in ("before", "after")} for key in ("us", "faults"))
            before, after = (statistics.median(times[side]) for side in ("before", "after"))
            wins = sum(a < b for a, b in zip(times["after"], times["before"]))
            print(f"  {layer:<14}{before:>10.2f}{after:>10.2f}{after / before:>8.3f}"
                  f"{wins:>7}/{len(pairs)}"
                  f"{statistics.median(faults['before']):>15.2f}"
                  f"{statistics.median(faults['after']):>8.2f}")
        print(f"  results: {'identical' if len(hashes) == 1 else 'DIFFER'} "
              f"(sha256 {', '.join(sorted(h[:16] for h in hashes))})")
    if not identical:
        print("the two trees' results differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
