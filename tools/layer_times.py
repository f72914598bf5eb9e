"""Per-layer times of two source trees, alternated in forked children.

For each of two Monte Carlo shapes, the ones the ``alpha_sweep`` and
``phase_space`` benchmark workloads run, this script times one sample
stream layer by layer in a child forked from this process, once for each
tree, alternating the trees pair by pair. It prints the median µs per
iteration of each layer for both trees, their ratio and the pairs the
second tree won, and it fails (exit 1) unless both trees give the same
samples, p-values, rank masks and edges, bit for bit.

The layers, per chunk of ``chunk_rows`` samples as ``experiments`` cuts them:

- draws: ``datagen._raw_draws``, the uniforms and normals;
- generation: ``datagen.generate_rows``, draws included;
- block_pvalues: ``granger.block_pvalues`` on the generated chunk;
- decision: ``granger.decide_edge_array`` at the shape's significance levels;
- total: generation, block_pvalues and decision.

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
    """µs per iteration of each layer over ``iterations`` samples of
    ``shape``, and the SHA-256 of every output, from the tree at ``src``."""
    sys.path.insert(0, src)
    import numpy as np
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
    spent = dict.fromkeys(LAYERS, 0.0)
    digest = hashlib.sha256()
    # The first chunk runs once more, untimed first, so no layer pays a first call.
    for k, a in enumerate([0, *range(0, iterations, rows)]):
        chunk, chunk_levels = states[a:a + rows], levels[a:a + rows]
        clock = time.perf_counter()
        _raw_draws(chunk, total)
        draws = time.perf_counter()
        samples = generate_rows(gen, chunk_levels, chunk)
        generated = time.perf_counter()
        pvalues, deficient = block_pvalues(*samples, LAGS, criteria)
        scored = time.perf_counter()
        edges = decide_edge_array(pvalues, alphas)
        decided = time.perf_counter()
        if k == 0:
            continue
        for layer, start, stop in zip(LAYERS, (clock, draws, generated, scored),
                                      (draws, generated, scored, decided)):
            spent[layer] += stop - start
        for array in (*samples, pvalues, deficient, edges):
            digest.update(np.ascontiguousarray(array).tobytes())
    return {"us": {layer: 1e6 * spent[layer] / iterations for layer in LAYERS},
            "sha256": digest.hexdigest()}


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=_tree, required=True, help="the first source tree")
    parser.add_argument("--after", type=_tree, default=str(ROOT),
                        help="the second source tree (default: this checkout)")
    parser.add_argument("--pairs", type=positive_int, default=10,
                        help="alternated runs of each tree per shape")
    parser.add_argument("--iterations", type=positive_int, default=2000,
                        help="samples per run")
    parser.add_argument("--seed", type=int, default=1)
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
              f"µs per iteration, medians")
        print(f"  {'layer':<14}{'before':>10}{'after':>10}{'ratio':>8}{'after won':>11}")
        for layer in (*LAYERS, "total"):
            # The draws are timed apart from, and again inside, generation.
            times = {side: [sum(p[side]["us"][k] for k in LAYERS[1:]) if layer == "total"
                            else p[side]["us"][layer] for p in pairs]
                     for side in ("before", "after")}
            before, after = (statistics.median(times[side]) for side in ("before", "after"))
            wins = sum(a < b for a, b in zip(times["after"], times["before"]))
            print(f"  {layer:<14}{before:>10.2f}{after:>10.2f}{after / before:>8.3f}"
                  f"{wins:>7}/{len(pairs)}")
        print(f"  results: {'identical' if len(hashes) == 1 else 'DIFFER'} "
              f"(sha256 {', '.join(sorted(h[:16] for h in hashes))})")
    if not identical:
        print("the two trees' results differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
