"""The benchmark's four workloads: CLI argument lists drawn from a seed, and
the checks every operation's outputs must pass.

A workload is a sequence of rounds. ``draw(rng)`` returns the parameters of
one round's operations (one operation for the Monte Carlo workloads, a
fixed mix of round trips for ``sample_roundtrip``), and ``build`` turns one
operation's parameters into CLI steps for an output directory and a worker
count. Drawing is separate from building so that the same operation can be
run at several worker counts, traced and untraced, and compared byte for
byte.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

SEED_RANGE = 2**31

ALPHA_GRID = tuple(round(0.05 + i * 0.05, 12) for i in range(10))
CRITERIA = ("lr", "wald", "rao")
CRITERION_PAIRS = (("lr", "wald"), ("lr", "rao"), ("wald", "rao"))
SWEEP_ALPHA_HEADER = "alpha,criterion,spurious_rate,unidentified_rate,se_spurious,se_unidentified"
SWEEP_N_HEADER = "n,criterion,spurious_rate,unidentified_rate,se_spurious,se_unidentified"
SWEEP_N_COMPARE_HEADER = ("n,criterion_a,criterion_b,spurious_p,spurious_different,"
                          "unidentified_p,unidentified_different")
PHASE_HEADER = ("snr_x_db,snr_y_db,snr_z_db,topology,noise_kind,n,alpha,"
                "criterion,iterations,spurious_rate,unidentified_rate,rate_xz,rate_yz")
PHASE_GRID = tuple(float(v) for v in range(-40, 41, 10))
SIZES = tuple(range(25, 301, 25))
COMPARISON_LEVEL = 0.1

ALPHA_ITERATIONS = 500
PHASE_ITERATIONS = 4
RENDER_SCALE = 16
SIZE_CASES = 100

#: Round-trip mix per round: every noise kind at every size, sizes weighted
#: so that the median falls inside the n=3000 class and the 90th percentile
#: inside the n=30000 class, away from the class edges.
ROUNDTRIP_SIZES = (300, 300, 3000, 3000, 30000)
NOISE_KINDS = ("fixed", "intrinsic", "extrinsic")
#: Significance level of the round-trip analyses. Intrinsic samples with
#: equal SNRs in [10, 40] dB give p < 1e-24 on every true link at n=300, so
#: the truth is recovered unless a null test falls below 1e-9.
ROUNDTRIP_ALPHA = 1e-9
TRUE_EDGES = {"driver": ["x->y", "x->z"], "indirect": ["x->y", "y->z"]}


@dataclass
class Op:
    """One closed-loop operation: CLI steps run in order in fresh processes."""

    steps: list[list[str]]
    units: int                      # Monte Carlo iterations, or 1 round trip
    outputs: list[str]              # files hashed and compared across runs
    check: Callable[[list[str]], None]  # step stdouts; raises on a problem
    expected_calls: dict[str, int] = field(default_factory=dict)


def _rows(path: str, header: str, count: int) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError(f"{os.path.basename(path)}: no final newline")
    lines.pop()
    if lines[0] != header:
        raise ValueError(f"{os.path.basename(path)}: unexpected header {lines[0]!r}")
    if len(lines) - 1 != count:
        raise ValueError(f"{os.path.basename(path)}: {len(lines) - 1} rows, expected {count}")
    return [line.split(",") for line in lines[1:]]


def _rate(text: str, iterations: int) -> float:
    """Parse a rate and require it to be an exact k/iterations in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0 or value != round(value * iterations) / iterations:
        raise ValueError(f"rate {text} is not a k/{iterations} fraction in [0, 1]")
    return value


def _probability(text: str | float) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability {text} outside [0, 1]")
    return value


def _check_sweep_rows(rows: list[list[str]], axis: list[str], iterations: int) -> None:
    expected = [(crit, a) for crit in CRITERIA for a in axis]
    for row, (crit, a) in zip(rows, expected):
        if len(row) != 6 or row[1] != crit or row[0] != a:
            raise ValueError(f"row {row[:2]} where ({a}, {crit}) was expected")
        for rate_text, se_text in ((row[2], row[4]), (row[3], row[5])):
            rate = _rate(rate_text, iterations)
            if abs(float(se_text) - math.sqrt(rate * (1.0 - rate) / iterations)) > 1e-12:
                raise ValueError(f"standard error {se_text} does not match rate {rate_text}")


class AlphaSweep:
    """ROADMAP's canonical run: rates against the significance level, n=50."""

    name = "alpha_sweep"
    workers = 1

    def draw(self, rng: random.Random) -> list[dict]:
        return [{"seed": rng.randrange(SEED_RANGE)}]

    def build(self, params: dict, out: str, workers: int) -> Op:
        csv = os.path.join(out, "sweep_alpha.csv")
        argv = ["sweep-alpha", "--topology", "driver", "--n", "50",
                "--alpha-grid", "0.05:0.5:0.05", "--criteria", ",".join(CRITERIA),
                "--iterations", str(ALPHA_ITERATIONS), "--workers", str(workers),
                "--seed", str(params["seed"]), "--out", out]

        def check(stdouts: list[str]) -> None:
            rows = _rows(csv, SWEEP_ALPHA_HEADER, len(CRITERIA) * len(ALPHA_GRID))
            _check_sweep_rows(rows, [repr(a) for a in ALPHA_GRID], ALPHA_ITERATIONS)

        per_iteration = len(CRITERIA) * 5
        return Op([argv], ALPHA_ITERATIONS, [csv], check,
                  {"criteria.statistic_from_rss": per_iteration * ALPHA_ITERATIONS,
                   "regress.nested_rss": 3 * ALPHA_ITERATIONS})


class PhaseSpace:
    """A 9x9x9 SNR phase space at n=300, then one plane rendered to PPM."""

    name = "phase_space"
    workers = 2

    def draw(self, rng: random.Random) -> list[dict]:
        return [{"seed": rng.randrange(SEED_RANGE)}]

    def build(self, params: dict, out: str, workers: int) -> Op:
        csv = os.path.join(out, "phase_space.csv")
        ppm = os.path.join(out, "plane.ppm")
        cells = len(PHASE_GRID) ** 3
        phase = ["phase-space", "--topology", "driver", "--noise", "intrinsic",
                 "--n", "300", "--alpha", "0.05", "--criterion", "wald",
                 "--grid=-40:40:10", "--iterations", str(PHASE_ITERATIONS),
                 "--workers", str(workers), "--seed", str(params["seed"]), "--out", out]
        render = ["render", "--input", csv, "--axis", "z", "--value", "40",
                  "--scale", str(RENDER_SCALE), "--out", ppm]

        def check(stdouts: list[str]) -> None:
            rows = _rows(csv, PHASE_HEADER, cells)
            meta = ["driver", "intrinsic", "300", "0.05", "wald", str(PHASE_ITERATIONS)]
            plane = {}
            for row, coords in zip(rows, product(PHASE_GRID, repeat=3)):
                if len(row) != 13 or tuple(float(v) for v in row[:3]) != coords:
                    raise ValueError(f"cell {row[:3]} where {coords} was expected")
                if row[3:9] != meta:
                    raise ValueError(f"cell metadata {row[3:9]} differs from the flags")
                rates = [_rate(v, PHASE_ITERATIONS) for v in row[9:]]
                if coords[2] == 40.0:
                    plane[coords[:2]] = rates[1]
            _check_ppm(ppm, plane)

        return Op([phase, render], cells * PHASE_ITERATIONS, [csv, ppm], check,
                  {"criteria.statistic_from_rss": 5 * cells * PHASE_ITERATIONS,
                   "regress.nested_rss": 3 * cells * PHASE_ITERATIONS})


def _check_ppm(path: str, plane: dict[tuple[float, float], float]) -> None:
    """The PPM shows the z=40 plane's unidentified rates, x down, y across."""
    side = len(PHASE_GRID) * RENDER_SCALE
    with open(path, "rb") as fh:
        data = fh.read()
    header = f"P6\n{side} {side}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + side * side * 3:
        raise ValueError("PPM header or size does not match a 9x9 plane")
    raster = data[len(header):]
    for (i, sx), (j, sy) in product(enumerate(PHASE_GRID), repeat=2):
        at = ((i * RENDER_SCALE) * side + j * RENDER_SCALE) * 3
        r, g, b = raster[at:at + 3]
        shown = r / 510.0 if b == 255 and r < 255 else 1.0 - g / 510.0
        if abs(shown - plane[(sx, sy)]) > 1.0 / 255:
            raise ValueError(f"pixel for ({sx}, {sy}) shows {shown}, CSV has {plane[(sx, sy)]}")


class SizeSweep:
    """Rates against n on the indirect backbone, one process pool per size."""

    name = "size_sweep"
    workers = 2

    def draw(self, rng: random.Random) -> list[dict]:
        return [{"seed": rng.randrange(SEED_RANGE)}]

    def build(self, params: dict, out: str, workers: int) -> Op:
        csv = os.path.join(out, "sweep_n.csv")
        cmp_csv = os.path.join(out, "sweep_n_compare.csv")
        argv = ["sweep-n", "--topology", "indirect", "--alpha", "0.2",
                "--sizes", "25:300:25", "--criteria", ",".join(CRITERIA),
                "--cases", str(SIZE_CASES), "--workers", str(workers),
                "--seed", str(params["seed"]), "--out", out]

        def check(stdouts: list[str]) -> None:
            rows = _rows(csv, SWEEP_N_HEADER, len(CRITERIA) * len(SIZES))
            _check_sweep_rows(rows, [str(n) for n in SIZES], SIZE_CASES)
            rows = _rows(cmp_csv, SWEEP_N_COMPARE_HEADER, len(CRITERION_PAIRS) * len(SIZES))
            expected = [(a, b, str(n)) for a, b in CRITERION_PAIRS for n in SIZES]
            for row, (a, b, n) in zip(rows, expected):
                if len(row) != 7 or (row[1], row[2], row[0]) != (a, b, n):
                    raise ValueError(f"comparison row {row[:3]} where ({n}, {a}, {b}) was expected")
                for p_text, verdict in ((row[3], row[4]), (row[5], row[6])):
                    if verdict != str(_probability(p_text) < COMPARISON_LEVEL).lower():
                        raise ValueError(f"verdict {verdict} disagrees with p={p_text}")

        iterations = len(SIZES) * SIZE_CASES
        return Op([argv], iterations, [csv, cmp_csv], check,
                  {"criteria.statistic_from_rss": len(CRITERIA) * 5 * iterations,
                   "regress.nested_rss": 3 * iterations})


class SampleRoundtrip:
    """generate -> analyze --json on single samples of mixed size and noise."""

    name = "sample_roundtrip"
    workers = None

    def draw(self, rng: random.Random) -> list[dict]:
        trips = [{"n": n, "noise": noise} for noise in NOISE_KINDS for n in ROUNDTRIP_SIZES]
        rng.shuffle(trips)
        for trip in trips:
            trip["topology"] = rng.choice(("driver", "indirect"))
            trip["seed"] = rng.randrange(SEED_RANGE)
            if trip["noise"] == "fixed":
                sigmas = (rng.uniform(0.0, 0.2), rng.uniform(0.05, 0.5), rng.uniform(0.1, 1.0))
                trip["params"] = ",".join(f"{s:.3f}" for s in sigmas)
            elif trip["noise"] == "intrinsic":
                trip["params"] = ",".join([f"{rng.uniform(10.0, 40.0):.1f}"] * 3)
            else:
                trip["params"] = ",".join(f"{rng.uniform(10.0, 40.0):.1f}" for _ in range(3))
        return trips

    def build(self, params: dict, out: str, workers: int | None) -> Op:
        sample = os.path.join(out, "sample.csv")
        report = os.path.join(out, "analyze.json")
        n = params["n"]
        generate = ["generate", "--topology", params["topology"], "--n", str(n),
                    "--noise", params["noise"], "--params", params["params"],
                    "--seed", str(params["seed"]), "--out", sample]
        analyze = ["analyze", "--input", sample, "--json", "--alpha", repr(ROUNDTRIP_ALPHA)]

        def check(stdouts: list[str]) -> None:
            # The report is compared across runs like the other outputs.
            with open(report, "w", encoding="utf-8") as fh:
                fh.write(stdouts[1])
            rows = _rows(sample, "t,x,y,z", n)
            for t, row in enumerate(rows):
                if len(row) != 4 or row[0] != str(t) or not all(
                        math.isfinite(float(v)) for v in row[1:]):
                    raise ValueError(f"sample row {t} is malformed: {row}")
            result = json.loads(stdouts[1])
            if sorted(result["forward_p_values"]) != ["tri:x->z", "tri:y->z", "x->y", "x->z", "y->z"]:
                raise ValueError("forward p-values missing")
            if sorted(result["reverse_p_values"]) != ["y->x", "z->x", "z->y"]:
                raise ValueError("reverse p-values missing")
            for p in [*result["forward_p_values"].values(), *result["reverse_p_values"].values()]:
                _probability(p)
            if "x->y" not in result["edges"]:
                raise ValueError("the true x->y link was not found")
            truth = params["topology"]
            if params["noise"] == "intrinsic" and (
                    result["topology"] != truth or result["edges"] != TRUE_EDGES[truth]):
                raise ValueError(f"high-SNR {truth} sample analyzed as {result['topology']} "
                                 f"{result['edges']}")

        return Op([generate, analyze], 1, [sample, report], check)


WORKLOADS = {w.name: w for w in (AlphaSweep(), PhaseSpace(), SizeSweep(), SampleRoundtrip())}
