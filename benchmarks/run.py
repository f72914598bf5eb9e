"""granger-lab benchmark: drive the public CLI on one workload, check every
output, and print every metric by name and unit.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports granger_lab from ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
operation untraced and traced and prints the per-layer metrics. Timings
are normalised by a reference kernel timed next to them (see
``reference.py``), so that they read in seconds at a fixed machine speed.
The last line of standard output is one JSON object;
the lines before it are the same numbers for a reader. Raw records,
including the SHA-256 of every output, go to ``.bench_out/results/``. See ``benchmarks/README.md``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_S
from tracing import merge
from workloads import WORKLOADS

CLIENT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "client.py")
#: Fresh processes timed per run for setup_s (the client adds one more).
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 15.0
#: The client kills a step still running 90 s after its window closes; this
#: leaves it time to do so and report.
CLIENT_GRACE_S = 110.0
#: BLAS and OpenMP pools pinned to one thread, so two workers on two cores
#: are not oversubscribed.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    pass


def _spawn(cmd: list[str], env: dict, timeout: float,
           capture_stderr: bool = False) -> tuple[float, dict, str]:
    """Run a client process; return its start time, its JSON and, when
    captured, its stderr (otherwise it passes through, with CLI errors)."""
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            stderr=subprocess.PIPE if capture_stderr else None)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"a client process did not finish in {timeout:g} s")
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err or "")
        raise BenchmarkError(f"client exited with code {proc.returncode}")
    return started, json.loads(out.strip().splitlines()[-1]), err


def _import_cumulative_s(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``python -X importtime``."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def _git_sha(root: str) -> str | None:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _declared(root: str, kind: str) -> dict[str, str]:
    """Metric names and units of one kind, in BENCHMARK.json's order."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _normalised(seconds: float, reference_s: float) -> float:
    """``seconds`` at the machine speed where the reference kernel takes
    NOMINAL_S, given that it took ``reference_s`` next to them."""
    return seconds * NOMINAL_S / reference_s


def _op_seconds(record: dict) -> float:
    return _normalised(record["seconds"], record["reference_s"])


def _usable(records: list[dict]) -> list[dict]:
    """Operations to take timings from: the ones that passed every check or,
    when none did, the ones that ran to the end so a result still shows."""
    return ([r for r in records if not r["problems"]]
            or [r for r in records if r["steps_run"] == len(r["steps"])])


def end_to_end(result: dict, setups: list[float]) -> dict:
    ops = _usable(result["records"])
    if not ops:
        raise BenchmarkError("no operation ran to the end")
    rounds: dict[int, list[float]] = {}
    for r in ops:
        totals = rounds.setdefault(r["round"], [0.0, 0])
        totals[0] += _op_seconds(r)
        totals[1] += r["units"]
    latencies = [_op_seconds(r) for r in ops]
    peak_kb = max([result["peak_rss_kb"]] + [r["peak_rss_kb"] for r in ops])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(seconds for seconds, _ in rounds.values()),
        "iters_per_s": statistics.median(units / seconds for seconds, units in rounds.values()),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_p90": 1e3 * _p90(latencies),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(result: dict, probes: list[dict]) -> dict:
    records = result["records"]
    by_variant: dict[str, dict[int, dict]] = {}
    for r in records:
        by_variant.setdefault(r["variant"], {})[r["op"]] = r
    traced = by_variant["traced"]
    single = by_variant.get("workers1", by_variant["run"])
    ok = sorted({r["op"] for r in _usable(list(traced.values()))}
                & {r["op"] for r in _usable(list(single.values()))})
    if not ok:
        raise BenchmarkError("no traced operation ran to the end")
    stats: dict[str, list[float]] = {}
    for i in ok:
        merge(stats, traced[i]["trace"], NOMINAL_S / traced[i]["reference_s"])
    units = sum(traced[i]["units"] for i in ok)
    phase_ops = sum(1 for i in ok if "phase-space" in traced[i]["steps"])

    def calls(name):
        return stats.get(name, [0])[0]

    def total(name, column=1):  # inclusive seconds (column 2: self seconds)
        return stats.get(name, [0, 0.0, 0.0])[column]

    def per_unit_us(seconds):
        return 1e6 * seconds / units

    def per_call_ms(name):
        return 1e3 * total(name) / calls(name) if calls(name) else 0.0

    calibration = total("datagen.calibration")
    speedup = 0.0
    if "workers1" in by_variant:
        # Raw wall times: normalising each side by its own worker count's
        # reference would cancel the parallel slowdown being measured.
        speedup = (sum(by_variant["workers1"][i]["seconds"] for i in ok)
                   / sum(by_variant["run"][i]["seconds"] for i in ok))
    metrics = {
        "experiments.derive_seed_us": per_unit_us(total("experiments.derive_seed")),
        "experiments.config_replace_us": per_unit_us(total("experiments.config_replace")),
        "experiments.iteration_self_us": per_unit_us(total("experiments.iteration_block", 2)),
        "experiments.pool_speedup": speedup,
        "datagen.generate_us": per_unit_us(total("datagen.generate") - calibration),
        "datagen.generate_calls": calls("datagen.generate") / units,
        "datagen.resolve_sigmas_us": per_unit_us(total("datagen.resolve_sigmas") - calibration),
        "datagen.calibration_ms": per_call_ms("datagen.calibration"),
        "granger.comparison_rss_self_us": per_unit_us(total("granger.comparison_rss", 2)),
        "granger.comparison_rss_calls": calls("granger.comparison_rss") / units,
        "granger.comparison_rss_failed": stats.get("granger.comparison_rss", [0] * 4)[3] / units,
        "granger.decide_edges_us": per_unit_us(total("granger.decide_edges")),
        "granger.decide_edges_calls": calls("granger.decide_edges") / units,
        "regress.nested_rss_us": per_unit_us(total("regress.nested_rss")),
        "regress.nested_rss_calls": calls("regress.nested_rss") / units,
        "regress.ols_fit_us": per_unit_us(total("regress.ols_fit")),
        "regress.ols_fit_calls": calls("regress.ols_fit") / units,
        "regress.build_design_us": per_unit_us(total("regress.build_design")),
        "criteria.statistic_from_rss_us": per_unit_us(total("criteria.statistic_from_rss")),
        "criteria.statistic_from_rss_calls": calls("criteria.statistic_from_rss") / units,
        "core.timeseries_us": per_unit_us(total("core.timeseries")),
        "cli.import_s": statistics.median(
            _normalised(p["import_s"], p["reference_s"]) for p in probes),
        "cli.import_scipy_signal_s": statistics.median(
            _normalised(p["scipy_signal_s"], p["reference_s"]) for p in probes),
        "cli.read_series_csv_ms": per_call_ms("cli.read_series_csv"),
        "cli.csv_rows_read": stats.get("cli.read_series_csv", [0] * 5)[4] / units,
        "cli.write_csv_ms": per_call_ms("cli.write_csv"),
        "cli.checkpoint_rows_written": calls("cli.checkpoint_row") / phase_ops if phase_ops else 0.0,
        "cli.load_phase_csv_ms": per_call_ms("cli.load_phase_csv"),
        "ppm.render_plane_ms": per_call_ms("ppm.render_plane"),
        "ppm.write_ppm_ms": per_call_ms("ppm.write_ppm"),
        "trace.overhead": (sum(_op_seconds(traced[i]) for i in ok)
                           / sum(_op_seconds(single[i]) for i in ok)),
        "machine.reference_ms": 1e3 * statistics.median(
            r["reference_s"] for r in by_variant["run"].values()),
    }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "granger_lab", "cli.py")):
        print("benchmark: src/granger_lab/cli.py not found; run from the root of a "
              "granger-lab checkout", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "GRANGER_LAB_THREADS"}
    env.update(PINNED, PYTHONPATH=src)
    bench_out = os.path.join(root, ".bench_out")
    work = os.path.join(bench_out, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        probe_cmd = [sys.executable] + (["-X", "importtime"] if args.trace else [])
        setups, probes = [], []
        for _ in range(SETUP_PROBES):
            started, probe, err = _spawn(probe_cmd + [CLIENT, "--probe"], env,
                                         PROBE_TIMEOUT_S, capture_stderr=True)
            if os.path.realpath(probe["granger_lab"]) != os.path.realpath(
                    os.path.join(src, "granger_lab")):
                raise BenchmarkError(f"granger_lab was imported from {probe['granger_lab']}")
            setups.append(_normalised(probe["ready"] - started, probe["reference_s"]))
            probe["scipy_signal_s"] = _import_cumulative_s(err, "scipy.signal")
            probes.append(probe)
        started, result, _ = _spawn(
            [sys.executable, CLIENT, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work], env,
            args.seconds + CLIENT_GRACE_S)
        setups.append(_normalised(result["ready"] - started, result["reference_s"]))
        values = per_layer(result, probes) if args.trace else end_to_end(result, setups)
        declared = _declared(root, "per_layer" if args.trace else "end_to_end")
        if set(values) != set(declared):
            raise BenchmarkError(f"metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(values) ^ set(declared))}")
        metrics = {name: (values[name], unit) for name, unit in declared.items()}
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops: dict[int, bool] = {}
    for r in result["records"]:
        ops[r["op"]] = ops.get(r["op"], True) and not r["problems"]
    attempted, failed = len(ops), sum(1 for good in ops.values() if not good)
    env_info = dict(result["env"], git_sha=_git_sha(root))
    results_dir = os.path.join(bench_out, "results")
    os.makedirs(results_dir, exist_ok=True)
    results_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env_info, "setup_samples_s": setups,
                   "probes": probes, "metrics": metrics, "records": result["records"]},
                  fh, indent=1)

    print(f"granger-lab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={result['rounds']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"ops: {attempted} attempted, {failed} failed "
          f"(failed_ops={failed / attempted:.4f} share)")
    for r in result["records"]:
        for problem in r["problems"]:
            print(f"  op {r['op']} ({r['variant']}): {problem}")
    first = next((r for r in result["records"] if r["op"] == 0 and "sha256" in r), None)
    for name, digest in (first or {}).get("sha256", {}).items():
        print(f"op 0 {name} sha256: {digest}")
    runs = [r for r in result["records"] if r["variant"] == "run"]
    print(f"reference kernel: median {1e3 * statistics.median(r['reference_s'] for r in runs):.3f}"
          f" ms a call (normalised timings assume {1e3 * NOMINAL_S:g} ms); raw main() time:"
          f" median {statistics.median(r['seconds'] for r in runs):.4f} s an operation")
    missing = sorted({n for r in result["records"] for n in r.get("untraced_names", [])})
    if missing:
        print(f"not traced (name not found): {', '.join(missing)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"records: {os.path.relpath(results_path, root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
