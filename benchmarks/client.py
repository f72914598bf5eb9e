"""Benchmark client: one fresh process that imports granger_lab.cli and then
drives one workload in a closed loop.

Every CLI step runs in a child forked from this process after the import,
so each step starts like a new ``granger-lab`` process that has finished
importing (empty caches, no state from earlier steps) without paying the
import again. A step's time is main()'s wall time, taken inside the child.
The client prints one JSON document with the raw records; ``run.py`` turns
them into metrics.

    python3 benchmarks/client.py --probe
    python3 benchmarks/client.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR
"""

import time

START = time.monotonic()
import granger_lab.cli as cli  # noqa: E402  (the import is what a probe times)
READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from reference import reference_s  # noqa: E402
from tracing import Tracer, merge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: A step still running this long after the measuring window closed is
#: killed and counted as failed, and the loop stops.
GRACE_S = 90.0
#: Reference kernel calls per reference step (about 0.2 s in all).
REFERENCE_CALLS = 10


def _peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _step(argv: list[str], traced: bool) -> dict:
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects flags by exiting
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return {"rc": rc, "seconds": seconds, "stdout": out.getvalue(),
            "peak_rss_kb": _peak_rss_kb(),
            "trace": tracer.stats if tracer else None,
            "untraced": tracer.missing if tracer else []}


def _start(job) -> tuple[int, int]:
    """Fork a child that runs ``job()`` and writes the dict it returns, as
    JSON, to a pipe; return the child's pid and the pipe's read end."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 1
        try:
            os.setpgid(0, 0)  # lets the parent kill the child together with its pool
            data = json.dumps(job()).encode()
            while data:
                data = data[os.write(write_end, data):]
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    with contextlib.suppress(OSError):  # also set by the child; whichever runs first
        os.setpgid(pid, pid)
    return pid, read_end


def _collect(pid: int, read_end: int, deadline: float) -> dict:
    """The dict a child started by ``_start`` returned, or ``{"error": ...}``
    when it failed or overran ``deadline``.

    The child leads its own process group, so a step that overruns
    ``deadline`` is killed together with its pool workers.
    """
    chunks = []
    with os.fdopen(read_end, "rb") as pipe:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([pipe], [], [], left)[0]:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pid, signal.SIGKILL)
                break
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not chunks:
        return {"error": f"process ended with status {status}"}
    return json.loads(b"".join(chunks))


def run_step(argv: list[str], traced: bool, deadline: float) -> dict:
    """Run ``granger_lab.cli.main(argv)`` in a forked child and collect it."""
    step = _collect(*_start(lambda: _step(argv, traced)), deadline)
    if "error" in step:
        step.update(rc=None, seconds=None, stdout="", peak_rss_kb=0, trace=None, untraced=[])
    return step


def reference_step(copies: int, deadline: float) -> float:
    """Mean time of one reference kernel call, in ``copies`` children forked
    like a step and run at once, as many as the workload's workers."""
    children = [_start(lambda: {"seconds": [reference_s() for _ in range(REFERENCE_CALLS)]})
                for _ in range(copies)]
    steps = [_collect(*child, deadline) for child in children]
    for step in steps:
        if "error" in step:
            raise RuntimeError(f"reference step: {step['error']}")
    return statistics.fmean(s for step in steps for s in step["seconds"])


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_op(op, traced: bool, deadline: float) -> dict:
    """Run one operation's steps in order and check its outputs."""
    record = {"steps": [step[0] for step in op.steps], "steps_run": 0, "units": op.units,
              "seconds": 0.0, "problems": [], "peak_rss_kb": 0,
              "trace": {} if traced else None}
    stdouts = []
    for argv in op.steps:
        step = run_step(argv, traced, deadline)
        record["peak_rss_kb"] = max(record["peak_rss_kb"], step["peak_rss_kb"])
        if step["rc"] != 0:
            record["problems"].append(
                f"{argv[0]} exited {step['rc']}" + (f": {step['error']}" if "error" in step else ""))
            return record
        record["seconds"] += step["seconds"]
        record["steps_run"] += 1
        stdouts.append(step["stdout"])
        if traced:
            record["untraced_names"] = step["untraced"]
            merge(record["trace"], step["trace"])
    try:
        op.check(stdouts)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        record["problems"].append(f"{type(exc).__name__}: {exc}")
    if not record["problems"]:
        record["sha256"] = {os.path.basename(p): _sha256(p) for p in op.outputs}
    if traced:
        for name, expected in op.expected_calls.items():
            calls = record["trace"].get(name, [0])[0]
            if calls != expected:
                record["problems"].append(f"{name}: {calls} calls, expected {expected}")
    return record


def drive(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """Closed loop: rounds of operations until ``seconds`` have passed.

    Untraced, each operation runs once, as the workload defines it. Traced,
    each runs untraced at the workload's worker count, untraced at one
    worker when that differs, and traced at one worker; all runs of one
    operation must write identical bytes. A reference step at the run's
    worker count follows every run; each record carries the mean of the
    reference steps before and after it at its worker count.
    """
    wl = WORKLOADS[workload]
    rng = random.Random(seed)
    variants = [("run", wl.workers, False)]
    if trace:
        if wl.workers not in (None, 1):
            variants.append(("workers1", 1, False))
        variants.append(("traced", 1 if wl.workers else None, True))
    records = []
    window_end = time.monotonic() + seconds
    kill_at = window_end + GRACE_S
    rounds = 0
    last_reference: dict[int, float] = {}
    while rounds == 0 or time.monotonic() < window_end:
        for params in wl.draw(rng):
            index = len(records) // len(variants)
            digests = set()
            for variant, workers, traced in variants:
                out = os.path.join(work, f"op{index}-{variant}")
                os.makedirs(out)
                copies = workers or 1
                if copies not in last_reference:
                    last_reference[copies] = reference_step(copies, kill_at)
                record = run_op(wl.build(params, out, workers), traced, kill_at)
                reference = reference_step(copies, kill_at)
                record.update(round=rounds, op=index, variant=variant, params=params,
                              reference_s=(last_reference[copies] + reference) / 2)
                last_reference[copies] = reference
                if "sha256" in record:
                    digests.add(json.dumps(record["sha256"], sort_keys=True))
                records.append(record)
                shutil.rmtree(out)
            if len(digests) > 1:
                records[-1]["problems"].append("outputs differ between runs of one operation")
        rounds += 1
    return {"records": records, "rounds": rounds}


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(),
            "pinning": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--work")
    args = parser.parse_args()
    result = {"ready": READY, "import_s": READY - START,
              "granger_lab": os.path.dirname(cli.__file__),
              # Set-up times are normalised by the kernel run right after
              # the import, in the same process.
              "reference_s": statistics.fmean(reference_s() for _ in range(REFERENCE_CALLS))}
    if not args.probe:
        result.update(drive(args.workload, args.seed, args.seconds, bool(args.trace), args.work))
        result["env"] = environment()
        result["peak_rss_kb"] = _peak_rss_kb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
