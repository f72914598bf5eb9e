"""Pass rates of the Monte Carlo acceptance criteria (4 to 9) over many seeds.

``tests/test_acceptance.py`` checks each criterion at one pinned seed. This
script runs the same criteria, imported from ``tests/acceptance_criteria.py``,
at every seed given and prints each criterion's pass count and the seeds at
which it failed. A change that moves sample bytes can report these rates
beside its parent's. It is not part of the test suite.

Run it from the root of a checkout:

    python tools/criteria_seeds.py --seeds 1000-1004 --workers 2

Criteria 7 and 8 share one pair of phase spaces per seed (5^3 cells of 500
iterations at n=300, one per topology), the slowest part by far.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from acceptance_criteria import CRITERIA  # noqa: E402


def parse_seeds(spec: str) -> list[int]:
    """``a-b`` (inclusive) or a comma list of non-negative integers; a range
    with no seed in it is refused."""
    if "-" in spec:
        first, last = map(int, spec.split("-"))
        if last < first:
            raise argparse.ArgumentTypeError(f"empty seed range {spec!r}")
        return list(range(first, last + 1))
    return [int(seed) for seed in spec.split(",")]


def positive_int(text: str) -> int:
    """A worker count: an integer of 1 or more."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seeds to run: FIRST-LAST (inclusive) or a comma list")
    parser.add_argument("--workers", type=positive_int, default=1)
    args = parser.parse_args(argv)
    failed = {number: [] for number in CRITERIA}
    for seed in args.seeds:
        for number, criterion in CRITERIA.items():
            clock = time.perf_counter()
            faults = criterion(seed, args.workers)
            status = "FAIL" if faults else "pass"
            print(f"seed {seed} criterion {number}: {status} "
                  f"({time.perf_counter() - clock:.1f} s){''.join('; ' + f for f in faults)}",
                  flush=True)
            if faults:
                failed[number].append(seed)
    print(f"\npass counts over {len(args.seeds)} seeds ({args.seeds[0]}..{args.seeds[-1]}):")
    for number, seeds in failed.items():
        where = f"; failed at {', '.join(map(str, seeds))}" if seeds else ""
        print(f"criterion {number}: {len(args.seeds) - len(seeds)}/{len(args.seeds)} "
              f"({CRITERIA[number].__doc__.rstrip('.')}){where}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
