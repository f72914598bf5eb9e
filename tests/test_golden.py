"""Golden output bytes: the SHA-256 of each file a small run of the
deterministic commands writes.

A change that must leave output bytes alone is checked here. A change that
moves them on purpose updates ``GOLDEN`` and says why;
``PYTHONPATH=src python tests/test_golden.py`` prints the current hashes as
``GOLDEN`` entries on stdout (the commands' own messages go to stderr).
``analyze`` is left out: the last digits of its p-values may differ from
one CPU to another.
"""

import hashlib
from pathlib import Path

from granger_lab.cli import main

#: (file written, argv that writes it into the directory ``{out}``).
RUNS = (
    ("sample_fixed.csv", ["generate", "--topology", "driver", "--n", "300",
                          "--seed", "7", "--out", "{out}/sample_fixed.csv"]),
    ("sample_intrinsic.csv", ["generate", "--topology", "indirect", "--n", "300",
                              "--noise", "intrinsic", "--params=-10,0,20", "--seed", "8",
                              "--out", "{out}/sample_intrinsic.csv"]),
    ("sample_extrinsic.csv", ["generate", "--topology", "driver", "--n", "300",
                              "--noise", "extrinsic", "--params=20,-5,0", "--seed", "9",
                              "--out", "{out}/sample_extrinsic.csv"]),
    ("sweep_alpha.csv", ["sweep-alpha", "--topology", "driver", "--n", "50",
                         "--alpha-grid", "0.05,0.2", "--criteria", "lr,wald,rao",
                         "--iterations", "200", "--seed", "3", "--workers", "1",
                         "--out", "{out}"]),
    ("sweep_n.csv", ["sweep-n", "--topology", "indirect", "--alpha", "0.1",
                     "--sizes", "30,60", "--criteria", "lr,wald,rao", "--cases", "60",
                     "--seed", "4", "--workers", "1", "--out", "{out}"]),
    ("phase_space.csv", ["phase-space", "--topology", "driver", "--noise", "intrinsic",
                         "--n", "60", "--grid=-10,10", "--iterations", "20",
                         "--seed", "5", "--workers", "1", "--out", "{out}"]),
    ("plane.ppm", ["render", "--input", "{out}/phase_space.csv", "--axis", "z",
                   "--value=-10", "--field", "spurious_rate", "--scale", "2",
                   "--out", "{out}/plane.ppm"]),
)

#: Recorded at commit 93b58ec, except the ``sample_intrinsic.csv`` and
#: ``sample_extrinsic.csv`` hashes: those moved when SNRs began to refer to
#: the backbone's closed-form stationary variances rather than a simulated
#: estimate, which shifts each noise level by 0.007-0.016 dB.
GOLDEN = {
    "sample_fixed.csv": "a490c37ab3f0f042f020541bff1f22723612010c249a617423c49d25bd882c69",
    "sample_intrinsic.csv": "bda2cb456a6157a90d7fde42fefc6a32de1d2e0c111f7803133a59ec20c2d708",
    "sample_extrinsic.csv": "d9b2350a7fdb7073f399e8a05a33aeb9fb0e3497a63be2919218f1112207b7cb",
    "sweep_alpha.csv": "34e7ed4abccbda78dd5776a61d76b25658141c12597522a0b4b06cd617412781",
    "sweep_n.csv": "6b47d9a61086247b38516e3680030adeb4eda89ae003c7229502f03c32288f8b",
    "phase_space.csv": "b4b9cde39c4904d342f37b19cf465be3f0b01270d7173fc153719275d661a524",
    "plane.ppm": "1d2d86c1ba4836b6e9bebe326b8d40798ae6c707db3bffd19e1290a821e30df2",
    "sweep_n_compare.csv": "9acb0b296293fbacbfbc55c7fb4918a00d67ef41b9e16d00542a9cd4fc1f9a38",
}


def output_hashes(out: Path) -> dict[str, str]:
    """Run every command of ``RUNS`` into ``out``; the SHA-256 of each output."""
    for _, argv in RUNS:
        assert main([a.format(out=out) for a in argv]) == 0
    names = [name for name, _ in RUNS] + ["sweep_n_compare.csv"]
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_output_bytes_match_the_recorded_hashes(tmp_path):
    assert output_hashes(tmp_path) == GOLDEN


if __name__ == "__main__":
    import sys
    import tempfile
    from contextlib import redirect_stdout
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(sys.stderr):
        hashes = output_hashes(Path(tmp))
    for name, digest in hashes.items():
        print(f'    "{name}": "{digest}",')
