import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_criteria_seeds_refuses_an_empty_range():
    result = subprocess.run([sys.executable, str(TOOLS / "criteria_seeds.py"), "--seeds", "5-3"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        "criteria_seeds.py: error: argument --seeds: empty seed range '5-3'")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_criteria_seeds_refuses_fewer_than_one_worker(workers):
    result = subprocess.run([sys.executable, str(TOOLS / "criteria_seeds.py"), "--seeds", "5",
                             f"--workers={workers}"], capture_output=True, text=True, timeout=120)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        f"criteria_seeds.py: error: argument --workers: must be a positive integer, "
        f"got {workers}")
