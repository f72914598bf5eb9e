import shutil
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


def test_layer_times_runs_both_shapes_and_finds_a_tree_alike():
    # The checkout against itself, one pair of a few iterations a shape.
    root = TOOLS.parent
    result = subprocess.run([sys.executable, str(TOOLS / "layer_times.py"), "--before", str(root),
                             "--after", str(root), "--pairs", "1", "--iterations", "12"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for shape in ("alpha_sweep", "phase_space"):
        block = lines[lines.index(next(l for l in lines if l.startswith(f"{shape}: "))):][:8]
        assert [line.split()[0] for line in block[2:7]] == [
            "draws", "generation", "block_pvalues", "decision", "total"]
        assert block[7].startswith("  results: identical (sha256 ")


def test_layer_times_refuses_a_tree_without_the_package(tmp_path):
    result = subprocess.run([sys.executable, str(TOOLS / "layer_times.py"),
                             "--before", str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.splitlines()[-1].endswith(f"{str(tmp_path)!r} holds no src/granger_lab")


def test_layer_times_fails_when_the_trees_differ(tmp_path):
    # A copy of the package whose uniforms are shifted draws other samples.
    shutil.copytree(TOOLS.parent / "src" / "granger_lab", tmp_path / "src" / "granger_lab")
    datagen = tmp_path / "src" / "granger_lab" / "datagen.py"
    text = datagen.read_text(encoding="utf-8")
    assert text.count("uniforms -= 2.0") == 1
    datagen.write_text(text.replace("uniforms -= 2.0", "uniforms -= 1.0"), encoding="utf-8")
    result = subprocess.run([sys.executable, str(TOOLS / "layer_times.py"), "--before",
                             str(tmp_path), "--pairs", "1", "--iterations", "4"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert result.stdout.count("  results: DIFFER (sha256 ") == 2
    assert result.stderr == "the two trees' results differ\n"
