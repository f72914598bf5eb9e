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


def _layer_times(*args):
    return subprocess.run([sys.executable, str(TOOLS / "layer_times.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_layer_times_runs_both_shapes_and_finds_a_tree_alike():
    # The checkout against itself, one pair of a few iterations a shape:
    # each layer's µs, ratio and wins, then its minor page faults per
    # iteration for both trees, and the cold first chunk on a row of its own.
    root = TOOLS.parent
    result = _layer_times("--before", root, "--after", root, "--pairs", 1, "--iterations", 12)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for shape in ("alpha_sweep", "phase_space"):
        block = lines[lines.index(next(l for l in lines if l.startswith(f"{shape}: "))):][:9]
        assert block[1].split() == ["layer", "before", "after", "ratio", "after", "won",
                                    "faults", "before", "after"]
        rows = [line.rsplit(maxsplit=6) for line in block[2:8]]
        assert [row[0].strip() for row in rows] == [
            "draws", "generation", "block_pvalues", "decision", "total", "first chunk"]
        for _, before, after, ratio, won, *faults in rows:
            assert won == "0/1" or won == "1/1"
            assert min(map(float, (before, after, ratio, *faults))) >= 0.0
        assert block[8].startswith("  results: identical (sha256 ")


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


def test_layer_times_hashes_alike_trees_that_chunk_differently(tmp_path):
    # A copy of the package with a quarter of the chunk size cuts each
    # stream into more, shorter chunks; each row's results are the same.
    shutil.copytree(TOOLS.parent / "src" / "granger_lab", tmp_path / "src" / "granger_lab")
    datagen = tmp_path / "src" / "granger_lab" / "datagen.py"
    text = datagen.read_text(encoding="utf-8")
    assert text.count("CHUNK_VALUES = 1 << 15\n") == 1
    datagen.write_text(text.replace("CHUNK_VALUES = 1 << 15\n", "CHUNK_VALUES = 1 << 13\n"),
                       encoding="utf-8")
    result = _layer_times("--before", tmp_path, "--pairs", 1, "--iterations", 250)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("  results: identical (sha256 ") == 2


def test_layer_times_refuses_a_negative_seed():
    result = _layer_times("--before", TOOLS.parent, "--seed", -1)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        "layer_times.py: error: argument --seed: must be a non-negative integer, got -1")
