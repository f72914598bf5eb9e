import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from granger_lab import cli, datagen, experiments, granger, regress
from granger_lab.cli import (MAX_GRID_VALUES, PHASE_COLUMNS, PHASE_HEADER, fmt, main,
                             parse_criteria, parse_grid)
from granger_lab.core import FORWARD_LINKS, TopologyKind
from granger_lab.criteria import Criterion, statistic_from_rss
from granger_lab.datagen import GeneratorConfig, resolve_sigmas
from granger_lab.experiments import _count_run
from granger_lab.granger import FORWARD_KEYS, REVERSE_KEYS
from granger_lab.seeding import derive_seeds
from granger_lab.ppm import rate_to_rgb, render_plane, write_ppm

import kernel_reference
from kernel_reference import read_ppm, rgb_to_rate


class TestParsing:
    def test_parse_grid_range_is_inclusive(self):
        assert parse_grid("0.05:0.2:0.05") == (0.05, 0.1, 0.15, 0.2)
        assert parse_grid("-40:40:40") == (-40.0, 0.0, 40.0)

    def test_parse_grid_stops_at_the_last_value_within_hi(self):
        assert parse_grid("-40:40:30") == (-40.0, -10.0, 20.0)
        assert parse_grid("25:300:100") == (25.0, 125.0, 225.0)
        assert parse_grid("0:0.3:0.1") == (0.0, 0.1, 0.2, 0.3)

    def test_documented_grids_are_unchanged(self):
        assert parse_grid("0.05:0.5:0.05") == tuple(i / 20 for i in range(1, 11))
        assert parse_grid("-40:40:5") == tuple(float(v) for v in range(-40, 41, 5))
        assert parse_grid("-40:40:10") == tuple(float(v) for v in range(-40, 41, 10))
        assert parse_grid("25:300:25") == tuple(float(v) for v in range(25, 301, 25))

    @given(lo=st.integers(-10**6, 10**6), span=st.integers(0, 10**5), data=st.data())
    def test_parse_grid_range_properties(self, lo, span, data):
        # Bounds and step in thousandths, written as decimals the way they
        # arrive on the command line; at most 501 values.
        step = data.draw(st.integers(max(1, span // 500), 10**5), label="step")
        lo_f, hi_f, step_f = lo / 1000, (lo + span) / 1000, step / 1000
        values = parse_grid(f"{lo_f}:{hi_f}:{step_f}")
        assert values[0] == lo_f
        assert max(values) <= hi_f
        assert len(values) == span // step + 1  # the next value would pass hi
        assert np.allclose(np.diff(values), step_f, rtol=0.0, atol=1e-9)

    def test_parse_grid_comma_list(self):
        assert parse_grid("0.1,0.3,0.2") == (0.1, 0.3, 0.2)

    def test_parse_grid_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_grid("")
        with pytest.raises(ValueError):
            parse_grid("1:0:1")

    @pytest.mark.parametrize("spec", ["0.05:inf:0.05", "-inf:0:1", "0:nan:5", "0:1:inf",
                                      "0:1:nan", "0.05:0.5", "a:0.5:0.05",
                                      "0.05:0.5:0.05:1", ":"])
    def test_parse_grid_rejects_a_non_finite_range(self, spec):
        with pytest.raises(ValueError, match=f"^bad grid spec '{spec}'$"):
            parse_grid(spec)

    def test_parse_grid_bounds_the_range_length(self):
        assert len(parse_grid("1:10000:1")) == MAX_GRID_VALUES == 10_000
        for spec in ("0:10000:1", "0:1e12:1", "-1e308:1e308:1e-300"):
            with pytest.raises(ValueError, match=f"^grid spec '{spec}' has more than "):
                parse_grid(spec)

    def test_parse_criteria(self):
        assert parse_criteria("lr,wald,rao") == (Criterion.LR, Criterion.WALD,
                                                 Criterion.RAO)
        with pytest.raises(ValueError):
            parse_criteria("lr,bogus")

    @pytest.mark.parametrize("spec, name", [("wald,wald", "wald"), ("lr,rao,LR", "lr")])
    def test_parse_criteria_rejects_a_repeated_name(self, spec, name):
        with pytest.raises(ValueError, match=f"^criterion '{name}' is given twice"):
            parse_criteria(spec)

    def test_fmt_round_trips(self):
        for v in (0.05, 1 / 3, 0.1 + 0.2, 115.47005383792516):
            assert float(fmt(v)) == v


def test_generate_defaults_are_the_generator_configs():
    args = cli.build_parser().parse_args(["generate", "--topology", "driver", "--out", "s.csv"])
    config = GeneratorConfig()
    assert (args.ar, args.burn_in) == (config.ar_coefficient, config.burn_in)


class TestGenerateAnalyze:
    def test_round_trip_recovers_topology(self, tmp_path):
        csv = tmp_path / "sample.csv"
        rc = main(["generate", "--topology", "driver", "--n", "500",
                   "--seed", "5", "--out", str(csv)])
        assert rc == 0
        assert csv.read_text().splitlines()[0] == "t,x,y,z"
        rc = main(["analyze", "--input", str(csv)])
        assert rc == 0

    def test_analyze_json_output(self, tmp_path, capsys):
        csv = tmp_path / "sample.csv"
        main(["generate", "--topology", "indirect", "--n", "500",
              "--seed", "6", "--out", str(csv)])
        capsys.readouterr()
        rc = main(["analyze", "--input", str(csv), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["topology"] == "indirect"
        assert set(report["forward_p_values"]) == {
            "x->y", "x->z", "y->z", "tri:x->z", "tri:y->z"}
        assert all(0.0 <= p <= 1.0 for p in report["forward_p_values"].values())
        assert set(report["reverse_p_values"]) == {"y->x", "z->x", "z->y"}
        assert all(0.0 <= p <= 1.0 for p in report["reverse_p_values"].values())
        assert report["criterion"] == "wald" and report["alpha"] == 0.05
        assert report["lags"] == 2

    def test_malformed_row_exits_2_and_names_row(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("t,x,y,z\n0,1.0,2.0,3.0\n1,1.0,nan,3.0\n2,1.0,2.0,3.0\n")
        rc = main(["analyze", "--input", str(csv)])
        assert rc == 2
        assert "row 3" in capsys.readouterr().err

    def test_lag_stack_past_the_longest_samples_exits_2_unbuilt(self, tmp_path, capsys,
                                                                monkeypatch):
        # 3,865 values leave lags 963 residual degrees of freedom, but their
        # stack of 2,891 x 2,902 values outgrows the 8 x 2^20 of the longest
        # sample generate writes, at lags 2. Lags 962 would fit.
        def no_stack(*args):
            raise AssertionError("a lag stack was built")

        csv = tmp_path / "deep.csv"
        assert main(["generate", "--topology", "driver", "--n", "3865", "--out", str(csv)]) == 0
        monkeypatch.setattr(granger, "_lag_stack", no_stack)
        capsys.readouterr()
        assert main(["analyze", "--input", str(csv), "--lags", "963"]) == 2
        assert capsys.readouterr() == ("", "lag depth 963 is too deep for series length 3865: "
                                           "its lag stack exceeds 8388608 values\n")

    @pytest.mark.parametrize("lags", ["0", "-1"])
    def test_lag_depth_below_one_exits_2(self, tmp_path, capsys, lags):
        csv = tmp_path / "sample.csv"
        assert main(["generate", "--topology", "driver", "--n", "60", "--out", str(csv)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--input", str(csv), f"--lags={lags}"]) == 2
        assert capsys.readouterr() == ("", "lags must be >= 1\n")

    def test_faults_are_reported_file_criterion_alpha_then_lags(self, tmp_path, capsys):
        csv = tmp_path / "sample.csv"
        assert main(["generate", "--topology", "driver", "--n", "60", "--out", str(csv)]) == 0
        capsys.readouterr()
        bad = ["--criterion", "f", "--alpha", "0", "--lags", "0"]
        for given, message in [
                (["--input", str(tmp_path / "missing.csv"), *bad], "cannot read"),
                (["--input", str(csv), *bad], "bad criterion 'f'"),
                (["--input", str(csv), *bad[2:]], "significance level must lie"),
                (["--input", str(csv), *bad[4:]], "lags must be >= 1")]:
            assert main(["analyze", *given]) == 2
            assert capsys.readouterr().err.startswith(message)

    def test_wrong_header_exits_2(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("a,b,c\n1,2,3\n")
        assert main(["analyze", "--input", str(csv)]) == 2

    def test_constant_column_exits_3(self, tmp_path, capsys):
        csv = tmp_path / "const.csv"
        rng = np.random.default_rng(0)
        rows = ["t,x,y,z"] + [f"{t},{rng.normal()},{rng.normal()},5.0"
                              for t in range(100)]
        csv.write_text("\n".join(rows) + "\n")
        rc = main(["analyze", "--input", str(csv)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: rank-deficient design: a series is constant or duplicated; "
            "check the input columns\n")

    def test_bad_params_exit_2(self, tmp_path):
        assert main(["generate", "--topology", "driver", "--params", "1,2",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("params", ["1,2", "1,2,x", "1,,3", "1,2,3,4"])
    def test_bad_params_exit_2_and_name_the_spec(self, tmp_path, capsys, params):
        out = tmp_path / "x.csv"
        assert main(["generate", "--topology", "driver", "--params", params,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--params" in err and repr(params) in err and len(err.splitlines()) == 1
        assert not out.exists()

    # 10 ** 309 overflows in the power; at 308.1 the power is finite and
    # its product with Z's variance overflows.
    @pytest.mark.parametrize("snr", ["-3090", "-3081"])
    def test_overflowing_snr_exits_2_and_names_it(self, tmp_path, capsys, snr):
        out = tmp_path / "x.csv"
        assert main(["generate", "--topology", "indirect", "--noise", "intrinsic",
                     f"--params=0,0,{snr}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{float(snr)!r} dB" in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("ar", ["nan", "-nan", "inf"])
    def test_non_finite_ar_exits_2(self, tmp_path, capsys, ar):
        out = tmp_path / "x.csv"
        assert main(["generate", "--topology", "driver", f"--ar={ar}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ar_coefficient" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_analyze_fits_the_comparisons_once(self, tmp_path, monkeypatch):
        csv = tmp_path / "sample.csv"
        main(["generate", "--topology", "driver", "--n", "200", "--seed", "2",
              "--out", str(csv)])
        calls = []
        original = granger.block_pvalues
        monkeypatch.setattr(granger, "block_pvalues",
                            lambda *args: calls.append(len(args[0])) or original(*args))
        assert main(["analyze", "--input", str(csv), "--json"]) == 0
        assert calls == [2]  # one block: the sample and its reverse (z, y, x)

    def test_analyze_fits_only_through_nested_rss(self, tmp_path, monkeypatch):
        # 3 passes for the forward comparisons, 3 for those of (z, y, x)
        csv = tmp_path / "sample.csv"
        main(["generate", "--topology", "driver", "--n", "200", "--seed", "2",
              "--out", str(csv)])
        calls = []

        def counted(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        monkeypatch.setattr(granger, "nested_rss", counted("nested_rss", regress.nested_rss))
        assert main(["analyze", "--input", str(csv), "--json"]) == 0
        assert calls == ["nested_rss"] * 6

    @pytest.mark.parametrize("target", ["missing.csv", "."])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, target):
        path = str(tmp_path / target)
        assert main(["analyze", "--input", path]) == 2
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err

    @pytest.mark.parametrize("criterion", ["lr", "wald", "rao"])
    @pytest.mark.parametrize("topology", ["driver", "indirect"])
    def test_analyze_decides_like_the_monte_carlo_loop(self, tmp_path, capsys,
                                                       topology, criterion):
        # Iteration i of a Monte Carlo run is the sample `generate --seed
        # <seed i of derive_seeds>` writes; analyze must accept the same edges
        # as _count_block's accepted-edge counts for it. Heavy noise on y and z
        # makes the samples reach different decisions, including ones where
        # the pairwise scan is incomplete and a conditional test disagrees
        # with its pairwise test, so that skipping or forcing step two shows.
        master, n, params, seen, gated = 13, 40, (0.0, 3.0, 3.0), set(), False
        gen = GeneratorConfig(topology=TopologyKind(topology), length=n,
                              sigmas_or_snrs=params)
        for i, seed in enumerate(derive_seeds([((master,), 0, 4)])):
            csv = tmp_path / f"{i}.csv"
            assert main(["generate", "--topology", topology, "--n", str(n),
                         "--params", ",".join(map(str, params)),
                         f"--seed={seed}", "--out", str(csv)]) == 0
            capsys.readouterr()
            assert main(["analyze", "--input", str(csv), "--criterion", criterion,
                         "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            [(counts, rank_deficient)] = _count_run(
                [((gen, resolve_sigmas(gen), ()), i, i + 1)], (Criterion(criterion),),
                (0.05,), master)
            assert rank_deficient == 0
            assert sorted(report["edges"]) == sorted(
                link.value for link, on in zip(FORWARD_LINKS, counts[0, 0]) if on)
            seen.add(tuple(report["edges"]))
            accepted = {k: p < 0.05 for k, p in report["forward_p_values"].items()}
            gated |= (not all(accepted[k] for k in ("x->y", "x->z", "y->z"))
                      and any(accepted[k] != accepted["tri:" + k] for k in ("x->z", "y->z")))
        assert len(seen) > 1 and gated


class TestSweepCommands:
    @pytest.mark.parametrize("argv", [
        ["sweep-alpha", "--n", "50", "--alpha-grid", "0.1", "--iterations", "4"],
        ["sweep-n", "--alpha", "0.1", "--sizes", "30,40", "--cases", "4"],
    ], ids=["sweep-alpha", "sweep-n"])
    def test_negative_seed_exits_2_before_a_pool_starts(self, tmp_path, capsys, monkeypatch,
                                                        forks, argv):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        out = tmp_path / "o"
        assert main(argv + ["--topology", "driver", "--workers", "2", "--seed=-1",
                            "--out", str(out)]) == 2
        assert capsys.readouterr().err == "seeds must be non-negative integers, got -1\n"
        assert forks == []
        assert not out.exists()

    def _run_alpha(self, out):
        return main(["sweep-alpha", "--topology", "driver", "--n", "50",
                     "--alpha-grid", "0.1,0.3", "--criteria", "wald",
                     "--iterations", "30", "--seed", "1", "--workers", "1",
                     "--out", str(out)])

    def test_sweep_alpha_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self._run_alpha(out1) == 0
        assert self._run_alpha(out2) == 0
        body1 = (out1 / "sweep_alpha.csv").read_bytes()
        assert body1 == (out2 / "sweep_alpha.csv").read_bytes()
        lines = body1.decode().splitlines()
        assert lines[0].startswith("alpha,criterion,")
        assert len(lines) == 3  # header + 2 alphas x 1 criterion

    @pytest.mark.parametrize("count", ["0", "-4"])
    @pytest.mark.parametrize("argv, flag", [
        (["sweep-alpha", "--topology", "driver", "--n", "50", "--alpha-grid", "0.1"],
         "iterations"),
        (["sweep-n", "--topology", "driver", "--alpha", "0.1", "--sizes", "50"], "cases"),
        (["phase-space", "--topology", "driver", "--noise", "intrinsic", "--n", "60",
          "--grid", "0"], "iterations"),
    ], ids=["sweep-alpha", "sweep-n", "phase-space"])
    def test_nonpositive_count_exits_2_and_names_the_flag(self, tmp_path, capsys,
                                                          argv, flag, count):
        out = tmp_path / "o"
        assert main(argv + [f"--{flag}={count}", "--workers", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"{flag} must be a positive integer, got {count}\n")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_exits_2(self, tmp_path, capsys, workers):
        assert main(["sweep-alpha", "--topology", "driver", "--n", "50",
                     "--alpha-grid", "0.1", "--iterations", "4", f"--workers={workers}",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"workers must be a positive integer, got {workers}\n")

    @pytest.mark.parametrize("argv", [
        ["sweep-alpha", "--topology", "driver", "--n", "50", "--alpha-grid", "0.1",
         "--iterations", "4", "--seed=-1", "--out", "{out}"],
        ["phase-space", "--topology", "driver", "--noise", "intrinsic", "--n", "60",
         "--iterations", "2", "--grid", "0", "--seed=-1", "--workers", "1",
         "--out", "{out}"],
        ["generate", "--topology", "driver", "--seed=-1", "--out", "{out}.csv"],
    ], ids=["sweep-alpha", "phase-space", "generate"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv):
        out = str(tmp_path / "o")
        assert main([a.format(out=out) for a in argv]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["0", "1.5", "nan"])
    @pytest.mark.parametrize("argv", [
        ["sweep-alpha", "--topology", "driver", "--n", "50", "--iterations", "4",
         "--alpha-grid={alpha}", "--workers", "1", "--out", "{out}"],
        ["sweep-n", "--topology", "driver", "--sizes", "50", "--cases", "4",
         "--alpha={alpha}", "--workers", "1", "--out", "{out}"],
        ["phase-space", "--topology", "driver", "--noise", "intrinsic", "--n", "60",
         "--iterations", "2", "--grid", "0", "--alpha={alpha}", "--workers", "1",
         "--out", "{out}"],
        ["analyze", "--input", "{sample}", "--alpha={alpha}"],
    ], ids=["sweep-alpha", "sweep-n", "phase-space", "analyze"])
    def test_significance_outside_unit_interval_exits_2(self, tmp_path, capsys, argv,
                                                        alpha):
        out, sample = tmp_path / "o", tmp_path / "sample.csv"
        rows = np.random.default_rng(3).normal(size=(60, 3)).tolist()
        sample.write_text("t,x,y,z\n" + "".join(f"{t},{x!r},{y!r},{z!r}\n"
                                                for t, (x, y, z) in enumerate(rows)))
        argv = [a.format(alpha=alpha, out=out, sample=sample) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"significance level must lie strictly in (0, 1), got {float(alpha)!r}\n")
        assert not out.exists()

    def test_sweep_alpha_empty_grid_exits_2(self, tmp_path):
        rc = main(["sweep-alpha", "--topology", "driver", "--alpha-grid", "",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_empty_axis_grid_exits_2(self, tmp_path, capsys, axis):
        # An empty per-axis grid is refused, not replaced by --grid.
        out = tmp_path / "o"
        assert main(["phase-space", "--topology", "driver", "--noise", "intrinsic",
                     "--n", "60", "--iterations", "2", "--grid", "0", f"--grid-{axis}=",
                     "--workers", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "empty grid\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, spec", [
        (["sweep-alpha", "--iterations", "4", "--alpha-grid"], "0.05:inf:0.05"),
        (["sweep-n", "--alpha", "0.1", "--cases", "4", "--sizes"], "20:inf:10"),
        (["sweep-n", "--alpha", "0.1", "--cases", "4", "--sizes"], "0:10000:1"),
        (["phase-space", "--noise", "intrinsic", "--iterations", "2", "--grid"], "0:nan:5"),
        (["sweep-alpha", "--iterations", "4", "--alpha-grid"], "0.05:0.5"),
        (["sweep-n", "--alpha", "0.1", "--cases", "4", "--sizes"], "a:300:25"),
        (["sweep-alpha", "--iterations", "4", "--alpha-grid"], "0.1,abc"),
        (["sweep-n", "--alpha", "0.1", "--cases", "4", "--sizes"], "25,abc"),
        (["phase-space", "--noise", "intrinsic", "--iterations", "2", "--grid"], "0,abc"),
        (["phase-space", "--noise", "intrinsic", "--iterations", "2", "--grid", "0",
          "--grid-z"], "0,,x"),
    ], ids=["sweep-alpha-inf", "sweep-n-inf", "sweep-n-too-long", "phase-space-nan",
            "sweep-alpha-two-fields", "sweep-n-not-a-number", "sweep-alpha-list-not-a-number",
            "sweep-n-list-not-a-number", "phase-space-list-not-a-number",
            "phase-space-z-list-not-a-number"])
    def test_bad_range_exits_2_and_names_the_spec(self, tmp_path, capsys, argv, spec):
        out = tmp_path / "o"
        assert main(argv + [spec, "--topology", "driver", "--workers", "1",
                            "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"grid spec '{spec}'" in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep-alpha", "--iterations", "4", "--criteria", "wald,wald"],
        ["sweep-n", "--alpha", "0.1", "--sizes", "30", "--cases", "4", "--criteria", "lr,lr"],
    ], ids=["sweep-alpha", "sweep-n"])
    def test_repeated_criterion_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                        argv):
        def no_sampling(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(experiments, "generate_rows", no_sampling)
        out = tmp_path / "o"
        assert main(argv + ["--topology", "driver", "--workers", "1",
                            "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"criterion '{argv[-1].split(',')[0]}' is given twice" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()  # no CSV, no manifest

    @pytest.mark.parametrize("argv", [
        ["sweep-alpha", "--iterations", "4"],
        ["sweep-n", "--alpha", "0.1", "--sizes", "30,40", "--cases", "4"],
    ], ids=["sweep-alpha", "sweep-n"])
    def test_out_that_is_a_file_exits_3_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                        argv):
        # --out is made once the flags have passed and before the first
        # sample: a file there fails the run at once, and a bad flag still
        # exits 2 first.
        def no_sampling(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(experiments, "generate_rows", no_sampling)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        argv = argv + ["--topology", "driver", "--out", str(out)]
        assert main(argv + ["--workers", "1"]) == 3
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
        assert main(argv + ["--workers", "0"]) == 2
        assert capsys.readouterr().err == "workers must be a positive integer, got 0\n"
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("argv, message", [
        (["sweep-alpha", "--iterations", "4", "--criteria", "lr,"], "bad criterion '' in 'lr,'"),
        (["sweep-n", "--alpha", "0.1", "--sizes", "30", "--cases", "4", "--criteria", "lr,foo"],
         "bad criterion 'foo' in 'lr,foo'"),
        (["phase-space", "--noise", "intrinsic", "--iterations", "2", "--grid", "0",
          "--criterion", "foo"], "bad criterion 'foo'"),
    ], ids=["sweep-alpha", "sweep-n", "phase-space"])
    def test_unknown_criterion_exits_2_and_names_the_spec(self, tmp_path, capsys, monkeypatch,
                                                          argv, message):
        def no_sampling(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(experiments, "generate_rows", no_sampling)
        out = tmp_path / "o"
        assert main(argv + ["--topology", "driver", "--workers", "1",
                            "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_analyze_unknown_criterion_exits_2_and_names_it(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert main(["generate", "--topology", "driver", "--n", "60", "--out", str(csv)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--input", str(csv), "--criterion", "foo"]) == 2
        err = capsys.readouterr().err
        assert "bad criterion 'foo'" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, length, burn_in", [
        (["generate", "--n", "2000000", "--out", "{out}.csv"], 2000000, 100),
        (["generate", "--n", "1048000", "--burn-in", "1000", "--out", "{out}.csv"],
         1048000, 1000),
        (["sweep-alpha", "--n", "2000000", "--iterations", "4", "--workers", "1",
          "--out", "{out}"], 2000000, 100),
        (["sweep-n", "--alpha", "0.1", "--sizes", "25,2000000", "--cases", "4",
          "--workers", "1", "--out", "{out}"], 2000000, 100),
        (["phase-space", "--noise", "intrinsic", "--n", "2000000", "--iterations", "2",
          "--grid", "0", "--workers", "1", "--out", "{out}"], 2000000, 100),
    ], ids=["generate", "generate-burn-in", "sweep-alpha", "sweep-n", "phase-space"])
    def test_sample_length_is_bounded_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                      argv, length, burn_in):
        def no_draws(*args):
            raise AssertionError("values were drawn")

        monkeypatch.setattr(datagen, "_raw_draws", no_draws)
        out = str(tmp_path / "o")
        assert main(argv[:1] + ["--topology", "driver"]
                    + [a.format(out=out) for a in argv[1:]]) == 2
        err = capsys.readouterr().err
        assert f"length {length} plus burn_in {burn_in}" in err and len(err.splitlines()) == 1
        assert not os.path.exists(out) and not os.path.exists(out + ".csv")

    def test_sweep_n_writes_comparisons(self, tmp_path):
        out = tmp_path / "n"
        rc = main(["sweep-n", "--topology", "indirect", "--alpha", "0.05",
                   "--sizes", "50,100", "--criteria", "lr,wald", "--cases", "30",
                   "--seed", "2", "--workers", "1", "--out", str(out)])
        assert rc == 0
        cmp_lines = (out / "sweep_n_compare.csv").read_text().splitlines()
        assert cmp_lines[0].startswith("n,criterion_a,criterion_b,")
        assert len(cmp_lines) == 3  # header + one pair x two sizes

    @pytest.mark.parametrize("sizes, bad", [("25.5,60.9", "25.5"), ("50,60.5", "60.5"),
                                            ("25:30:2.5", "27.5"), ("nan", "nan"),
                                            ("1e400", "inf")])
    def test_sweep_n_fractional_size_exits_2(self, tmp_path, capsys, sizes, bad):
        out = tmp_path / "o"
        assert main(["sweep-n", "--topology", "driver", "--alpha", "0.1", f"--sizes={sizes}",
                     "--cases", "4", "--workers", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"sample sizes must be integers, got {bad}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, outputs", [
        (["sweep-alpha", "--topology", "driver", "--n", "50", "--alpha-grid", "0.1,0.3",
          "--criteria", "wald", "--iterations", "30", "--seed", "1"],
         ["sweep_alpha.csv"]),
        (["sweep-n", "--topology", "indirect", "--alpha", "0.05", "--sizes", "30,40",
          "--criteria", "lr,wald", "--cases", "12", "--seed", "2"],
         ["sweep_n.csv", "sweep_n_compare.csv"]),
        (["phase-space", "--topology", "driver", "--noise", "extrinsic", "--n", "60",
          "--iterations", "4", "--grid=-20,20", "--seed", "3"],
         ["phase_space.csv"]),
    ], ids=["sweep-alpha", "sweep-n", "phase-space"])
    def test_manifest_rerun_is_byte_identical(self, tmp_path, argv, outputs):
        out = tmp_path / "m"
        assert main(argv + ["--workers", "1", "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == sorted(outputs + ["manifest.txt"])
        before = {name: (out / name).read_bytes() for name in outputs}
        manifest = _manifest_keys(out / "manifest.txt")
        assert manifest["experiment"] == [argv[0]]
        assert manifest["seed"] == [argv[-1]]
        assert manifest["output"] == [str(out / name) for name in outputs]
        assert manifest["python"] == [platform.python_version()]
        assert manifest["numpy"] == [np.__version__]
        assert manifest["scipy"] == [scipy.__version__]
        assert main(["--from-manifest", str(out / "manifest.txt")]) == 0
        assert {name: (out / name).read_bytes() for name in outputs} == before


def test_manifest_records_wall_time_that_replay_ignores(tmp_path):
    out = tmp_path / "m"
    argv = ["sweep-alpha", "--topology", "driver", "--n", "40", "--alpha-grid", "0.1",
            "--criteria", "lr", "--iterations", "20", "--workers", "1", "--out", str(out),
            "--seed", "5"]
    assert main(argv) == 0
    before = (out / "sweep_alpha.csv").read_bytes()
    text = (out / "manifest.txt").read_text(encoding="utf-8")
    [wall] = _manifest_keys(out / "manifest.txt")["wall_s"]
    assert re.fullmatch(r"\d+\.\d{3}", wall)
    # A replay reads only the argv line: an unreadable wall time before it
    # changes nothing.
    (out / "manifest.txt").write_text("wall_s=not a number\n" + text, encoding="utf-8")
    assert main(["--from-manifest", str(out / "manifest.txt")]) == 0
    assert (out / "sweep_alpha.csv").read_bytes() == before
    [wall] = _manifest_keys(out / "manifest.txt")["wall_s"]
    assert re.fullmatch(r"\d+\.\d{3}", wall)


def test_manifest_records_iterations_that_replay_ignores(tmp_path):
    out = tmp_path / "m"
    argv = ["sweep-alpha", "--topology", "driver", "--n", "40", "--alpha-grid", "0.1,0.2",
            "--criteria", "lr,wald", "--iterations", "25", "--workers", "1",
            "--out", str(out), "--seed", "5"]
    assert main(argv) == 0
    before = (out / "sweep_alpha.csv").read_bytes()
    keys = _manifest_keys(out / "manifest.txt")
    assert keys["iterations"] == ["25"]  # samples drawn, not cells or criteria
    _assert_rate(keys, 25)
    text = (out / "manifest.txt").read_text(encoding="utf-8")
    (out / "manifest.txt").write_text("iterations=-1\niters_per_s=x\n" + text,
                                      encoding="utf-8")
    assert main(["--from-manifest", str(out / "manifest.txt")]) == 0
    assert (out / "sweep_alpha.csv").read_bytes() == before
    assert _manifest_keys(out / "manifest.txt")["iterations"] == ["25"]


def test_manifest_records_the_lapack_build_that_replay_ignores(tmp_path):
    out = tmp_path / "m"
    argv = ["sweep-alpha", "--topology", "driver", "--n", "40", "--alpha-grid", "0.1",
            "--criteria", "rao", "--iterations", "10", "--workers", "1", "--out", str(out)]
    assert main(argv) == 0
    before = (out / "sweep_alpha.csv").read_bytes()
    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    assert _manifest_keys(out / "manifest.txt")["blas"] == [
        f"{lapack['name']} {lapack['version']}"]
    text = (out / "manifest.txt").read_text(encoding="utf-8")
    (out / "manifest.txt").write_text("blas=\nblas=no such build\n" + text, encoding="utf-8")
    assert main(["--from-manifest", str(out / "manifest.txt")]) == 0
    assert (out / "sweep_alpha.csv").read_bytes() == before


def test_lapack_build_marks_missing_keys(monkeypatch):
    monkeypatch.setattr(scipy, "show_config", lambda mode: {"Build Dependencies": {}})
    assert cli._lapack_build() == "? ?"


def test_resumed_manifest_counts_only_the_new_cells(tmp_path):
    out = tmp_path / "ps"
    args = TestPhaseSpaceCommand.ARGS + ["--out", str(out)]  # 8 cells of 10 iterations
    assert main(args) == 0
    assert _manifest_keys(out / "manifest.txt")["iterations"] == ["80"]
    csv = out / "phase_space.csv"
    full = csv.read_bytes()
    csv.write_text("\n".join(full.decode().splitlines()[:4]) + "\n")  # header + 3 cells
    assert main(args + ["--resume"]) == 0
    assert csv.read_bytes() == full
    keys = _manifest_keys(out / "manifest.txt")
    assert keys["iterations"] == ["50"]
    _assert_rate(keys, 50)
    assert main(args + ["--resume"]) == 0  # nothing left to run
    assert _manifest_keys(out / "manifest.txt")["iterations"] == ["0"]


def _assert_rate(keys: dict[str, list[str]], iterations: int) -> None:
    """iters_per_s is iterations over the unrounded wall time, which
    ``wall_s`` gives to the nearest millisecond."""
    [wall], [rate] = map(float, keys["wall_s"]), map(float, keys["iters_per_s"])
    assert abs(iterations / rate - wall) <= 0.0005 + 1e-6


def _manifest_keys(path: Path) -> dict[str, list[str]]:
    """Every value of each key of a key=value manifest, in file order."""
    keys: dict[str, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        keys.setdefault(key, []).append(value)
    return keys


def _phase_cells(path) -> tuple[dict, list[dict]]:
    """The metadata and the cells of the phase-space CSV at ``path``."""
    with open(path, "rb") as fh:
        rows = list(cli._phase_csv_rows(str(path), fh))
    return rows[0][0], [cell for _, cell in rows]


def _cube_phase_csv(path: Path, size: int) -> list[str]:
    """Write the complete phase-space CSV of the SNR grid ``0:size-1:1`` on
    every axis, and return the ``phase-space`` flags (``--out`` aside) of the
    run that it checkpoints."""
    path.parent.mkdir(parents=True, exist_ok=True)
    axis = [float(v) for v in range(size)]
    with open(path, "w") as fh:
        fh.write(PHASE_HEADER + "\n")
        fh.writelines(f"{x},{y},{z},driver,intrinsic,60,0.05,wald,10,0.5,0.25,0.5,0.5\n"
                      for x in axis for y in axis for z in axis)
    return ["phase-space", "--topology", "driver", "--noise", "intrinsic", "--n", "60",
            "--alpha", "0.05", "--iterations", "10", "--grid", f"0:{size - 1}:1",
            "--workers", "1"]


def _peak_memory(argv: list[str]) -> tuple[int, int]:
    """``main(argv)``'s exit code, and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _with_field(line: str, column: str, value: str) -> str:
    """A phase-space CSV row with ``column`` set to ``value``."""
    fields = line.split(",")
    fields[PHASE_COLUMNS.index(column)] = value
    return ",".join(fields)


class TestPhaseSpaceCommand:
    ARGS = ["phase-space", "--topology", "driver", "--noise", "intrinsic",
            "--n", "60", "--alpha", "0.05", "--iterations", "10",
            "--grid", "0,20", "--grid-z=-20,20", "--seed", "3",
            "--workers", "1"]

    def test_writes_all_cells(self, tmp_path):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        meta, cells = _phase_cells(out / "phase_space.csv")
        assert meta["topology"] == "driver" and meta["n"] == 60
        assert len(cells) == 2 * 2 * 2
        text = (out / "phase_space.csv").read_text().splitlines()
        assert text[0] == PHASE_HEADER

    def test_resume_of_a_complete_checkpoint_holds_no_rows(self, tmp_path):
        # 30^3 = 27,000 rows, which took 16.5 MiB when the reader returned
        # them all; read one at a time they take a few kB.
        csv = tmp_path / "ps" / "phase_space.csv"
        flags = _cube_phase_csv(csv, 30)
        kept = csv.read_bytes()
        assert _peak_memory(flags + ["--resume", "--out", str(csv.parent)])[1] < 1 << 20
        assert csv.read_bytes() == kept

    def test_resume_completes_truncated_run(self, tmp_path):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        full = csv.read_bytes()
        lines = full.decode().splitlines()
        csv.write_text("\n".join(lines[:4]) + "\n")  # keep header + 3 cells
        assert main(self.ARGS + ["--resume", "--out", str(out)]) == 0
        assert csv.read_bytes() == full

    @pytest.mark.parametrize("cut", ["mid_line", "final_newline"])
    def test_resume_after_torn_write_is_byte_identical(self, tmp_path, cut):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        full = csv.read_bytes()
        row_end = [i for i, byte in enumerate(full) if byte == ord("\n")][3]
        # A torn fourth row: cut inside its fields, or just before its
        # newline (where its last rate still parses, as a shorter number).
        keep = row_end - 12 if cut == "mid_line" else row_end
        csv.write_bytes(full[:keep])
        assert main(self.ARGS + ["--resume", "--out", str(out)]) == 0
        assert csv.read_bytes() == full

    def test_resume_after_torn_header_rewrites(self, tmp_path):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        full = csv.read_bytes()
        csv.write_bytes(full[:10])
        assert main(self.ARGS + ["--resume", "--out", str(out)]) == 0
        assert csv.read_bytes() == full

    def test_resume_rejects_malformed_complete_row(self, tmp_path):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join(lines[:2] + [lines[2][:20]]) + "\n")
        assert main(self.ARGS + ["--resume", "--out", str(out)]) == 4
        csv.write_text("not a checkpoint")
        assert main(self.ARGS + ["--resume", "--out", str(out)]) == 4

    @pytest.mark.parametrize("column, value", [("unidentified_rate", "-3.0"),
                                               ("spurious_rate", "7.5"), ("snr_z_db", "nan"),
                                               ("n", "abc"), ("rate_xz", "xyz")])
    def test_resume_refuses_a_row_out_of_range(self, tmp_path, capsys, column, value):
        # A checkpoint that phase-space could not have written conflicts
        # with the run it would resume, which leaves it as it is.
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join(lines[:2] + [_with_field(lines[2], column, value)]) + "\n")
        kept = csv.read_bytes()
        capsys.readouterr()
        assert main(self.ARGS + ["--resume", "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith(f"resume conflict: {csv}: row 3: ")
        assert csv.read_bytes() == kept

    def test_resume_refuses_inconsistent_metadata_and_names_its_row(self, tmp_path, capsys):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        lines = csv.read_text().splitlines()
        lines[3] = _with_field(lines[3], "alpha", "0.1")
        csv.write_text("\n".join(lines[:5]) + "\n")
        kept = csv.read_bytes()
        capsys.readouterr()
        assert main(self.ARGS + ["--resume", "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"resume conflict: {csv}: row 4: inconsistent metadata across rows\n")
        assert csv.read_bytes() == kept

    @pytest.mark.parametrize("count", ["0", "-4"])
    def test_nonpositive_iterations_leave_the_checkpoint_alone(self, tmp_path, count):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        torn = csv.read_bytes()[:-5]  # a resume would cut this tail off
        csv.write_bytes(torn)
        args = [a for a in self.ARGS]
        args[args.index("--iterations") + 1] = count
        assert main(args + ["--resume", "--out", str(out)]) == 2
        assert csv.read_bytes() == torn

    @pytest.mark.parametrize("workers, env", [("0", None), ("-1", None), (None, "0")],
                             ids=["workers-0", "workers-negative", "thread-variable-0"])
    def test_bad_worker_setting_leaves_the_checkpoint_alone(self, tmp_path, capsys,
                                                            monkeypatch, workers, env):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        torn = csv.read_bytes()[:-5]  # a resume would cut this tail off
        csv.write_bytes(torn)
        args = self.ARGS[:-2] + (["--workers", workers] if workers else [])
        if env:
            monkeypatch.setenv("GRANGER_LAB_THREADS", env)
        capsys.readouterr()
        assert main(args + ["--resume", "--out", str(out)]) == 2
        assert ("GRANGER_LAB_THREADS" if env else "workers") in capsys.readouterr().err
        assert csv.read_bytes() == torn

    def test_bad_flag_exits_2_before_an_unreadable_checkpoint_exits_4(self, tmp_path, capsys):
        out = tmp_path / "ps"
        out.mkdir()
        csv = out / "phase_space.csv"
        csv.write_text("not a checkpoint\n")
        args = list(self.ARGS)
        args[args.index("--iterations") + 1] = "0"
        assert main(args + ["--resume", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "iterations must be a positive integer, got 0\n"
        assert csv.read_text() == "not a checkpoint\n"

    def test_overflowing_snr_exits_2_and_names_it(self, tmp_path, capsys):
        out = tmp_path / "ps"
        assert main(["phase-space", "--topology", "driver", "--noise", "intrinsic",
                     "--iterations", "4", "--grid=-4000", "--workers", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "-4000.0 dB" in err and len(err.splitlines()) == 1
        assert not (out / "phase_space.csv").exists()

    OVERFLOW = ["phase-space", "--topology", "driver", "--noise", "intrinsic", "--n", "50",
                "--iterations", "4", "--grid=0"]

    def test_overflowing_snr_on_resume_leaves_the_checkpoint_alone(self, tmp_path, capsys,
                                                                    monkeypatch):
        # A run per cell: had (0, 0, -4000)'s level been resolved only when
        # its cell is generated, the row of (0, 0, 10) would be appended
        # first.
        monkeypatch.setattr(experiments, "RUN_ITERATIONS", 4)
        out = tmp_path / "ps"
        assert main(self.OVERFLOW + ["--workers", "1", "--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        one_row = csv.read_bytes()
        capsys.readouterr()
        assert main(self.OVERFLOW + ["--grid-z=0,10,-4000", "--workers", "1", "--resume",
                                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("an SNR of -4000.0 dB needs a noise std beyond "
                                           "the float range\n")
        assert csv.read_bytes() == one_row

    def test_overflowing_snr_later_in_the_grid_starts_no_pool(self, tmp_path, capsys,
                                                               monkeypatch, forks):
        monkeypatch.setattr(experiments, "RUN_ITERATIONS", 4)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        out = tmp_path / "ps"
        assert main(self.OVERFLOW + ["--grid-z=0,10,-4000", "--workers", "2",
                                     "--out", str(out)]) == 2
        assert "-4000.0 dB" in capsys.readouterr().err
        assert forks == []
        assert not (out / "phase_space.csv").exists()

    def test_failed_run_keeps_the_previous_csv(self, tmp_path):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        full = csv.read_bytes()
        assert main(self.ARGS + ["--seed=-1", "--out", str(out)]) == 2
        assert csv.read_bytes() == full

    @pytest.mark.parametrize("alpha", ["0", "1.5"])
    def test_bad_alpha_leaves_the_checkpoint_alone(self, tmp_path, capsys, alpha):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        torn = csv.read_bytes()[:-5]  # a resume would cut this tail off
        csv.write_bytes(torn)
        capsys.readouterr()
        assert main(self.ARGS + [f"--alpha={alpha}", "--resume", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"significance level must lie strictly in (0, 1), got {float(alpha)!r}\n")
        assert csv.read_bytes() == torn

    SEED_MESSAGE = "seeds must be non-negative integers, got -1\n"

    def test_negative_seed_leaves_the_checkpoint_alone(self, tmp_path, capsys):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        torn = csv.read_bytes()[:-5]  # a resume would cut this tail off
        csv.write_bytes(torn)
        capsys.readouterr()
        assert main(self.ARGS + ["--seed=-1", "--resume", "--out", str(out)]) == 2
        assert capsys.readouterr().err == self.SEED_MESSAGE
        assert csv.read_bytes() == torn

    def test_negative_seed_exits_2_before_a_conflicting_checkpoint_exits_4(self, tmp_path,
                                                                           capsys):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        kept = csv.read_bytes()
        other_cells = ["--grid-z=-10,20", "--resume", "--out", str(out)]
        capsys.readouterr()
        assert main(self.ARGS + other_cells) == 4
        assert capsys.readouterr().err == (
            "resume conflict: checkpoint cells do not match the grid\n")
        assert main(self.ARGS + ["--seed=-1"] + other_cells) == 2
        assert capsys.readouterr().err == self.SEED_MESSAGE
        assert csv.read_bytes() == kept

    def test_negative_seed_creates_no_out_directory(self, tmp_path, capsys):
        out = tmp_path / "new"
        assert main(self.ARGS + ["--seed=-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == self.SEED_MESSAGE
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_repeated_axis_value_leaves_the_checkpoint_alone(self, tmp_path, capsys, axis):
        # Cells are keyed by their SNR triple on resume, so a repeat would
        # take the second of two equal cells for done.
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        torn = csv.read_bytes()[:-5]  # a resume would cut this tail off
        csv.write_bytes(torn)
        capsys.readouterr()
        assert main(self.ARGS + [f"--grid-{axis}=0,20,0.0", "--resume",
                                 "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"the {axis} grid repeats a value\n"
        assert csv.read_bytes() == torn

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_non_finite_axis_value_leaves_the_checkpoint_alone(self, tmp_path, capsys,
                                                               axis, value):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        torn = csv.read_bytes()[:-5]  # a resume would cut this tail off
        csv.write_bytes(torn)
        capsys.readouterr()
        assert main(self.ARGS + [f"--grid-{axis}=0,{value}", "--resume",
                                 "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"the {axis} grid has a non-finite value\n"
        assert csv.read_bytes() == torn

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10**9), st.data())
    def test_checkpoint_row_round_trips_bitwise(self, tmp_path_factory, iterations, data):
        snrs = st.floats(allow_nan=False, allow_infinity=False)
        counts = st.integers(0, iterations)
        cell = dict(zip(("snr_x_db", "snr_y_db", "snr_z_db"),
                        data.draw(st.tuples(snrs, snrs, snrs))))
        for name in ("spurious_rate", "unidentified_rate", "rate_xz", "rate_yz"):
            cell[name] = data.draw(counts, label=name) / iterations
        meta = {"topology": "indirect", "noise_kind": "extrinsic", "n": 300,
                "alpha": data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                "criterion": "rao", "iterations": iterations}
        csv = tmp_path_factory.mktemp("phase") / "phase_space.csv"
        csv.write_text(PHASE_HEADER + "\n" + cli._phase_row(meta, cell) + "\n")
        with open(csv, "rb") as fh:
            [(got_meta, got)] = cli._phase_csv_rows(str(csv), fh)
        assert got_meta == meta
        assert {k: float.hex(v) for k, v in got.items()} == {
            k: float.hex(v) for k, v in cell.items()}

    @pytest.mark.parametrize("conflict, reason", [
        ("malformed", "unexpected header in "),
        ("not-utf8", "{csv}: row 3: not UTF-8 text (byte 0xfe)"),
        ("metadata", "checkpoint metadata differs from flags"),
        ("cells", "checkpoint cells do not match the grid"),
    ], ids=["malformed", "not-utf8", "metadata", "cells"])
    def test_resume_conflict_exits_4(self, tmp_path, capsys, conflict, reason):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        reason = reason.format(csv=csv)
        args = list(self.ARGS)
        if conflict == "malformed":
            csv.write_text("not a checkpoint\n")
        elif conflict == "not-utf8":
            lines = csv.read_bytes().split(b"\n")
            lines[2] = b"\xfe" + lines[2]
            csv.write_bytes(b"\n".join(lines))
        elif conflict == "metadata":
            args[args.index("--alpha") + 1] = "0.1"
        else:  # the second row's z is 20, where the grid now has 40
            args[args.index("--grid-z=-20,20")] = "--grid-z=-20,40"
        kept = csv.read_bytes()
        capsys.readouterr()
        assert main(args + ["--resume", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"resume conflict: {reason}") and len(err.splitlines()) == 1
        assert csv.read_bytes() == kept

    @pytest.fixture
    def synced(self, monkeypatch):
        """The descriptors ``os.fsync`` is called on, in call order."""
        descriptors = []
        monkeypatch.setattr(os, "fsync", descriptors.append)
        return descriptors

    def test_checkpoint_is_synced_once_after_a_full_run(self, tmp_path, synced):
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert len(synced) == 1

    def test_checkpoint_is_synced_once_after_a_failed_stream(self, tmp_path, monkeypatch,
                                                           synced):
        stream = experiments.phase_rows
        rows = []

        def failing(*args, **kwargs):
            for row in stream(*args, **kwargs):
                yield row
                rows.append(row)
                assert synced == []  # not per row
                if len(rows) == 3:
                    raise RuntimeError("worker lost")

        monkeypatch.setattr(cli, "phase_rows", failing)
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 3
        assert len(synced) == 1
        assert len((out / "phase_space.csv").read_text().splitlines()) == 4

    def test_a_bad_flag_syncs_nothing(self, tmp_path, synced):
        out = tmp_path / "ps"
        args = list(self.ARGS)
        args[args.index("--alpha") + 1] = "1.5"
        assert main(args + ["--out", str(out)]) == 2
        assert synced == [] and not out.exists()

    def test_failed_run_writes_no_manifest(self, tmp_path, monkeypatch):
        stream = experiments.phase_rows

        def failing(*args, **kwargs):
            yield next(stream(*args, **kwargs))
            raise ValueError("no second row")

        monkeypatch.setattr(cli, "phase_rows", failing)
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 2
        assert len((out / "phase_space.csv").read_text().splitlines()) == 2
        assert sorted(os.listdir(out)) == ["phase_space.csv"]

    def test_failed_run_removes_the_previous_manifest(self, tmp_path, monkeypatch):
        # A manifest left from the seed-1 run would replay seed 1 over the
        # seed-2 rows beside it.
        out = tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert (out / "manifest.txt").exists()
        stream = experiments.phase_rows

        def failing(*args, **kwargs):
            yield next(stream(*args, **kwargs))
            raise ValueError("no second row")

        monkeypatch.setattr(cli, "phase_rows", failing)
        args = [a for a in self.ARGS]
        args[args.index("--seed") + 1] = "2"
        assert main(args + ["--out", str(out)]) == 2
        assert len((out / "phase_space.csv").read_text().splitlines()) == 2
        assert sorted(os.listdir(out)) == ["phase_space.csv"]

    def test_failed_checkpoint_write_exits_3_and_keeps_the_rows(self, tmp_path, monkeypatch,
                                                               forks):
        full, out = tmp_path / "full", tmp_path / "ps"
        assert main(self.ARGS + ["--out", str(full)]) == 0
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        args = self.ARGS[:-1] + ["2", "--out", str(out)]  # --workers 2
        written, phase_row = [], cli._phase_row

        def failing(meta, cell):
            if len(written) == 2:
                raise OSError("disk full")
            written.append(cell)
            return phase_row(meta, cell)

        streams = []  # held here, a stream that is not closed stays open

        def kept(*args, **kwargs):
            streams.append(experiments.phase_rows(*args, **kwargs))
            return streams[-1]

        monkeypatch.setattr(cli, "_phase_row", failing)
        monkeypatch.setattr(cli, "phase_rows", kept)
        assert main(args) == 3
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):  # the child was killed and reaped
            os.waitpid(-1, os.WNOHANG)
        lines = (full / "phase_space.csv").read_text().splitlines()
        assert (out / "phase_space.csv").read_text().splitlines() == lines[:3]
        monkeypatch.setattr(cli, "_phase_row", phase_row)
        assert main(args + ["--resume"]) == 0
        assert ((out / "phase_space.csv").read_bytes()
                == (full / "phase_space.csv").read_bytes())

    # The rank check's edge in SNR. At 160 dB no iteration of an intrinsic
    # cell is rank deficient and the cell is scored; at 200 dB most are, and
    # the run exits 3 through DegenerateConfiguration.
    @pytest.mark.parametrize("topology, snr, row", [
        ("driver", "160", "160.0,160.0,160.0,driver,intrinsic,300,0.05,wald,20,0.05,0.0,1.0,0.05"),
        ("indirect", "160", "160.0,160.0,160.0,indirect,intrinsic,300,0.05,wald,20,0.0,0.0,0.0,1.0"),
        ("driver", "200", "error: 15/20 iterations were rank deficient at "
                          "SNR (x, y, z) = (200.0, 200.0, 200.0) dB"),
        ("indirect", "200", "error: 20/20 iterations were rank deficient at "
                            "SNR (x, y, z) = (200.0, 200.0, 200.0) dB"),
    ])
    def test_rank_edge_at_high_snr(self, tmp_path, capsys, topology, snr, row):
        out = tmp_path / "ps"
        rc = main(["phase-space", "--topology", topology, "--noise", "intrinsic", "--n", "300",
                   "--alpha", "0.05", "--criterion", "wald", f"--grid={snr}",
                   "--iterations", "20", "--workers", "1", "--out", str(out)])
        if snr == "160":
            assert rc == 0
            assert (out / "phase_space.csv").read_text().splitlines() == [PHASE_HEADER, row]
        else:
            assert rc == 3
            assert capsys.readouterr().err.strip() == row
            assert list(out.iterdir()) == []  # no checkpoint rows, no manifest

    def test_a_cell_past_the_rank_edge_is_named_and_stops_its_resume_too(self, tmp_path,
                                                                         capsys):
        # The fourth cell of this grid is the first with more than 1% of
        # its iterations rank deficient: the run keeps the three rows
        # before it, and a resume starts at that cell and stops there too.
        out = tmp_path / "ps"
        argv = ["phase-space", "--topology", "driver", "--noise", "intrinsic",
                "--grid", "180:220:20", "--n", "60", "--iterations", "40", "--workers", "2",
                "--out", str(out)]
        error = ("error: 26/40 iterations were rank deficient at "
                 "SNR (x, y, z) = (180.0, 200.0, 180.0) dB\n")
        for resume in ([], ["--resume"]):
            assert main(argv + resume) == 3
            assert capsys.readouterr().err == error
            lines = (out / "phase_space.csv").read_text().splitlines()
            assert lines[0] == PHASE_HEADER
            assert [line.split(",")[:3] for line in lines[1:]] == [
                ["180.0", "180.0", "180.0"], ["180.0", "180.0", "200.0"],
                ["180.0", "180.0", "220.0"]]
            assert sorted(os.listdir(out)) == ["phase_space.csv"]

    def test_rank_deficient_counts_jump_between_190_and_200_db(self):
        # Rank-deficient iterations out of 40 per cell, seed 0.
        snrs = (160.0, 190.0, 200.0)
        for topology, counts in ((TopologyKind.DRIVER, [0, 0, 27]),
                                 (TopologyKind.INDIRECT, [0, 0, 40])):
            gens = [GeneratorConfig(topology=topology, length=300,
                                    noise_kind=datagen.NoiseKind.INTRINSIC_SNR,
                                    sigmas_or_snrs=(snr,) * 3) for snr in snrs]
            cells = [(gen, resolve_sigmas(gen), (i,)) for i, gen in enumerate(gens)]
            got = experiments._cell_counts(cells, (Criterion.WALD,), (0.05,), 40, 0, 1)
            assert [rank_deficient for _, rank_deficient in got] == counts

    def test_workers_do_not_change_bytes(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(self.ARGS + ["--out", str(out1)]) == 0
        args2 = [a for a in self.ARGS]
        args2[args2.index("--workers") + 1] = "2"
        assert main(args2 + ["--out", str(out2)]) == 0
        assert ((out1 / "phase_space.csv").read_bytes()
                == (out2 / "phase_space.csv").read_bytes())


class TestSeriesReader:
    """The ``analyze`` input parser: every exit-2 message names the first
    faulty row of the file, counting the header and blank lines."""

    FAULTS = {"fields": ("2,1.0,2.0", "expected 4 fields"),
              "non-numeric": ("2,1.0,x,3.0", "non-numeric value"),
              "nan": ("2,nan,2.0,3.0", "non-finite value"),
              "inf": ("2,1.0,2.0,-inf", "non-finite value")}

    def _analyze_err(self, tmp_path, capsys, text):
        csv = tmp_path / "in.csv"
        csv.write_text(text)
        assert main(["analyze", "--input", str(csv)]) == 2
        return capsys.readouterr().err.replace(str(csv), "FILE")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                    min_size=3, max_size=40))
    def test_fmt_round_trip_is_bitwise(self, tmp_path_factory, rows):
        csv = tmp_path_factory.mktemp("series") / "in.csv"
        csv.write_text("t,x,y,z\n" + "".join(f"{t},{fmt(x)},{fmt(y)},{fmt(z)}\n"
                                             for t, (x, y, z) in enumerate(rows)))
        sample = cli._read_series_csv(str(csv))
        for got, column in zip(sample, zip(*rows)):
            assert got.tobytes() == np.array(column, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("fault", FAULTS)
    def test_fault_after_a_blank_line_names_its_line(self, tmp_path, capsys, fault):
        line, message = self.FAULTS[fault]
        text = f"t,x,y,z\n0,1,2,3\n\n1,1,2,3\n{line}\n3,1,2,3\n4,1,2,3\n"
        assert self._analyze_err(tmp_path, capsys, text) == f"FILE: row 5: {message}\n"

    @pytest.mark.parametrize("first, second", permutations(FAULTS, 2))
    def test_two_faults_name_the_first(self, tmp_path, capsys, first, second):
        text = (f"t,x,y,z\n0,1,2,3\n{self.FAULTS[first][0]}\n  \n1,1,2,3\n"
                f"{self.FAULTS[second][0]}\n3,1,2,3\n4,1,2,3\n")
        assert self._analyze_err(tmp_path, capsys, text) == (
            f"FILE: row 3: {self.FAULTS[first][1]}\n")

    SHORT = "series length {} is too short for lag depth 2: at least 9 values are needed\n"

    @pytest.mark.parametrize("text, message", [
        ("t,x,y,z\n0,1,2,3\n\n1,4,5,6\n", SHORT.format(2)),
        ("t,x,y,z\n", SHORT.format(0)),
        ("t,x,y\n0,1,2\n1,2,3\n2,3,4\n", "FILE: expected header 't,x,y,z', got 't,x,y'\n"),
    ], ids=["too-few-rows", "header-only", "wrong-header"])
    def test_unusable_file_exits_2(self, tmp_path, capsys, text, message):
        # A readable file too short for the lags fails the length check that
        # every command shares, ``granger.require_length``.
        assert self._analyze_err(tmp_path, capsys, text) == message

    @staticmethod
    def _scan(path):
        """What the line scan alone makes of a file: its columns or its message."""
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            try:
                return cli._scan_series(path, fh)
            except ValueError as exc:
                return str(exc)

    def _assert_reader_agrees(self, csv, body):
        """The reader returns the scan's columns bit for bit, or raises its message."""
        csv.write_bytes(("t,x,y,z\n" + body).encode("utf-8"))
        want = self._scan(str(csv))
        try:
            got = cli._read_series_csv(str(csv))
        except ValueError as exc:
            assert str(exc) == want
        else:
            assert [column.tobytes() for column in got] == [column.tobytes() for column in want]

    ROWS = "".join(f"{t},{t + 0.5},{-2.0 * t},{t * t}\n" for t in range(12))

    @pytest.mark.parametrize("body", [
        "0,1,2,3\n\n1,4,5,6\n\n\n2,7,8,9\n" + ROWS,
        "0,1,2,3\n   \n1,4,5,6\n\t\n" + ROWS,
        ROWS.replace("\n", "\r\n"),
        ROWS + "12,1#,2,3\n",
        ROWS + "12,1_5,2,3\n",
        ROWS + "12,\u0661\u0662,2,3\n",
        ROWS + "noon,1,2,3\n",
        ROWS.replace("\n", ",0\n"),
        "",
        ROWS + "12,nan,2,3\n",
        ROWS + "12,1,-inf,3\n",
        ROWS + "12,1,2,NaN\n",
        ROWS + "inf,1,2,3\n",
        ROWS + "12, +1.5e-3 ,-0,  7\n",
    ], ids=["blank-lines", "whitespace-lines", "crlf", "hash-in-field", "underscore",
            "arabic-indic", "non-numeric-t", "five-fields", "header-only", "nan-x", "inf-y",
            "nan-z", "inf-t", "signs-and-spaces"])
    def test_reader_agrees_with_the_scan(self, tmp_path, body):
        self._assert_reader_agrees(tmp_path / "in.csv", body)

    FIELDS = ["0", "-2.5", "+4e-2", "1e999", "-inf", "nan", "1_5", "\u0661", " ", "", "x", "#",
              "0x10", ".5"]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=2)
                                       .map("".join), max_size=5).map(",".join),
                              st.sampled_from(["\n", "\r\n", "\r"])).map("".join),
                    max_size=8).map("".join))
    def test_reader_agrees_with_the_scan_on_any_body(self, tmp_path_factory, body):
        self._assert_reader_agrees(tmp_path_factory.mktemp("series") / "in.csv", body)

    @pytest.mark.parametrize("field, value", [("1_5", 15.0), ("\u0661\u0662", 12.0)],
                             ids=["underscore", "arabic-indic"])
    def test_fields_float_accepts_are_read(self, tmp_path, field, value):
        # numpy's reader refuses these; the scan parses them with float.
        csv = tmp_path / "in.csv"
        csv.write_text("t,x,y,z\n" + self.ROWS + f"12,{field},2,3\n", encoding="utf-8")
        assert cli._read_series_csv(str(csv)).x[-1] == value

    def test_generated_sample_skips_the_scan(self, tmp_path, monkeypatch):
        csv = tmp_path / "sample.csv"
        assert main(["generate", "--topology", "indirect", "--n", "200", "--noise", "intrinsic",
                     "--params", "10,20,30", "--out", str(csv)]) == 0
        want = self._scan(str(csv))

        def no_scan(*args):
            raise AssertionError("the line scan ran")

        monkeypatch.setattr(cli, "_scan_series", no_scan)
        got = cli._read_series_csv(str(csv))
        assert [column.tobytes() for column in got] == [column.tobytes() for column in want]

    @pytest.mark.parametrize("text, message", [
        (b"t,x,y,z\n0,1,2,3\n1,\xff,2,3\n", "row 3: not UTF-8 text (byte 0xff)"),
        (b"t,x,y,z\r\n0,1,2,3\r\n1,1,2,3\r\n2,1,2,\xe9\r\n",
         "row 4: not UTF-8 text (byte 0xe9)"),
        (b"t,x,y,z\n0,1,x,3\n" + b"1,1,2,3\n" * 5000 + b"2,1,2,3\xc3\n",
         "row 5003: not UTF-8 text (byte 0xc3)"),
        (b"t,x,\x80,z\n0,1,2,3\n", "row 1: not UTF-8 text (byte 0x80)"),
    ], ids=["lf", "crlf", "after-a-fault", "header"])
    def test_non_utf8_file_exits_2_and_names_the_row(self, tmp_path, capsys, text, message):
        # A bad byte outranks any other fault, wherever it is in the file.
        csv = tmp_path / "in.csv"
        csv.write_bytes(text)
        assert main(["analyze", "--input", str(csv)]) == 2
        assert capsys.readouterr().err == f"{csv}: {message}\n"


class TestShortSeries:
    """A sample length below 4 * lags + 1 leaves the full [z | y | x] lag
    design no residual degree of freedom. Every command refuses it with
    exit 2 and a message naming the length, before any sample is drawn."""

    @staticmethod
    def _message(n):
        return f"series length {n} is too short for lag depth 2: at least 9 values are needed\n"

    @pytest.mark.parametrize("argv, n", [
        (["sweep-alpha", "--topology", "driver", "--n", "8", "--iterations", "4"], 8),
        (["sweep-n", "--topology", "driver", "--alpha", "0.1", "--sizes", "5,50",
          "--cases", "4"], 5),
        (["phase-space", "--topology", "driver", "--noise", "intrinsic", "--n", "6",
          "--iterations", "2", "--grid", "0"], 6),
        # Too short for the backbone's lags too: the lag-depth rule is reported.
        (["sweep-alpha", "--topology", "driver", "--n", "2", "--iterations", "4"], 2),
        (["sweep-n", "--topology", "driver", "--alpha", "0.1", "--sizes", "2,50",
          "--cases", "4"], 2),
        (["phase-space", "--topology", "driver", "--noise", "intrinsic", "--n", "2",
          "--iterations", "2", "--grid", "0"], 2),
    ], ids=["sweep-alpha", "sweep-n", "phase-space", "sweep-alpha-2", "sweep-n-2",
            "phase-space-2"])
    def test_experiment_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch, forks,
                                                argv, n):
        def no_sampling(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(experiments, "generate_rows", no_sampling)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        out = tmp_path / "o"
        assert main(argv + ["--workers", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == self._message(n)
        assert forks == []
        assert not (out / "manifest.txt").exists()

    def test_analyze_exits_2_and_names_the_length(self, tmp_path, capsys):
        csv = tmp_path / "short.csv"
        assert main(["generate", "--topology", "driver", "--n", "8", "--out", str(csv)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--input", str(csv)]) == 2
        assert capsys.readouterr() == ("", self._message(8))

    def test_shortest_sample_is_analyzed(self, tmp_path, capsys):
        # 9 values at lags 2: the p-values of the three full-length passes
        # each sample had before, to 1e-12.
        csv = tmp_path / "shortest.csv"
        assert main(["generate", "--topology", "indirect", "--n", "9", "--seed", "6",
                     "--out", str(csv)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--input", str(csv), "--json", "--criterion", "lr"]) == 0
        report = json.loads(capsys.readouterr().out)
        x, y, z = cli._read_series_csv(str(csv))
        # The reversed sample's pairwise links are the reverse links backwards.
        for got, sample, keys in ((report["forward_p_values"], (x, y, z), FORWARD_KEYS),
                                  (report["reverse_p_values"], (z, y, x), REVERSE_KEYS[::-1])):
            assert sorted(got) == sorted(keys)
            pairs = kernel_reference.forward_rss_three_pass(*sample, 2)
            for key, (rss_r, rss_u, k) in zip(keys, pairs):
                expected = statistic_from_rss(Criterion.LR, rss_r, rss_u, 7, 2, k)[1]
                assert got[key] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_resume_leaves_the_checkpoint_alone(self, tmp_path, capsys):
        args = TestPhaseSpaceCommand.ARGS
        out = tmp_path / "ps"
        assert main(args + ["--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        torn = csv.read_bytes()[:-5]  # a resume would cut this tail off
        csv.write_bytes(torn)
        capsys.readouterr()
        short = [*args[:args.index("--n") + 1], "6", *args[args.index("--n") + 2:]]
        assert main(short + ["--resume", "--out", str(out)]) == 2
        assert capsys.readouterr().err == self._message(6)
        assert csv.read_bytes() == torn


class TestBenchmarkHooks:
    """benchmarks/tracing.py times these names by replacing them in their
    modules, and counts ``len(result.x)`` rows per ``_read_series_csv`` call.
    A rename there would otherwise fail only on traced benchmark runs."""

    @pytest.mark.parametrize("module, name", [
        (granger, "nested_rss"), (granger, "statistic_from_rss"), (cli, "generate"),
        (cli, "_write_lines"), (cli, "_read_series_csv")])
    def test_traced_name_resolves(self, module, name):
        assert callable(getattr(module, name))

    @staticmethod
    def _count_kernel_calls(monkeypatch):
        """Calls of the two traced kernels, counted where ``granger`` looks
        them up."""
        calls = {"nested_rss": 0, "statistic_from_rss": 0}

        def counted(name):
            fn = getattr(granger, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(granger, name, counted(name))
        return calls

    @pytest.mark.parametrize("criteria", [(Criterion.WALD,), tuple(Criterion)])
    def test_one_run_calls_the_traced_kernels_per_iteration(self, monkeypatch, criteria):
        # The traced benchmark checks these per-iteration call counts: three
        # QR passes and five scores per criterion for each sample.
        calls = self._count_kernel_calls(monkeypatch)
        k = 7
        gen = GeneratorConfig(topology=TopologyKind.DRIVER, length=50)
        [(_, rank_deficient)] = _count_run([((gen, resolve_sigmas(gen), ()), 0, k)],
                                           criteria, (0.05,), 3)
        assert rank_deficient == 0
        assert calls == {"nested_rss": 3 * k, "statistic_from_rss": 5 * len(criteria) * k}

    def test_a_phase_space_run_calls_the_traced_kernels_per_iteration(self, monkeypatch):
        # The phase_space workload's shape: intrinsic cells at n=300 scored
        # as one block. 3 cells of 40 iterations cross the 81-row chunk's
        # cell edges, and its 13-row stack blocks cross both.
        calls = self._count_kernel_calls(monkeypatch)
        shape = GeneratorConfig(topology=TopologyKind.DRIVER, length=300,
                                noise_kind=datagen.NoiseKind.INTRINSIC_SNR)
        assert datagen.chunk_rows(shape) == 81
        snrs = [(-40.0, 0.0, 40.0), (40.0, 40.0, 40.0), (0.0, -40.0, -40.0)]
        run = [((shape, levels, (i,)), 0, 40)
               for i, levels in enumerate(zip(*datagen.axis_sigmas(shape, zip(*snrs))))]
        results = _count_run(run, (Criterion.WALD,), (0.05,), 5)
        assert [rank_deficient for _, rank_deficient in results] == [0, 0, 0]
        assert calls == {"nested_rss": 3 * 120, "statistic_from_rss": 5 * 120}

    def test_rank_deficient_rows_make_their_passes_and_no_scores(self, monkeypatch):
        # Stack blocks of five rows: the first holds rank-deficient rows at
        # its start, middle and end (a constant x, y duplicating x, z
        # duplicating y), the second holds nothing else, and the third none.
        # Every row makes its three QR passes; only the kept rows are
        # scored, each as it scores alone, and the others read NaN.
        gen = GeneratorConfig(topology=TopologyKind.DRIVER, length=40)
        rows, criteria = 13, tuple(Criterion)
        xs, ys, zs = (np.array(series) for series in zip(
            *(datagen.generate(gen, seed) for seed in range(rows))))
        xs[0] = 1.0
        for row in range(5, 10):
            ys[row] = xs[row]
        ys[2], zs[4] = xs[2], ys[4]
        deficient = np.isin(np.arange(rows), [0, 2, 4, *range(5, 10)])
        alone = [granger.block_pvalues(xs[i:i + 1], ys[i:i + 1], zs[i:i + 1], 2, criteria)
                 for i in range(rows)]
        monkeypatch.setattr(granger, "CHUNK_VALUES", 5 * (3 * 2 + 2) * (40 - 2))
        calls = self._count_kernel_calls(monkeypatch)
        pvalues, got = granger.block_pvalues(xs, ys, zs, 2, criteria)
        kept = rows - deficient.sum()
        assert calls == {"nested_rss": 3 * rows, "statistic_from_rss": 5 * len(criteria) * kept}
        assert got.tolist() == deficient.tolist()
        assert np.isnan(pvalues[deficient]).all() and not np.isnan(pvalues[~deficient]).any()
        for row in np.flatnonzero(~deficient):
            assert pvalues[row].tobytes() == alone[row][0][0].tobytes()

    def test_one_analyze_calls_the_traced_kernels_per_sample(self, tmp_path, monkeypatch):
        # Three QR passes and five scores for the one criterion, for the
        # sample and for its reverse (z, y, x), whose pairwise scores are the
        # reverse links; its two conditional scores are computed and dropped.
        csv = tmp_path / "sample.csv"
        assert main(["generate", "--topology", "driver", "--n", "120", "--seed", "4",
                     "--out", str(csv)]) == 0
        calls = self._count_kernel_calls(monkeypatch)
        assert main(["analyze", "--input", str(csv), "--json"]) == 0
        assert calls == {"nested_rss": 6, "statistic_from_rss": 10}

    def test_reader_result_counts_the_rows(self, tmp_path):
        csv = tmp_path / "sample.csv"
        assert main(["generate", "--topology", "driver", "--n", "37",
                     "--out", str(csv)]) == 0
        assert len(cli._read_series_csv(str(csv)).x) == 37


class TestRender:
    def _phase_csv(self, path, rate):
        meta = "driver,intrinsic,60,0.05,wald,10"
        rows = [PHASE_HEADER]
        for sx in (0.0, 20.0):
            for sy in (0.0, 20.0):
                rows.append(f"{sx},{sy},0.0,{meta},{rate},{rate},{rate},{rate}")
        path.write_text("\n".join(rows) + "\n")

    def test_constant_zero_renders_blue(self, tmp_path):
        csv, ppm = tmp_path / "g.csv", tmp_path / "g.ppm"
        self._phase_csv(csv, 0.0)
        assert main(["render", "--input", str(csv), "--axis", "z",
                     "--value", "0", "--scale", "4", "--out", str(ppm)]) == 0
        image = read_ppm(str(ppm))
        assert image.shape == (8, 8, 3)
        assert np.all(image == np.array([0, 0, 255], dtype=np.uint8))

    def test_constant_one_renders_red(self, tmp_path):
        csv, ppm = tmp_path / "r.csv", tmp_path / "r.ppm"
        self._phase_csv(csv, 1.0)
        main(["render", "--input", str(csv), "--axis", "z", "--value", "0",
              "--scale", "1", "--out", str(ppm)])
        assert np.all(read_ppm(str(ppm)) == np.array([255, 0, 0], dtype=np.uint8))

    def test_torn_final_row_is_not_rendered(self, tmp_path, capsys):
        # "...,0.25\n" cut to "...,0.2" would parse as a wrong rate.
        csv = tmp_path / "g.csv"
        self._phase_csv(csv, 0.25)
        csv.write_bytes(csv.read_bytes()[:-2])
        assert main(["render", "--input", str(csv), "--axis", "z",
                     "--value", "0", "--out", str(tmp_path / "g.ppm")]) == 2
        assert "missing cells" in capsys.readouterr().err

    def test_repeated_triple_exits_2_and_names_it(self, tmp_path, capsys):
        csv, ppm = tmp_path / "g.csv", tmp_path / "g.ppm"
        self._phase_csv(csv, 0.0)
        with csv.open("a") as fh:
            fh.write("0.0,0.0,0.0,driver,intrinsic,60,0.05,wald,10,1.0,1.0,1.0,1.0\n")
        assert main(["render", "--input", str(csv), "--axis", "z", "--value", "0",
                     "--out", str(ppm)]) == 2
        assert "(0.0, 0.0, 0.0)" in capsys.readouterr().err
        assert not ppm.exists()

    @pytest.mark.parametrize("content", [None, "", PHASE_HEADER + "\n", PHASE_HEADER],
                             ids=["dev-null", "empty", "header-only", "torn-header"])
    def test_input_without_rows_exits_2_and_names_it(self, tmp_path, capsys, content):
        path = os.devnull
        if content is not None:
            path = str(tmp_path / "g.csv")
            Path(path).write_text(content)
        ppm = tmp_path / "g.ppm"
        assert main(["render", "--input", path, "--axis", "z", "--value", "0",
                     "--out", str(ppm)]) == 2
        err = capsys.readouterr().err
        assert f"{path} has no complete rows" in err and len(err.splitlines()) == 1
        assert not ppm.exists()

    @pytest.mark.parametrize("column, value, problem", [
        ("unidentified_rate", "-3.0", "a rate is outside [0, 1]"),
        ("unidentified_rate", "7.5", "a rate is outside [0, 1]"),
        ("rate_yz", "nan", "a rate is outside [0, 1]"),
        ("snr_y_db", "nan", "an SNR is not finite"),
        ("snr_x_db", "-inf", "an SNR is not finite"),
        ("n", "abc", "non-numeric value"),
        ("unidentified_rate", "xyz", "non-numeric value"),
        ("snr_z_db", "", "non-numeric value"),
    ])
    def test_value_out_of_range_exits_2_and_names_its_row(self, tmp_path, capsys,
                                                          column, value, problem):
        # rate_to_rgb would clamp a bad rate into a wrong picture.
        csv, ppm = tmp_path / "g.csv", tmp_path / "g.ppm"
        self._phase_csv(csv, 0.5)
        lines = csv.read_text().splitlines()
        lines[2] = _with_field(lines[2], column, value)
        csv.write_text("\n".join(lines) + "\n")
        assert main(["render", "--input", str(csv), "--axis", "z", "--value", "0",
                     "--out", str(ppm)]) == 2
        assert capsys.readouterr().err == f"{csv}: row 3: {problem}\n"
        assert not ppm.exists()

    def test_render_holds_no_rows(self, tmp_path):
        # 27,000 rows took 16.5 MiB when the reader returned them all; now
        # only extract_plane's set of SNR triples grows, by about 5.6 MiB.
        csv, ppm = tmp_path / "cube.csv", tmp_path / "cube.ppm"
        _cube_phase_csv(csv, 30)
        code, peak = _peak_memory(["render", "--input", str(csv), "--axis", "z", "--value", "0",
                                   "--out", str(ppm)])
        assert code == 0 and peak < 8 << 20
        assert read_ppm(str(ppm)).shape == (30 * 16, 30 * 16, 3)

    def test_plane_of_a_diagonal_needs_no_grid_sized_memory(self, tmp_path, capsys):
        # 100 rows on the diagonal span 100 values on each axis: four rate
        # arrays over that 100^3 grid would take 32 MB. The one 100 x 100
        # plane has one row in it, so the render exits 2.
        csv, ppm = tmp_path / "d.csv", tmp_path / "d.ppm"
        meta = "driver,intrinsic,60,0.05,wald,10"
        csv.write_text("\n".join([PHASE_HEADER] + [f"{v},{v},{v},{meta},0.5,0.5,0.5,0.5"
                                                   for v in map(float, range(100))]) + "\n")
        tracemalloc.start()
        try:
            code = main(["render", "--input", str(csv), "--axis", "z", "--value", "7",
                         "--out", str(ppm)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == "plane has missing cells (incomplete CSV)\n"
        assert peak < 1 << 20
        assert not ppm.exists()

    @pytest.mark.parametrize("column, value", [("criterion", "lr"), ("iterations", "11")])
    def test_inconsistent_metadata_exits_2_and_names_its_row(self, tmp_path, capsys,
                                                            column, value):
        csv, ppm = tmp_path / "g.csv", tmp_path / "g.ppm"
        self._phase_csv(csv, 0.5)
        lines = csv.read_text().splitlines()
        lines[3] = _with_field(lines[3], column, value)
        csv.write_text("\n".join(lines) + "\n")
        assert main(["render", "--input", str(csv), "--axis", "z", "--value", "0",
                     "--out", str(ppm)]) == 2
        assert capsys.readouterr().err == f"{csv}: row 4: inconsistent metadata across rows\n"
        assert not ppm.exists()

    def test_non_utf8_input_exits_2_and_names_it(self, tmp_path, capsys):
        csv, ppm = tmp_path / "g.csv", tmp_path / "g.ppm"
        self._phase_csv(csv, 0.5)
        csv.write_bytes(csv.read_bytes().replace(b"driver", b"dr\xefver", 1))
        assert main(["render", "--input", str(csv), "--axis", "z", "--value", "0",
                     "--out", str(ppm)]) == 2
        assert capsys.readouterr().err == f"{csv}: row 2: not UTF-8 text (byte 0xef)\n"
        assert not ppm.exists()

    @pytest.mark.parametrize("target", ["missing.csv", "."])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, target):
        path = str(tmp_path / target)
        assert main(["render", "--input", path, "--axis", "z", "--value", "0",
                     "--out", str(tmp_path / "g.ppm")]) == 2
        assert path in capsys.readouterr().err

    def test_unwritable_output_exits_3(self, tmp_path):
        csv = tmp_path / "g.csv"
        self._phase_csv(csv, 0.5)
        assert main(["render", "--input", str(csv), "--axis", "z", "--value", "0",
                     "--out", str(tmp_path / "no" / "g.ppm")]) == 3

    def test_off_grid_value_exits_2(self, tmp_path):
        csv = tmp_path / "g.csv"
        self._phase_csv(csv, 0.5)
        assert main(["render", "--input", str(csv), "--axis", "z",
                     "--value", "7", "--out", str(tmp_path / "g.ppm")]) == 2

    def test_unsorted_grid_renders_in_ascending_snr_order(self, tmp_path):
        out = tmp_path / "ps"
        assert main(["phase-space", "--topology", "driver", "--noise", "intrinsic",
                     "--n", "60", "--alpha", "0.05", "--iterations", "20",
                     "--grid=-20,20", "--grid-x=20,-40,0", "--seed", "13",
                     "--workers", "1", "--out", str(out)]) == 0
        csv = out / "phase_space.csv"
        _, cells = _phase_cells(csv)
        assert [c["snr_x_db"] for c in cells[::4]] == [20.0, -40.0, 0.0]  # grid order
        scale = 4
        for value in (20.0, -20.0):
            ppm = tmp_path / f"plane_{value}.ppm"
            assert main(["render", "--input", str(csv), "--axis", "z",
                         "--value", str(value), "--scale", str(scale),
                         "--out", str(ppm)]) == 0
            image = read_ppm(str(ppm))
            expected = {(c["snr_x_db"], c["snr_y_db"]): c["unidentified_rate"]
                        for c in cells if c["snr_z_db"] == value}
            xs, ys = (-40.0, 0.0, 20.0), (-20.0, 20.0)
            assert image.shape == (len(xs) * scale, len(ys) * scale, 3)
            for i, sx in enumerate(xs):
                for j, sy in enumerate(ys):
                    recovered = rgb_to_rate(*(int(v) for v in image[i * scale, j * scale]))
                    assert abs(recovered - expected[(sx, sy)]) <= 1.0 / 255.0
        # The rows differ, so a plane left in grid order would fail above.
        assert len({expected[(sx, -20.0)] for sx in xs}) == 3

    def test_color_map_round_trip(self):
        for rate in np.linspace(0.0, 1.0, 101):
            assert abs(rgb_to_rate(*rate_to_rgb(rate)) - rate) <= 1.0 / 255.0
        assert rate_to_rgb(0.5) == (255, 255, 255)

    def test_render_plane_scales_blocks(self):
        plane = np.array([[0.0, 1.0]])
        image = render_plane(plane, scale=3)
        assert image.shape == (3, 6, 3)
        assert np.all(image[:, :3] == np.array([0, 0, 255], dtype=np.uint8))
        assert np.all(image[:, 3:] == np.array([255, 0, 0], dtype=np.uint8))

    def test_oversized_image_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch):
        def no_image(*args, **kwargs):
            raise AssertionError("the image was allocated")

        monkeypatch.setattr(np, "kron", no_image)
        csv, ppm = tmp_path / "g.csv", tmp_path / "g.ppm"
        self._phase_csv(csv, 0.5)
        # 2 x 2 cells at scale 2**12 is 2**26 pixels, the most allowed.
        for scale in (2**12 + 1, 10**15):
            assert main(["render", "--input", str(csv), "--axis", "z", "--value", "0",
                         "--scale", str(scale), "--out", str(ppm)]) == 2
            err = capsys.readouterr().err
            assert f"--scale {scale}" in err and len(err.splitlines()) == 1
        assert not ppm.exists()

    def test_ppm_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(str(path), image)
        assert path.read_bytes().startswith(b"P6\n7 5\n255\n")
        np.testing.assert_array_equal(read_ppm(str(path)), image)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4), st.data())
    def test_rendered_plane_reads_back_within_a_level(self, tmp_path_factory, rows, cols,
                                                      scale, data):
        rates = st.floats(0.0, 1.0)
        plane = np.array(data.draw(st.lists(rates, min_size=rows * cols,
                                            max_size=rows * cols))).reshape(rows, cols)
        path = tmp_path_factory.mktemp("ppm") / "plane.ppm"
        write_ppm(str(path), render_plane(plane, scale=scale))
        image = read_ppm(str(path))
        assert image.shape == (rows * scale, cols * scale, 3)
        for i, j in np.ndindex(image.shape[:2]):
            rate = rgb_to_rate(*(int(c) for c in image[i, j]))
            assert abs(rate - plane[i // scale, j // scale]) <= 1.0 / 255.0


class TestWorkerSetting:
    @pytest.mark.parametrize("value", ["two", "0", "-3", "1.5"])
    def test_invalid_thread_variable_exits_2(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("GRANGER_LAB_THREADS", value)
        rc = main(["sweep-alpha", "--topology", "driver", "--n", "50",
                   "--alpha-grid", "0.1", "--criteria", "wald", "--iterations", "4",
                   "--out", str(tmp_path / "a")])
        assert rc == 2
        assert "GRANGER_LAB_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, outputs", [
        (["sweep-n", "--topology", "indirect", "--alpha", "0.05", "--sizes", "30,40,50",
          "--criteria", "lr,wald,rao", "--cases", "40", "--seed", "4"],
         ["sweep_n.csv", "sweep_n_compare.csv"]),
        (["phase-space", "--topology", "driver", "--noise", "extrinsic", "--n", "60",
          "--alpha", "0.05", "--iterations", "6", "--grid=-20,0,20", "--seed", "5"],
         ["phase_space.csv"]),
    ], ids=["sweep-n", "phase-space"])
    def test_real_workers_do_not_change_bytes(self, tmp_path, argv, outputs):
        # On two cores the runs (15 and 21 iterations) end inside cells.
        for workers in ("1", "2"):
            assert main(argv + ["--workers", workers, "--out", str(tmp_path / workers)]) == 0
        for name in outputs:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes())


class TestCommandParsers:
    """``main`` builds only the named command's subparser; what it prints
    for that command's arguments is what the parser of every command prints."""

    COMMANDS = ["sweep-alpha", "sweep-n", "phase-space", "render", "analyze", "generate"]
    #: A flag of each command given a value of the wrong type.
    BAD_FLAG = {"sweep-alpha": "--iterations", "sweep-n": "--cases", "phase-space": "--n",
                "render": "--scale", "analyze": "--lags", "generate": "--n"}
    #: The flags each command requires.
    REQUIRED = {"sweep-alpha": ["--topology", "driver", "--out", "o"],
                "sweep-n": ["--topology", "driver", "--alpha", "0.1", "--sizes", "30",
                            "--out", "o"],
                "phase-space": ["--topology", "driver", "--noise", "intrinsic", "--out", "o"],
                "render": ["--input", "i.csv", "--axis", "z", "--value", "0", "--out", "o"],
                "analyze": ["--input", "i.csv"],
                "generate": ["--topology", "driver", "--out", "o"]}

    @staticmethod
    def _exit(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, *capsys.readouterr()

    def test_help_lists_every_command(self, capsys):
        code, out, err = self._exit(capsys, main, ["--help"])
        assert (code, err) == (0, "")
        assert "{" + ",".join(self.COMMANDS) + "}" in out
        for command in self.COMMANDS:
            assert re.search(rf"^    {command} +\S", out, re.MULTILINE), command

    def test_unknown_command_exits_2_and_names_every_command(self, capsys):
        code, out, err = self._exit(capsys, main, ["analyse", "--input", "x.csv"])
        choices = ", ".join(f"'{command}'" for command in self.COMMANDS)
        assert (code, out) == (2, "")
        assert err.endswith("granger-lab: error: argument command: invalid choice: "
                            f"'analyse' (choose from {choices})\n")

    def test_one_command_parser_registers_one_command(self):
        [sub] = [action for action in cli.build_parser("render")._actions
                 if isinstance(action, argparse._SubParsersAction)]
        assert list(sub.choices) == ["render"]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("tail", ["help", "bad-value", "unknown-flag", "missing-flags"])
    def test_output_matches_the_full_parser(self, capsys, command, tail):
        argv = [command, *{"help": ["--help"], "bad-value": [self.BAD_FLAG[command], "x"],
                           "unknown-flag": [*self.REQUIRED[command], "--no-such-flag"],
                           "missing-flags": []}[tail]]
        got = self._exit(capsys, main, argv)
        assert got == self._exit(capsys, cli.build_parser().parse_args, argv)
        code, _, err = got
        if tail == "bad-value":  # printed with that command's usage line
            assert code == 2 and err.startswith(f"usage: granger-lab {command} [-h]")
            assert f"granger-lab {command}: error: argument {self.BAD_FLAG[command]}: " in err
        elif tail == "unknown-flag":  # printed with the usage line of every command
            assert code == 2 and err.startswith("usage: granger-lab [-h]")
            assert "{" + ",".join(self.COMMANDS) + "}" in err
            assert err.endswith("error: unrecognized arguments: --no-such-flag\n")

    def test_replay_parses_with_every_command(self, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_text("argv=analyse --input x.csv\n")
        code, _, err = self._exit(capsys, main, ["--from-manifest", str(manifest)])
        assert code == 2 and "invalid choice: 'analyse'" in err


class TestTopLevel:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_manifest_without_argv_exits_2(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("seed=1\n")
        assert main(["--from-manifest", str(manifest)]) == 2

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "none.txt")
        assert main(["--from-manifest", path]) == 2
        err = capsys.readouterr().err
        assert path in err and len(err.splitlines()) == 1

    def test_replay_reads_only_the_first_argv_line(self, tmp_path):
        csv = tmp_path / "s.csv"
        manifest = tmp_path / "m.txt"
        manifest.write_text("note=a key replay does not know\n"
                            f"argv=generate --topology driver --n 60 --out {csv}\n"
                            f"argv=generate --topology driver --n 70 --out {csv}\n")
        assert main(["--from-manifest", str(manifest)]) == 0
        assert len(csv.read_text().splitlines()) == 61

    def test_non_utf8_manifest_exits_2_and_names_it(self, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_bytes(b"seed=1\nargv=generate --out \xff.csv\n")
        assert main(["--from-manifest", str(manifest)]) == 2
        assert capsys.readouterr().err == f"{manifest}: row 2: not UTF-8 text (byte 0xff)\n"

    def test_manifest_with_unbalanced_quote_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_text("argv=sweep-alpha --out 'unclosed\n")
        assert main(["--from-manifest", str(manifest)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("stored", [
        "--from-manifest {path}", "--from-manifest={path}",
        "--from-man {path} generate --topology driver --out x.csv"])
    def test_manifest_replaying_a_manifest_exits_2(self, tmp_path, capsys, stored):
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"argv={stored.format(path=manifest)}\n")
        assert main(["--from-manifest", str(manifest)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


#: Child-process settings that select another OpenBLAS kernel or turn off
#: numpy's X86_V3 and X86_V4 dispatch targets; with neither set, the child
#: runs the defaults that the other settings are compared with.
CPU_SETTINGS = {
    "default": {},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "no-x86-v3": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
}

#: Exit status of the child below when numpy itself does not start.
NO_NUMPY = 99

_CPU_CHILD = f"""
import sys
try:
    import numpy
except Exception as exc:
    print(f"numpy did not start: {{exc!r}}", file=sys.stderr)
    sys.exit({NO_NUMPY})
from granger_lab.cli import main
out = sys.argv[1]
sys.exit(main(["generate", "--topology", "driver", "--n", "200", "--seed", "7",
               "--out", out + "/sample.csv"])
         or main(["sweep-alpha", "--topology", "driver", "--n", "50",
                  "--alpha-grid", "0.05,0.2", "--criteria", "lr,wald,rao",
                  "--iterations", "60", "--seed", "2", "--workers", "1", "--out", out]))
"""


def _cpu_child_outputs(out: Path, setting: str) -> dict[str, bytes]:
    """The bytes ``generate`` and ``sweep-alpha`` write in a child process
    under one of ``CPU_SETTINGS``; a skip when numpy does not start there."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(CPU_SETTINGS[setting], PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out.mkdir()
    result = subprocess.run([sys.executable, "-c", _CPU_CHILD, str(out)], env=env,
                            capture_output=True, text=True, timeout=300)
    if result.returncode == NO_NUMPY:
        pytest.skip(f"{setting}: {result.stderr.strip()}")
    assert result.returncode == 0, result.stderr
    return {name: (out / name).read_bytes() for name in ("sample.csv", "sweep_alpha.csv")}


class TestCpuKernels:
    """Generated samples and sweep CSVs do not depend on the BLAS kernel or
    the numpy dispatch target that the process picks."""

    @pytest.fixture(scope="class")
    def default(self, tmp_path_factory):
        return _cpu_child_outputs(tmp_path_factory.mktemp("cpu") / "default", "default")

    @pytest.mark.parametrize("setting", ["prescott", "haswell", "no-x86-v3"])
    def test_outputs_match_the_default(self, tmp_path, default, setting):
        assert _cpu_child_outputs(tmp_path / setting, setting) == default


class TestImportGraph:
    def test_cli_import_leaves_out_signal_and_stats(self):
        # A fresh interpreter: tests may import scipy.signal themselves.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = ("import sys, granger_lab.cli; "
                 "print(' '.join(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                text=True, timeout=120, check=True)
        assert result.stdout.split() == []
