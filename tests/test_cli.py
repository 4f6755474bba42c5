import errno
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import techevo._workers
import techevo.cli
import techevo.report
from conftest import FIXTURES
from techevo import LogisticParams, fit_logistic, parse_fmt_csv
from techevo.cli import COMMANDS, EXIT_OK, PLOT_FILES, build_parser, main
from techevo.errors import (
    AlignmentError,
    ConfigError,
    EstimationError,
    FittingError,
    InputError,
    TechEvoError,
)
from techevo.synthetic import _MAX_POINTS
from test_acceptance import GOLDEN_DIGEST
from test_report import PLOT_DIGESTS
from test_synthetic import SIMULATE_DIGESTS

EXIT_INPUT = InputError.exit_code
EXIT_ALIGNMENT = AlignmentError.exit_code
EXIT_FITTING = FittingError.exit_code
EXIT_ESTIMATION = EstimationError.exit_code
EXIT_CONFIG = ConfigError.exit_code

SYNTH = [str(FIXTURES / "synth_host.csv"), str(FIXTURES / "synth_sub.csv")]
POWER = [str(FIXTURES / "power_host.csv"), str(FIXTURES / "power_sub.csv")]


def write_csv(path, rows):
    path.write_text("t,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def refuse_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


# Near-equal host values regressed on a falling sub give log_a near 1.7e15,
# whose exp overflows.
OVERFLOW_HOST = ["0,2", "1,2.0000000000000004", "2,2.000000000000001"]
OVERFLOW_SUB = ["0,3", "1,2", "2,1"]
NOT_UTF8 = b"t,value\n0,1\n1,\xff\n2,3\n"


class TestHappyPaths:
    def test_report_json(self, capsys, process_path):
        assert main(["report", "--host", SYNTH[0], "--sub", SYNTH[1]]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["pathway"]["label"] == "Underdevelopment"
        assert payload["digest"].startswith("sha256:")
        process_path.assert_forks(1)

    def test_report_table(self, capsys, process_path):
        args = ["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--format", "table"]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        assert "Evolutionary coefficient β=B" in out
        assert "Pathway:" in out
        process_path.assert_forks(1)

    def test_evolve(self, capsys):
        assert main(["evolve", "--host", POWER[0], "--sub", POWER[1]]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["logistic_fits"] is None
        assert abs(payload["evolution"]["b"] - 0.5) < 1e-9

    def test_fit(self, capsys):
        assert main(["fit", SYNTH[0]]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["fit"]["k"] - 100.0) < 1e-3

    def test_fit_table(self, capsys):
        assert main(["fit", SYNTH[0], "--format", "table"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        text = Path(SYNTH[0]).read_text(encoding="utf-8")
        fit = fit_logistic(parse_fmt_csv(text, "synth_host"))
        values = {**fit.params._asdict(), "inflection_time": fit.params.inflection_time}
        values.update(sse_log=fit.sse_log, r2_log=fit.r2_log)
        assert lines == [
            "series: synth_host (n=26)",
            *(f"{key:>16}: {value:.12g}" for key, value in values.items()),
            "      k_at_bound: False",
        ]
        # .12g rounds the recovered parameters to the generating ones.
        assert [line.split()[1] for line in lines[1:4]] == ["4", "0.3", "100"]

    def test_fit_name(self, capsys):
        assert main(["fit", SYNTH[0], "--name", "lamps"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["series"] == {"name": "lamps", "n": 26}

    def test_fit_name_table(self, capsys):
        assert main(["fit", SYNTH[0], "--name", "lamps", "--format", "table"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "series: lamps (n=26)"

    def test_simulate_then_report(self, tmp_path, capsys, process_path):
        host, sub = str(tmp_path / "h.csv"), str(tmp_path / "s.csv")
        argv = ["simulate", "--seed", "9", "--noise-sigma", "0.02", "--out-host", host]
        assert main([*argv, "--out-sub", sub]) == EXIT_OK
        capsys.readouterr()
        assert main(["report", "--host", host, "--sub", sub]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["inputs"]["n_aligned"] == 21
        process_path.assert_forks(2)

    def test_report_out_file_and_plots(self, tmp_path, capsys, process_path):
        out = tmp_path / "report.json"
        plots = tmp_path / "plots"
        argv = ["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--out", str(out)]
        assert main([*argv, "--plot", str(plots)]) == EXIT_OK
        assert json.loads(out.read_text())["schema_version"] == 3
        names = sorted(p.name for p in plots.iterdir())
        assert names == ["host.csv", "host.svg", "sub.csv", "sub.svg"]
        process_path.assert_forks(1)

    def test_plot_path_that_cannot_be_a_directory_writes_no_report(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("", encoding="utf-8")
        out = tmp_path / "r.json"
        args = ["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--out", str(out)]
        assert main([*args, "--plot", str(not_a_dir / "x")]) == EXIT_INPUT
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_plot_file_that_cannot_be_written_writes_no_report(self, tmp_path, capsys):
        plots = tmp_path / "plots"
        (plots / "host.csv").mkdir(parents=True)
        out = tmp_path / "r.json"
        args = ["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--plot", str(plots)]
        assert main([*args, "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert main(args) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("IsADirectoryError") == 2

    def test_out_file_in_a_missing_directory_writes_no_plots(
        self, tmp_path, capsys, monkeypatch, process_path
    ):
        plots = tmp_path / "plots"
        args = ["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--plot", str(plots)]
        assert main([*args, "--out", str(tmp_path / "missing" / "r.json")]) == EXIT_INPUT
        assert not plots.exists()
        assert capsys.readouterr().out == ""
        # An --out file name with no directory part is written in the working one.
        monkeypatch.chdir(tmp_path)
        assert main([*args, "--out", "r.json"]) == EXIT_OK
        assert (tmp_path / "r.json").exists() and (plots / "sub.svg").exists()
        process_path.assert_forks(1)

    def test_out_path_that_is_a_directory_writes_no_plots(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["report", "--host", SYNTH[0], "--sub", SYNTH[1]]
        # The --plot directory is the --out path even before it is made.
        assert main([*args, "--out", str(tmp_path / "plots"), "--plot", "plots/"]) == EXIT_INPUT
        assert not (tmp_path / "plots").exists()
        (tmp_path / "plots").mkdir()
        assert main([*args, "--out", "plots", "--plot", "plots"]) == EXIT_INPUT
        assert list((tmp_path / "plots").iterdir()) == []
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("IsADirectoryError") == 2

    def test_non_finite_statistics_are_strict_json(self, tmp_path):
        # A series regressed on itself fits exactly: se_b = 0, so t_b and F
        # are infinite, and the report writes them as strings.
        same = write_csv(tmp_path / "h.csv", ["0,1", "1,2", "2,4", "3,5"])
        out = tmp_path / "r.json"
        args = ["report", "--no-logistic", "--host", same, "--sub", same, "--out", str(out)]
        assert main(args) == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse_constant)
        ev = report["evolution"]
        assert (ev["t_b"], ev["f_stat"]) == ("inf", "inf")
        assert techevo.determinism_digest(report) == report["digest"]
        assert techevo.report_to_json(report) == out.read_text(encoding="utf-8")
        assert "inf (<0.001)" in techevo.emit_table(report)

    @pytest.mark.parametrize("argv", [["evolve"], ["report", "--no-logistic"]])
    def test_overflowing_constant_a_is_strict_json(self, tmp_path, argv, process_path):
        host = write_csv(tmp_path / "h.csv", OVERFLOW_HOST)
        sub = write_csv(tmp_path / "s.csv", OVERFLOW_SUB)
        out = tmp_path / "r.json"
        assert main([*argv, "--host", host, "--sub", sub, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse_constant)
        ev = report["evolution"]
        assert ev["a"] == "inf" and math.isfinite(ev["log_a"]) and ev["log_a"] > 709.8
        assert techevo.determinism_digest(report) == report["digest"]
        assert "Pathway:" in techevo.emit_table(report)
        process_path.assert_forks(0)

    @pytest.mark.parametrize(
        "name, stem",
        [("x.tar.csv", "x.tar"), (".h.csv", ".h"), (".h", ".h"), ("x.", "x."), ("x", "x")],
    )
    def test_series_named_after_the_file_stem(self, name, stem, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / name).write_bytes(Path(SYNTH[0]).read_bytes())
        (tmp_path / name).write_bytes(Path(SYNTH[1]).read_bytes())
        for host, sub in ((f"./d/{name}", name), (f"d/{name}", f"./{name}")):
            assert main(["report", "--host", host, "--sub", sub, "--no-logistic"]) == EXIT_OK
            inputs = json.loads(capsys.readouterr().out)["inputs"]
            assert inputs["host_name"] == inputs["sub_name"] == stem

    def test_plot_determinism(self, tmp_path, process_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        argv = ["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--out", str(tmp_path / "x.json")]
        for d in (a_dir, b_dir):
            main([*argv, "--plot", str(d)])
        for name in ("host.csv", "host.svg", "sub.csv", "sub.svg"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
        process_path.assert_forks(2)

    def test_plot_of_overflowing_time_span_is_finite(self, tmp_path, process_path):
        wide = write_csv(tmp_path / "wide.csv", ["-1.7e308,1", "0,2", "1.7e308,3"])
        plots = tmp_path / "plots"
        args = ["report", "--host", wide, "--sub", wide, "--no-logistic"]
        assert main([*args, "--out", str(tmp_path / "r.json"), "--plot", str(plots)]) == EXIT_OK
        for name in ("host.svg", "sub.svg"):
            svg = (plots / name).read_text()
            assert "nan" not in svg and "inf" not in svg
        process_path.assert_forks(1)

    def test_report_plot_reads_each_input_once(self, tmp_path, monkeypatch):
        # Counts the reads of this process, so it takes no process_path and
        # runs on one path only: these short inputs keep the command here.
        reads = []
        read_text = techevo.cli._read_text

        def counting(path):
            reads.append(os.path.basename(path))
            return read_text(path)

        monkeypatch.setattr(techevo.cli, "_read_text", counting)
        code = main(
            [
                "report", "--host", SYNTH[0], "--sub", SYNTH[1],
                "--out", str(tmp_path / "r.json"), "--plot", str(tmp_path / "p"),
            ]
        )
        assert code == EXIT_OK
        assert reads == ["synth_host.csv", "synth_sub.csv"]

    def test_fit_options_have_the_pair_commands_help(self):
        def helps(command):
            sub = next(a for a in build_parser()._actions if a.dest == "command")
            parser = sub.choices[command]
            return {a.dest: a.help for a in parser._actions}

        fit, report = helps("fit"), helps("report")
        for dest in ("k_search_factor", "format"):
            assert fit[dest] and fit[dest] == report[dest]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        bad = write_csv(tmp_path / "bad.csv", ["0,1", "1,oops", "2,3"])
        code = main(["report", "--host", bad, "--sub", SYNTH[1]])
        assert code == EXIT_INPUT
        assert "MalformedRow" in capsys.readouterr().err

    def test_input_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(NOT_UTF8)
        for args in (["fit", str(bad)], ["evolve", "--host", str(bad), "--sub", SYNTH[1]]):
            assert main(args) == EXIT_INPUT
            assert capsys.readouterr().err.startswith("UnicodeDecodeError: ")

    def test_each_category_declares_the_readme_exit_code(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        table = dict(re.findall(r"^\| (\d+) +\| (\w+)", readme.read_text(encoding="utf-8"), re.M))
        for category, code, meaning in (
            (InputError, 10, "input"),
            (AlignmentError, 11, "alignment"),
            (FittingError, 12, "fitting"),
            (EstimationError, 13, "estimation"),
            (ConfigError, 14, "configuration"),
        ):
            assert category.exit_code == code and table[str(code)] == meaning
        assert TechEvoError.exit_code == 1

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "ghost.csv")
        code = main(["report", "--host", missing, "--sub", SYNTH[1]])
        assert code == EXIT_INPUT
        assert "ghost.csv" in capsys.readouterr().err

    def test_alignment_error(self, tmp_path, capsys):
        a = write_csv(tmp_path / "a.csv", ["0,1", "1,2", "2,3"])
        b = write_csv(tmp_path / "b.csv", ["10,1", "11,2", "12,3"])
        code = main(["report", "--host", a, "--sub", b])
        assert code == EXIT_ALIGNMENT
        assert "InsufficientOverlap" in capsys.readouterr().err

    def test_fitting_error(self, tmp_path, capsys, process_path):
        down = write_csv(tmp_path / "down.csv", ["0,9", "1,5", "2,2", "3,1"])
        up = write_csv(tmp_path / "up.csv", ["0,1", "1,2", "2,4", "3,8"])
        falls = (
            "NotSShaped: series 'down': the series does not rise: "
            "its log values trend flat or down\n"
        )
        assert main(["report", "--host", down, "--sub", up]) == EXIT_FITTING
        assert capsys.readouterr().err == falls
        # Only the sub falls: its fit fails in the child, and again here.
        plots = tmp_path / "p"
        assert main(["report", "--host", up, "--sub", down, "--plot", str(plots)]) == EXIT_FITTING
        assert capsys.readouterr() == ("", falls)
        assert not plots.exists()
        process_path.assert_forks(2)

    def test_overflowing_times_are_a_fitting_error(self, tmp_path, capsys, process_path):
        huge = write_csv(tmp_path / "huge.csv", ["-1e300,1", "0,2", "1e300,3"])
        for args in (["fit", huge], ["report", "--host", huge, "--sub", huge]):
            assert main(args) == EXIT_FITTING
            assert "FittingError" in capsys.readouterr().err
        assert main(["evolve", "--host", huge, "--sub", huge]) == EXIT_OK
        process_path.assert_forks(1)

    def test_log_odds_overflow_is_a_fitting_error(self, tmp_path, capsys):
        # A maximum near 1.8e307 makes the ceiling max * 10 overflow.
        huge = write_csv(tmp_path / "huge.csv", ["0,1e307", "1,2e307", "2,3e307"])
        assert main(["fit", huge]) == EXIT_FITTING
        err = capsys.readouterr().err
        assert err.startswith("FittingError: ") and "overflow" in err
        assert "NotSShaped" not in err and "nan" not in err
        assert "maximum 3e+307 is too large for the k-search ceiling" in err
        # A subnormal value beside ordinary ones has an ordinary log, so the
        # log-space fit takes it; only log-odds overflowed on it.
        tiny = write_csv(tmp_path / "tiny.csv", ["0,5e-324", "1,1", "2,2"])
        assert main(["fit", tiny]) == EXIT_OK
        assert abs(json.loads(capsys.readouterr().out)["fit"]["k"] - 2.0) < 1e-9

    def test_underflowing_time_spread_is_a_fitting_error(self, tmp_path, capsys, process_path):
        # The centred squares of these times underflow to zero, so the line
        # fit's sum of squares is 0 although the times are distinct.
        close = write_csv(tmp_path / "close.csv", ["0,1", "1e-165,2", "2e-165,3"])
        for args in (["fit", close], ["report", "--host", close, "--sub", close]):
            assert main(args) == EXIT_FITTING
            err = capsys.readouterr().err
            assert err.startswith("FittingError: ") and "'close'" in err
        assert main(["evolve", "--host", close, "--sub", close]) == EXIT_OK
        process_path.assert_forks(1)

    def test_estimation_error(self, tmp_path, capsys):
        const = write_csv(tmp_path / "const.csv", ["0,5", "1,5", "2,5"])
        up = write_csv(tmp_path / "up.csv", ["0,1", "1,2", "2,4"])
        code = main(["evolve", "--host", const, "--sub", up])
        assert code == EXIT_ESTIMATION
        assert "DegenerateX" in capsys.readouterr().err

    def test_config_error(self, capsys, process_path):
        # alpha is checked where the pathway is classified, after the fits.
        code = main(["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--alpha", "2"])
        assert code == EXIT_CONFIG
        assert "InvalidAlpha" in capsys.readouterr().err
        process_path.assert_forks(1)
        for factor in ("1.0", "inf"):
            assert main(["fit", SYNTH[0], "--k-search-factor", factor]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("ConfigError: ")
            assert "k_search_factor must be finite and exceed 1.001" in err

    def test_overflowing_search_ceiling_is_a_config_error(self, capsys):
        # max * factor overflows although the default factor's ceiling
        # would not: the option is at fault, not the data.
        assert main(["fit", SYNTH[0], "--k-search-factor", "1e307"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and "1e+307" in err
        assert "99.998" in err  # the series maximum
        assert main(["fit", SYNTH[0], "--k-search-factor", "1e300"]) == EXIT_OK

    def test_simulate_point_cap(self, tmp_path, capsys):
        host, sub = tmp_path / "h.csv", tmp_path / "s.csv"
        args = ["simulate", "--out-host", str(host), "--out-sub", str(sub)]
        code = main([*args, "--n-points", str(_MAX_POINTS + 1)])
        assert code == EXIT_CONFIG
        assert "n_points" in capsys.readouterr().err
        assert not host.exists() and not sub.exists()

    @pytest.mark.parametrize(
        "options",
        [
            ["--noise-sigma", "200", "--n-points", "10000"],
            ["--noise-sigma", "1e308"],
            ["--noise-sigma", "inf"],
            ["--noise-sigma", "nan"],
            ["--t-end", "inf"],
            ["--t-start=-1e308", "--t-end=1e308"],
            ["--host-params", "4,0.3,1e308", "--noise-sigma", "0.5"],
            ["--t-start", "-3000"],  # the noise-free host underflows to 0
            ["--t-end", "1.7976931348623157e308", "--n-points", "7"],
            # The span is a few ulps, so grid times round to equal floats.
            ["--t-start", "1e300", "--t-end", "1.0000000000000002e300"],
            ["--host-params", "4,0,100"],
            ["--sub-params", "3,-0.2,50"],
            ["--host-params", "4,0.3,0"],
            ["--sub-params", "3,0.2,-50"],
            ["--host-params", "nan,0.3,100"],
            ["--sub-params", "3,0.2,nan"],
            # One file for both series (run in tmp_path) would lose the host's.
            ["--out-host", "same.csv", "--out-sub", "./same.csv"],
        ],
    )
    def test_simulate_value_outside_the_floats_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, options, process_path
    ):
        monkeypatch.chdir(tmp_path)
        host, sub = tmp_path / "h.csv", tmp_path / "s.csv"
        args = ["simulate", "--out-host", str(host), "--out-sub", str(sub), *options]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
        # Refused with the spec or the file names, before any child starts,
        # or where each series is made (a value or a noise factor), the
        # sub's in the child.
        process_path.assert_forks(int("generated series" in err or "noise factor" in err))

    @pytest.mark.parametrize(
        "options, fault",
        [
            # Only the sub's values leave the floats.
            (
                ["--sub-params", "3,0.2,1e308", "--noise-sigma", "0.5"],
                "'synthetic-sub': non-finite point (13.266633316658329, inf)",
            ),
            # A host value underflows to 0 and a sub noise factor overflows:
            # the host's refusal comes first.
            (
                ["--noise-sigma", "200", "--seed", "19"],
                "'synthetic-host': value 0.0 at t=3.281640820410205 is not positive",
            ),
        ],
        ids=["sub", "host-and-sub"],
    )
    def test_a_failed_simulate_names_the_first_series_at_fault(
        self, tmp_path, capsys, monkeypatch, process_path, options, fault
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--n-points", "2000", *options, "--out-host", "h", "--out-sub", "s"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"ConfigError: generated series {fault}\n")
        assert list(tmp_path.iterdir()) == []
        process_path.assert_forks(1)

    def test_simulate_output_that_cannot_be_written_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        for host, sub, error in (
            ("h.csv", "missing/s.csv", "FileNotFoundError"),
            ("missing/h.csv", "s.csv", "FileNotFoundError"),
            ("h.csv", "d", "IsADirectoryError"),
        ):
            assert main(["simulate", "--out-host", host, "--out-sub", sub]) == EXIT_INPUT
            assert capsys.readouterr().err.startswith(f"{error}: ")
            assert [p.name for p in tmp_path.iterdir()] == ["d"]
            assert list((tmp_path / "d").iterdir()) == []

    def test_out_file_that_is_a_plot_file_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, process_path
    ):
        monkeypatch.chdir(tmp_path)
        args = ["report", "--host", SYNTH[0], "--sub", SYNTH[1]]
        # Refused before the --plot directory is made...
        assert main([*args, "--out", "plots/host.csv", "--plot", "plots/"]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []
        # ...and before any plot in an existing one is written.
        assert main([*args, "--out", "r.json", "--plot", "plots"]) == EXIT_OK
        plots = {name: (tmp_path / "plots" / name).read_bytes() for name in PLOT_FILES}
        for name in PLOT_FILES:
            out = str(tmp_path / "plots" / ".." / "plots" / name)
            assert main([*args, "--out", out, "--plot", "plots"]) == EXIT_CONFIG
            assert {n: (tmp_path / "plots" / n).read_bytes() for n in PLOT_FILES} == plots
        err = capsys.readouterr().err
        assert err.count("ConfigError: ") == 1 + len(PLOT_FILES) and "Traceback" not in err
        process_path.assert_forks(1)

    def test_k_search_factor_only_where_a_fit_runs(self, capsys):
        # evolve and report --no-logistic fit no S-curve, so the bound is refused.
        pair = ["--host", POWER[0], "--sub", POWER[1], "--k-search-factor", "5"]
        for argv in (["evolve", *pair], ["report", "--no-logistic", *pair]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report"])  # missing required --host/--sub
        assert exc.value.code == 2
        for option, text, message in (
            ("--host-params", "1,2", "expected 'a,b,k'"),
            ("--sub-params", "a,b,c", "expected three numbers"),
        ):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(["simulate", option, text])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err


def _symlink_or_skip(target, link, directory=True):
    try:
        os.symlink(target, link, target_is_directory=directory)
    except OSError as exc:  # e.g. no symlink privilege on Windows
        pytest.skip(f"cannot make a symlink: {exc}")


def _tree(root):
    """Every file under ``root`` with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _unread(*args):
    raise AssertionError("an input was read before the outputs were checked")


class TestFileChecks:
    """Every path a command names is checked before anything is read or
    written: one file may not be named twice where either name is an output."""

    def test_output_that_names_an_input_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_csv(tmp_path / "h.csv", ["0,1", "1,2", "2,4", "3,8"])
        write_csv(tmp_path / "p.csv", ["0,1", "1,3", "2,9", "3,27"])
        (tmp_path / "d").mkdir()
        write_csv(tmp_path / "d" / "host.csv", ["0,1", "1,2", "2,4", "3,8"])
        before = _tree(tmp_path)
        pair = ["--host", "h.csv", "--sub", "p.csv"]
        assert main(["evolve", *pair, "--out", "./h.csv"]) == EXIT_CONFIG
        assert main(["report", *pair, "--out", str(tmp_path / "p.csv")]) == EXIT_CONFIG
        # The host's plot CSV would replace the host itself.
        args = ["report", "--host", "d/host.csv", "--sub", "p.csv", "--plot", "d"]
        assert main(args) == EXIT_CONFIG
        assert _tree(tmp_path) == before
        err = capsys.readouterr().err
        assert err.count("ConfigError: ") == 3 and "name the same file" in err
        # Two inputs may name one file.
        two_names = ["evolve", "--host", "h.csv", "--sub", "./h.csv", "--out", "e.json"]
        assert main(two_names) == EXIT_OK

    def test_a_link_to_a_directory_names_its_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a" / "real").mkdir(parents=True)
        _symlink_or_skip(os.path.join("a", "real"), "link")
        for host in (tmp_path / "a" / "h.csv", tmp_path / "h.csv"):
            host.write_bytes(Path(SYNTH[0]).read_bytes())
        before = _tree(tmp_path)
        pair = ["--host", SYNTH[0], "--sub", SYNTH[1]]
        assert main(["report", *pair, "--plot", "link", "--out", "a/real/host.csv"]) == EXIT_CONFIG
        args = ["simulate", "--out-host", "a/real/x.csv", "--out-sub", "link/x.csv"]
        assert main(args) == EXIT_CONFIG
        # link/.. is a, where the system leads, not the working directory.
        evolve = ["evolve", "--sub", SYNTH[1], "--out", "link/../h.csv"]
        assert main([*evolve, "--host", "a/h.csv"]) == EXIT_CONFIG
        assert _tree(tmp_path) == before
        assert capsys.readouterr().err.count("ConfigError: ") == 3
        assert main([*evolve, "--host", "h.csv"]) == EXIT_OK
        assert json.loads((tmp_path / "a" / "h.csv").read_text())["schema_version"] == 3
        assert (tmp_path / "h.csv").read_bytes() == before["h.csv"]

    @pytest.mark.parametrize("link", ["symlink", "hard link"])
    def test_a_link_to_an_input_names_it(self, tmp_path, capsys, monkeypatch, link):
        monkeypatch.chdir(tmp_path)
        for name, fixture in zip(("host.csv", "sub.csv"), SYNTH):
            (tmp_path / name).write_bytes(Path(fixture).read_bytes())
        if link == "symlink":
            _symlink_or_skip("host.csv", "linked.csv", directory=False)
        else:
            try:
                os.link("sub.csv", "linked.csv")
            except OSError as exc:  # e.g. a file system without hard links
                pytest.skip(f"cannot make a hard link: {exc}")
        before = _tree(tmp_path)
        args = ["evolve", "--host", "host.csv", "--sub", "sub.csv", "--out", "linked.csv"]
        assert main(args) == EXIT_CONFIG
        assert _tree(tmp_path) == before
        assert "name the same file" in capsys.readouterr().err

    def test_outputs_linked_to_one_missing_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _symlink_or_skip("a.csv", "al.csv", directory=False)
        args = ["simulate", "--out-host", "a.csv", "--out-sub", "al.csv"]
        assert main(args) == EXIT_CONFIG
        assert _tree(tmp_path) == {} and os.listdir(tmp_path) == ["al.csv"]
        assert "--out-host and --out-sub name the same file" in capsys.readouterr().err

    def test_output_linked_into_a_missing_directory_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        _symlink_or_skip(os.path.join("missing", "x.csv"), "dl.csv", directory=False)
        args = ["simulate", "--out-host", "a.csv", "--out-sub", "dl.csv"]
        assert main(args) == EXIT_INPUT
        assert os.listdir(tmp_path) == ["dl.csv"]
        err = capsys.readouterr().err
        assert err == "FileNotFoundError: [Errno 2] No such file or directory: 'dl.csv'\n"

    def test_a_missing_directory_is_where_a_link_leads(self, tmp_path, capsys, monkeypatch):
        # link/../newp is a/newp, so --out's newp is not the plot directory.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(techevo.cli, "_read_series", _unread)
        (tmp_path / "a" / "real").mkdir(parents=True)
        _symlink_or_skip(os.path.join("a", "real"), "link")
        plot = os.path.join("link", "..", "newp")
        args = ["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--plot", plot]
        assert main([*args, "--out", os.path.join("newp", "r.json")]) == EXIT_INPUT
        assert sorted(os.listdir(tmp_path)) == ["a", "link"]
        assert os.listdir(tmp_path / "a") == ["real"]
        err = capsys.readouterr().err
        out = os.path.join("newp", "r.json")
        assert err == f"FileNotFoundError: [Errno 2] No such file or directory: {out!r}\n"

    def test_plot_file_that_is_a_directory_writes_no_plot(self, tmp_path, capsys):
        plots = tmp_path / "plots"
        (plots / "sub.svg").mkdir(parents=True)
        args = ["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--plot", str(plots)]
        assert main(args) == EXIT_INPUT
        assert [p.name for p in plots.iterdir()] == ["sub.svg"]
        assert list((plots / "sub.svg").iterdir()) == []
        assert capsys.readouterr().err.startswith("IsADirectoryError: ")

    def test_outputs_are_checked_before_any_input_is_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(techevo.cli, "_read_series", _unread)
        out = ["--out", str(tmp_path / "missing" / "r.json")]
        for command in ("evolve", "report"):
            assert main([command, "--host", SYNTH[0], "--sub", SYNTH[1], *out]) == EXIT_INPUT
        assert capsys.readouterr().err.count("FileNotFoundError: ") == 2

    def test_plot_path_that_cannot_be_a_directory_is_refused_first(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(techevo.cli, "_read_series", _unread)
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        before = _tree(tmp_path)
        pair = ["--host", SYNTH[0], "--sub", SYNTH[1], "--out", str(tmp_path / "r.json")]
        for plot in (afile, afile / "sub", str(afile) + os.sep):
            assert main(["report", *pair, "--plot", str(plot)]) == EXIT_INPUT
        assert _tree(tmp_path) == before
        assert capsys.readouterr().err.count("NotADirectoryError: ") == 3

    def test_out_file_in_the_plot_directory_to_be_made(self, tmp_path, capsys):
        plots = tmp_path / "plots"
        args = ["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--plot", str(plots)]
        assert main([*args, "--out", str(plots / "r.json")]) == EXIT_OK
        assert sorted(p.name for p in plots.iterdir()) == sorted([*PLOT_FILES, "r.json"])
        assert json.loads((plots / "r.json").read_text())["schema_version"] == 3

    def test_simulate_empty_output_path_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--out-host", "h.csv", "--out-sub", ""]) == EXIT_INPUT
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option", ["--out", "--plot", "--out-host", "--out-sub"])
    def test_an_empty_output_path_is_no_file(self, tmp_path, capsys, monkeypatch, option):
        # Refused as fit refuses an empty input path, and never taken as the
        # working directory, which "--plot ''" joined with host.csv would be.
        monkeypatch.chdir(tmp_path)
        assert main(["fit", ""]) == EXIT_INPUT
        refusal = capsys.readouterr().err
        assert refusal == "FileNotFoundError: [Errno 2] No such file or directory: ''\n"
        monkeypatch.setattr(techevo.cli, "_read_series", _unread)
        monkeypatch.setattr(techevo.cli, "generate_series", _unread)
        if option.startswith("--out-"):
            argv = ["simulate", "--out-host", "h.csv", "--out-sub", "s.csv", option, ""]
        else:
            argv = ["report", "--host", SYNTH[0], "--sub", SYNTH[1], option, ""]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr() == ("", refusal)
        assert os.listdir(tmp_path) == []


def _parity_cases():
    """Help, version and usage errors of every command; HOST and SUB stand
    for the synth fixtures."""
    pair = ["--host", "HOST", "--sub", "SUB"]
    valid = {"fit": ["HOST"], "evolve": pair, "report": pair, "simulate": ["--seed", "1"]}
    cases = [
        [], ["-h"], ["--version"], ["bogus"], ["--bogus"], ["-h", "report"],
        ["report", *pair, "--k-search-factor", "5", "--no-logistic"],
        ["report", *pair, "--no-logistic", "--k-search-factor", "5"],
        ["simulate", "--seed"], ["simulate", "--host-params", "1,2"], ["fit", "HOST", "--version"],
    ]
    for command in COMMANDS:
        cases += [
            [command, "-h"],
            [command, *valid[command], "--format", "xml"],
            [command, *valid[command], "extra"],
        ]
        if command != "simulate":  # every simulate option has a default
            cases.append([command])
    return cases


class TestParserParity:
    """``main`` builds only the parser of the command it is given; what it
    prints and how it exits must be those of the full parser."""

    @staticmethod
    def outcome(parse, argv, capsys):
        """Exit code, stdout and stderr of ``parse(argv)``, which must exit."""
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize("argv", _parity_cases(), ids=" ".join)
    def test_main_parses_as_the_full_parser(self, argv, capsys):
        argv = [{"HOST": SYNTH[0], "SUB": SYNTH[1]}.get(a, a) for a in argv]
        got = self.outcome(main, argv, capsys)
        assert got == self.outcome(build_parser().parse_args, argv, capsys)
        assert got[0] in (0, 2)

    def test_usage_lines_are_the_generated_ones(self, capsys):
        parser, generated = build_parser(), build_parser()
        generated.usage = None
        assert parser.format_help() == generated.format_help()
        for command in COMMANDS:
            out = self.outcome(main, [command, "-h"], capsys)[1]
            assert out.startswith(f"usage: techevo {command} [-h]")


_EXTREME = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-165, 2.0000000000000004,
    1e300, 1e307, 1.7976931348623157e308, -1e300, math.inf, math.nan,
]
_NUMBER = st.one_of(st.integers(-3, 12).map(float), st.sampled_from(_EXTREME), st.floats())
_ROW = st.one_of(
    st.tuples(_NUMBER, _NUMBER).map(lambda tv: f"{tv[0]!r},{tv[1]!r}".encode()),
    st.sampled_from([b"", b"oops", b"1,2,3", b"1;2", b",", b"1,\xc3", b"\xff,1", b"\xef\xbb\xbf"]),
)
_CSV = st.lists(_ROW, max_size=12).map(lambda rows: b"\n".join([b"t,value", *rows]) + b"\n")


def _csv_bytes(rows):
    return "\n".join(["t,value", *rows, ""]).encode()


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["evolve", "report"]), host=_CSV, sub=_CSV)
@example(command="evolve", host=_csv_bytes(OVERFLOW_HOST), sub=_csv_bytes(OVERFLOW_SUB))
@example(command="report", host=NOT_UTF8, sub=NOT_UTF8)
def test_any_csv_pair_gives_strict_json_or_an_exit_code(command, host, sub):
    with tempfile.TemporaryDirectory() as d:
        host_path, sub_path, out = (Path(d) / name for name in ("h.csv", "s.csv", "r.json"))
        host_path.write_bytes(host)
        sub_path.write_bytes(sub)
        code = main([command, "--host", str(host_path), "--sub", str(sub_path), "--out", str(out)])
        assert code in {EXIT_OK, 10, 11, 12, 13, 14}
        if code == EXIT_OK:
            report = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse_constant)
            assert techevo.determinism_digest(report) == report["digest"]


class TestReportDeterminism:
    def test_json_identical_modulo_timestamp(self, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--out", str(p1)])
        main(["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--out", str(p2)])
        blank = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', s)
        assert blank(p1.read_text()) == blank(p2.read_text())

    @pytest.mark.parametrize("pair", [SYNTH, POWER], ids=["synth", "power"])
    def test_report_without_fits_is_evolve(self, tmp_path, pair):
        texts = []
        for argv in (["evolve"], ["report", "--no-logistic"]):
            out = tmp_path / f"{argv[0]}.json"
            args = [*argv, "--host", pair[0], "--sub", pair[1], "--out", str(out)]
            assert main(args) == EXIT_OK
            texts.append(re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', out.read_text()))
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["provenance"]["config"]["k_search_factor"] is None


@pytest.fixture
def forks(process_path):
    """The os.fork calls of a test of the fork itself, which puts
    ``process_path`` on the forked path and runs on it alone."""
    process_path.name = "forked"
    return process_path.forks


def _report(d):
    """Run report on the synth pair into d/r.json and d/p; returns the exit
    code."""
    argv = ["report", "--host", SYNTH[0], "--sub", SYNTH[1]]
    return main([*argv, "--out", str(d / "r.json"), "--plot", str(d / "p")])


def _pinned(d):
    """Whether ``_report(d)`` wrote the pinned report and plots."""
    digest = json.loads((d / "r.json").read_text())["digest"]
    plots = hashlib.sha256(b"".join((d / "p" / name).read_bytes() for name in PLOT_FILES))
    return (digest, plots.hexdigest()) == (GOLDEN_DIGEST, PLOT_DIGESTS["synth", False])


class TestTwoProcesses:
    """On long series report fits and plots the sub, and simulate makes and
    writes it, in a forked child: the tests of the gate and of the fork."""

    @staticmethod
    def gate(monkeypatch, cpus, threads):
        """Whether the real ``fork_pays`` lets series of FORK_MIN_POINTS
        points fork, shown ``cpus`` and ``threads()`` as this process's."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(techevo._workers, "_threads", threads)
        return techevo._workers.fork_pays(techevo._workers.FORK_MIN_POINTS)

    def test_short_series_stay_in_one_process(self, tmp_path, monkeypatch):
        def fork():
            raise AssertionError("a short series forked")

        assert self.gate(monkeypatch, {0, 1}, lambda: 1)
        monkeypatch.setattr(os, "fork", fork)
        assert _report(tmp_path) == EXIT_OK

    def test_one_cpu_stays_in_one_process(self, monkeypatch):
        assert not self.gate(monkeypatch, {0}, lambda: 1)

    def test_a_second_thread_keeps_one_process(self, monkeypatch):
        # Only the interpreter's threads count here: numpy's BLAS threads
        # would keep this process from forking whatever the test did.
        assert self.gate(monkeypatch, {0, 1}, threading.active_count)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert not self.gate(monkeypatch, {0, 1}, threading.active_count)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_every_thread_of_the_process_counts(self):
        code = (
            "import threading; from techevo._workers import _threads\n"
            "done = threading.Event(); alone = _threads()\n"
            "thread = threading.Thread(target=done.wait); thread.start()\n"
            "print(alone, _threads()); done.set(); thread.join(timeout=10)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        assert out.split() == ["1", "2"]

    def test_a_failed_fork_gives_the_same_report(self, tmp_path, monkeypatch, forks):
        def refuse():
            forks.append(1)
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", refuse)
        assert _report(tmp_path) == EXIT_OK
        assert len(forks) == 1 and _pinned(tmp_path)

    def test_a_child_that_dies_gives_the_same_report(self, tmp_path, monkeypatch, forks):
        parent = os.getpid()
        fit, plot = techevo.report.fit_logistic, techevo.cli.emit_plot_data

        def die_in_child(fn):
            def call(*args):
                if os.getpid() != parent:
                    os._exit(3)
                return fn(*args)

            return call

        monkeypatch.setattr(techevo.report, "fit_logistic", die_in_child(fit))
        monkeypatch.setattr(techevo.cli, "emit_plot_data", die_in_child(plot))
        assert _report(tmp_path) == EXIT_OK
        assert len(forks) == 1 and _pinned(tmp_path)

    def test_a_child_that_dies_writing_its_plot_gives_the_same_files(
        self, tmp_path, monkeypatch, forks
    ):
        parent = os.getpid()
        write = techevo.cli._write_text

        def die_halfway_in_child(path, text):
            if os.getpid() != parent and os.path.basename(path).startswith(".sub.svg."):
                write(path, text[: len(text) // 2])
                os._exit(3)
            write(path, text)

        monkeypatch.setattr(techevo.cli, "_write_text", die_halfway_in_child)
        assert _report(tmp_path) == EXIT_OK
        assert len(forks) == 1 and _pinned(tmp_path)

    @pytest.mark.parametrize("command", [["evolve"], ["report", "--no-logistic"]])
    def test_no_fit_and_no_plot_stays_in_one_process(self, tmp_path, forks, command):
        argv = [*command, "--host", SYNTH[0], "--sub", SYNTH[1]]
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert forks == []

    def test_an_interrupt_in_the_parent_kills_the_child(self, tmp_path, monkeypatch, forks):
        parent = os.getpid()
        fit = techevo.report.fit_logistic

        def interrupted(series, factor):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return fit(series, factor)

        monkeypatch.setattr(techevo.report, "fit_logistic", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _report(tmp_path)
        assert len(forks) == 1

    @pytest.mark.parametrize("how", ["raises", "dies", "dies writing"])
    def test_a_simulate_child_that_fails_gives_the_same_files(
        self, tmp_path, monkeypatch, capsys, forks, how
    ):
        parent = os.getpid()
        make, write = techevo.cli.generate_series, techevo.cli._write_text

        def failing_make(spec, label):
            if os.getpid() != parent and how == "raises":
                raise RuntimeError("the child failed")
            if os.getpid() != parent and how == "dies":
                os._exit(3)
            return make(spec, label)

        def failing_write(path, text):
            if os.getpid() != parent and how == "dies writing":
                write(path, text[: len(text) // 2])
                os._exit(3)
            write(path, text)

        monkeypatch.setattr(techevo.cli, "generate_series", failing_make)
        monkeypatch.setattr(techevo.cli, "_write_text", failing_write)
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--n-points", "10000", "--noise-sigma", "0.05", "--seed", "1"]
        assert main([*argv, "--out-host", "h.csv", "--out-sub", "s.csv"]) == EXIT_OK
        assert capsys.readouterr() == ("wrote h.csv and s.csv (n=10000, seed=1)\n", "")
        assert sorted(os.listdir(tmp_path)) == ["h.csv", "s.csv"]
        files = (tmp_path / "h.csv", tmp_path / "s.csv")
        digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files)
        assert (len(forks), digests) == (1, SIMULATE_DIGESTS[1])

    def test_the_sub_result_comes_from_the_child(self, tmp_path, monkeypatch, forks):
        parent = os.getpid()
        fit, fitted_here = techevo.report.fit_logistic, []

        def recording(series, factor):
            if os.getpid() == parent:
                fitted_here.append(series.name)
            return fit(series, factor)

        monkeypatch.setattr(techevo.report, "fit_logistic", recording)
        assert _report(tmp_path) == EXIT_OK
        assert (len(forks), fitted_here) == (1, ["synth_host"])

    def test_a_result_marshal_refuses_is_made_again_here(self, forks):
        def params(label, b):
            return LogisticParams(0.0, b, 1.0)

        points = techevo._workers.FORK_MIN_POINTS
        results = techevo._workers.host_and_sub(params, 1.0, 2.0, points)
        assert results == {"host": params("host", 1.0), "sub": params("sub", 2.0)}
        assert len(forks) == 1

    def test_the_worker_channel_imports_neither_pickle_nor_signal(self, tmp_path):
        code = (
            "import os, sys, threading\n"
            "from techevo import _workers\n"
            "from techevo.cli import main\n"
            "fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "_workers._threads = threading.active_count\n"
            "codes = [main(['simulate', '--n-points', '2000', '--noise-sigma', '0.05',\n"
            "               '--out-host', 'h.csv', '--out-sub', 's.csv']),\n"
            "         main(['report', '--host', 'h.csv', '--sub', 's.csv', '--plot', 'p'])]\n"
            "print(codes, len(forks), sorted({'pickle', 'signal'} & set(sys.modules)))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            cwd=tmp_path, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        assert out.splitlines()[-1] == "[0, 0] 2 []"

    def test_short_inputs_look_at_no_cpu_and_no_thread(self, monkeypatch):
        def looked(*args):
            raise AssertionError("fork_pays looked past the point count")

        monkeypatch.setattr(os, "sched_getaffinity", looked, raising=False)
        monkeypatch.setattr(os, "cpu_count", looked)
        monkeypatch.setattr(techevo._workers, "_threads", looked)
        assert techevo._workers.fork_pays(techevo._workers.FORK_MIN_POINTS - 1) is False



def _paths(root):
    """Every path under ``root``: files, links and directories."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


#: What a write that fails raises: a full disk, or an interrupt.
_WRITE_ERRORS = {
    "ENOSPC": lambda: OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    "interrupt": KeyboardInterrupt,
}


def _fail_writing(monkeypatch, name, error):
    """Make the write of the output named ``name`` write half its text and
    then raise ``_WRITE_ERRORS[error]``; every other write goes through."""
    write = techevo.cli._write_text

    def half_then_fail(path, text):
        if os.path.basename(path).startswith(f".{name}."):
            write(path, text[: len(text) // 2])
            raise _WRITE_ERRORS[error]()
        write(path, text)

    monkeypatch.setattr(techevo.cli, "_write_text", half_then_fail)


def _fails_as(error, argv, capsys):
    """Run ``main(argv)``, which must fail as ``error`` does: exit 10 with
    ENOSPC's message, or the interrupt raised through."""
    if error == "interrupt":
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == "OSError: [Errno 28] No space left on device\n"


class TestOneCommitPoint:
    """Outputs are written to temporary files beside them and renamed into
    place only after the last write has succeeded, so a command that fails
    leaves every file as it was, on the serial and the forked path alike."""

    @pytest.mark.parametrize("error", _WRITE_ERRORS)
    @pytest.mark.parametrize("process_path", ["forked", "serial"], indirect=True)
    @pytest.mark.parametrize("name", ["r.json", *PLOT_FILES])
    def test_a_failed_report_write_leaves_nothing(
        self, tmp_path, monkeypatch, capsys, process_path, name, error
    ):
        (tmp_path / "r.json").write_text("an earlier report\n")
        before = _tree(tmp_path), _paths(tmp_path)
        _fail_writing(monkeypatch, name, error)
        inputs = ["--host", SYNTH[0], "--sub", SYNTH[1]]
        outputs = ["--out", str(tmp_path / "r.json"), "--plot", str(tmp_path / "d" / "p")]
        _fails_as(error, ["report", *inputs, *outputs], capsys)
        assert (_tree(tmp_path), _paths(tmp_path)) == before
        process_path.assert_forks(1)

    @pytest.mark.parametrize("error", _WRITE_ERRORS)
    @pytest.mark.parametrize("name", ["h.csv", "s.csv"])
    def test_a_failed_simulate_write_leaves_nothing(
        self, tmp_path, monkeypatch, capsys, name, error
    ):
        (tmp_path / "s.csv").write_text("an earlier series\n")
        before = _tree(tmp_path), _paths(tmp_path)
        _fail_writing(monkeypatch, name, error)
        argv = ["simulate", "--out-host", str(tmp_path / "h.csv"), "--out-sub"]
        _fails_as(error, [*argv, str(tmp_path / "s.csv")], capsys)
        assert (_tree(tmp_path), _paths(tmp_path)) == before

    @pytest.mark.parametrize("error", _WRITE_ERRORS)
    @pytest.mark.parametrize("process_path", ["forked", "serial"], indirect=True)
    @pytest.mark.parametrize("name", ["h.csv", "s.csv"])
    def test_a_failed_long_simulate_write_leaves_nothing(
        self, tmp_path, monkeypatch, capsys, process_path, name, error
    ):
        (tmp_path / "s.csv").write_text("an earlier series\n")
        before = _tree(tmp_path), _paths(tmp_path)
        _fail_writing(monkeypatch, name, error)
        argv = ["simulate", "--n-points", "2000", "--out-host", str(tmp_path / "h.csv")]
        _fails_as(error, [*argv, "--out-sub", str(tmp_path / "s.csv")], capsys)
        assert (_tree(tmp_path), _paths(tmp_path)) == before
        process_path.assert_forks(1)

    @pytest.mark.parametrize("process_path", ["forked", "serial"], indirect=True)
    def test_a_failed_host_write_comes_before_a_sub_that_overflows(
        self, tmp_path, monkeypatch, capsys, process_path
    ):
        # The host is written before the sub is made, so its write error
        # is reported, not the sub's ConfigError.
        _fail_writing(monkeypatch, "h.csv", "ENOSPC")
        argv = ["simulate", "--n-points", "2000", "--sub-params", "3,0.2,1e308"]
        argv += ["--noise-sigma", "0.5", "--out-host", str(tmp_path / "h.csv")]
        _fails_as("ENOSPC", [*argv, "--out-sub", str(tmp_path / "s.csv")], capsys)
        assert (_tree(tmp_path), _paths(tmp_path)) == ({}, [])
        process_path.assert_forks(1)

    def test_an_output_that_is_a_fifo_is_written_in_place(self, tmp_path):
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this system")
        fifo, plain = tmp_path / "fifo", tmp_path / "plain.json"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            pair = ["evolve", "--host", POWER[0], "--sub", POWER[1], "--out"]
            assert main([*pair, str(fifo)]) == EXIT_OK
            data = os.read(reader, 1 << 20)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["fifo"]
        assert main([*pair, str(plain)]) == EXIT_OK
        blank = lambda b: re.sub(rb'"timestamp": "[^"]*"', b"", b)
        assert blank(data) == blank(plain.read_bytes())

    def test_dev_stdout_as_an_output_is_the_pipe_it_leads_to(self):
        if not os.path.exists("/dev/stdout"):
            pytest.skip("no /dev/stdout on this system")
        src = Path(__file__).resolve().parent.parent / "src"
        argv = ["evolve", "--host", POWER[0], "--sub", POWER[1], "--out", "/dev/stdout"]
        run = subprocess.run(
            [sys.executable, "-m", "techevo.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert (run.returncode, run.stderr) == (EXIT_OK, "")
        assert json.loads(run.stdout)["schema_version"] == 3

    def test_outputs_get_the_mode_of_a_new_file(self, tmp_path):
        old = tmp_path / "old.csv"
        old.write_text("an earlier series\n")
        old.chmod(0o600)
        umask = os.umask(0o022)
        try:
            argv = ["simulate", "--out-host", str(tmp_path / "new.csv"), "--out-sub", str(old)]
            assert main(argv) == EXIT_OK
        finally:
            os.umask(umask)
        for name in ("new.csv", "old.csv"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644


def test_cli_imports_only_the_standard_library():
    # -S keeps site-packages' .pth hooks out, so every module loaded is one
    # the import of techevo.cli pulled in, or the interpreter's own.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, techevo.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "techevo.cli" in out
    # Kept off the start-up path: dataclasses alone pulls in inspect, ast,
    # dis and tokenize.
    # pickle is never imported: a forked child's result comes back through marshal.
    # Outputs are staged without tempfile, which pulls in shutil and random.
    forbidden = {"dataclasses", "inspect", "datetime", "typing", "pathlib", "pickle"}
    assert not (forbidden | {"tempfile", "shutil", "random"}) & set(out)
    foreign = [
        name
        for name in out
        if name != "__main__"
        and name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] != "techevo"
    ]
    assert foreign == []
