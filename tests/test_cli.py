import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import techevo.cli
from conftest import FIXTURES
from techevo.cli import (
    EXIT_ALIGNMENT,
    EXIT_CONFIG,
    EXIT_ESTIMATION,
    EXIT_FITTING,
    EXIT_INPUT,
    EXIT_OK,
    build_parser,
    main,
)
from techevo.synthetic import _MAX_POINTS

SYNTH = [str(FIXTURES / "synth_host.csv"), str(FIXTURES / "synth_sub.csv")]
POWER = [str(FIXTURES / "power_host.csv"), str(FIXTURES / "power_sub.csv")]


def write_csv(path, rows):
    path.write_text("t,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


class TestHappyPaths:
    def test_report_json(self, capsys):
        assert main(["report", "--host", SYNTH[0], "--sub", SYNTH[1]]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["pathway"]["label"] == "Underdevelopment"
        assert payload["digest"].startswith("sha256:")

    def test_report_table(self, capsys):
        args = ["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--format", "table"]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        assert "Evolutionary coefficient β=B" in out
        assert "Pathway:" in out

    def test_evolve(self, capsys):
        assert main(["evolve", "--host", POWER[0], "--sub", POWER[1]]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["logistic_fits"] is None
        assert abs(payload["evolution"]["b"] - 0.5) < 1e-9

    def test_fit(self, capsys):
        assert main(["fit", SYNTH[0]]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["fit"]["k"] - 100.0) < 1e-3

    def test_simulate_then_report(self, tmp_path, capsys):
        host = str(tmp_path / "h.csv")
        sub = str(tmp_path / "s.csv")
        assert (
            main(
                [
                    "simulate", "--seed", "9", "--noise-sigma", "0.02",
                    "--out-host", host, "--out-sub", sub,
                ]
            )
            == EXIT_OK
        )
        capsys.readouterr()
        assert main(["report", "--host", host, "--sub", sub]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["inputs"]["n_aligned"] == 21

    def test_report_out_file_and_plots(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        plots = tmp_path / "plots"
        code = main(
            [
                "report", "--host", SYNTH[0], "--sub", SYNTH[1],
                "--out", str(out), "--plot", str(plots),
            ]
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["schema_version"] == 1
        names = sorted(p.name for p in plots.iterdir())
        assert names == ["host.csv", "host.svg", "sub.csv", "sub.svg"]

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
        self, tmp_path, capsys, monkeypatch
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
            assert inputs["host_file"] == inputs["sub_file"] == name
            assert inputs["host_name"] == inputs["sub_name"] == stem

    def test_plot_determinism(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            main(
                [
                    "report", "--host", SYNTH[0], "--sub", SYNTH[1],
                    "--out", str(tmp_path / "x.json"), "--plot", str(d),
                ]
            )
        for name in ("host.csv", "host.svg", "sub.csv", "sub.svg"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_plot_of_overflowing_time_span_is_finite(self, tmp_path):
        wide = write_csv(tmp_path / "wide.csv", ["-1.7e308,1", "0,2", "1.7e308,3"])
        plots = tmp_path / "plots"
        args = ["report", "--host", wide, "--sub", wide, "--no-logistic"]
        assert main([*args, "--out", str(tmp_path / "r.json"), "--plot", str(plots)]) == EXIT_OK
        for name in ("host.svg", "sub.svg"):
            svg = (plots / name).read_text()
            assert "nan" not in svg and "inf" not in svg

    def test_report_plot_reads_each_input_once(self, tmp_path, monkeypatch):
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

    def test_fitting_error(self, tmp_path, capsys):
        down = write_csv(tmp_path / "down.csv", ["0,9", "1,5", "2,2", "3,1"])
        up = write_csv(tmp_path / "up.csv", ["0,1", "1,2", "2,4", "3,8"])
        code = main(["report", "--host", down, "--sub", up])
        assert code == EXIT_FITTING
        assert "NotSShaped" in capsys.readouterr().err

    def test_overflowing_times_are_a_fitting_error(self, tmp_path, capsys):
        huge = write_csv(tmp_path / "huge.csv", ["-1e300,1", "0,2", "1e300,3"])
        for args in (["fit", huge], ["report", "--host", huge, "--sub", huge]):
            assert main(args) == EXIT_FITTING
            assert "FittingError" in capsys.readouterr().err
        assert main(["evolve", "--host", huge, "--sub", huge]) == EXIT_OK

    def test_log_odds_overflow_is_a_fitting_error(self, tmp_path, capsys):
        # A maximum near 1.8e307 makes the search ceiling max * 10 overflow;
        # a subnormal value beside ordinary ones makes its log-odds overflow.
        huge = write_csv(tmp_path / "huge.csv", ["0,1e307", "1,2e307", "2,3e307"])
        tiny = write_csv(tmp_path / "tiny.csv", ["0,5e-324", "1,1", "2,2"])
        errs = []
        for path in (huge, tiny):
            assert main(["fit", path]) == EXIT_FITTING
            err = capsys.readouterr().err
            assert err.startswith("FittingError: ") and "overflow" in err
            assert "NotSShaped" not in err and "nan" not in err
            errs.append(err)
        assert "maximum 3e+307 is too large for the k-search ceiling" in errs[0]
        assert "log-odds overflow at every saturation candidate" in errs[1]

    def test_underflowing_time_spread_is_a_fitting_error(self, tmp_path, capsys):
        # The centred squares of these times underflow to zero, so the line
        # fit's sum of squares is 0 although the times are distinct.
        close = write_csv(tmp_path / "close.csv", ["0,1", "1e-165,2", "2e-165,3"])
        for args in (["fit", close], ["report", "--host", close, "--sub", close]):
            assert main(args) == EXIT_FITTING
            err = capsys.readouterr().err
            assert err.startswith("FittingError: ") and "'close'" in err
        assert main(["evolve", "--host", close, "--sub", close]) == EXIT_OK

    def test_estimation_error(self, tmp_path, capsys):
        const = write_csv(tmp_path / "const.csv", ["0,5", "1,5", "2,5"])
        up = write_csv(tmp_path / "up.csv", ["0,1", "1,2", "2,4"])
        code = main(["evolve", "--host", const, "--sub", up])
        assert code == EXIT_ESTIMATION
        assert "DegenerateX" in capsys.readouterr().err

    def test_config_error(self, capsys):
        code = main(["report", "--host", SYNTH[0], "--sub", SYNTH[1], "--alpha", "2"])
        assert code == EXIT_CONFIG
        assert "InvalidAlpha" in capsys.readouterr().err
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
        ],
    )
    def test_simulate_value_outside_the_floats_is_a_config_error(
        self, tmp_path, capsys, options
    ):
        host, sub = tmp_path / "h.csv", tmp_path / "s.csv"
        args = ["simulate", "--out-host", str(host), "--out-sub", str(sub), *options]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not host.exists() and not sub.exists()

    def test_k_search_factor_only_where_a_fit_runs(self, capsys):
        # evolve and report --no-logistic fit no S-curve, so the bound is refused.
        pair = ["--host", POWER[0], "--sub", POWER[1], "--k-search-factor", "5"]
        for argv in (["evolve", *pair], ["report", "--no-logistic", *pair]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["report"])  # missing required --host/--sub
        assert exc.value.code == 2


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
    assert not {"dataclasses", "inspect", "datetime", "typing", "pathlib"} & set(out)
    foreign = [
        name
        for name in out
        if name != "__main__"
        and name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] != "techevo"
    ]
    assert foreign == []
