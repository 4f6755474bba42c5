import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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

    def test_evolve_digest_ignores_k_search_factor(self, capsys):
        # evolve fits no S-curve, so the k-search bound must not reach the digest.
        digests = []
        for extra in ([], ["--k-search-factor", "5"]):
            assert main(["evolve", "--host", POWER[0], "--sub", POWER[1], *extra]) == EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            assert payload["provenance"]["config"]["k_search_factor"] is None
            digests.append(payload["digest"])
        assert digests[0] == digests[1]

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
        read_text = Path.read_text

        def counting(self, *args, **kwargs):
            reads.append(self.name)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
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
        assert main(["fit", SYNTH[0], "--k-search-factor", "inf"]) == EXIT_CONFIG
        assert "factor_max must be finite" in capsys.readouterr().err

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
    foreign = [
        name
        for name in out
        if name != "__main__"
        and name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] != "techevo"
    ]
    assert foreign == []
