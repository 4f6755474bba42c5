import hashlib
import json
import math
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest

from conftest import FIXTURES, rel_err, sample_series
from techevo import (
    EvolutionFit,
    FmtSeries,
    LogisticParams,
    SyntheticSpec,
    classify_pathway,
    determinism_digest,
    emit_plot_data,
    emit_table,
    generate_pair,
    report_to_json,
    run_pipeline,
    significance_stars,
)
from techevo.cli import EXIT_OK, _read_series, main

POWER_HOST = FIXTURES / "power_host.csv"
POWER_SUB = FIXTURES / "power_sub.csv"
SYNTH_HOST = FIXTURES / "synth_host.csv"
SYNTH_SUB = FIXTURES / "synth_sub.csv"


def run_files(host_csv, sub_csv, **options):
    """The pipeline on two CSV files, read the way the CLI reads them."""
    return run_pipeline(_read_series(host_csv), _read_series(sub_csv), **options)


def stub_report(fit, alpha=0.01):
    return {
        "schema_version": 3,
        "inputs": {
            "host_name": "host",
            "sub_name": "sub",
            "n_host": fit.n,
            "n_sub": fit.n,
            "n_aligned": fit.n,
            "t_min": 0.0,
            "t_max": 1.0,
        },
        "logistic_fits": None,
        "evolution": fit._asdict(),
        "pathway": classify_pathway(fit, alpha)._asdict(),
        "provenance": {
            "tool": "techevo", "version": "0.0-test", "config": {"alpha": alpha},
            "timestamp": "T",
        },
    }


class TestRunPipeline:
    def test_power_law_fixture(self):
        report = run_files(POWER_HOST, POWER_SUB)
        assert report["evolution"]["b"] == pytest.approx(0.5, abs=1e-12)
        assert report["evolution"]["a"] == pytest.approx(2.0, rel=1e-12)
        assert report["pathway"]["label"] == "Underdevelopment"
        assert report["inputs"]["n_aligned"] == 5

    def test_missing_file_names_path(self):
        with pytest.raises(OSError, match="nope.csv"):
            run_files(FIXTURES / "nope.csv", POWER_SUB)

    def test_no_logistic_config(self):
        report = run_files(POWER_HOST, POWER_SUB, k_search_factor=None)
        assert report["logistic_fits"] is None
        assert report["provenance"]["config"] == {"alpha": 0.01, "k_search_factor": None}

    def test_logistic_fits_present_by_default(self):
        report = run_files(SYNTH_HOST, SYNTH_SUB)
        assert rel_err(report["logistic_fits"]["host"]["k"], 100.0) < 1e-4
        assert report["provenance"]["config"] == {"alpha": 0.01, "k_search_factor": 10.0}

    def test_in_memory_series_touch_no_file(self, monkeypatch):
        def no_io(*args, **kwargs):
            raise AssertionError("run_pipeline touched a file")

        monkeypatch.setattr(Path, "read_text", no_io)
        monkeypatch.setattr(Path, "write_text", no_io)
        monkeypatch.setattr("builtins.open", no_io)
        spec = SyntheticSpec(
            host_params=LogisticParams(4.0, 0.3, 100.0),
            sub_params=LogisticParams(3.0, 0.2, 50.0),
            t_start=0.0,
            t_end=40.0,
            n_points=21,
        )
        pair = generate_pair(spec)
        report = run_pipeline(pair.host, pair.sub)
        assert report["inputs"]["host_name"] == "synthetic-host"
        assert report["inputs"]["sub_name"] == "synthetic-sub"
        assert report["inputs"]["n_aligned"] == 21
        assert rel_err(report["logistic_fits"]["host"]["k"], 100.0) < 1e-6
        assert report["pathway"]["label"] == "Underdevelopment"

    @pytest.mark.parametrize("factor", [10.0, None], ids=["fits", "no-fits"])
    def test_the_plot_hook_sees_each_series_once_with_its_fit(self, factor):
        calls = []
        report = run_files(
            SYNTH_HOST, SYNTH_SUB, k_search_factor=factor, plot=lambda *call: calls.append(call)
        )
        fits = report["logistic_fits"]
        assert [label for label, _, _ in calls] == ["host", "sub"]
        for label, series, params in calls:
            assert series == _read_series(SYNTH_HOST if label == "host" else SYNTH_SUB)
            if factor is None:
                assert fits is None and params is None
            else:
                f = fits[label]
                assert params == LogisticParams(f["a"], f["b"], f["k"])
        without = run_files(SYNTH_HOST, SYNTH_SUB, k_search_factor=factor)
        assert determinism_digest(report) == determinism_digest(without)

    def test_nothing_to_fit_or_plot_touches_no_file_and_starts_no_worker(self, monkeypatch):
        host, sub = _read_series(SYNTH_HOST), _read_series(SYNTH_SUB)

        def no_io(*args, **kwargs):
            raise AssertionError("run_pipeline touched a file or started a worker")

        monkeypatch.setattr("builtins.open", no_io)
        monkeypatch.setattr("os.open", no_io)
        monkeypatch.setattr("techevo.report.host_and_sub", no_io)
        assert run_pipeline(host, sub, k_search_factor=None)["logistic_fits"] is None


class TestSerialization:
    def test_digest_stable_and_timestamp_free(self):
        r1 = run_files(SYNTH_HOST, SYNTH_SUB)
        r2 = run_files(SYNTH_HOST, SYNTH_SUB)
        assert r1["provenance"]["timestamp"] is not None
        assert determinism_digest(r1) == determinism_digest(r2)
        d = {**r1, "provenance": dict(r1["provenance"])}
        d["provenance"]["timestamp"] = "2099-01-01T00:00:00+00:00"
        assert determinism_digest(d) == determinism_digest(r1)

    def test_timestamp_is_utc_to_the_second(self):
        stamp = run_files(POWER_HOST, POWER_SUB)["provenance"]["timestamp"]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
        age = datetime.now(timezone.utc) - datetime.fromisoformat(stamp)
        assert abs(age.total_seconds()) < 5

    @pytest.mark.parametrize(
        "pair", [(SYNTH_HOST, SYNTH_SUB), (POWER_HOST, POWER_SUB)], ids=["synth", "power"]
    )
    def test_json_round_trip_idempotent(self, pair):
        # A saved report, read back with json.loads, is itself a report.
        report = run_files(*pair)
        text = report_to_json(report)
        saved = json.loads(text)
        assert report_to_json(saved) == text
        assert determinism_digest(saved) == saved["digest"]
        assert emit_table(saved) == emit_table(report)

    def test_embedded_digest_matches(self):
        report = run_files(SYNTH_HOST, SYNTH_SUB)
        d = json.loads(report_to_json(report))
        assert d["digest"] == determinism_digest(d)

    def test_floats_quantized_to_12_digits(self):
        report = run_files(SYNTH_HOST, SYNTH_SUB)
        d = json.loads(report_to_json(report))
        b = d["evolution"]["b"]
        assert b == float(format(b, ".12g"))

    def test_json_keys_in_documented_order(self):
        # The digest sorts keys, so only this pins the emitted layout.
        d = json.loads(report_to_json(run_files(SYNTH_HOST, SYNTH_SUB)))
        assert list(d) == [
            "schema_version", "inputs", "logistic_fits", "evolution", "pathway",
            "provenance", "digest",
        ]
        assert list(d["inputs"]) == [
            "host_name", "sub_name", "n_host", "n_sub", "n_aligned", "t_min", "t_max",
        ]
        assert list(d["logistic_fits"]) == ["host", "sub"]
        assert list(d["logistic_fits"]["sub"]) == [
            "a", "b", "k", "sse_log", "r2_log", "k_at_bound",
        ]
        assert list(d["evolution"]) == [
            "log_a", "a", "b", "se_log_a", "se_b", "t_b", "p_b", "t_b_vs_1",
            "p_b_vs_1", "r2", "r2_adj", "f_stat", "p_f", "see", "n",
        ]
        assert list(d["pathway"]) == ["label", "alpha", "direction"]
        assert list(d["provenance"]) == ["tool", "version", "config", "timestamp"]
        assert list(d["provenance"]["config"]) == ["alpha", "k_search_factor"]


class TestEmitTable:
    def test_reported_coefficient_cells(self):
        fit = EvolutionFit(
            b=0.35, se_b=0.02, n=51, log_a=-2.93, se_log_a=0.02,
            r2_adj=0.81, see=0.14, f_stat=213.63,
        )
        text = emit_table(stub_report(fit))
        assert "0.35*** (0.02)" in text
        assert "0.81 (0.14)" in text
        assert "-2.93*** (0.02)" in text
        assert "213.63" in text

    def test_no_stars_when_insignificant(self):
        fit = EvolutionFit(b=0.6, se_b=0.45, n=10)
        assert significance_stars(fit.p_b) == ""
        text = emit_table(stub_report(fit, alpha=0.05))
        assert "*" not in text.split("Significance:")[0]

    def test_headers_and_n(self):
        fit = EvolutionFit(b=0.5, se_b=0.05, n=23)
        text = emit_table(stub_report(fit))
        for header in ("Constant α", "Evolutionary coefficient β=B", "R² adj.", "F", "n"):
            assert header in text
        assert "23" in text

    def test_star_thresholds(self):
        assert significance_stars(0.005) == "***"
        assert significance_stars(0.02) == "**"
        assert significance_stars(0.07) == "*"
        assert significance_stars(0.2) == ""


class TestEmitPlotData:
    def test_fitted_matches_observed_on_exact_curve(self):
        params = LogisticParams(4, 0.3, 100)
        series = sample_series(params, [i * 2.0 for i in range(21)])
        plot = emit_plot_data(series, params)
        lines = plot.csv.strip().splitlines()
        assert lines[0] == "t,observed,fitted"
        for line in lines[1:]:
            _, obs, fitted = (float(v) for v in line.split(","))
            assert rel_err(fitted, obs) < 1e-6

    def test_observed_only_without_fit(self):
        series = sample_series(LogisticParams(0, 1, 10), [0.0, 1.0, 2.0])
        plot = emit_plot_data(series, None)
        assert plot.csv.splitlines()[0] == "t,observed"
        assert "polyline" not in plot.svg

    def test_byte_determinism(self):
        params = LogisticParams(1, 0.4, 60)
        series = sample_series(params, [float(t) for t in range(10)])
        a = emit_plot_data(series, params)
        b = emit_plot_data(series, params)
        assert a.csv == b.csv
        assert a.svg == b.svg

    def test_svg_structure(self):
        params = LogisticParams(1, 0.4, 60)
        series = sample_series(params, [float(t) for t in range(10)])
        svg = emit_plot_data(series, params).svg
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 10

    def test_extreme_time_spans_give_finite_coordinates(self):
        # t1 - t0 overflows here; a subnormal span can round to zero.
        u = 5e-324
        for ts in ((-1.7e308, 0.0, 1.7e308), (3 * u, 4 * u, 5 * u)):
            series = FmtSeries("extreme", ts, (1.0, 2.0, 3.0))
            svg = emit_plot_data(series, LogisticParams(0, 1e-300, 4)).svg
            assert "nan" not in svg and "inf" not in svg
            assert svg.count("<circle") == 3

    def test_values_near_the_largest_float_are_drawn_as_smaller_ones(self):
        # 1.05 times this maximum overflows; scaling by a power of two is
        # exact, so the points lie where those of the scaled values do.
        huge = (1e308, 1.5e308, 1.75e308)
        svgs = [
            emit_plot_data(FmtSeries("v", (0.0, 1.0, 2.0), [math.ldexp(v, -e) for v in huge])).svg
            for e in (0, 1000)
        ]
        assert svgs[0] == svgs[1]
        assert len(set(re.findall(r'cy="([^"]*)"', svgs[0]))) == 3


#: The four plot files of ``report --plot``, pinned across commits: one
#: SHA-256 over host.csv, host.svg, sub.csv and sub.svg, in that order, for
#: the synth fixtures and for a seeded n = 10 000 ``simulate`` pair, each
#: with (False) and without (True) the S-curve fits.
PLOT_DIGESTS = {
    ("synth", False): "416e6a7f7e00533eea159acd81deb61293539b55a48e04eeabbcf38a1c024e83",
    ("synth", True): "5e46a19204abc36fe7cce8cf2eddb40b963e5ea6ec89a2148a444986d6490acf",
    ("simulate", False): "8f14b3e174a4b6fa477633d8e82f1c7f105604c06e3edd3d03324b680664dd25",
    ("simulate", True): "2b8c20cc879930c08b6c82734cf9239ae0a2e7acba2e7ee03667b07334c34d63",
}


class TestPlotDigests:
    @pytest.mark.parametrize("pair, no_logistic", sorted(PLOT_DIGESTS))
    def test_plot_digests_pinned(self, pair, no_logistic, tmp_path, capsys, process_path):
        host, sub = str(SYNTH_HOST), str(SYNTH_SUB)
        if pair == "simulate":
            host, sub = str(tmp_path / "h.csv"), str(tmp_path / "s.csv")
            args = ["simulate", "--n-points", "10000", "--noise-sigma", "0.02", "--seed", "5"]
            assert main([*args, "--out-host", host, "--out-sub", sub]) == EXIT_OK
        plots = tmp_path / "plots"
        args = ["report", "--host", host, "--sub", sub, "--plot", str(plots)]
        args += ["--out", str(tmp_path / "r.json")]
        assert main(args + ["--no-logistic"] * no_logistic) == EXIT_OK
        digest = hashlib.sha256()
        for name in ("host.csv", "host.svg", "sub.csv", "sub.svg"):
            digest.update((plots / name).read_bytes())
        assert digest.hexdigest() == PLOT_DIGESTS[pair, no_logistic]
        process_path.assert_forks(2 if pair == "simulate" else 1)
