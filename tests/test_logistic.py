
import importlib.util
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import rel_err, sample_series
from techevo import (
    FmtSeries,
    LogisticParams,
    SplitMix64,
    SyntheticSpec,
    fit_logistic,
    generate_pair,
    linearize,
    logistic_value,
    ols_simple,
    solve_time,
)
from techevo.errors import ConfigError, FittingError, KTooSmall, LevelOutOfRange, NotSShaped
from techevo import logistic
from techevo.stats import _LineFit

params_st = st.builds(
    LogisticParams,
    a=st.floats(-5, 8),
    b=st.floats(0.05, 3),
    k=st.floats(0.5, 1e4),
)


class TestLogisticValue:
    def test_inflection_half_saturation(self):
        assert logistic_value(LogisticParams(0, 1, 100), 0.0) == pytest.approx(50.0)
        assert logistic_value(LogisticParams(2, 0.5, 10), 4.0) == pytest.approx(5.0)

    def test_saturation_limit(self):
        # Strictly increasing toward k while the increments stay
        # representable in double precision.
        p = LogisticParams(0, 1, 100)
        values = [logistic_value(p, t) for t in range(0, 31, 3)]
        assert all(v1 > v0 for v0, v1 in zip(values, values[1:]))
        assert values[-1] < 100.0
        assert values[-1] == pytest.approx(100.0, abs=1e-9)

    def test_extreme_arguments_do_not_overflow(self):
        p = LogisticParams(0, 1, 100)
        assert logistic_value(p, -1e6) >= 0.0
        assert logistic_value(p, 1e6) == pytest.approx(100.0)

    @settings(deadline=None, max_examples=60)
    @given(params_st, st.floats(-50, 50), st.floats(1e-6, 10))
    # Rounds flat: 1 + exp(x) moves by about 3.5e-17, under half an ulp of 1.
    @example(LogisticParams(0.0, 2.5, 1.0), 10.0, 1e-6)
    def test_strictly_increasing(self, p, t, dt):
        # Stay clear of the regimes where the curve rounds flat in floats.
        # Near saturation the curve is k / (1 + exp(x)); the step in
        # 1 + exp(x), at least exp(x_end) * b*dt, must span a few (here 4)
        # ulps of 1, or both ends can round to the same float.
        x_end = p.a - p.b * (t + dt)
        assume(x_end > -30.0)
        assume(x_end > 0.0 or math.exp(x_end) * p.b * dt > 2.0 ** -50)
        assume(p.a - p.b * t < 700.0)
        assert logistic_value(p, t + dt) > logistic_value(p, t)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LogisticParams(0, -1, 10)
        with pytest.raises(ValueError):
            LogisticParams(0, 1, 0)


class TestSolveTime:
    def test_half_saturation_time(self):
        assert solve_time(LogisticParams(3, 0.6, 40), 20.0) == pytest.approx(5.0)

    def test_level_out_of_range(self):
        p = LogisticParams(0, 1, 100)
        with pytest.raises(LevelOutOfRange):
            solve_time(p, 100.0)
        with pytest.raises(LevelOutOfRange):
            solve_time(p, 0.0)
        with pytest.raises(LevelOutOfRange):
            solve_time(p, -3.0)

    def test_round_trip_seeded_grid(self):
        # 100 random (params, t) draws; both composition orders at 1e-10.
        # The log-odds x = a - b*t is drawn directly so the level stays in
        # the float-representable band (saturation destroys t information
        # once k - level rounds below ~1e-12 of k).
        rng = SplitMix64(2024)
        for _ in range(100):
            p = LogisticParams(
                a=-5 + 13 * rng.uniform(),
                b=0.05 + 3 * rng.uniform(),
                k=0.5 + 500 * rng.uniform(),
            )
            x = -9.0 + 39.0 * rng.uniform()
            t = (p.a - x) / p.b
            level = logistic_value(p, t)
            t_back = solve_time(p, level)
            assert abs(t_back - t) < 1e-10 * max(1.0, abs(t))
            level_back = logistic_value(p, t_back)
            assert rel_err(level_back, level) < 1e-10

    @settings(deadline=None, max_examples=60)
    @given(params_st, st.floats(0.001, 0.999))
    def test_level_round_trip(self, p, frac):
        level = frac * p.k
        assert rel_err(logistic_value(p, solve_time(p, level)), level) < 1e-10


class TestLinearize:
    def test_zero_at_half_saturation(self):
        p = LogisticParams(1, 0.5, 10)
        t_half = solve_time(p, 5.0)
        s = sample_series(p, [t_half - 1, t_half, t_half + 1])
        rows = linearize(s, 10.0)
        assert rows[1][1] == pytest.approx(0.0, abs=1e-12)

    def test_exact_collinearity(self):
        p = LogisticParams(2, 0.4, 50)
        s = sample_series(p, [float(t) for t in range(12)])
        rows = linearize(s, 50.0)
        for t, y in rows:
            assert abs(y - (p.a - p.b * t)) < 1e-10

    def test_k_too_small(self):
        s = FmtSeries("s", ((0.0, 1.0), (1.0, 2.0), (2.0, 4.0)))
        with pytest.raises(KTooSmall):
            linearize(s, 4.0)
        with pytest.raises(KTooSmall):
            linearize(s, 3.0)


class TestFitLogistic:
    def test_exact_recovery(self):
        truth = LogisticParams(4, 0.3, 100)
        s = sample_series(truth, [i * 2.0 for i in range(21)])
        fit = fit_logistic(s)
        assert rel_err(fit.params.a, truth.a) < 1e-6
        assert rel_err(fit.params.b, truth.b) < 1e-6
        assert rel_err(fit.params.k, truth.k) < 1e-6

    def test_perfect_r2(self):
        s = sample_series(LogisticParams(0, 1, 100), [float(t) for t in range(-5, 6)])
        fit = fit_logistic(s)
        assert fit.r2_linearized > 1 - 1e-9

    def test_decreasing_series_not_s_shaped(self):
        s = FmtSeries("down", ((0.0, 9.0), (1.0, 5.0), (2.0, 2.0), (3.0, 1.0)))
        with pytest.raises(NotSShaped):
            fit_logistic(s)

    def test_trace_invariants(self):
        truth = LogisticParams(1, 0.5, 30)
        s = sample_series(truth, [float(t) for t in range(-6, 9)])
        fit = fit_logistic(s)
        assert fit.params.k > s.max_value
        traced_min = min(sse for _, sse in fit.k_search_trace)
        assert fit.sse_linearized <= traced_min
        assert (fit.params.k, fit.sse_linearized) in fit.k_search_trace

    def test_round_trip_random_params(self):
        # Noise-free samples spanning both sides of the inflection recover
        # the generating parameters to 1e-6 relative.
        rng = SplitMix64(99)
        for _ in range(12):
            truth = LogisticParams(
                a=-2 + 8 * rng.uniform(),
                b=0.1 + 1.5 * rng.uniform(),
                k=1 + 300 * rng.uniform(),
            )
            t_lo = solve_time(truth, 0.02 * truth.k)
            t_hi = solve_time(truth, 0.985 * truth.k)
            n = 15
            ts = [t_lo + (t_hi - t_lo) * i / (n - 1) for i in range(n)]
            fit = fit_logistic(sample_series(truth, ts))
            assert rel_err(fit.params.a, truth.a) < 1e-6
            assert rel_err(fit.params.b, truth.b) < 1e-6
            assert rel_err(fit.params.k, truth.k) < 1e-6

    def test_search_config_validation(self):
        series = sample_series(LogisticParams(4, 0.3, 100), range(0, 41, 2))
        # 1.001 is the grid floor, which the ceiling must lie above.
        for factor in (1.0, 1.001, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="must be finite and exceed 1.001"):
                fit_logistic(series, factor)

    def test_wider_search_reaches_distant_saturation(self):
        truth = LogisticParams(0, 0.8, 1000)
        t_lo = solve_time(truth, 0.05 * truth.k)
        t_hi = solve_time(truth, 0.9 * truth.k)
        ts = [t_lo + (t_hi - t_lo) * i / 14 for i in range(15)]
        fit = fit_logistic(sample_series(truth, ts), 5.0)
        assert rel_err(fit.params.k, 1000.0) < 1e-6

    def test_inflection_time(self):
        assert LogisticParams(4, 0.3, 100).inflection_time == pytest.approx(4 / 0.3)


@pytest.fixture
def evaluated_ks(monkeypatch):
    """Every candidate k whose line fit the k search computes, in order."""
    ks = []
    line_fit = logistic._line_fit

    def record(line, values, vmax, k):
        ks.append(k)
        return line_fit(line, values, vmax, k)

    monkeypatch.setattr(logistic, "_line_fit", record)
    return ks


class TestKSearchEvaluations:
    def test_sse_evals_on_criterion_1_series(self, evaluated_ks):
        # 16 floor and 64 grid candidates, then 8 evaluations refining the
        # one interior basin in u.
        s = sample_series(LogisticParams(4, 0.3, 100), [i * 2.0 for i in range(21)])
        fit = fit_logistic(s)
        assert fit.sse_evals == len(evaluated_ks) == 88
        assert "sse_evals" not in repr(fit)

    def test_ceiling_fit_is_not_refined(self, evaluated_ks):
        spec = SyntheticSpec(
            host_params=LogisticParams(4, 0.3, 100),
            sub_params=LogisticParams(3, 0.2, 50),
            t_start=0.0,
            t_end=40.0,
            n_points=21,
            noise_sigma=0.05,
            seed=1,
        )
        host = generate_pair(spec).host
        fit = fit_logistic(host)
        grid = [k for k, _ in fit.k_search_trace[:-1]]
        k_hi = 10.0 * host.max_value
        assert fit.params.k == grid[-1] == k_hi
        assert [k for k in evaluated_ks if grid[-2] < k < k_hi] == []

    def test_equal_sse_runs_are_refined_once(self, evaluated_ks):
        # On values u, 2u, 3u (u the smallest subnormal) the candidates round
        # to a few multiples of u: 20 of them to k = 3u = max (infinite SSE),
        # then runs at 4u, 5u, ...  Refining every member of each run took
        # over 2 000 evaluations; refining each run once takes fewer than
        # the 80 candidates themselves.
        u = 5e-324
        fit_logistic(FmtSeries("sub", ((0.0, u), (1.0, 2 * u), (2.0, 3 * u))))
        assert len(evaluated_ks) < 160

    def test_subnormal_values_terminate(self):
        u = 5e-324
        # Beside ordinary values, log((k - u) / u) overflows for every k.
        with pytest.raises(FittingError, match="overflow") as exc:
            fit_logistic(FmtSeries("tiny", ((0.0, u), (1.0, 1.0), (2.0, 2.0))))
        assert type(exc.value) is FittingError
        # All-subnormal data, where no relative tolerance can be met: the
        # search ends on one-ulp steps and still finds the exact curve
        # k = 4u, a = b = ln 3 through u, 2u, 3u.
        fit = fit_logistic(FmtSeries("sub", ((0.0, u), (1.0, 2 * u), (2.0, 3 * u))))
        assert fit.params.k == 4 * u
        assert fit.sse_linearized == 0.0
        with pytest.raises(NotSShaped):
            fit_logistic(FmtSeries("flat", ((0.0, u), (1.0, u), (2.0, u))))


def _load_fit_battery():
    path = Path(__file__).resolve().parent.parent / "scripts" / "fit_battery.py"
    spec = importlib.util.spec_from_file_location("fit_battery", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fit_battery = _load_fit_battery()

# Recorded with scripts/fit_battery.py; any change to a fitted bit, a
# search trace or a raised error type changes it.
BATTERY_DIGEST = "cea648c2c688b83b31a00d8aff994ef977712fb3b6d2b05eb42d7504412bef0f"


@pytest.fixture(scope="module")
def battery():
    series = fit_battery.battery_series()
    return series, [fit_battery.fit_outcome(s) for s in series]


class TestFitBattery:
    def test_digest_pinned(self, battery):
        _, outcomes = battery
        assert fit_battery.battery_digest(outcomes) == BATTERY_DIGEST

    def test_search_kernel_matches_ols_simple(self, battery):
        # The k search and ols_simple fit their lines with the same kernel,
        # so a, b, SSE and r² agree exactly.
        fitted = [(s, o) for s, o in zip(*battery) if not isinstance(o, str)]
        assert len(fitted) > 150
        for s, fit in fitted:
            rows = linearize(s, fit.params.k)
            core = ols_simple([t for t, _ in rows], [y for _, y in rows])
            assert core.slope == -fit.params.b
            assert core.intercept == fit.params.a
            assert core.sse == fit.sse_linearized
            assert core.r2 == fit.r2_linearized

    def test_noise_free_recovery(self, battery):
        # Every noise-free battery series lies exactly on its curve, so the
        # true k has an SSE of about 0.  At most 5 of those whose true k
        # exceeds the observed maximum may miss (a, b, k) by 1e-6 relative.
        _, outcomes = battery
        misses = checked = 0
        for (s, truth, sigma), fit in zip(fit_battery.battery_cases(), outcomes):
            if sigma != 0.0 or not truth.k > s.max_value:
                continue
            checked += 1
            if isinstance(fit, str) or max(
                rel_err(fit.params.a, truth.a),
                rel_err(fit.params.b, truth.b),
                rel_err(fit.params.k, truth.k),
            ) >= 1e-6:
                misses += 1
        assert checked == 50
        assert misses <= 5


#: The smallest series whose candidates are scanned on a subsample (the
#: README documents it).
SUBSAMPLE_MIN_POINTS = 1024


def default_pair(n, sigma, seed):
    """The default ``simulate`` pair at n points."""
    return generate_pair(
        SyntheticSpec(
            host_params=LogisticParams(4, 0.3, 100),
            sub_params=LogisticParams(3, 0.2, 50),
            t_start=0.0,
            t_end=40.0,
            n_points=n,
            noise_sigma=sigma,
            seed=seed,
        )
    )


def recipe_host(n, sigma, seed):
    """The benchmark's report host: logistic (4, 0.3, 100) on [0, 40] times
    log-normal noise from ``random.Random(seed)``."""
    rng = random.Random(seed)
    ts = [40.0 * j / (n - 1) for j in range(n)]
    return FmtSeries(
        "host",
        tuple(
            (t, 100.0 / (1.0 + math.exp(4.0 - 0.3 * t)) * math.exp(sigma * rng.gauss(0.0, 1.0)))
            for t in ts
        ),
    )


def full_scan_fit(monkeypatch, series):
    with monkeypatch.context() as m:
        m.setattr(logistic, "_SCAN_POINTS", math.inf)
        return fit_logistic(series)


def fit_bits(fit):
    p = fit.params
    return [x.hex() for x in (p.a, p.b, p.k, fit.sse_linearized, fit.r2_linearized)]


class TestSubsampledScan:
    @pytest.mark.parametrize(
        "series",
        [
            # The scan of every 19th point finds its basin one candidate
            # away from the full data's.  Refined where the scan puts it,
            # these fits return other bits; dropped, they lose (SSE 1209.41
            # for 1207.79 at seed 1).
            pytest.param(lambda: default_pair(10_000, 0.02, 1).sub, id="sigma0.02-seed1-sub"),
            pytest.param(lambda: default_pair(10_000, 0.02, 2).sub, id="sigma0.02-seed2-sub"),
            # Ceiling fits: the scan has no interior minimum.
            pytest.param(lambda: default_pair(10_000, 0.1, 1).sub, id="sigma0.1-seed1-sub"),
            pytest.param(lambda: default_pair(10_000, 0.1, 2).sub, id="sigma0.1-seed2-sub"),
            # The scan's only basin is not one of the full data's, which
            # fall all the way to the ceiling.
            pytest.param(lambda: recipe_host(10_000, 0.02, 1), id="recipe-walk-to-ceiling"),
            pytest.param(
                lambda: default_pair(SUBSAMPLE_MIN_POINTS, 0.0, 1).host, id="n1024-exact"
            ),
            pytest.param(
                lambda: default_pair(SUBSAMPLE_MIN_POINTS, 0.02, 1).sub, id="n1024-noisy"
            ),
        ],
    )
    def test_fit_matches_the_full_scan(self, monkeypatch, series):
        series = series()
        fit = fit_logistic(series)
        reference = full_scan_fit(monkeypatch, series)
        assert fit_bits(fit) == fit_bits(reference)
        # The candidates carry the subsample's SSEs, not the full data's.
        assert fit.k_search_trace[:-1] != reference.k_search_trace[:-1]

    def test_shorter_series_scan_all_their_points(self, monkeypatch):
        series = default_pair(SUBSAMPLE_MIN_POINTS - 1, 0.02, 1).sub
        # Dataclass equality compares every field, trace and count included.
        assert fit_logistic(series) == full_scan_fit(monkeypatch, series)

    def test_sse_evals_counts_scan_and_full_data(self, monkeypatch):
        sizes = []
        line_fit = logistic._line_fit

        def record(line, values, vmax, k):
            sizes.append(len(values))
            return line_fit(line, values, vmax, k)

        monkeypatch.setattr(logistic, "_line_fit", record)
        n = SUBSAMPLE_MIN_POINTS
        host = default_pair(n, 0.0, 1).host
        fit = fit_logistic(host)
        assert fit.sse_evals == len(sizes)
        # Every other point, plus the maximum's: the last, at an odd index.
        assert host.values.index(host.max_value) == n - 1
        assert sizes[:80] == [n // 2 + 1] * 80
        assert sizes[80:] == [n] * (fit.sse_evals - 80)

    def test_ceiling_fit_reports_the_full_data_sse(self):
        host = recipe_host(10_000, 0.02, 2)
        fit = fit_logistic(host)
        k_hi = 10.0 * host.max_value
        assert fit.params.k == k_hi
        full_sse = logistic._line_fit(_LineFit(host.ts), host.values, host.max_value, k_hi)
        assert fit.sse_linearized == full_sse
        scan_k, scan_sse = fit.k_search_trace[-2]
        assert scan_k == k_hi and scan_sse != full_sse
