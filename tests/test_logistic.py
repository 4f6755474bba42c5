
import importlib.util
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, rel_err, sample_series, solve_time
from techevo import (
    FmtSeries,
    LogisticParams,
    SplitMix64,
    SyntheticSpec,
    fit_logistic,
    generate_pair,
    logistic_value,
)
from techevo.errors import ConfigError, FittingError, NotSShaped
from techevo import logistic

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
    """``logistic_value`` against conftest's closed-form inverse."""

    def test_half_saturation_time(self):
        assert solve_time(LogisticParams(3, 0.6, 40), 20.0) == pytest.approx(5.0)

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
        assert fit.r2_log > 1 - 1e-9

    def test_decreasing_series_not_s_shaped(self):
        s = FmtSeries("down", (0.0, 1.0, 2.0, 3.0), (9.0, 5.0, 2.0, 1.0))
        with pytest.raises(NotSShaped):
            fit_logistic(s)

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
        # 1.001 is the smallest factor, so the ceiling lies above the maximum.
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

    def test_saturation_may_fall_below_the_maximum(self):
        # Multiplicative noise lifts the maximum of a saturated series above
        # k, so a fit must be free to put k below it.
        host = default_pair(21, 0.05, 1).host
        fit = fit_logistic(host)
        assert fit.params.k < max(host.values)
        assert rel_err(fit.params.k, 100.0) < 0.05
        assert not fit.k_at_bound

    def test_pre_inflection_series_fits_at_the_ceiling(self):
        truth = LogisticParams(8, 0.4, 1000)
        s = sample_series(truth, [float(t) for t in range(8)])
        fit = fit_logistic(s)
        assert fit.k_at_bound and fit.params.k == 10.0 * max(s.values)
        assert not fit_logistic(s, 1e6).k_at_bound

    def test_subnormal_values(self):
        u = 5e-324
        # All-subnormal data on the exact curve k = 4u, a = b = ln 3.
        fit = fit_logistic(FmtSeries("sub", (0.0, 1.0, 2.0), (u, 2 * u, 3 * u)))
        assert fit.params.k == 4 * u and fit.sse_log == 0.0
        assert rel_err(fit.params.b, math.log(3.0)) < 1e-12
        with pytest.raises(NotSShaped):
            fit_logistic(FmtSeries("flat", (0.0, 1.0, 2.0), (u, u, u)))
        # In log space a subnormal beside ordinary values is an ordinary point.
        fit = fit_logistic(FmtSeries("tiny", (0.0, 1.0, 2.0), (u, 1.0, 2.0)))
        assert rel_err(fit.params.k, 2.0) < 1e-12

    def test_evaluation_cap_raises(self, monkeypatch):
        s = default_pair(21, 0.05, 1).host
        fit = fit_logistic(s)
        assert 3 < fit.sse_evals <= logistic.MAX_EVALS
        assert "sse_evals" not in repr(fit)
        monkeypatch.setattr(logistic, "MAX_EVALS", 3)
        with pytest.raises(FittingError, match="'synthetic-host': no convergence in 3 eval"):
            fit_logistic(s)

    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    def test_subsampled_start_reaches_the_full_data_optimum(self, monkeypatch, sigma):
        # From n = 1024 on, the start and the first descent run on every
        # (n // 512)-th point; the descent on all the points then reaches
        # the optimum a fit on all of them from the start finds.
        pair = default_pair(1024, sigma, 1)
        for series in (pair.host, pair.sub):
            fit = fit_logistic(series)
            with monkeypatch.context() as m:
                m.setattr(logistic, "_SUBSAMPLE_POINTS", math.inf)
                reference = fit_logistic(series)
            assert fit.sse_log <= reference.sse_log * (1 + 1e-12) + 1e-24
            for x, y in zip((fit.params.a, fit.params.b, fit.params.k),
                            (reference.params.a, reference.params.b, reference.params.k)):
                assert rel_err(x, y) < 1e-6


@pytest.fixture
def evaluated_params(monkeypatch):
    """The (alpha, beta) of every log-space SSE the fit computes, in order."""
    params = []
    residuals = logistic._residuals

    def record(ys, taus, c_max, alpha, beta):
        params.append((alpha, beta))
        return residuals(ys, taus, c_max, alpha, beta)

    monkeypatch.setattr(logistic, "_residuals", record)
    return params


class TestKSearchEvaluations:
    def test_sse_evals_on_criterion_1_series(self, evaluated_params):
        # One SSE at the start, then one per trial step of the descent.
        s = sample_series(LogisticParams(4, 0.3, 100), [i * 2.0 for i in range(21)])
        fit = fit_logistic(s)
        assert fit.sse_evals == len(evaluated_params) == 7
        assert "sse_evals" not in repr(fit)


def test_descent_stops_at_the_damping_limit(monkeypatch):
    # Every sigmoid underflows at this start, so no damping makes a usable
    # step: the damping climbs to its limit and the start comes back after
    # its one SSE evaluation.
    dampings = []
    newton_step = logistic._newton_step

    def record(derivs, damping):
        dampings.append(damping)
        return newton_step(derivs, damping)

    monkeypatch.setattr(logistic, "_newton_step", record)
    ys = [math.log(v) for v in (1, 2, 4, 7, 9)]
    taus = [-1.0, -0.5, 0.0, 0.5, 1.0]
    c_max = math.log(90)
    alpha, beta, sse, c, evals = logistic._descend(ys, taus, c_max, -1e4, 1.0, 0)
    assert (alpha, beta, evals) == (-1e4, 1.0, 1)
    assert (sse, c) == logistic._residuals(ys, taus, c_max, -1e4, 1.0)[:2]
    assert dampings[-1] >= logistic._LAMBDA_MAX


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


# Any finite positive series of 3-40 points with distinct times, mixing the
# whole float range with ordinary magnitudes.
_times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.floats(-100, 100),
    st.integers(-50, 50).map(float),
)
_values = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(1e-3, 1e3), st.floats(0.5, 2.0),
)


@st.composite
def any_series(draw):
    ts = draw(st.lists(_times, min_size=3, max_size=40, unique=True))
    vs = draw(st.lists(_values, min_size=len(ts), max_size=len(ts)))
    return FmtSeries("any", ts, vs)


@settings(deadline=None, max_examples=150)
@given(any_series())
def test_fit_is_in_bounds_or_a_fitting_error(series):
    try:
        fit = fit_logistic(series)
    except FittingError:
        return
    p = fit.params
    assert math.isfinite(p.a) and p.b > 0.0 and 0.0 < p.k <= max(series.values) * 10.0
    assert math.isfinite(fit.sse_log) and fit.sse_log >= 0.0
    assert fit.sse_evals <= logistic.MAX_EVALS


def _load_fit_battery():
    path = Path(__file__).resolve().parent.parent / "scripts" / "fit_battery.py"
    spec = importlib.util.spec_from_file_location("fit_battery", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fit_battery = _load_fit_battery()

# Recorded with scripts/fit_battery.py; any change to a fitted bit, an
# evaluation count or a raised error type changes it.
BATTERY_DIGEST = "990800ee98658e6aaac1bd8ad54c481847901bc5c37889eff00d0e2df579fcff"


@pytest.fixture(scope="module")
def battery():
    series = fit_battery.battery_series()
    return series, [fit_battery.fit_outcome(s) for s in series]


def _worst_rel_err(fit, truth):
    return max(rel_err(fit.params.a, truth.a), rel_err(fit.params.b, truth.b),
               rel_err(fit.params.k, truth.k))


class TestFitBattery:
    def test_digest_pinned(self, battery):
        _, outcomes = battery
        assert fit_battery.battery_digest(outcomes) == BATTERY_DIGEST

    def test_noise_free_recovery(self, battery):
        # Every noise-free battery series lies exactly on its curve.  Those
        # whose true k exceeds the observed maximum are recovered within
        # 1e-6; the two whose true k lies beyond the default ceiling
        # 10 * max fit at the ceiling, and a wider one recovers them.
        _, outcomes = battery
        checked = beyond = 0
        for (s, truth, sigma), fit in zip(fit_battery.battery_cases(), outcomes):
            if sigma != 0.0 or not truth.k > max(s.values):
                continue
            checked += 1
            if truth.k > 10.0 * max(s.values):
                beyond += 1
                assert fit.k_at_bound
                fit = fit_logistic(s, 20.0)
            assert _worst_rel_err(fit, truth) < 1e-6
        assert (checked, beyond) == (50, 2)

    def test_reaches_the_log_space_optimum(self, battery):
        # scripts/log_oracle.py: the best of 80 scipy fits per series under
        # the same ceiling.  At least 195 of the 200 fits reach its SSE
        # within 1e-6 relative, or lie with it below the rounding floor of
        # noise-free series; at most 3 series do not rise (NotSShaped).
        oracle = json.loads((FIXTURES / "battery_log_oracle.json").read_text())
        floor = oracle["sse_floor"]
        series, outcomes = battery
        assert len(oracle["fits"]) == len(outcomes) == 200
        reached = 0
        for fit, best in zip(outcomes, oracle["fits"]):
            if isinstance(fit, str):
                assert fit == "NotSShaped"
                continue
            sse = fit.sse_log
            reached += sse <= best["sse"] * (1 + 1e-6) or max(sse, best["sse"]) < floor
        assert sum(isinstance(o, str) for o in outcomes) <= 3
        assert reached >= 195
