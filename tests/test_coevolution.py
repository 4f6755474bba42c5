import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

from conftest import coupling_constant, coupling_residual, rel_err, sample_series, scaled, solve_time
from techevo import (
    EvolutionFit,
    FmtSeries,
    LogisticParams,
    SplitMix64,
    SyntheticSpec,
    align,
    estimate_evolution,
    generate_pair,
    logistic_value,
)
from techevo.errors import DegenerateX


def pair_from_values(h_values, p_values):
    ts = [float(i) for i in range(len(h_values))]
    host = FmtSeries("h", ts, h_values)
    sub = FmtSeries("p", ts, p_values)
    return align(host, sub)


POWER_PAIR = pair_from_values([1, 4, 9, 16, 25], [2, 4, 6, 8, 10])


class TestEstimateEvolution:
    def test_identity_relation(self):
        pair = pair_from_values([1, 2, 4, 9], [1, 2, 4, 9])
        fit = estimate_evolution(pair)
        assert fit.b == pytest.approx(1.0, abs=1e-14)
        assert fit.log_a == pytest.approx(0.0, abs=1e-14)
        assert fit.r2 == 1.0

    def test_exact_power_law(self):
        # P = 2 * H**0.5 exactly, so the log-log relation is exactly linear.
        fit = estimate_evolution(POWER_PAIR)
        assert fit.b == pytest.approx(0.5, abs=1e-12)
        assert fit.a == pytest.approx(2.0, rel=1e-12)
        assert fit.r2 > 1 - 1e-12
        assert fit.n == 5

    def test_degenerate_host(self):
        pair = pair_from_values([3, 3, 3, 3], [1, 2, 3, 4])
        with pytest.raises(DegenerateX):
            estimate_evolution(pair)

    def test_constant_subsystem_explains_nothing(self):
        # SST = 0 forces SSE = 0; r2 takes the same 0/0 convention as t and F.
        fit = estimate_evolution(pair_from_values([1, 2, 4, 8], [5, 5, 5, 5]))
        assert (fit.b, fit.t_b, fit.f_stat, fit.p_f) == (0.0, 0.0, 0.0, 1.0)
        assert fit.r2 == 0.0
        assert fit.r2_adj == -0.5

    def test_deterministic(self):
        pair = pair_from_values([1.1, 2.7, 3.9, 8.2], [0.9, 1.8, 2.2, 3.3])
        assert estimate_evolution(pair) == estimate_evolution(pair)

    def test_confidence_interval_covers_truth(self):
        # Light version of the coverage experiment (the acceptance suite
        # runs the full 100 replications).
        true_b, true_a, sigma, n = 0.35, 2.5, 0.1, 50
        host_vals = [math.exp(4.0 * i / (n - 1)) for i in range(n)]
        hits = 0
        reps = 20
        for seed in range(reps):
            rng = SplitMix64(1000 + seed)
            sub_vals = [
                true_a * h**true_b * math.exp(sigma * rng.normal()) for h in host_vals
            ]
            fit = estimate_evolution(
                pair_from_values(host_vals, sub_vals)
            )
            half = sp_stats.t.ppf(0.995, fit.n - 2) * fit.se_b
            if fit.b - half <= true_b <= fit.b + half:
                hits += 1
        assert hits >= reps - 2

    def test_scale_invariance(self):
        pair = pair_from_values([1.0, 3.0, 7.0, 20.0, 55.0], [2.0, 3.1, 4.4, 7.9, 11.0])
        base = estimate_evolution(pair)
        for c in (1e-3, 7.0, 1e3):
            host_scaled = align(scaled(pair.host, c), pair.sub)
            fit = estimate_evolution(host_scaled)
            assert abs(fit.b - base.b) < 1e-10
            assert abs(fit.log_a - (base.log_a - base.b * math.log(c))) < 1e-9
            sub_scaled = align(pair.host, scaled(pair.sub, c))
            fit2 = estimate_evolution(sub_scaled)
            assert abs(fit2.b - base.b) < 1e-10
            assert abs(fit2.log_a - (base.log_a + math.log(c))) < 1e-9

    def test_invariants_on_noisy_fit(self):
        rng = SplitMix64(321)
        h = [1.0 + 30 * rng.uniform() for _ in range(25)]
        p = [1.9 * v**0.6 * math.exp(0.2 * rng.normal()) for v in h]
        fit = estimate_evolution(pair_from_values(h, p))
        assert fit.r2_adj <= fit.r2 <= 1.0
        assert rel_err(fit.f_stat, fit.t_b**2) < 1e-8
        assert abs(fit.p_f - fit.p_b) < 1e-9
        assert fit.a == pytest.approx(math.exp(fit.log_a))


class TestRelationConstant:
    """conftest's odds-coupling constant, held against the package's curves."""

    def test_identical_params(self):
        p = LogisticParams(1.5, 0.7, 40)
        c1, exponent = coupling_constant(p, p)
        assert exponent == pytest.approx(1.0)
        assert c1 == pytest.approx(1.0)

    def test_zero_intercepts(self):
        c1, exponent = coupling_constant(LogisticParams(0, 2, 10), LogisticParams(0, 1, 20))
        assert exponent == pytest.approx(2.0)
        assert c1 == pytest.approx(1.0)

    def test_closed_form_against_brute_force(self):
        # 50 random parameter draws, 20 time points each: the constant
        # derived in closed form must satisfy the odds identity pointwise.
        rng = SplitMix64(404)
        for _ in range(50):
            hp = LogisticParams(6 * rng.uniform(), 0.2 + 1.8 * rng.uniform(), 10 + 490 * rng.uniform())
            sp = LogisticParams(6 * rng.uniform(), 0.2 + 1.8 * rng.uniform(), 10 + 490 * rng.uniform())
            c1, exponent = coupling_constant(hp, sp)
            t_mid = 0.5 * (hp.inflection_time + sp.inflection_time)
            half_width = min(4.5 / hp.b, 4.5 / sp.b)
            worst_rel = 0.0
            for i in range(20):
                t = t_mid - half_width + 2 * half_width * i / 19
                h = logistic_value(hp, t)
                p = logistic_value(sp, t)
                lhs = h / (hp.k - h)
                rhs = c1 * (p / (sp.k - p)) ** exponent
                worst_rel = max(worst_rel, abs(lhs - rhs) / abs(lhs))
            assert worst_rel < 1e-10


class TestCheckRelation:
    """The coupling residual on exact and perturbed sampled pairs."""

    def _exact_pair(self, hp, sp, n=20):
        t_mid = 0.5 * (hp.inflection_time + sp.inflection_time)
        half = min(4.5 / hp.b, 4.5 / sp.b)
        ts = [t_mid - half + 2 * half * i / (n - 1) for i in range(n)]
        host = sample_series(hp, ts, "h")
        sub = sample_series(sp, ts, "p")
        return align(host, sub)

    def test_exact_pair_tiny_residual(self):
        hp = LogisticParams(2, 0.5, 120)
        sp = LogisticParams(1, 0.8, 60)
        pair = self._exact_pair(hp, sp)
        residual = coupling_residual(pair, hp, sp)
        scale = max(h / (hp.k - h) for h in pair.host_values)
        assert residual < 1e-9 * scale

    def test_noisy_pair_inflates_residual(self):
        hp = LogisticParams(2, 0.5, 120)
        sp = LogisticParams(1, 0.8, 60)
        pair = self._exact_pair(hp, sp)
        noisy = align(pair.host, scaled(pair.sub, 0.99))
        residual = coupling_residual(noisy, hp, sp)
        assert residual > 0.0


class TestSummaryFit:
    def test_derived_statistics(self):
        fit = EvolutionFit(b=0.35, se_b=0.02, n=51, log_a=-2.93, se_log_a=0.02)
        assert fit.t_b == pytest.approx(17.5)
        assert fit.t_b_vs_1 == pytest.approx(-32.5)
        assert fit.p_b < 1e-10
        assert fit.p_b_vs_1 < 1e-10

    def test_r2_completion(self):
        fit = EvolutionFit(b=0.5, se_b=0.1, n=12, r2_adj=0.81)
        assert fit.r2_adj == 0.81
        assert fit.r2 == pytest.approx(1 - (1 - 0.81) * 10 / 11)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            EvolutionFit(b=0.5, se_b=0.1, n=2)

    def test_takes_summary_numbers_not_the_record_fields(self):
        # The derived fields (t, p, a, ...) cannot be passed in, so they
        # cannot disagree with the numbers they are derived from.
        fit = estimate_evolution(POWER_PAIR)
        with pytest.raises(TypeError):
            EvolutionFit(**fit._asdict())


@settings(deadline=None, max_examples=30)
@given(
    st.floats(0.1, 3.0),
    st.floats(0.1, 3.0),
    st.integers(0, 2**32),
)
def test_early_phase_slope_matches_rate_ratio(b1, b2, seed):
    # Noise-free early regime: log-log slope approaches b2/b1.
    ratio = b2 / b1
    assume(0.4 <= ratio <= 2.5)
    hp = LogisticParams(3.0, b1, 100.0)
    t_cap = solve_time(hp, 0.05 * hp.k)
    a2 = b2 * t_cap + math.log(1 / 0.05 - 1)
    sp = LogisticParams(a2, b2, 70.0)
    t_lo = max(solve_time(hp, 0.001 * hp.k), solve_time(sp, 0.001 * sp.k))
    spec = SyntheticSpec(
        host_params=hp, sub_params=sp, t_start=t_lo, t_end=t_cap, n_points=40, seed=seed
    )
    pair = generate_pair(spec)
    fit = estimate_evolution(pair)
    assert rel_err(fit.b, ratio) < 0.02
