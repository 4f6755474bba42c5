import math

import pytest

from conftest import rel_err
from techevo import (
    LogisticParams,
    SplitMix64,
    SyntheticSpec,
    check_relation,
    early_phase_pair,
    estimate_evolution,
    fit_logistic,
    generate_pair,
    relation_constant,
    serialize_fmt_csv,
    solve_time,
)
from techevo.errors import EmptyEarlyPhase
from techevo.synthetic import _MAX_POINTS

HOST = LogisticParams(a=4.0, b=0.3, k=100.0)
SUB = LogisticParams(a=3.0, b=0.2, k=50.0)


def spec(**overrides) -> SyntheticSpec:
    base = dict(
        host_params=HOST,
        sub_params=SUB,
        t_start=0.0,
        t_end=40.0,
        n_points=21,
        noise_sigma=0.0,
        seed=0,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSplitMix64:
    def test_reference_stream(self):
        # Published SplitMix64 test vector for seed 0.
        r = SplitMix64(0)
        assert r.next_u64() == 0xE220A8397B1DCDAF
        assert r.next_u64() == 0x6E789E6AA1B965F4
        assert r.next_u64() == 0x06C45D188009454F

    def test_uniform_range(self):
        r = SplitMix64(123)
        for _ in range(1000):
            u = r.uniform()
            assert 0.0 < u <= 1.0

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            SplitMix64(-1)
        with pytest.raises(ValueError):
            SplitMix64(2**64)

    def test_normal_moments(self):
        r = SplitMix64(99)
        zs = [r.normal() for _ in range(4000)]
        mean = sum(zs) / len(zs)
        var = sum((z - mean) ** 2 for z in zs) / len(zs)
        assert abs(mean) < 0.05
        assert abs(var - 1.0) < 0.08


class TestGeneratePair:
    def test_deterministic_bytes(self):
        s = spec(noise_sigma=0.1, seed=42)
        a = generate_pair(s)
        b = generate_pair(s)
        assert serialize_fmt_csv(a.host) == serialize_fmt_csv(b.host)
        assert serialize_fmt_csv(a.sub) == serialize_fmt_csv(b.sub)

    def test_different_seeds_differ(self):
        a = generate_pair(spec(noise_sigma=0.1, seed=1))
        b = generate_pair(spec(noise_sigma=0.1, seed=2))
        assert serialize_fmt_csv(a.sub) != serialize_fmt_csv(b.sub)

    def test_noise_free_fit_recovery(self):
        pair = generate_pair(spec())
        fit_h = fit_logistic(pair.host)
        fit_p = fit_logistic(pair.sub)
        for fit, truth in ((fit_h, HOST), (fit_p, SUB)):
            assert rel_err(fit.params.a, truth.a) < 1e-6
            assert rel_err(fit.params.b, truth.b) < 1e-6
            assert rel_err(fit.params.k, truth.k) < 1e-6

    def test_noise_free_relation_identity(self):
        pair = generate_pair(spec())
        rc = relation_constant(HOST, SUB)
        residual = check_relation(pair, rc, HOST.k, SUB.k)
        scale = max(h / (HOST.k - h) for h in pair.host_values)
        assert residual < 1e-9 * scale

    def test_values_within_noise_envelope(self):
        sigma = 0.3
        pair = generate_pair(spec(noise_sigma=sigma, seed=7, n_points=200))
        for v in pair.host_values:
            assert 0.0 < v < HOST.k * math.exp(5 * sigma)
        for v in pair.sub_values:
            assert 0.0 < v < SUB.k * math.exp(5 * sigma)

    def test_uniform_grid(self):
        pair = generate_pair(spec(n_points=5, t_start=0.0, t_end=8.0))
        assert pair.ts == (0.0, 2.0, 4.0, 6.0, 8.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            spec(t_start=5.0, t_end=5.0)
        with pytest.raises(ValueError):
            spec(n_points=2)
        assert spec(n_points=_MAX_POINTS).n_points == _MAX_POINTS  # not generated
        with pytest.raises(ValueError):
            spec(n_points=_MAX_POINTS + 1)
        with pytest.raises(ValueError):
            spec(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            spec(seed=-3)


class TestEarlyPhase:
    def _aligned_spec(self, b1, b2, cap=0.05, n=40):
        hp = LogisticParams(3.0, b1, 100.0)
        t_cap = solve_time(hp, cap * hp.k)
        a2 = b2 * t_cap + math.log(1 / cap - 1)
        sp = LogisticParams(a2, b2, 70.0)
        t_lo = max(solve_time(hp, 0.001 * hp.k), solve_time(sp, 0.001 * sp.k))
        return SyntheticSpec(
            host_params=hp, sub_params=sp, t_start=t_lo, t_end=t_cap, n_points=n
        )

    def test_slope_matches_rate_ratio(self):
        s = self._aligned_spec(0.5, 0.4)
        pair = early_phase_pair(s, 0.05)
        fit = estimate_evolution(pair)
        assert rel_err(fit.b, 0.4 / 0.5) < 0.02

    def test_empty_when_cap_tiny(self):
        with pytest.raises(EmptyEarlyPhase):
            early_phase_pair(spec(), 1e-6)

    def test_requires_noise_free(self):
        with pytest.raises(ValueError):
            early_phase_pair(spec(noise_sigma=0.1), 0.05)

    def test_cap_fraction_domain(self):
        with pytest.raises(ValueError):
            early_phase_pair(spec(), 0.0)
        with pytest.raises(ValueError):
            early_phase_pair(spec(), 1.0)

    def test_rows_respect_cap(self):
        s = self._aligned_spec(0.5, 0.4)
        pair = early_phase_pair(s, 0.05)
        assert all(h <= 0.05 * 100.0 for h in pair.host_values)
        assert all(p <= 0.05 * 70.0 for p in pair.sub_values)

    def test_saturated_window_breaks_power_law(self):
        # Deep into saturation the log-log slope departs from b2/b1 by far
        # more than the early-phase tolerance.
        hp = LogisticParams(2.0, 0.5, 100.0)
        sp = LogisticParams(3.0, 0.8, 50.0)
        t_lo = max(solve_time(hp, 0.5 * hp.k), solve_time(sp, 0.5 * sp.k))
        t_hi = min(solve_time(hp, 0.999 * hp.k), solve_time(sp, 0.999 * sp.k))
        s = SyntheticSpec(
            host_params=hp, sub_params=sp, t_start=t_lo, t_end=t_hi, n_points=60
        )
        pair = early_phase_pair(s, 0.9995)
        fit = estimate_evolution(pair)
        assert rel_err(fit.b, sp.b / hp.b) > 0.02
