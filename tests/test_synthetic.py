import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coupling_residual, early_phase, rel_err, solve_time
from techevo import (
    LogisticParams,
    SplitMix64,
    SyntheticSpec,
    estimate_evolution,
    fit_logistic,
    generate_pair,
    logistic_value,
    serialize_fmt_csv,
)
from techevo.cli import EXIT_OK, main
from techevo.synthetic import _MAX_POINTS, generate_series

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


#: SHA-256 of the host and sub CSVs ``simulate --n-points 10000
#: --noise-sigma 0.05 --seed SEED`` writes, by seed, recorded from the
#: scalar stream.
SIMULATE_DIGESTS = {
    1: (
        "82d4611cb9f31b3447e2f5a190333dd8aa4072c7f5b0055bb04b9aec34b4a1c7",
        "557ace940d618d64c9e74eba1cd042f4505b88f79eb66949292df7336429c670",
    ),
    223: (
        "f69e50adcd7c9d0de12d34f84bbb6c88869277ac9da193eb2670110394b40584",
        "3805a16517d227535f4b97ec4aeb01f88ce55a0f4ee96f79105c23201b19ba4f",
    ),
}


class TestBatchStream:
    """``SplitMix64.normals`` against the scalar stream it must reproduce."""

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 8193])
    def test_normals_equal_scalar_calls(self, seed, count):
        batch, scalar = SplitMix64(seed), SplitMix64(seed)
        zs = batch.normals(count)
        expected = [scalar.normal() for _ in range(count)]
        assert [z.hex() for z in zs] == [z.hex() for z in expected]
        # The state is left where the scalar calls leave it.
        assert batch.next_u64() == scalar.next_u64()

    def test_no_normals(self):
        r = SplitMix64(5)
        assert r.normals(0) == []
        assert r.next_u64() == SplitMix64(5).next_u64()

    def test_clamp_fires(self):
        # Normal 2477 of seed 223 lies beyond the clamp, so that host value
        # carries exactly exp(5 * sigma) of noise.
        z = SplitMix64(223).normals(2478)[2477]
        assert z > 5.0
        pair = generate_pair(spec(n_points=2478, noise_sigma=0.05, seed=223))
        t, v = pair.host.points[2477]
        assert v == logistic_value(HOST, t) * math.exp(0.05 * 5.0)

    @pytest.mark.parametrize("seed", sorted(SIMULATE_DIGESTS))
    def test_simulate_digests_pinned(self, seed, tmp_path, capsys, process_path):
        host, sub = tmp_path / "h.csv", tmp_path / "s.csv"
        args = ["simulate", "--n-points", "10000", "--noise-sigma", "0.05"]
        args += ["--seed", str(seed), "--out-host", str(host), "--out-sub", str(sub)]
        assert main(args) == EXIT_OK
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (host, sub))
        assert digests == SIMULATE_DIGESTS[seed]
        process_path.assert_forks(1)


class TestJumpAhead:
    """Each series is made from its own start: the sub's generator is seeded
    where the host's n normals (2n uniforms) leave the stream."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 300))
    def test_a_jumped_generator_continues_the_stream(self, seed, n):
        walked = SplitMix64(seed)
        for _ in range(n):
            walked.normal()
        jumped = SplitMix64((seed + 2 * n * 0x9E3779B97F4A7C15) % 2**64)
        assert [z.hex() for z in jumped.normals(5)] == [walked.normal().hex() for _ in range(5)]

    @pytest.mark.parametrize(
        "sigma, seed, n", [(0.0, 0, 21), (0.1, 42, 21), (0.05, 2**64 - 1, 4097)]
    )
    def test_each_series_is_drawn_from_the_one_stream(self, sigma, seed, n):
        s = spec(noise_sigma=sigma, seed=seed, n_points=n)
        dt = (s.t_end - s.t_start) / (n - 1)
        ts = tuple(s.t_start + i * dt for i in range(n))
        # One generator for both series, the host's draws first.
        zs = SplitMix64(seed).normals(2 * n) if sigma else [0.0] * (2 * n)
        factors = [math.exp(sigma * max(-5.0, min(5.0, z))) for z in zs]
        host = tuple(logistic_value(HOST, t) * f for t, f in zip(ts, factors[:n]))
        sub = tuple(logistic_value(SUB, t) * f for t, f in zip(ts, factors[n:]))
        pair = generate_pair(s)
        for label, values, made in (("host", host, pair.host), ("sub", sub, pair.sub)):
            alone = generate_series(s, label)
            assert alone == made
            assert (alone.name, alone.ts, alone.values) == (f"synthetic-{label}", ts, values)


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
        residual = coupling_residual(pair, HOST, SUB)
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
        pair = early_phase(generate_pair(s), s.host_params.k, s.sub_params.k, 0.05)
        fit = estimate_evolution(pair)
        assert rel_err(fit.b, 0.4 / 0.5) < 0.02

    def test_rows_respect_cap(self):
        s = self._aligned_spec(0.5, 0.4)
        pair = early_phase(generate_pair(s), s.host_params.k, s.sub_params.k, 0.05)
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
        pair = early_phase(generate_pair(s), hp.k, sp.k, 0.9995)
        fit = estimate_evolution(pair)
        assert rel_err(fit.b, sp.b / hp.b) > 0.02
