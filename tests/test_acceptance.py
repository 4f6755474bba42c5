"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is fixed here, not calibrated.  Oracles are independent
of the code paths they check: numpy normal equations for the regression,
scipy's Student-t quantile for the coverage intervals,
closed-form curve evaluation for the fits, the pinned seeded generator
for reproducibility.  The curve inverse, the odds coupling, the
early-phase filter and the rescaling are conftest's own closed forms.
"""

from __future__ import annotations

import json
import math
import re
import time

from scipy import stats as sp_stats

from conftest import (
    FIXTURES,
    coupling_residual,
    early_phase,
    log_pair,
    ols_normal_equations,
    pair_logs,
    rel_err,
    sample_series,
    scaled,
    solve_time,
)
from techevo import (
    EvolutionFit,
    FmtSeries,
    LogisticParams,
    SplitMix64,
    SyntheticSpec,
    align,
    classify_pathway,
    determinism_digest,
    emit_table,
    estimate_evolution,
    fit_logistic,
    generate_pair,
    logistic_value,
    parse_fmt_csv,
)
from techevo.cli import EXIT_OK, main
from test_report import stub_report

SYNTH_HOST = FIXTURES / "synth_host.csv"
SYNTH_SUB = FIXTURES / "synth_sub.csv"
POWER_HOST = FIXTURES / "power_host.csv"
POWER_SUB = FIXTURES / "power_sub.csv"

# Digests of the default report (schema 3) on the committed synthetic and
# power-law fixtures.
GOLDEN_DIGEST = "sha256:a2630feec3b86dc457c224c66421c4327a1ca7cd12f15ea2414d367eeb8134bb"
POWER_DIGEST = "sha256:b38caece01b09382a5d6fdf47e67565d8be1f29fbc2dfcc9bdf8c1ffa3764639"


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status} — {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_criterion_1_logistic_recovery():
    truth = LogisticParams(a=4.0, b=0.3, k=100.0)
    series = sample_series(truth, [i * 2.0 for i in range(21)])
    start = time.perf_counter()
    fit = fit_logistic(series)
    elapsed = time.perf_counter() - start
    worst = max(
        rel_err(fit.params.a, truth.a),
        rel_err(fit.params.b, truth.b),
        rel_err(fit.params.k, truth.k),
    )
    # One SSE evaluation at the start and one for each of six Newton steps.
    _verdict(
        1,
        "noise-free logistic recovery within 1e-6 in < 1 s, in 7 SSE evaluations",
        worst < 1e-6 and elapsed < 1.0 and fit.sse_evals == 7,
        f"worst rel err {worst:.2e}, {elapsed * 1e3:.0f} ms, {fit.sse_evals} evaluations",
    )


def _seeded_datasets(count: int):
    for i in range(count):
        rng = SplitMix64(10_000 + i)
        n = 3 + rng.next_u64() % 48
        x = [j * (8.0 / max(n - 1, 1)) + 2.0 * rng.uniform() for j in range(n)]
        sign_b = -1.0 if rng.uniform() < 0.5 else 1.0
        sign_a = -1.0 if rng.uniform() < 0.5 else 1.0
        slope = sign_b * (0.2 + 1.8 * rng.uniform())
        intercept = sign_a * (0.3 + 2.7 * rng.uniform())
        sigma = 0.05 + 0.45 * rng.uniform()
        y = [intercept + slope * xj + sigma * rng.normal() for xj in x]
        yield x, y


def test_criterion_2_ols_oracle_equivalence():
    worst = 0.0
    for x, y in _seeded_datasets(1000):
        pair = log_pair(x, y)
        mine = estimate_evolution(pair)
        ref = ols_normal_equations(*pair_logs(pair))
        worst = max(
            worst,
            rel_err(mine.b, ref["slope"]),
            rel_err(mine.log_a, ref["intercept"]),
            rel_err(mine.se_b, ref["se_slope"]),
            rel_err(mine.se_log_a, ref["se_intercept"]),
        )
    _verdict(
        2,
        "1000 seeded datasets match normal-equations oracle to 1e-10",
        worst < 1e-10,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_3_single_regressor_identity():
    worst_f = 0.0
    worst_p = 0.0
    for x, y in _seeded_datasets(1000):
        c = estimate_evolution(log_pair(x, y))
        worst_f = max(worst_f, rel_err(c.f_stat, c.t_b**2))
        worst_p = max(worst_p, abs(c.p_f - c.p_b))
    _verdict(
        3,
        "F = t^2 to 1e-8 and p_F = p_B to 1e-9 on all oracle datasets",
        worst_f < 1e-8 and worst_p < 1e-9,
        f"worst F rel {worst_f:.2e}, worst p abs {worst_p:.2e}",
    )


def test_criterion_4_coupling_identity():
    # Random parameter pairs; the sub curve's intercept is drawn so that a
    # common pre-saturation window exists (values in [1%, 99%] of k for
    # both series), then the identity must hold pointwise on the noise-free
    # generated pair.
    rng = SplitMix64(444)
    worst_ratio = 0.0
    for _ in range(50):
        hp = LogisticParams(
            a=6.0 * rng.uniform(), b=0.2 + 1.8 * rng.uniform(), k=10 + 490 * rng.uniform()
        )
        lo1 = solve_time(hp, 0.01 * hp.k)
        hi1 = solve_time(hp, 0.99 * hp.k)
        b2 = 0.2 + 1.8 * rng.uniform()
        sp = LogisticParams(
            a=b2 * 0.5 * (lo1 + hi1), b=b2, k=10 + 490 * rng.uniform()
        )
        t_lo = max(lo1, solve_time(sp, 0.01 * sp.k))
        t_hi = min(hi1, solve_time(sp, 0.99 * sp.k))
        spec = SyntheticSpec(
            host_params=hp, sub_params=sp, t_start=t_lo, t_end=t_hi, n_points=20
        )
        pair = generate_pair(spec)
        residual = coupling_residual(pair, hp, sp)
        scale = max(h / (hp.k - h) for h in pair.host_values)
        worst_ratio = max(worst_ratio, residual / (1e-9 * scale))
    _verdict(
        4,
        "odds-coupling identity residual < 1e-9 * scale on 50 random pairs",
        worst_ratio < 1.0,
        f"worst residual at {worst_ratio:.2e} of the allowance",
    )


def test_criterion_5_early_phase_consistency():
    # Both curves capped at 5% of saturation; the log-log slope must be the
    # growth-rate ratio b2/b1 within 2% over 20 random draws.
    rng = SplitMix64(555)
    cap = 0.05
    worst = 0.0
    for _ in range(20):
        b1 = 0.3 + 0.9 * rng.uniform()
        ratio = 0.4 + 2.1 * rng.uniform()
        b2 = b1 * ratio
        hp = LogisticParams(a=2 + 4 * rng.uniform(), b=b1, k=10 + 490 * rng.uniform())
        t_cap = solve_time(hp, cap * hp.k)
        sp = LogisticParams(
            a=b2 * t_cap + math.log(1 / cap - 1), b=b2, k=10 + 490 * rng.uniform()
        )
        t_lo = max(solve_time(hp, 0.001 * hp.k), solve_time(sp, 0.001 * sp.k))
        spec = SyntheticSpec(
            host_params=hp, sub_params=sp, t_start=t_lo, t_end=t_cap, n_points=40
        )
        fit = estimate_evolution(early_phase(generate_pair(spec), hp.k, sp.k, cap))
        worst = max(worst, rel_err(fit.b, b2 / b1))
    _verdict(
        5,
        "early-phase slope within 2% of b2/b1 over 20 random draws",
        worst < 0.02,
        f"worst rel deviation {worst:.4f}",
    )


def test_criterion_6_reported_table_reproduction():
    fit = EvolutionFit(
        b=0.35, se_b=0.02, n=51, log_a=-2.93, se_log_a=0.02,
        r2_adj=0.81, see=0.14, f_stat=213.63,
    )
    verdict = classify_pathway(fit, alpha=0.01)
    table = emit_table(stub_report(fit))
    ok = (
        verdict.label == "Underdevelopment"
        and "0.35*** (0.02)" in table
        and "0.81 (0.14)" in table
    )
    _verdict(
        6,
        "published-table values classify as Underdevelopment and render",
        ok,
        f"label={verdict.label}",
    )


def test_criterion_7_scale_invariance():
    host = parse_fmt_csv(SYNTH_HOST.read_text(), "host")
    sub = parse_fmt_csv(SYNTH_SUB.read_text(), "sub")
    base_fit = estimate_evolution(align(host, sub))
    base_label = classify_pathway(base_fit, 0.01).label
    worst = 0.0
    ok = True
    for c in (1e-3, 7.0, 1e3):
        for scaled_pair in (
            align(scaled(host, c), sub),
            align(host, scaled(sub, c)),
        ):
            fit = estimate_evolution(scaled_pair)
            worst = max(worst, abs(fit.b - base_fit.b))
            ok = ok and classify_pathway(fit, 0.01).label == base_label
    _verdict(
        7,
        "rescaling either series leaves B (1e-10) and the verdict unchanged",
        ok and worst < 1e-10,
        f"max |delta B| {worst:.2e}",
    )


def test_criterion_8_report_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    plots1, plots2 = tmp_path / "p1", tmp_path / "p2"
    args = ["report", "--host", str(SYNTH_HOST), "--sub", str(SYNTH_SUB)]
    assert main([*args, "--out", str(out1), "--plot", str(plots1)]) == EXIT_OK
    assert main([*args, "--out", str(out2), "--plot", str(plots2)]) == EXIT_OK

    blank = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', s)
    json_identical = blank(out1.read_text()) == blank(out2.read_text())
    svg_identical = all(
        (plots1 / name).read_bytes() == (plots2 / name).read_bytes()
        for name in ("host.svg", "sub.svg")
    )
    digest = json.loads(out1.read_text())["digest"]
    _verdict(
        8,
        "repeat runs byte-identical (modulo timestamp) with the frozen digest",
        json_identical and svg_identical and digest == GOLDEN_DIGEST,
        f"digest {digest}",
    )


def _default_report(host, sub, tmp_path) -> dict:
    out = tmp_path / "report.json"
    assert main(["report", "--host", str(host), "--sub", str(sub), "--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text(encoding="utf-8"))


def test_power_fixture_report_digest(tmp_path):
    report = _default_report(POWER_HOST, POWER_SUB, tmp_path)
    assert report["digest"] == determinism_digest(report) == POWER_DIGEST


def test_saved_schema_2_report_renders_alike(tmp_path):
    # Schema 2 also held the file names, the units (always ""), with_logistic
    # and the pathway's copies of evolution's b and p_b_vs_1.
    report = _default_report(SYNTH_HOST, SYNTH_SUB, tmp_path)
    assert report["digest"] == GOLDEN_DIGEST
    ev, prov = report["evolution"], report["provenance"]
    old = {
        **report,
        "schema_version": 2,
        "inputs": {
            "host_file": "synth_host.csv",
            "sub_file": "synth_sub.csv",
            "host_unit": "",
            "sub_unit": "",
            **report["inputs"],
        },
        "pathway": {**report["pathway"], "b_estimate": ev["b"], "p_b_vs_1": ev["p_b_vs_1"]},
        "provenance": {**prov, "config": {**prov["config"], "with_logistic": True}},
    }
    assert emit_table(old) == emit_table(report)


def test_criterion_9_monte_carlo_coverage():
    true_b, true_a, sigma, n = 0.35, 2.5, 0.1, 50
    host_params = LogisticParams(a=3.0, b=0.25, k=50.0)
    ts = [40.0 * i / (n - 1) for i in range(n)]
    host_vals = [logistic_value(host_params, t) for t in ts]
    hits = 0
    for seed in range(100):
        rng = SplitMix64(90_000 + seed)
        sub_vals = [
            true_a * h**true_b * math.exp(sigma * rng.normal()) for h in host_vals
        ]
        pair = align(FmtSeries("host", ts, host_vals), FmtSeries("sub", ts, sub_vals))
        c = estimate_evolution(pair)
        half = sp_stats.t.ppf(0.995, c.n - 2) * c.se_b
        if c.b - half <= true_b <= c.b + half:
            hits += 1
    _verdict(
        9,
        "99% CI covers the true B in at least 95 of 100 replications",
        hits >= 95,
        f"{hits}/100 covered",
    )


def test_criterion_10_noisy_logistic_recovery():
    # The default simulate pair at sigma = 0.05, seeds 1-20, host and sub:
    # every fitted k within 5% of the true k, none at the ceiling.
    worst, at_bound = 0.0, 0
    for seed in range(1, 21):
        spec = SyntheticSpec(
            host_params=LogisticParams(4.0, 0.3, 100.0),
            sub_params=LogisticParams(3.0, 0.2, 50.0),
            t_start=0.0, t_end=40.0, n_points=21, noise_sigma=0.05, seed=seed,
        )
        pair = generate_pair(spec)
        for series, truth in ((pair.host, spec.host_params), (pair.sub, spec.sub_params)):
            fit = fit_logistic(series)
            worst = max(worst, abs(fit.params.k / truth.k - 1.0))
            at_bound += fit.k_at_bound
    _verdict(
        10,
        "noisy (sigma 0.05) k within 5% on 40 default-pair series, none at the ceiling",
        worst <= 0.05 and at_bound == 0,
        f"worst |k/k_true - 1| {worst:.4f}, {at_bound} at the ceiling",
    )
