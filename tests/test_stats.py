import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special as sp_special
from scipy import stats as sp_stats

from conftest import log_pair, ols_normal_equations, pair_logs, rel_err
from techevo import (
    SplitMix64,
    estimate_evolution,
    f_sf,
    t_two_sided_p,
)
from techevo.errors import DegenerateX
from techevo.stats import _incomplete_beta, _LineFit


class TestOlsSimple:
    """Simple (one-regressor) OLS: the ``_LineFit`` kernel, and the inference
    block ``estimate_evolution`` builds on it for ln sub on ln host."""

    def test_collinear(self):
        fit = estimate_evolution(log_pair([0, 1, 2], [0, 1, 2]))
        assert fit.b == pytest.approx(1.0, abs=1e-14)
        assert fit.log_a == pytest.approx(0.0, abs=1e-14)
        assert fit.r2 == 1.0

    def test_degenerate_x(self):
        with pytest.raises(DegenerateX):
            _LineFit([2.0, 2.0, 2.0, 2.0])

    def test_matches_normal_equations_n12(self):
        rng = SplitMix64(12)
        x = [i + rng.uniform() for i in range(12)]
        y = [1.3 + 0.7 * xi + 0.4 * (rng.uniform() - 0.5) for xi in x]
        pair = log_pair(x, y)
        mine = estimate_evolution(pair)
        ref = ols_normal_equations(*pair_logs(pair))
        assert rel_err(mine.b, ref["slope"]) < 1e-10
        assert rel_err(mine.log_a, ref["intercept"]) < 1e-10
        assert rel_err(mine.se_b, ref["se_slope"]) < 1e-10
        assert rel_err(mine.se_log_a, ref["se_intercept"]) < 1e-10
        assert rel_err(mine.see, ref["see"]) < 1e-10

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
            min_size=3,
            max_size=40,
            unique_by=lambda p: p[0],
        )
    )
    def test_residual_diagnostics(self, points):
        # Residuals of the kernel's line sum to zero and are orthogonal to x
        # up to rounding.
        x = [p[0] for p in points]
        y = [p[1] for p in points]
        assume(max(x) - min(x) > 1e-3)
        _, slope, intercept, *_ = _LineFit(x).fit(y)
        residuals = [yi - (intercept + slope * xi) for xi, yi in zip(x, y)]
        scale = len(x) * max(1.0, max(abs(v) for v in y), max(abs(v) for v in x))
        assert abs(math.fsum(residuals)) < 1e-9 * scale
        assert abs(math.fsum(e * xi for e, xi in zip(residuals, x))) < 1e-9 * scale * max(
            1.0, max(abs(v) for v in x)
        )

    def test_adjusted_r2_and_see_identities(self):
        rng = SplitMix64(77)
        x = [i * 0.5 + rng.uniform() for i in range(20)]
        y = [2.0 - 0.3 * xi + 0.2 * (rng.uniform() - 0.5) for xi in x]
        pair = log_pair(x, y)
        c = estimate_evolution(pair)
        lx, ly = pair_logs(pair)
        sse = _LineFit(lx).fit(ly)[0]
        n = c.n
        assert c.r2_adj == pytest.approx(1 - (1 - c.r2) * (n - 1) / (n - 2), rel=1e-12)
        assert rel_err(c.see**2 * (n - 2), sse) < 1e-10
        assert c.r2_adj <= c.r2 <= 1.0

    def test_f_equals_t_squared(self):
        rng = SplitMix64(5150)
        for _ in range(50):
            n = 3 + rng.next_u64() % 48
            x = [i + rng.uniform() for i in range(n)]
            y = [0.4 + 1.1 * xi + 0.3 * (rng.uniform() - 0.5) for xi in x]
            c = estimate_evolution(log_pair(x, y))
            assert rel_err(c.f_stat, c.t_b**2) < 1e-8

    def test_line_fit_squares_by_multiplication(self):
        # x ** 2 goes through the C library's pow, which need not be
        # correctly rounded; x * x is one IEEE-754 product everywhere.
        x = [0.0, 1.0, 2.0, 3.0]
        y = [0.6885526833201705, 0.09112051263863241, 0.5639483797158562, 0.6161450881383045]
        sse, slope, intercept, *_ = _LineFit(x).fit(y)
        residuals = [yi - (intercept + slope * xi) for xi, yi in zip(x, y)]
        # The data tell the two squarings apart, so the check below bites.
        assert any(r ** 2 != r * r for r in residuals)
        assert math.fsum(r ** 2 for r in residuals) != math.fsum(r * r for r in residuals)
        assert sse == math.fsum(r * r for r in residuals)


class TestStudentT:
    """The two-sided Student-t tail P(|T| >= |t|), which every t test of
    the report takes."""

    def test_cdf_at_zero(self):
        # The CDF is 1/2 at t = 0, so each tail holds half and p is 1.
        for df in (1, 5, 100):
            assert t_two_sided_p(0.0, df) == 1.0
            assert t_two_sided_p(-0.0, df) == 1.0

    def test_cauchy_closed_form(self):
        # df=1 is Cauchy: P(|T| >= |t|) = 1 - 2*arctan(|t|)/pi.
        for t in (-10.0, -1.0, -0.3, 0.5, 1.0, 7.5):
            assert rel_err(t_two_sided_p(t, 1), 1.0 - 2.0 * math.atan(abs(t)) / math.pi) < 1e-12
        assert t_two_sided_p(1.0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_large_df_normal_limit(self):
        assert abs(t_two_sided_p(1.96, 1000) - 0.05) < 2e-3

    def test_against_scipy_ten_digits(self):
        worst = 0.0
        for df in (1, 2, 3, 5, 10, 48, 100, 1000, 10**5, 10**6):
            for t in (-200.0, -30.0, -5.0, -1.96, -1.0, -0.2, 0.5, 1.0, 1.7, 2.5, 7.0, 50.0):
                mine = t_two_sided_p(t, df)
                ref = 2.0 * float(sp_special.stdtr(df, -abs(t)))
                if ref < 1e-290:  # both tails underflow together
                    assert mine < 1e-290
                    continue
                worst = max(worst, abs(mine - ref) / abs(ref))
        assert worst < 1e-10

    def test_two_sided_edge_cases(self):
        assert t_two_sided_p(math.inf, 10) == 0.0
        assert t_two_sided_p(0.0, 10) == 1.0
        with pytest.raises(ValueError):
            t_two_sided_p(math.nan, 10)
        with pytest.raises(ValueError):
            t_two_sided_p(1.0, 0)


class TestFDistribution:
    def test_against_scipy(self):
        for df2 in (1, 5, 48, 1000):
            for f in (0.01, 0.5, 1.0, 4.2, 213.63):
                ref = float(sp_stats.f.sf(f, 1, df2))
                assert rel_err(f_sf(f, 1, df2), ref) < 1e-10

    def test_edges(self):
        assert f_sf(0.0, 1, 10) == 1.0
        assert f_sf(math.inf, 1, 10) == 0.0


class TestIncompleteBeta:
    def test_against_scipy(self):
        worst = 0.0
        for a in (0.5, 1.0, 2.5, 10.0, 500.0, 5e5):
            for b in (0.5, 1.0, 3.5):
                for x in (1e-9, 0.001, 0.2, 0.5, 0.77, 0.999, 1 - 1e-9):
                    mine = _incomplete_beta(a, b, x, 1.0 - x)
                    ref = float(sp_special.betainc(a, b, x))
                    worst = max(worst, abs(mine - ref) / max(abs(ref), 1e-300))
        assert worst < 1e-10

    def test_bounds(self):
        assert _incomplete_beta(2.0, 3.0, 0.0, 1.0) == 0.0
        assert _incomplete_beta(2.0, 3.0, 1.0, 0.0) == 1.0


class TestTailPin:
    """Every tail pinned bit for bit: one SHA-256 over the ``repr`` of each
    value on a fixed grid.  The scipy comparisons above allow 1e-10, and the
    report digest sees 12 digits, so neither catches one drifted bit."""

    T_GRID = (0.0, -0.0, 1e-3, -1e-3, 1.96, -1.96, 50.0, -50.0, 1e200, -1e200, math.inf, -math.inf)
    DF_GRID = (1, 2, 3, 48, 10**4, 999_998)
    # The (a, b, x) grid of TestIncompleteBeta.test_against_scipy.
    BETA_GRID = [
        (a, b, x)
        for a in (0.5, 1.0, 2.5, 10.0, 500.0, 5e5)
        for b in (0.5, 1.0, 3.5)
        for x in (1e-9, 0.001, 0.2, 0.5, 0.77, 0.999, 1 - 1e-9)
    ]
    DIGEST = "999ba42fee0d4a19e95b12c3c50b5ab8b77194280278391f30cf870cbd297c8e"

    def test_tails_pinned(self):
        values = []
        for df in self.DF_GRID:
            for t in self.T_GRID:
                values += [t_two_sided_p(t, df), f_sf(t, 1, df), f_sf(t * t, 1, df)]
        values += [_incomplete_beta(a, b, x, 1.0 - x) for a, b, x in self.BETA_GRID]
        text = "\n".join(map(repr, values))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


def test_ols_deterministic():
    x = [0.1 * i for i in range(17)]
    y = [math.sin(i) + 2 + 0.5 * xi for i, xi in enumerate(x)]
    pair = log_pair(x, y)
    assert estimate_evolution(pair) == estimate_evolution(pair)


def test_normal_equation_oracle_self_check():
    # The oracle itself must reproduce a hand-computable case.
    ref = ols_normal_equations([0, 1, 2], [1, 3, 5])
    assert ref["slope"] == pytest.approx(2.0)
    assert ref["intercept"] == pytest.approx(1.0)
    assert np.isclose(ref["sse"], 0.0)
