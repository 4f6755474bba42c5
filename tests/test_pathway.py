import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

from techevo import (
    DEVELOPMENT,
    INCONCLUSIVE,
    PARALLEL,
    UNDERDEVELOPMENT,
    EvolutionFit,
    PathwayClass,
    classify_pathway,
)
from techevo.errors import InvalidAlpha


def summary(b, se_b, n):
    return EvolutionFit(b=b, se_b=se_b, n=n)


class TestClassify:
    def test_reported_underdevelopment_case(self):
        # B = 0.35 with SE 0.02 over 51 observations: t vs 1 is -32.5,
        # overwhelmingly below 1 at the 1% level.
        fit = summary(0.35, 0.02, 51)
        verdict = classify_pathway(fit, alpha=0.01)
        assert verdict == PathwayClass(label=UNDERDEVELOPMENT, alpha=0.01, direction="below")
        assert fit.b == 0.35
        assert fit.t_b_vs_1 == pytest.approx(-32.5)
        assert fit.p_b_vs_1 < 1e-20

    def test_exact_parallel(self):
        verdict = classify_pathway(summary(1.0, 0.3, 10), alpha=0.05)
        assert verdict.label == PARALLEL
        assert verdict.direction == "equal"

    def test_inconclusive_weak_evidence(self):
        # |t| = 0.2 against B=1, p ~ 0.85 per the t CDF oracle.
        fit = summary(0.9, 0.5, 10)
        oracle_p = 2 * sp_stats.t.sf(0.2, 8)
        assert fit.p_b_vs_1 == pytest.approx(oracle_p, rel=1e-9)
        assert oracle_p > 0.05
        verdict = classify_pathway(fit, alpha=0.05)
        assert verdict.label == INCONCLUSIVE

    def test_development(self):
        verdict = classify_pathway(summary(1.4, 0.05, 30), alpha=0.01)
        assert verdict.label == DEVELOPMENT
        assert verdict.direction == "above"

    def test_invalid_alpha(self):
        fit = summary(0.5, 0.1, 10)
        for alpha in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(InvalidAlpha):
                classify_pathway(fit, alpha)

    def test_alpha_recorded(self):
        verdict = classify_pathway(summary(0.5, 0.01, 20), alpha=0.1)
        assert verdict.alpha == 0.1


@settings(deadline=None, max_examples=100)
@given(
    b=st.floats(0.01, 3.0),
    se=st.floats(1e-6, 2.0),
    n=st.integers(3, 500),
    alpha=st.floats(0.001, 0.5),
)
def test_label_matches_definition(b, se, n, alpha):
    fit = summary(b, se, n)
    verdict = classify_pathway(fit, alpha)
    if abs(b - 1.0) <= 1e-12:
        assert verdict.label == PARALLEL
    elif b < 1.0 and fit.p_b_vs_1 < alpha:
        assert verdict.label == UNDERDEVELOPMENT
    elif b > 1.0 and fit.p_b_vs_1 < alpha:
        assert verdict.label == DEVELOPMENT
    else:
        assert verdict.label == INCONCLUSIVE


@settings(deadline=None, max_examples=100)
@given(
    b=st.floats(0.01, 3.0),
    se=st.floats(1e-4, 2.0),
    shrink=st.floats(0.01, 0.99),
    n=st.integers(3, 200),
    alpha=st.floats(0.001, 0.5),
)
def test_shrinking_se_never_weakens_verdict(b, se, shrink, n, alpha):
    before = classify_pathway(summary(b, se, n), alpha)
    after = classify_pathway(summary(b, se * shrink, n), alpha)
    if before.label in (UNDERDEVELOPMENT, DEVELOPMENT):
        assert after.label == before.label
