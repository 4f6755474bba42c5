"""Evolutionary-pathway verdicts.

A subsystem whose evolutionary coefficient is significantly below 1
advances more slowly than its host: the underdevelopment pathway.  The
symmetric labels (Development for B significantly above 1, Parallel for
B exactly 1) complete the scheme; a point estimate away from 1 whose
test cannot reject B = 1 stays Inconclusive.
"""

from __future__ import annotations

from ._record import Record
from .coevolution import EvolutionFit
from .errors import InvalidAlpha

UNDERDEVELOPMENT = "Underdevelopment"
PARALLEL = "Parallel"
DEVELOPMENT = "Development"
INCONCLUSIVE = "Inconclusive"

LABELS = (UNDERDEVELOPMENT, PARALLEL, DEVELOPMENT, INCONCLUSIVE)

#: |b - 1| at or below this counts as exactly parallel.
PARALLEL_TOL = 1e-12
#: Default significance level of the test of b = 1.
DEFAULT_ALPHA = 0.01


class PathwayClass(Record):
    """Verdict plus the basis it was decided on.  ``direction`` is "below",
    "above" or "equal" relative to b = 1.  The fields' order is the key
    order of the report's ``pathway`` block.
    """

    __slots__ = ("label", "alpha", "b_estimate", "p_b_vs_1", "direction")

    def __init__(
        self, label: str, alpha: float, b_estimate: float, p_b_vs_1: float, direction: str
    ) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "b_estimate", b_estimate)
        object.__setattr__(self, "p_b_vs_1", p_b_vs_1)
        object.__setattr__(self, "direction", direction)


def classify_pathway(fit: EvolutionFit, alpha: float = DEFAULT_ALPHA) -> PathwayClass:
    """Classify a fit by the two-sided test of b = 1 at level ``alpha``."""
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha {alpha!r} outside (0, 1)")
    b = fit.b
    p = fit.p_b_vs_1
    if abs(b - 1.0) <= PARALLEL_TOL:
        label, direction = PARALLEL, "equal"
    elif b < 1.0:
        label = UNDERDEVELOPMENT if p < alpha else INCONCLUSIVE
        direction = "below"
    else:
        label = DEVELOPMENT if p < alpha else INCONCLUSIVE
        direction = "above"
    return PathwayClass(
        label=label,
        alpha=alpha,
        b_estimate=b,
        p_b_vs_1=p,
        direction=direction,
    )
