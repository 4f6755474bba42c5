"""techevo: S-curve fitting and evolutionary-coefficient estimation for
functional measures of technology.

A technology's objectively measurable characteristics (its functional
measures) trace S-shaped advances over time.  This package fits the
symmetric logistic curve to such series, estimates how fast a subsystem
technology evolves relative to its host via the log-log power law
P = A * H**B, reports the full least-squares inference block, and
classifies the evolutionary pathway (Underdevelopment / Parallel /
Development) from the test of B = 1.

Typical use::

    from techevo import align, estimate_evolution, classify_pathway

    pair = align(host_series, sub_series)
    fit = estimate_evolution(pair)
    verdict = classify_pathway(fit, alpha=0.01)

The ``techevo`` CLI wraps the same pipeline for CSV files.
"""

__version__ = "0.1.0"

from . import errors
from .coevolution import EvolutionFit, estimate_evolution
from .logistic import LogisticFit, LogisticParams, fit_logistic, logistic_value
from .pathway import (
    DEVELOPMENT,
    INCONCLUSIVE,
    PARALLEL,
    UNDERDEVELOPMENT,
    PathwayClass,
    classify_pathway,
)
from .report import (
    PlotData,
    determinism_digest,
    emit_plot_data,
    emit_table,
    report_to_json,
    run_pipeline,
    significance_stars,
)
from .series import (
    AlignedPair,
    FmtSeries,
    align,
    parse_fmt_csv,
    serialize_fmt_csv,
)
from .stats import f_sf, t_two_sided_p
from .synthetic import SplitMix64, SyntheticSpec, generate_pair

__all__ = [
    "__version__",
    "errors",
    # series
    "FmtSeries",
    "AlignedPair",
    "parse_fmt_csv",
    "serialize_fmt_csv",
    "align",
    # logistic
    "LogisticParams",
    "LogisticFit",
    "logistic_value",
    "fit_logistic",
    # stats
    "t_two_sided_p",
    "f_sf",
    # coevolution
    "EvolutionFit",
    "estimate_evolution",
    # pathway
    "PathwayClass",
    "classify_pathway",
    "UNDERDEVELOPMENT",
    "PARALLEL",
    "DEVELOPMENT",
    "INCONCLUSIVE",
    # synthetic
    "SyntheticSpec",
    "SplitMix64",
    "generate_pair",
    # report
    "PlotData",
    "run_pipeline",
    "report_to_json",
    "determinism_digest",
    "emit_table",
    "emit_plot_data",
    "significance_stars",
]
