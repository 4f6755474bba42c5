"""Exception hierarchy.

Leaf names match the error conditions documented on each operation.  Each
category declares the CLI's exit code for it as ``exit_code``.
"""


class TechEvoError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = 1


class InputError(TechEvoError):
    """Bad input data: CSV parsing or series validation."""

    exit_code = 10


class AlignmentError(TechEvoError):
    """Two series cannot be paired on common timestamps."""

    exit_code = 11


class FittingError(TechEvoError):
    """S-curve fitting or curve evaluation failed."""

    exit_code = 12


class EstimationError(TechEvoError):
    """The log-log regression cannot be carried out."""

    exit_code = 13


class ConfigError(TechEvoError):
    """Invalid analysis configuration."""

    exit_code = 14


class MalformedRow(InputError):
    """A CSV line is not two comma-separated decimal numbers."""


class NonPositiveValue(InputError):
    """A series value is zero or negative (logs are taken downstream)."""


class DuplicateTimestamp(InputError):
    """Two points in one series share the same time coordinate."""


class TooFewPoints(InputError):
    """Fewer points than the operation needs (minimum 3)."""


class InsufficientOverlap(AlignmentError):
    """Host and subsystem series share fewer than 3 timestamps."""


class NotSShaped(FittingError):
    """The series does not rise, so no positive growth rate fits it."""


class DegenerateX(EstimationError):
    """Regressor has zero variance; the slope is unidentified."""


class InvalidAlpha(ConfigError):
    """Significance level must lie strictly between 0 and 1."""
