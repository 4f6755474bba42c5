"""Time series of Functional Measures of Technology (FMTs).

An FMT is an objectively measurable technical characteristic (thermal
efficiency, fuel-consumption efficiency, scale of plant utilization, ...)
whose trace over time records a technology's advance.  This module
ingests, validates and pairs such series; everything downstream consumes
the immutable value types defined here.

CSV format: UTF-8, header line ``t,value``, one ``<t>,<value>`` pair per
line, LF or CRLF endings, dot decimal separator, no thousands separators.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import (
    DuplicateTimestamp,
    InsufficientOverlap,
    MalformedRow,
    NonPositiveValue,
    TooFewPoints,
)

#: Minimum number of points any fitting operation accepts.
MIN_POINTS = 3

CSV_HEADER = "t,value"


class FmtSeries(Record):
    """One technology's FMT trace.

    Points are (t, value) pairs, strictly increasing in t, every value
    positive.  Construction sorts the points and is the one place a series
    is validated: finite positive values, then unique timestamps, then at
    least ``MIN_POINTS`` points.  Instances are immutable and safe to share
    across tasks.
    """

    __slots__ = ("name", "points", "unit")

    def __init__(
        self, name: str, points: tuple[tuple[float, float], ...], unit: str = ""
    ) -> None:
        pts = tuple((float(t), float(v)) for t, v in points)
        pts = tuple(sorted(pts, key=lambda p: p[0]))
        for t, v in pts:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise NonPositiveValue(f"series {name!r}: non-finite point ({t!r}, {v!r})")
            if v <= 0.0:
                raise NonPositiveValue(
                    f"series {name!r}: value {v!r} at t={t!r} is not positive"
                )
        for (t0, _), (t1, _) in zip(pts, pts[1:]):
            if t0 == t1:
                raise DuplicateTimestamp(f"series {name!r}: duplicate timestamp t={t0!r}")
        if len(pts) < MIN_POINTS:
            raise TooFewPoints(
                f"series {name!r} has {len(pts)} points; need >= {MIN_POINTS}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "unit", unit)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ts(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)

    @property
    def max_value(self) -> float:
        return max(self.values)

    def scaled(self, factor: float, name: str | None = None) -> "FmtSeries":
        """Return a copy with every value multiplied by ``factor`` > 0."""
        if factor <= 0.0:
            raise NonPositiveValue(f"scale factor {factor!r} is not positive")
        return FmtSeries(
            name=self.name if name is None else name,
            points=tuple((t, v * factor) for t, v in self.points),
            unit=self.unit,
        )


class AlignedPair(Record):
    """A host series H and a subsystem series P joined on shared timestamps.

    ``rows`` is derived, not passed: it holds (t, h_value, p_value) for
    exactly the timestamps present in both inputs with bit-identical float
    value, in increasing t order.  No interpolation.
    """

    __slots__ = ("host", "sub", "rows")

    def __init__(self, host: FmtSeries, sub: FmtSeries) -> None:
        sub_by_t = dict(sub.points)
        rows = tuple((t, h, sub_by_t[t]) for t, h in host.points if t in sub_by_t)
        if len(rows) < MIN_POINTS:
            raise InsufficientOverlap(
                f"{len(rows)} common timestamps between {host.name!r} "
                f"and {sub.name!r}; need >= {MIN_POINTS}"
            )
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def ts(self) -> tuple[float, ...]:
        return tuple(t for t, _, _ in self.rows)

    @property
    def host_values(self) -> tuple[float, ...]:
        return tuple(h for _, h, _ in self.rows)

    @property
    def sub_values(self) -> tuple[float, ...]:
        return tuple(p for _, _, p in self.rows)


def parse_fmt_csv(raw_text: str, series_name: str, unit: str = "") -> FmtSeries:
    """Parse ``t,value`` CSV text into an FmtSeries, sorted and validated by
    ``FmtSeries``.

    Parsing checks only the text itself: the header, the field count and
    that both fields are finite numbers.  Line numbers in those error
    messages are 1-based and refer to the raw text.
    """
    lines = raw_text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MalformedRow("line 1: empty input, expected header 't,value'")
    header = lines[0].strip().lstrip("﻿")
    if header != CSV_HEADER:
        raise MalformedRow(f"line 1: expected header {CSV_HEADER!r}, got {header!r}")

    points: list[tuple[float, float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split(",")
        if len(fields) != 2:
            raise MalformedRow(
                f"line {lineno}: expected 2 comma-separated fields, got {len(fields)}"
            )
        try:
            t = float(fields[0])
            v = float(fields[1])
        except ValueError:
            raise MalformedRow(f"line {lineno}: {stripped!r} is not a pair of numbers")
        if not (math.isfinite(t) and math.isfinite(v)):
            raise MalformedRow(f"line {lineno}: {stripped!r} contains a non-finite number")
        points.append((t, v))
    return FmtSeries(name=series_name, points=tuple(points), unit=unit)


def serialize_fmt_csv(series: FmtSeries) -> str:
    """Render a series back to CSV text.

    Floats use Python's shortest round-trip representation, so
    ``parse_fmt_csv(serialize_fmt_csv(s), s.name, s.unit) == s`` exactly.
    """
    lines = [CSV_HEADER]
    lines.extend(f"{t!r},{v!r}" for t, v in series.points)
    return "\n".join(lines) + "\n"


def align(host: FmtSeries, sub: FmtSeries) -> AlignedPair:
    """Join two series on exactly-equal timestamps (see ``AlignedPair``)."""
    return AlignedPair(host, sub)
