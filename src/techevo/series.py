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
from collections.abc import Iterable
from itertools import compress, islice
from operator import lt

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
    """One technology's FMT trace, stored as two columns.

    ``ts`` and ``values`` are tuples of floats of equal length, strictly
    increasing in t, every value positive; ``points`` pairs them up.
    Construction floats both columns, sorts them together by t (stably)
    and is the one place a series is validated: finite positive values,
    then unique timestamps, then at least ``MIN_POINTS`` points.
    Instances are immutable and safe to share across tasks.
    """

    __slots__ = ("name", "ts", "values")

    def __init__(self, name: str, ts: Iterable[float], values: Iterable[float]) -> None:
        ts, values = list(map(float, ts)), list(map(float, values))
        if len(ts) != len(values):
            raise ValueError(f"series {name!r}: {len(ts)} times but {len(values)} values")
        # Accept at once times that strictly increase from and to finite
        # ends, so all are finite and distinct, and values whose sum is
        # finite (none is inf or nan) and whose least is positive.
        if (
            len(ts) >= MIN_POINTS
            and math.isfinite(ts[0])
            and math.isfinite(ts[-1])
            and all(map(lt, ts, islice(ts, 1, None)))
            and math.isfinite(sum(values))
            and min(values) > 0.0
        ):
            super().__init__(name, tuple(ts), tuple(values))
            return
        order = sorted(range(len(ts)), key=ts.__getitem__)
        ts = tuple(map(ts.__getitem__, order))
        values = tuple(map(values.__getitem__, order))
        for t, v in zip(ts, values):
            if not (math.isfinite(t) and math.isfinite(v)):
                raise NonPositiveValue(f"series {name!r}: non-finite point ({t!r}, {v!r})")
            if v <= 0.0:
                raise NonPositiveValue(
                    f"series {name!r}: value {v!r} at t={t!r} is not positive"
                )
        for t0, t1 in zip(ts, ts[1:]):
            if t0 == t1:
                raise DuplicateTimestamp(f"series {name!r}: duplicate timestamp t={t0!r}")
        if len(ts) < MIN_POINTS:
            raise TooFewPoints(f"series {name!r} has {len(ts)} points; need >= {MIN_POINTS}")
        super().__init__(name, ts, values)

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.ts, self.values))


class AlignedPair(Record):
    """A host series H and a subsystem series P joined on shared timestamps.

    ``ts``, ``host_values`` and ``sub_values`` are derived, not passed: the
    timestamps present in both inputs with bit-identical float value, in
    increasing t order, and the host's and the sub's values at them.  No
    interpolation.
    """

    __slots__ = ("host", "sub", "ts", "host_values", "sub_values")

    def __init__(self, host: FmtSeries, sub: FmtSeries) -> None:
        if host.ts == sub.ts:  # a shared grid: every timestamp is common
            super().__init__(host, sub, host.ts, host.values, sub.values)
            return
        sub_by_t = dict(zip(sub.ts, sub.values))
        shared = [t in sub_by_t for t in host.ts]
        ts = tuple(compress(host.ts, shared))
        if len(ts) < MIN_POINTS:
            raise InsufficientOverlap(
                f"{len(ts)} common timestamps between {host.name!r} "
                f"and {sub.name!r}; need >= {MIN_POINTS}"
            )
        host_values = tuple(compress(host.values, shared))
        super().__init__(host, sub, ts, host_values, tuple(map(sub_by_t.__getitem__, ts)))

    def __len__(self) -> int:
        return len(self.ts)


def parse_fmt_csv(raw_text: str, series_name: str) -> FmtSeries:
    """Parse ``t,value`` CSV text into an FmtSeries, sorted and validated by
    ``FmtSeries``.

    Parsing checks only the text itself: the header, the field count and
    that both fields are finite numbers.  Lines end at LF alone (a CRLF's
    CR is stripped with the other blanks), so line numbers in those error
    messages are 1-based and count lines as an editor shows them.
    """
    lines = raw_text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MalformedRow("line 1: empty input, expected header 't,value'")
    header = lines[0].strip().lstrip("﻿")
    if header != CSV_HEADER:
        raise MalformedRow(f"line 1: expected header {CSV_HEADER!r}, got {header!r}")

    ts: list[float] = []
    values: list[float] = []
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
        ts.append(t)
        values.append(v)
    return FmtSeries(series_name, ts, values)


def serialize_fmt_csv(series: FmtSeries) -> str:
    """Render a series back to CSV text.

    Floats use Python's shortest round-trip representation, so
    ``parse_fmt_csv(serialize_fmt_csv(s), s.name) == s`` exactly.
    """
    lines = [CSV_HEADER]
    lines.extend(f"{t!r},{v!r}" for t, v in zip(series.ts, series.values))
    return "\n".join(lines) + "\n"


def align(host: FmtSeries, sub: FmtSeries) -> AlignedPair:
    """Join two series on exactly-equal timestamps (see ``AlignedPair``)."""
    return AlignedPair(host, sub)
