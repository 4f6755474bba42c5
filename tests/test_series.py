import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_series
from techevo import (
    FmtSeries,
    LogisticParams,
    SyntheticSpec,
    align,
    classify_pathway,
    emit_plot_data,
    estimate_evolution,
    fit_logistic,
    ols_simple,
    parse_fmt_csv,
    relation_constant,
    serialize_fmt_csv,
)
from techevo._record import Record
from techevo.errors import (
    DuplicateTimestamp,
    InsufficientOverlap,
    MalformedRow,
    NonPositiveValue,
    TooFewPoints,
)


def make_series(ts, vs, name="s"):
    return FmtSeries(name, tuple(zip(ts, vs)))


class TestParse:
    def test_basic(self):
        s = parse_fmt_csv("t,value\n0,1\n1,2\n2,4", "s")
        assert len(s) == 3
        assert s.points == ((0.0, 1.0), (1.0, 2.0), (2.0, 4.0))

    def test_duplicate_timestamp(self):
        with pytest.raises(DuplicateTimestamp):
            parse_fmt_csv("t,value\n0,1\n0,2", "s")

    def test_non_positive_value(self):
        with pytest.raises(NonPositiveValue):
            parse_fmt_csv("t,value\n0,-1\n1,2\n2,3", "s")
        with pytest.raises(NonPositiveValue):
            parse_fmt_csv("t,value\n0,1\n1,0\n2,3", "s")

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            parse_fmt_csv("t,value\n0,1\n1,2", "s")

    def test_bad_header(self):
        with pytest.raises(MalformedRow, match="line 1"):
            parse_fmt_csv("time,value\n0,1\n1,2\n2,3", "s")

    def test_malformed_row_reports_line(self):
        with pytest.raises(MalformedRow, match="line 3"):
            parse_fmt_csv("t,value\n0,1\n1,zap\n2,3", "s")

    def test_wrong_field_count(self):
        with pytest.raises(MalformedRow, match="line 2"):
            parse_fmt_csv("t,value\n0,1,9\n1,2\n2,3", "s")

    def test_non_finite_rejected(self):
        with pytest.raises(MalformedRow):
            parse_fmt_csv("t,value\n0,nan\n1,2\n2,3", "s")
        with pytest.raises(MalformedRow):
            parse_fmt_csv("t,value\n0,inf\n1,2\n2,3", "s")

    def test_crlf_and_trailing_newline(self):
        s = parse_fmt_csv("t,value\r\n0,1\r\n1,2\r\n2,4\r\n", "s")
        assert s.ts == (0.0, 1.0, 2.0)

    def test_rows_sorted_by_t(self):
        s = parse_fmt_csv("t,value\n2,4\n0,1\n1,2", "s")
        assert s.ts == (0.0, 1.0, 2.0)
        assert s.values == (1.0, 2.0, 4.0)


class TestSeriesInvariants:
    def test_too_few_points_direct(self):
        with pytest.raises(TooFewPoints):
            make_series([0, 1], [1, 2])

    def test_duplicate_direct(self):
        with pytest.raises(DuplicateTimestamp):
            make_series([0, 0, 1], [1, 2, 3])

    def test_non_positive_direct(self):
        with pytest.raises(NonPositiveValue):
            make_series([0, 1, 2], [1, -2, 3])

    def test_immutable(self):
        def records():
            params = LogisticParams(4.0, 0.3, 100.0)
            host = sample_series(params, range(0, 41, 2), "host")
            sub = make_series([0, 1, 2, 3], [1, 2, 4, 9], "sub")
            pair = align(host, host.scaled(2.0, "double"))
            evolution = estimate_evolution(pair)
            return [
                host,
                pair,
                params,
                fit_logistic(host),
                ols_simple([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 5.0, 8.0]),
                evolution,
                relation_constant(params, LogisticParams(3.0, 0.2, 50.0)),
                classify_pathway(evolution),
                emit_plot_data(sub, params),
                SyntheticSpec(params, params, 0.0, 40.0, 21),
            ]

        firsts, seconds = records(), records()
        assert {type(r) for r in firsts} == set(Record.__subclasses__())
        for a, b in zip(firsts, seconds):
            assert a is not b and a == b and hash(a) == hash(b)
            assert a._asdict() == b._asdict() and list(a._asdict()) == list(a.__slots__)
            assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
            for name in (*a.__slots__, "extra"):
                with pytest.raises(AttributeError):
                    setattr(a, name, None)
                with pytest.raises(AttributeError):
                    delattr(a, name)
            assert a == b  # the refused assignments changed nothing
        assert firsts[0] != firsts[0].scaled(1.0, "other")

        # synthetic._noisy_values prints a LogisticParams in its error message.
        assert repr(firsts[2]) == "LogisticParams(a=4.0, b=0.3, k=100.0)"
        fit = repr(firsts[3])
        assert fit.startswith("LogisticFit(params=LogisticParams(a=")
        assert "sse_linearized=" in fit and "r2_linearized=" in fit
        assert "k_search_trace" not in fit and "sse_evals" not in fit
        assert "residuals" not in repr(firsts[4])

    def test_scaled(self):
        s = make_series([0, 1, 2], [1, 2, 3])
        assert s.scaled(2.0).values == (2.0, 4.0, 6.0)
        with pytest.raises(NonPositiveValue):
            s.scaled(0.0)


class TestRoundTrip:
    def test_identity_basic(self):
        s = make_series([0.0, 1.5, 2.25], [1.0, 0.1, 12.75])
        assert parse_fmt_csv(serialize_fmt_csv(s), "s") == s

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e9, 1e9, allow_nan=False),
                st.floats(1e-9, 1e9, allow_nan=False, exclude_min=True),
            ),
            min_size=3,
            max_size=30,
            unique_by=lambda p: p[0],
        )
    )
    def test_identity_property(self, points):
        s = FmtSeries("s", tuple(points))
        assert parse_fmt_csv(serialize_fmt_csv(s), "s") == s


class TestAlign:
    def test_intersection(self):
        host = make_series([0, 1, 2, 3], [1, 2, 3, 4], "h")
        sub = make_series([1, 2, 3, 4], [5, 6, 7, 8], "p")
        pair = align(host, sub)
        assert pair.ts == (1.0, 2.0, 3.0)
        assert pair.rows == ((1.0, 2.0, 5.0), (2.0, 3.0, 6.0), (3.0, 4.0, 7.0))

    def test_identical_grids(self):
        host = make_series([0, 1, 2, 3, 4], [1, 2, 3, 4, 5], "h")
        sub = make_series([0, 1, 2, 3, 4], [2, 3, 4, 5, 6], "p")
        assert len(align(host, sub)) == 5

    def test_insufficient_overlap(self):
        host = make_series([0, 1, 9], [1, 2, 3], "h")
        sub = make_series([5, 6, 7], [1, 2, 3], "p")
        with pytest.raises(InsufficientOverlap):
            align(host, sub)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(0, 30), min_size=3, max_size=20, unique=True),
        st.lists(st.integers(0, 30), min_size=3, max_size=20, unique=True),
    )
    def test_symmetric_row_count(self, ts_a, ts_b):
        a = FmtSeries("a", tuple((float(t), 1.0 + t) for t in sorted(ts_a)))
        b = FmtSeries("b", tuple((float(t), 2.0 + t) for t in sorted(ts_b)))
        common = set(a.ts) & set(b.ts)
        if len(common) < 3:
            with pytest.raises(InsufficientOverlap):
                align(a, b)
            with pytest.raises(InsufficientOverlap):
                align(b, a)
        else:
            ab = align(a, b)
            ba = align(b, a)
            assert len(ab) == len(ba)
            assert ab.ts == ba.ts

    def test_preserves_full_inputs(self):
        host = make_series([0, 1, 2, 3], [1, 2, 3, 4], "h")
        sub = make_series([1, 2, 3, 4], [5, 6, 7, 8], "p")
        pair = align(host, sub)
        assert len(pair.host) == 4
        assert len(pair.sub) == 4


def test_values_must_be_finite():
    with pytest.raises(NonPositiveValue):
        FmtSeries("s", ((0.0, 1.0), (1.0, math.inf), (2.0, 3.0)))
