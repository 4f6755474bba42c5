import copy
import math
import pickle
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_series, scaled
from techevo import (
    EvolutionFit,
    FmtSeries,
    LogisticParams,
    PathwayClass,
    SyntheticSpec,
    align,
    classify_pathway,
    emit_plot_data,
    estimate_evolution,
    fit_logistic,
    parse_fmt_csv,
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
    return FmtSeries(name, ts, vs)


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

    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_empty_input(self, text):
        with pytest.raises(MalformedRow, match="line 1: empty input"):
            parse_fmt_csv(text, "s")

    def test_blank_lines_are_skipped(self):
        s = parse_fmt_csv("t,value\n1,2\n\n2,3\n3,4\n\n\n", "s")
        assert s.points == ((1.0, 2.0), (2.0, 3.0), (3.0, 4.0))

    def test_line_numbers_count_blank_lines(self):
        with pytest.raises(MalformedRow, match="line 5: "):
            parse_fmt_csv("t,value\n1,2\n\n2,3\nx\n", "s")

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

    @pytest.mark.parametrize(
        "text, line",
        [
            ("t,value\n0,1\x0c1,2\n2,3\n", 2),
            ("t,value\n0,1\x1c\n2,x\n", 3),
            ("t,value\n0,1\x0b2,3\n1,2\n2,3\n", 2),
            ("t,value\n0,1\x1d\x1e\n1,2\n2,zap\n", 4),
            ("t,value\n0,1\x852,3\n1,2\n2,3\n", 2),
            ("t,value\n0,1\u2028\n1,2\u2029\n2,zap\n", 4),
            ("t,value\r0,1\r1,2\r2,3\r", 1),
        ],
        ids=["FF", "FS", "VT", "GS-RS", "NEL", "LS-PS", "lone-CR"],
    )
    def test_only_lf_ends_a_line(self, text, line):
        # MalformedRow names the line an editor shows: the other characters
        # str.splitlines breaks at stay inside their line.
        with pytest.raises(MalformedRow, match=f"line {line}: "):
            parse_fmt_csv(text, "s")

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
            pair = align(host, scaled(host, 2.0))
            evolution = estimate_evolution(pair)
            return [
                host,
                pair,
                params,
                fit_logistic(host),
                evolution,
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
        assert firsts[0] != FmtSeries("other", firsts[0].ts, firsts[0].values)

        # synthetic._noisy_values prints a LogisticParams in its error message.
        assert repr(firsts[2]) == "LogisticParams(a=4.0, b=0.3, k=100.0)"
        fit = repr(firsts[3])
        assert fit.startswith("LogisticFit(params=LogisticParams(a=")
        assert "sse_log=" in fit and "r2_log=" in fit and "k_at_bound=" in fit
        assert "sse_evals" not in fit
        assert "residuals" not in repr(firsts[4])

    def test_record_checks(self):
        with pytest.raises(ValueError, match="must be finite"):
            LogisticParams(math.nan, 0.3, 100.0)
        pair = align(
            make_series([0, 1, 2, 3], [1, 2, 4, 9], "h"),
            make_series([0, 1, 2, 3], [2, 3, 5, 7], "p"),
        )
        fit = estimate_evolution(pair)
        summary = {
            name: getattr(fit, name)
            for name in ("b", "se_b", "n", "log_a", "se_log_a", "r2", "f_stat", "see")
        }
        assert EvolutionFit(**summary) == fit
        with pytest.raises(ValueError, match="n must be >= 3"):
            EvolutionFit(**{**summary, "n": 2})
        with pytest.raises(ValueError, match="standard errors cannot be negative"):
            EvolutionFit(**{**summary, "se_b": -0.1})

    def test_record_arguments(self):
        params = LogisticParams(4.0, 0.3, 100.0)
        assert LogisticParams(4.0, k=100.0, b=0.3) == params
        with pytest.raises(TypeError, match="takes 3 fields, got 4"):
            LogisticParams(4.0, 0.3, 100.0, 1.0)
        with pytest.raises(TypeError, match="no field 'c'"):
            LogisticParams(4.0, 0.3, 100.0, c=1.0)
        with pytest.raises(TypeError, match="field 'a' twice"):
            LogisticParams(4.0, 0.3, 100.0, a=4.0)
        with pytest.raises(TypeError, match="missing field 'k'"):
            LogisticParams(4.0, 0.3)
        spec = SyntheticSpec(params, params, 0.0, 40.0, 21)
        assert spec.noise_sigma == 0.0 and spec.seed == 0

    def test_records_equal_only_their_own_class(self):
        params = LogisticParams(4.0, 0.3, 100.0)
        assert params != (4.0, 0.3, 100.0)
        assert params != PathwayClass(4.0, 0.3, 100.0)
        assert params.__eq__(PathwayClass(4.0, 0.3, 100.0)) is NotImplemented


_time = st.one_of(st.integers(-10**6, 10**6), st.floats(-1e9, 1e9, allow_nan=False))
_value = st.one_of(
    st.integers(1, 10**6), st.floats(1e-9, 1e9, allow_nan=False, exclude_min=True)
)


class TestColumns:
    """A series is stored as its two columns, sorted together by t."""

    @given(st.lists(st.tuples(_time, _value), min_size=3, max_size=30,
                    unique_by=lambda p: float(p[0])))
    def test_points_are_the_inputs_sorted_by_t(self, points):
        ts, vs = [t for t, _ in points], [v for _, v in points]
        expected = tuple(sorted(zip(map(float, ts), map(float, vs)), key=itemgetter(0)))
        assert FmtSeries("s", ts, vs).points == expected

    @given(st.lists(st.tuples(_time, _value), min_size=3, max_size=30,
                    unique_by=lambda p: float(p[0])))
    def test_increasing_times_are_stored_as_given(self, points):
        points = sorted(points, key=lambda p: float(p[0]))
        s = FmtSeries("s", [t for t, _ in points], [v for _, v in points])
        assert s.points == tuple((float(t), float(v)) for t, v in points)
        assert type(s.ts) is type(s.values) is tuple

    @pytest.mark.parametrize(
        "ts, vs, error, message",
        [
            ([0, 1, 2], [1, math.nan, 3], NonPositiveValue, "non-finite point (1.0, nan)"),
            ([0, 1, 2], [1, 2, math.inf], NonPositiveValue, "non-finite point (2.0, inf)"),
            ([0, 1, 2], [1, 0.0, -1], NonPositiveValue, "value 0.0 at t=1.0 is not positive"),
            ([0, 1, math.inf], [1, 2, 3], NonPositiveValue, "non-finite point (inf, 3.0)"),
            ([-math.inf, 1, 2], [1, 2, 3], NonPositiveValue, "non-finite point (-inf, 1.0)"),
            ([0, 1, 1, 2], [1, 2, 3, 4], DuplicateTimestamp, "duplicate timestamp t=1.0"),
            ([-0.0, 0.0, 1], [1, 2, 3], DuplicateTimestamp, "duplicate timestamp t="),
            ([0, 1], [1, 2], TooFewPoints, "has 2 points; need >= 3"),
        ],
    )
    def test_increasing_times_are_checked_as_any(self, ts, vs, error, message):
        for order in (slice(None), slice(None, None, -1)):
            with pytest.raises(error) as exc:
                FmtSeries("s", ts[order], vs[order])
            assert message in str(exc.value)

    def test_values_whose_sum_overflows_are_accepted(self):
        assert FmtSeries("s", [0, 1, 2], [1e308] * 3).values == (1e308,) * 3

    def test_columns_are_stored_not_rebuilt(self):
        s = make_series([2, 0, 1, 3], [4, 1, 2, 8])
        assert s.ts is s.ts and s.values is s.values
        assert s.ts == (0.0, 1.0, 2.0, 3.0) and s.values == (1.0, 2.0, 4.0, 8.0)
        pair = align(s, make_series([1, 2, 3, 4], [5, 6, 7, 8], "p"))
        assert pair.ts is pair.ts and pair.host_values is pair.host_values
        assert pair.sub_values is pair.sub_values

    def test_column_lengths_must_match(self):
        with pytest.raises(ValueError, match="3 times but 2 values"):
            FmtSeries("s", [0, 1, 2], [1, 2])


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
        s = FmtSeries("s", [t for t, _ in points], [v for _, v in points])
        assert parse_fmt_csv(serialize_fmt_csv(s), "s") == s


class TestAlign:
    def test_intersection(self):
        host = make_series([0, 1, 2, 3], [1, 2, 3, 4], "h")
        sub = make_series([1, 2, 3, 4], [5, 6, 7, 8], "p")
        pair = align(host, sub)
        assert pair.ts == (1.0, 2.0, 3.0)
        assert pair.host_values == (2.0, 3.0, 4.0)
        assert pair.sub_values == (5.0, 6.0, 7.0)

    def test_identical_grids(self):
        host = make_series([0, 1, 2, 3, 4], [1, 2, 3, 4, 5], "h")
        sub = make_series([0, 1, 2, 3, 4], [2, 3, 4, 5, 6], "p")
        assert len(align(host, sub)) == 5

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_identical_grids_give_the_join(self, zero):
        # -0.0 == 0.0, so the join pairs them and keeps the host's time.
        host = make_series([-1, 0.0, 2.5, 3], [1, 2, 3, 4], "h")
        sub = make_series([-1, zero, 2.5, 3], [5, 6, 7, 8], "p")
        pair = align(host, sub)
        assert list(zip(pair.ts, pair.host_values, pair.sub_values)) == [
            (t, v, dict(zip(sub.ts, sub.values))[t]) for t, v in zip(host.ts, host.values)
        ]
        assert [math.copysign(1.0, t) for t in pair.ts] == [-1.0, 1.0, 1.0, 1.0]

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
        ts_a, ts_b = sorted(ts_a), sorted(ts_b)
        a = FmtSeries("a", ts_a, [1.0 + t for t in ts_a])
        b = FmtSeries("b", ts_b, [2.0 + t for t in ts_b])
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
        FmtSeries("s", (0.0, 1.0, 2.0), (1.0, math.inf, 3.0))
