import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uptakecast.errors import EmptyOverlap, SeriesTooShort
from uptakecast.timeseries import (
    MonthStamp,
    TimeSeries,
    UptakeSeries,
    align,
    difference,
    rmse,
)

from conftest import make_series


class TestMonthStamp:
    def test_ordering(self):
        assert MonthStamp(2011, 1) < MonthStamp(2011, 2) < MonthStamp(2012, 1)
        assert MonthStamp(2013, 5) == MonthStamp(2013, 5)

    def test_december_wraps(self):
        assert MonthStamp(2012, 12).plus(1) == MonthStamp(2013, 1)

    def test_plus_roundtrip(self):
        stamp = MonthStamp(2014, 7)
        assert stamp.plus(18).plus(-18) == stamp

    def test_month_range_enforced(self):
        with pytest.raises(ValueError):
            MonthStamp(2011, 0)
        with pytest.raises(ValueError):
            MonthStamp(2011, 13)


class TestTimeSeries:
    def test_end_and_lookup(self):
        s = make_series([1, 2, 3])
        assert s.end == MonthStamp(2011, 3)
        assert s.values[s.index_of(MonthStamp(2011, 2))] == 2

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            make_series([])
        with pytest.raises(ValueError):
            make_series([1.0, np.nan])

    def test_values_immutable(self):
        s = make_series([1, 2, 3])
        with pytest.raises(ValueError):
            s.values[0] = 9

    def test_uptake_rejects_negative_allows_over_100(self):
        UptakeSeries(make_series([0, 50, 110]))  # catch-up months exceed 100
        with pytest.raises(ValueError):
            UptakeSeries(make_series([-1, 5]))


class TestAlign:
    def test_interval_intersection(self):
        a = make_series(range(24), start=MonthStamp(2011, 1))  # Jan2011..Dec2012
        b = make_series(range(25), start=MonthStamp(2011, 6))  # Jun2011..Jun2013
        a2, b2 = align(a, b)
        assert a2.start == b2.start == MonthStamp(2011, 6)
        assert a2.end == b2.end == MonthStamp(2012, 12)
        assert len(a2) == len(b2) == 19

    def test_identity(self):
        a = make_series([1, 2, 3])
        a2, b2 = align(a, a)
        assert np.array_equal(a2.values, a.values) and a2.start == a.start
        assert np.array_equal(b2.values, a.values)

    def test_disjoint_raises(self):
        a = make_series(range(12), start=MonthStamp(2011, 1))
        b = make_series(range(12), start=MonthStamp(2013, 1))
        with pytest.raises(EmptyOverlap):
            align(a, b)

    def test_idempotent(self):
        a = make_series(range(24), start=MonthStamp(2011, 1))
        b = make_series(range(25), start=MonthStamp(2011, 6))
        once = align(a, b)
        twice = align(*once)
        for s1, s2 in zip(once, twice):
            assert s1.start == s2.start
            assert np.array_equal(s1.values, s2.values)


class TestDifference:
    def test_first_differences(self):
        out = difference(make_series([1, 3, 6, 10]), 1)
        assert np.array_equal(out.values, [2, 3, 4])
        assert out.start == MonthStamp(2011, 2)

    def test_d_zero_identity(self):
        s = make_series([5, 1, 4])
        assert difference(s, 0) is s

    def test_constant_series_twice(self):
        out = difference(make_series([5, 5, 5]), 2)
        assert np.array_equal(out.values, [0.0])

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            difference(make_series([1, 2]), 2)


class TestRmse:
    def test_perfect_prediction(self):
        s = make_series([3, 1, 4])
        assert rmse(s, s) == 0

    def test_direct_arithmetic(self):
        predicted = make_series([0, 3])
        actual = make_series([4, 3])
        assert rmse(predicted, actual) == pytest.approx(np.sqrt(16 / 2), abs=1e-12)

    def test_disjoint_ranges(self):
        with pytest.raises(EmptyOverlap):
            rmse(make_series([1]), make_series([1], start=MonthStamp(2020, 1)))

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=20
        ),
        shift=st.floats(-50, 50),
    )
    def test_shift_and_sign_symmetry(self, data, shift):
        p = make_series([d[0] for d in data])
        a = make_series([d[1] for d in data])
        mirrored = make_series(2 * a.values - p.values)
        assert rmse(p, a) == pytest.approx(rmse(mirrored, a), abs=1e-9)
        assert rmse(p, a) == pytest.approx(
            rmse(make_series(p.values + shift), make_series(a.values + shift)), abs=1e-9
        )
