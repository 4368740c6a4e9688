"""Tests for green-period detection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid import CarbonIntensityTrace, find_green_periods, green_fraction
from repro.grid.green import GreenPeriod

HOUR = 3600.0


def make(values):
    return CarbonIntensityTrace(np.asarray(values, dtype=float), HOUR)


class TestGreenPeriod:
    def test_duration_and_contains(self):
        p = GreenPeriod(0.0, HOUR, 100.0)
        assert p.duration == HOUR
        assert p.contains(0.0)
        assert not p.contains(HOUR)

    def test_overlaps(self):
        p = GreenPeriod(HOUR, 3 * HOUR, 100.0)
        assert p.overlaps(0, 2 * HOUR) == HOUR
        assert p.overlaps(10 * HOUR, 11 * HOUR) == 0.0
        assert p.overlaps(0, 10 * HOUR) == 2 * HOUR

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GreenPeriod(1.0, 1.0, 50.0)


class TestFindGreenPeriods:
    def test_simple_dip(self):
        # mean = 200; threshold 0.9 -> 180; only the 100s qualify
        t = make([300, 100, 100, 300])
        periods = find_green_periods(t)
        assert len(periods) == 1
        assert periods[0].start == HOUR
        assert periods[0].end == 3 * HOUR
        assert periods[0].mean_intensity_g_per_kwh == pytest.approx(100.0)

    def test_flat_trace_has_no_green(self):
        t = make([200, 200, 200])
        assert find_green_periods(t) == []

    def test_all_below_reference(self):
        t = make([10, 10])
        periods = find_green_periods(t, reference=100.0)
        assert len(periods) == 1
        assert periods[0].duration == 2 * HOUR

    def test_min_duration_filters(self):
        t = make([300, 100, 300, 100, 100, 300])
        periods = find_green_periods(t, min_duration=1.5 * HOUR)
        assert len(periods) == 1
        assert periods[0].duration == 2 * HOUR

    def test_periods_ordered_nonoverlapping(self):
        t = make([100, 300, 100, 300, 100])
        periods = find_green_periods(t)
        for a, b in zip(periods, periods[1:]):
            assert a.end <= b.start

    def test_explicit_reference(self):
        t = make([100, 200])
        # with reference 300, threshold 270: everything is green
        periods = find_green_periods(t, reference=300.0)
        assert sum(p.duration for p in periods) == t.duration

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            find_green_periods(make([1.0]), threshold_fraction=0.0)

    @given(st.lists(st.floats(1, 1000), min_size=2, max_size=100))
    @settings(max_examples=50)
    def test_green_time_bounded_by_duration(self, vals):
        t = make(vals)
        frac = green_fraction(t)
        assert 0.0 <= frac <= 1.0

    @given(st.lists(st.floats(1, 1000), min_size=2, max_size=60),
           st.floats(0.5, 1.2))
    @settings(max_examples=50)
    def test_monotone_in_threshold(self, vals, thresh):
        t = make(vals)
        low = green_fraction(t, threshold_fraction=thresh * 0.9)
        high = green_fraction(t, threshold_fraction=thresh)
        assert low <= high + 1e-12


class TestGreenFraction:
    def test_half_green(self):
        t = make([100, 300, 100, 300])
        assert green_fraction(t) == pytest.approx(0.5)
