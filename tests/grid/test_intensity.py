"""Tests for the CarbonIntensityTrace container."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.grid import CarbonIntensityTrace

HOUR = 3600.0
DAY = 86400.0


def make(values, step=HOUR, start=0.0):
    return CarbonIntensityTrace(np.asarray(values, dtype=float), step, start)


class TestConstruction:
    def test_basic(self):
        t = make([100, 200, 300])
        assert len(t) == 3
        assert t.duration == 3 * HOUR
        assert t.end_time == 3 * HOUR

    def test_values_are_readonly(self):
        t = make([1, 2, 3])
        with pytest.raises(ValueError):
            t.values[0] = 99.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            make([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            make([100, -1])

    def test_rejects_nan_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            make([100, float("nan")])
        with pytest.raises(ValueError, match="non-finite"):
            make([100, float("inf")])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            CarbonIntensityTrace(np.zeros((2, 2)), HOUR)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step_seconds"):
            make([1.0], step=0.0)

    def test_constant_constructor(self):
        t = CarbonIntensityTrace.constant(20.0, DAY)  # LRZ hydro
        assert len(t) == 24
        assert t.mean() == 20.0
        assert t.std() == 0.0

    def test_from_hourly(self):
        t = CarbonIntensityTrace.from_hourly([10, 20], zone="XX")
        assert t.step_seconds == HOUR
        assert t.zone == "XX"


class TestLookup:
    def test_at_zero_order_hold(self):
        t = make([100, 200, 300])
        assert t.at(0.0) == 100.0
        assert t.at(HOUR - 1) == 100.0
        assert t.at(HOUR) == 200.0
        assert t.at(2.5 * HOUR) == 300.0

    def test_at_clamps_outside(self):
        t = make([100, 200])
        assert t.at(-5.0) == 100.0
        assert t.at(100 * HOUR) == 200.0

    def test_at_vectorized(self):
        t = make([100, 200])
        out = t.at(np.array([0.0, HOUR]))
        np.testing.assert_allclose(out, [100.0, 200.0])

    def test_window(self):
        t = make([1, 2, 3, 4])
        w = t.window(HOUR, 3 * HOUR)
        assert list(w.values) == [2.0, 3.0]
        assert w.start_time == HOUR

    def test_window_partial_bins_expand(self):
        t = make([1, 2, 3, 4])
        w = t.window(0.5 * HOUR, 1.5 * HOUR)
        # must cover [0.5h, 1.5h): samples 0 and 1
        assert list(w.values) == [1.0, 2.0]

    def test_window_rejects_empty(self):
        t = make([1, 2])
        with pytest.raises(ValueError):
            t.window(HOUR, HOUR)


class TestIntegration:
    def test_mean_over_whole(self):
        t = make([100, 300])
        assert t.mean_over(0, 2 * HOUR) == pytest.approx(200.0)

    def test_mean_over_partial_bins(self):
        t = make([100, 300])
        # half of first hour + half of second = (100+300)/2
        assert t.mean_over(0.5 * HOUR, 1.5 * HOUR) == pytest.approx(200.0)

    def test_integrate_intensity_exact(self):
        t = make([100, 200])
        # 30 min at 100 = 100 * 1800
        assert t.integrate_intensity(0, 1800) == pytest.approx(100 * 1800)

    def test_integrate_outside_clamps(self):
        t = make([100])
        # after trace end: clamp to last sample (provider semantics)
        assert t.integrate_intensity(HOUR, 2 * HOUR) == pytest.approx(100 * HOUR)

    def test_carbon_for_power(self):
        t = make([500])
        # 2 kW for 1 h at 500 g/kWh = 1000 g
        assert t.carbon_for_power(2000.0, 0, HOUR) == pytest.approx(1000.0)

    @given(st.lists(st.floats(0, 1000), min_size=1, max_size=48),
           st.floats(0.1, 48.0), st.floats(0.1, 48.0))
    @settings(max_examples=50)
    def test_integral_additivity(self, vals, a_h, b_h):
        t = make(vals)
        mid = min(a_h, b_h) * HOUR
        end = max(a_h, b_h) * HOUR + 1.0
        whole = t.integrate_intensity(0, end)
        parts = t.integrate_intensity(0, mid) + t.integrate_intensity(mid, end)
        assert whole == pytest.approx(parts, rel=1e-9, abs=1e-6)


class TestWindowMeans:
    def test_sliding_means(self):
        t = make([100, 200, 400], start=HOUR)
        np.testing.assert_allclose(t.window_means(HOUR, HOUR, 2),
                                   [100, 200, 400], rtol=1e-15)
        # 1.5 h windows starting on the hour, then half an hour in
        np.testing.assert_allclose(t.window_means(HOUR, 1.5 * HOUR, 1),
                                   [400 / 3, 800 / 3], rtol=1e-15)
        np.testing.assert_allclose(t.window_means(1.5 * HOUR, 1.5 * HOUR, 0),
                                   [t.mean_over(1.5 * HOUR, 3 * HOUR)],
                                   rtol=1e-15)
        # windows inside one sample
        np.testing.assert_array_equal(
            t.window_means(1.25 * HOUR, 0.5 * HOUR, 2), [100, 200, 400])

    def test_last_window_may_end_at_end_time(self):
        t = make([100, 200, 400])
        np.testing.assert_allclose(t.window_means(0.0, 2 * HOUR, 1),
                                   [150, 300], rtol=1e-15)
        np.testing.assert_allclose(t.window_means(0.5 * HOUR, 1.5 * HOUR, 1),
                                   [t.mean_over(0.5 * HOUR, 2 * HOUR),
                                    t.mean_over(1.5 * HOUR, 3 * HOUR)],
                                   rtol=1e-15)

    @given(st.lists(st.floats(0, 1000), min_size=2, max_size=72),
           st.integers(0, 10_000), st.integers(1, 30_000), st.integers(0, 20))
    @settings(max_examples=100)
    def test_matches_mean_over_per_window(self, vals, offset_s, duration_s,
                                          n):
        t = make(vals, start=HOUR)
        t0 = HOUR + offset_s
        assume(t0 + n * HOUR + duration_s <= t.end_time)
        got = t.window_means(float(t0), float(duration_s), n)
        want = [t.mean_over(t0 + k * HOUR, t0 + k * HOUR + duration_s)
                for k in range(n + 1)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_windows_outside_trace_raise(self):
        """Explicit edge: no silent clamping, unlike integrate_intensity."""
        t = make([100, 200])  # covers [0, 2 h)
        with pytest.raises(ValueError, match="outside"):
            t.window_means(0.0, HOUR, 2)  # third window is [2 h, 3 h)
        with pytest.raises(ValueError, match="outside"):
            t.window_means(HOUR, 1.5 * HOUR, 0)
        with pytest.raises(ValueError, match="outside"):
            t.window_means(-1.0, HOUR, 0)
        assert t.integrate_intensity(HOUR, 3 * HOUR) == 400 * HOUR  # clamps

    def test_arguments_validated(self):
        t = make([100, 200])
        with pytest.raises(ValueError, match="duration"):
            t.window_means(0.0, 0.0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            t.window_means(0.0, HOUR, -1)


class TestTransforms:
    def test_daily_means(self):
        vals = [100.0] * 24 + [200.0] * 24
        t = make(vals)
        np.testing.assert_allclose(t.daily_means(), [100.0, 200.0])

    def test_daily_means_partial_day(self):
        vals = [100.0] * 24 + [300.0] * 12
        t = make(vals)
        np.testing.assert_allclose(t.daily_means(), [100.0, 300.0])

    def test_resample_upsample(self):
        t = make([100, 200])
        up = t.resample(HOUR / 2)
        assert len(up) == 4
        assert list(up.values) == [100, 100, 200, 200]

    def test_resample_downsample_preserves_mean(self):
        t = make([100, 200, 300, 400])
        down = t.resample(2 * HOUR)
        np.testing.assert_allclose(down.values, [150.0, 350.0])
        assert down.mean() == pytest.approx(t.mean())

    def test_resample_identity(self):
        t = make([1, 2])
        assert t.resample(HOUR) is t

    def test_resample_rejects_noninteger_ratio(self):
        t = make([1, 2])
        with pytest.raises(ValueError):
            t.resample(HOUR / 1.5)

    def test_scale(self):
        t = make([100])
        assert t.scale(0.5).values[0] == 50.0
        with pytest.raises(ValueError):
            t.scale(-1.0)

    def test_shift(self):
        t = make([100])
        assert t.shift(10.0).start_time == 10.0
        np.testing.assert_array_equal(t.shift(10.0).values, t.values)

    def test_concat(self):
        a = make([1, 2])
        b = make([3], start=2 * HOUR)
        c = a.concat(b)
        assert list(c.values) == [1, 2, 3]
        with pytest.raises(ValueError, match="different steps"):
            a.concat(make([1], step=60.0))

    def test_statistics(self):
        t = make([100, 200, 300, 400])
        assert t.min() == 100
        assert t.max() == 400
        assert t.percentile(50) == pytest.approx(250.0)
