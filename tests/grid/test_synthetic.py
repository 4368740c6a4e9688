"""Tests for the synthetic grid trace generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.synthetic import SyntheticGridModel, diurnal_pattern, generate_month
from repro.grid.zones import EUROPE_JAN2023, get_zone

HOUR = 3600.0
DAY = 86400.0


class TestDiurnalPattern:
    def test_zero_mean(self):
        p = diurnal_pattern(24)
        assert p.mean() == pytest.approx(0.0, abs=1e-12)

    def test_unit_peak(self):
        p = diurnal_pattern(24)
        assert np.abs(p).max() == pytest.approx(1.0)

    def test_evening_peak_morning_secondary(self):
        p = diurnal_pattern(24)
        assert np.argmax(p) in (18, 19, 20)      # evening peak
        assert p[8] > p[2]                        # morning ramp above night

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            diurnal_pattern(1)


class TestCalibratedStatistics:
    """The generator hits the calibrated statistics *exactly*."""

    @pytest.mark.parametrize("zone", sorted(EUROPE_JAN2023))
    def test_monthly_mean_exact(self, zone):
        trace = generate_month(zone, seed=0)
        assert trace.mean() == pytest.approx(
            get_zone(zone).mean_intensity_g_per_kwh, rel=1e-12)

    @pytest.mark.parametrize("zone", ["FI", "FR", "DE", "NO"])
    def test_daily_sigma_exact(self, zone):
        trace = generate_month(zone, seed=0)
        assert trace.daily_means().std() == pytest.approx(
            get_zone(zone).daily_sigma, rel=1e-9)

    def test_finland_paper_statistic(self):
        """The paper: FI daily std = 47.21 gCO2/kWh in Jan 2023."""
        fi = generate_month("FI", seed=0)
        assert fi.daily_means().std() == pytest.approx(47.21, abs=1e-6)

    def test_fi_fr_ratio_paper_statistic(self):
        """The paper: FI mean = 2.1x FR mean in Jan 2023 (any seed)."""
        for seed in (0, 1, 42):
            fi = generate_month("FI", seed=seed)
            fr = generate_month("FR", seed=seed)
            assert fi.mean() / fr.mean() == pytest.approx(2.1, rel=1e-9)

    def test_never_negative(self):
        for zone in EUROPE_JAN2023:
            trace = generate_month(zone, seed=3)
            assert trace.min() >= get_zone(zone).floor_intensity


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate_month("DE", seed=5)
        b = generate_month("DE", seed=5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seed_different(self):
        a = generate_month("DE", seed=5)
        b = generate_month("DE", seed=6)
        assert not np.array_equal(a.values, b.values)

    def test_zones_independent_for_same_seed(self):
        de = generate_month("DE", seed=5)
        nl = generate_month("NL", seed=5)
        # profiles differ, but also the *shape* must differ (zone code
        # feeds the seed sequence)
        a = (de.values - de.mean()) / de.std()
        b = (nl.values - nl.mean()) / nl.std()
        assert not np.allclose(a, b, atol=0.2)


class TestGenerateParameters:
    def test_substeps(self):
        t = generate_month("FR", seed=0, n_days=2, step_seconds=900.0)
        assert len(t) == 2 * 96
        assert t.mean() == pytest.approx(get_zone("FR").mean_intensity_g_per_kwh)

    def test_rejects_non_dividing_step(self):
        with pytest.raises(ValueError, match="evenly divide"):
            generate_month("FR", step_seconds=7000.0)

    def test_rejects_zero_days(self):
        with pytest.raises(ValueError):
            SyntheticGridModel("FR").generate(0)

    def test_single_day_flat_synoptic(self):
        t = generate_month("FR", seed=0, n_days=1)
        # one day: synoptic is zero, daily mean == zone mean
        assert t.daily_means()[0] == pytest.approx(
            get_zone("FR").mean_intensity_g_per_kwh)

    def test_start_time_offset(self):
        t = generate_month("FR", seed=0, n_days=1, start_time=DAY)
        assert t.start_time == DAY
        assert t.end_time == 2 * DAY

    @given(n_days=st.integers(2, 40))
    @settings(max_examples=10, deadline=None)
    def test_mean_exact_any_length(self, n_days):
        t = generate_month("GB", seed=1, n_days=n_days)
        assert t.mean() == pytest.approx(get_zone("GB").mean_intensity_g_per_kwh)
