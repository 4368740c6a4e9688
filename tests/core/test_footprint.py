"""Tests for the footprint model and the renewable-share rule of thumb."""

import numpy as np
import pytest

from repro.core import (
    DatacenterProfile,
    FootprintModel,
    blended_intensity,
    embodied_share_curve,
)
from repro.core.footprint import COAL_INTENSITY, LRZ_HYDRO_INTENSITY


class TestBlendedIntensity:
    def test_paper_constants(self):
        """§2: LRZ hydro at 20, coal at 1025 gCO2/kWh."""
        assert LRZ_HYDRO_INTENSITY == 20.0
        assert COAL_INTENSITY == 1025.0

    def test_endpoints(self):
        assert blended_intensity(1.0) == LRZ_HYDRO_INTENSITY
        assert blended_intensity(0.0, fossil_intensity=600.0) == 600.0

    def test_monotone_decreasing_in_share(self):
        shares = np.linspace(0, 1, 11)
        vals = [blended_intensity(s) for s in shares]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            blended_intensity(1.5)
        with pytest.raises(ValueError):
            blended_intensity(-0.1)


class TestFootprintModel:
    def make(self, ci=300.0):
        return FootprintModel(embodied_kg=3000.0, avg_power_watts=400.0,
                              lifetime_years=5.0, grid_intensity_g_per_kwh=ci)

    def test_operational_closed_form(self):
        m = self.make(ci=100.0)
        # 0.4 kW * 8760 h * 5 y * 100 g = 175.2 kg * 10
        assert m.operational_kg() == pytest.approx(
            0.4 * 8760 * 5 * 100 / 1000.0)

    def test_total_is_embodied_plus_operational(self):
        m = self.make()
        assert m.total_kg() == pytest.approx(3000.0 + m.operational_kg())

    def test_partial_duration_amortizes(self):
        m = self.make()
        half = m.total_kg(duration_years=2.5)
        assert half == pytest.approx(1500.0 + m.operational_kg(2.5))

    def test_embodied_share_lrz_dominated(self):
        """§2: at LRZ's 20 g/kWh, embodied dominates the footprint."""
        m = self.make(ci=LRZ_HYDRO_INTENSITY)
        assert m.embodied_share() > 0.85

    def test_embodied_share_coal_operational_dominated(self):
        m = self.make(ci=COAL_INTENSITY)
        assert m.embodied_share() < 0.15

    def test_rates(self):
        m = self.make(ci=1000.0)
        assert m.operational_rate_kg_per_hour() == pytest.approx(0.4)
        assert m.embodied_rate_kg_per_hour() == pytest.approx(
            3000.0 / (5 * 8760))

    def test_validation(self):
        with pytest.raises(ValueError):
            FootprintModel(-1, 1, 1, 1)
        with pytest.raises(ValueError):
            FootprintModel(1, 1, 0, 1)


class TestRuleOfThumb:
    """The paper (§2, citing Lyu et al.): 70-75% renewables -> embodied
    carbon accounts for ~50% of the total."""

    def test_embodied_share_near_half_at_70_75(self):
        profile = DatacenterProfile()
        shares = embodied_share_curve(profile, [0.70, 0.725, 0.75])
        assert np.all(shares > 0.44)
        assert np.all(shares < 0.56)
        # ~50% in the middle of the band
        assert shares[1] == pytest.approx(0.5, abs=0.03)

    def test_curve_monotone_increasing(self):
        profile = DatacenterProfile()
        curve = embodied_share_curve(profile, np.linspace(0, 1, 21))
        assert np.all(np.diff(curve) > 0)

    def test_full_renewable_embodied_dominates(self):
        profile = DatacenterProfile()
        share = embodied_share_curve(profile, [1.0])[0]
        assert share > 0.75

    def test_report_consistency(self):
        r = DatacenterProfile().footprint(0.5)
        assert r.total_kg == pytest.approx(r.embodied_kg + r.operational_kg)
        assert 0 < r.embodied_share < 1

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DatacenterProfile(embodied_kg_per_server=-1.0)
        with pytest.raises(ValueError):
            DatacenterProfile(lifetime_years=0.0)
