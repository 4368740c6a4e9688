"""Tests for lifecycle decisions (§2.3): lifetime, reuse, recycling."""

import pytest

from repro.embodied import (
    ComponentLifecycle,
    LRZ_SYSTEM_HISTORY,
    LifetimeRecord,
    amortized_embodied_rate,
    lifetime_extension_savings,
    recycle_savings,
    reuse_savings,
    reuse_vs_recycle_factor,
)
from repro.embodied.lifecycle import memory_reuse_scenario


class TestTable1:
    """Table 1 of the paper, verbatim."""

    def test_rows(self):
        rows = {r.name: r for r in LRZ_SYSTEM_HISTORY}
        assert rows["SuperMUC"].start_year == 2012
        assert rows["SuperMUC"].decommission_year == 2018
        assert rows["SuperMUC Phase 2"].start_year == 2015
        assert rows["SuperMUC Phase 2"].decommission_year == 2019
        assert rows["SuperMUC-NG"].start_year == 2019
        assert rows["SuperMUC-NG"].decommission_year == 2024
        assert rows["SuperMUC-NG Phase 2"].start_year == 2023
        assert rows["SuperMUC-NG Phase 2"].in_operation
        assert rows["ExaMUC"].start_year == 2025
        assert rows["ExaMUC"].in_operation

    def test_refresh_cycles_four_to_six_years(self):
        """§2.3: 'hardware refresh cycles ... range between four and six
        years' — true of every decommissioned LRZ system."""
        for rec in LRZ_SYSTEM_HISTORY:
            if not rec.in_operation:
                assert 4 <= rec.lifetime_years() <= 6, rec.name

    def test_open_ended_needs_as_of(self):
        rec = LifetimeRecord("X", 2023)
        with pytest.raises(ValueError, match="as_of_year"):
            rec.lifetime_years()
        assert rec.lifetime_years(as_of_year=2026) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LifetimeRecord("X", 2020, 2019)


class TestAmortization:
    def test_rate(self):
        assert amortized_embodied_rate(1000.0, 5.0) == 200.0

    def test_extension_savings(self):
        # 1000 kg over 5y = 200/yr; over 7y = 142.9/yr
        s = lifetime_extension_savings(1000.0, 5.0, 2.0)
        assert s == pytest.approx(200.0 - 1000.0 / 7.0)

    def test_zero_extension_zero_savings(self):
        assert lifetime_extension_savings(1000.0, 5.0, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            amortized_embodied_rate(-1.0, 5.0)
        with pytest.raises(ValueError):
            amortized_embodied_rate(1.0, 0.0)


class TestReuseVsRecycle:
    def test_hdd_factor_is_paper_275(self):
        """§2.3: 'reusing hard disk drives leads to 275x more carbon
        emissions reductions than recycling'."""
        assert reuse_vs_recycle_factor("hdd") == pytest.approx(275.0)

    def test_reuse_beats_recycle_everywhere(self):
        for kind in ("hdd", "ssd", "dram", "cpu", "gpu", "server"):
            assert reuse_vs_recycle_factor(kind) > 10.0

    def test_savings_scale_with_embodied(self):
        assert reuse_savings("hdd", 200.0) == pytest.approx(
            2 * reuse_savings("hdd", 100.0))

    def test_unknown_kind(self):
        with pytest.raises(KeyError, match="known"):
            reuse_savings("flux_capacitor", 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            recycle_savings("hdd", -1.0)


class TestComponentLifecycle:
    def test_fleet_math(self):
        lc = ComponentLifecycle("hdd", count=1000, embodied_kg_per_unit=20.0)
        assert lc.fleet_embodied_kg == 20000.0
        assert lc.reuse_fleet_savings() == pytest.approx(
            275.0 * lc.recycle_fleet_savings())

    def test_best_option_is_reuse(self):
        lc = ComponentLifecycle("dram", count=10, embodied_kg_per_unit=5.0)
        assert lc.best_option() == "reuse"

    def test_validation(self):
        with pytest.raises(KeyError):
            ComponentLifecycle("banana", 1, 1.0)
        with pytest.raises(ValueError):
            ComponentLifecycle("hdd", -1, 1.0)


class TestMemoryReuse:
    def test_pond_style_scenario(self):
        """[38]-style DDR4-in-DDR5 reuse saves a meaningful fraction of
        the DRAM fleet's embodied carbon."""
        from repro.embodied import DRAM_KG_PER_GB
        saved = memory_reuse_scenario(0.72, DRAM_KG_PER_GB["DDR4"],
                                      reuse_fraction=0.7)
        fleet = 0.72e6 * DRAM_KG_PER_GB["DDR4"]
        assert 0.4 * fleet < saved < 0.7 * fleet

    def test_validation(self):
        with pytest.raises(ValueError):
            memory_reuse_scenario(-1.0, 0.1)
        with pytest.raises(ValueError):
            memory_reuse_scenario(1.0, 0.1, reuse_fraction=1.5)
