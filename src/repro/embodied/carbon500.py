"""The Carbon500 ranking (§2.2).

The paper: "once such tools exist, we should extend the existing
supercomputing rankings to cover the carbon efficiency perspective
(something like a *Carbon500* list)".

A Carbon500 entry ranks a system by **carbon efficiency**: sustained
performance delivered per unit of total carbon *rate* (amortized
embodied + operational), in PFLOP/s per tCO2e/year.  Unlike the Green500
(FLOPS/W), this metric rewards low-carbon siting and long lifetimes, not
just electrical efficiency — two systems with identical hardware rank
differently in Finland vs. France.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro import units
from repro.embodied.systems import (
    KNOWN_SYSTEMS,
    SystemInventory,
    system_embodied_breakdown,
)

__all__ = ["SYSTEM_PERF_PFLOPS", "Carbon500Entry", "carbon500_ranking"]

#: Published sustained (HPL Rmax-like) performance, PFLOP/s.
SYSTEM_PERF_PFLOPS: Dict[str, float] = {
    "Juwels Booster": 44.1,
    "SuperMUC-NG": 19.5,
    "Hawk": 19.3,
    "Frontier": 1194.0,
    "Fugaku": 442.0,
}


@dataclass(frozen=True)
class Carbon500Entry:
    """One ranked system with its carbon-efficiency figures."""

    rank: int
    name: str
    perf_pflops: float
    embodied_rate_tonnes_per_year: float
    operational_rate_tonnes_per_year: float

    @property
    def total_rate_tonnes_per_year(self) -> float:
        return (self.embodied_rate_tonnes_per_year
                + self.operational_rate_tonnes_per_year)

    @property
    def carbon_efficiency(self) -> float:
        """PFLOP/s per tCO2e/year — the ranking key (higher is better)."""
        return self.perf_pflops / self.total_rate_tonnes_per_year


def _system_rates(system: SystemInventory,
                  grid_intensity: float) -> tuple[float, float]:
    """(embodied, operational) carbon rates in tCO2e/year."""
    embodied_kg = system_embodied_breakdown(system)["total"]
    embodied_rate = embodied_kg / system.lifetime_years / units.KG_PER_TONNE
    kwh_per_year = (system.avg_power_mw * units.KW_PER_MW) * units.HOURS_PER_YEAR
    operational_rate = (kwh_per_year * grid_intensity
                        / units.GRAMS_PER_TONNE)
    return embodied_rate, operational_rate


def carbon500_ranking(
    systems: Optional[Sequence[SystemInventory]] = None,
    zone_intensities: Optional[Mapping[str, float]] = None,
    perf_pflops: Optional[Mapping[str, float]] = None,
) -> List[Carbon500Entry]:
    """Rank systems by carbon efficiency (best first).

    Parameters
    ----------
    systems:
        Systems to rank (default: all known inventories with published
        performance numbers).
    zone_intensities:
        Mean grid intensity per zone code; systems whose zone is missing
        use 300 g/kWh (a European average).
    perf_pflops:
        Performance override map; defaults to :data:`SYSTEM_PERF_PFLOPS`.
    """
    if systems is None:
        systems = [s for s in KNOWN_SYSTEMS.values()
                   if s.name in SYSTEM_PERF_PFLOPS]
    perf_map = dict(SYSTEM_PERF_PFLOPS)
    if perf_pflops:
        perf_map.update(perf_pflops)
    zones = dict(zone_intensities or {})

    rows = []
    for s in systems:
        if s.name not in perf_map:
            raise KeyError(f"no performance figure for {s.name!r}; "
                           "pass perf_pflops")
        ci = zones.get(s.zone, 300.0)
        emb, op = _system_rates(s, ci)
        rows.append((s.name, perf_map[s.name], emb, op))

    rows.sort(key=lambda r: r[1] / (r[2] + r[3]), reverse=True)
    return [
        Carbon500Entry(rank=i + 1, name=name, perf_pflops=perf,
                       embodied_rate_tonnes_per_year=emb,
                       operational_rate_tonnes_per_year=op)
        for i, (name, perf, emb, op) in enumerate(rows)
    ]
