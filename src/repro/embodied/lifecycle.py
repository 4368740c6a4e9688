"""System lifetime, component reuse, and recycling (§2.3).

Three levers reduce embodied carbon at the lifecycle stage, and the
paper ranks them:

1. **Lifetime extension** — most effective (spreads the full embodied
   carbon over more years), but often infeasible for public HPC centers
   whose decommissioning follows project funding (Table 1);
2. **Component reuse** — "significantly more effective" than recycling;
   e.g. DDR4 DIMMs re-pooled into newer servers (the Pond/CXL reference
   [38]), or whole decommissioned servers donated for teaching (LRZ);
3. **Recycling** — limited carbon returns ("reusing hard disk drives
   leads to **275x** more carbon emissions reductions than recycling")
   but still valuable for critical-material recovery.

The reuse/recycle factors are calibrated so the HDD reuse-vs-recycle
ratio equals the paper's 275x exactly: reuse of a working drive avoids
88% of a replacement drive's embodied carbon (de-rated for early
failures and re-qualification), while recycling recovers materials worth
only 0.32% of it — raw-material carbon is a tiny slice of electronics'
embodied footprint, which is dominated by fab processing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from typing import Dict, List, Optional

__all__ = [
    "REUSE_EFFECTIVENESS",
    "RECYCLE_RECOVERY",
    "LifetimeRecord",
    "LRZ_SYSTEM_HISTORY",
    "ComponentLifecycle",
    "amortized_embodied_rate",
    "lifetime_extension_savings",
    "reuse_savings",
    "recycle_savings",
    "reuse_vs_recycle_factor",
    "memory_reuse_scenario",
]

#: Fraction of a replacement component's embodied carbon avoided by
#: reusing the existing one (de-rated for failures/re-qualification).
REUSE_EFFECTIVENESS: Dict[str, float] = {
    "hdd": 0.88,
    "ssd": 0.80,
    "dram": 0.85,
    "cpu": 0.75,
    "gpu": 0.70,
    "server": 0.65,
}

#: Fraction of a component's embodied carbon recovered by recycling
#: (material recovery only; fab processing carbon is unrecoverable).
#: hdd is pinned to REUSE_EFFECTIVENESS["hdd"] / 275 so that
#: reuse_vs_recycle_factor("hdd") == 275.0, the paper's claim.
RECYCLE_RECOVERY: Dict[str, float] = {
    "hdd": 0.88 / 275.0,
    "ssd": 0.004,
    "dram": 0.005,
    "cpu": 0.006,
    "gpu": 0.006,
    "server": 0.010,
}


@dataclass(frozen=True)
class LifetimeRecord:
    """One row of Table 1: an HPC system's operational window."""

    name: str
    start_year: int
    decommission_year: Optional[int] = None

    def __post_init__(self) -> None:
        if self.decommission_year is not None \
                and self.decommission_year < self.start_year:
            raise ValueError("decommission before start")

    def lifetime_years(self, as_of_year: Optional[int] = None) -> float:
        """Operational lifetime; open-ended systems measured to ``as_of_year``."""
        if self.decommission_year is not None:
            return float(self.decommission_year - self.start_year)
        if as_of_year is None:
            raise ValueError(
                f"{self.name} is still operating; pass as_of_year")
        if as_of_year < self.start_year:
            raise ValueError("as_of_year before start of operation")
        return float(as_of_year - self.start_year)

    @property
    def in_operation(self) -> bool:
        return self.decommission_year is None


#: Table 1 of the paper: recent modern HPC systems at LRZ.
LRZ_SYSTEM_HISTORY: List[LifetimeRecord] = [
    LifetimeRecord("SuperMUC", 2012, 2018),
    LifetimeRecord("SuperMUC Phase 2", 2015, 2019),
    LifetimeRecord("SuperMUC-NG", 2019, 2024),
    LifetimeRecord("SuperMUC-NG Phase 2", 2023, None),
    LifetimeRecord("ExaMUC", 2025, None),
]


def amortized_embodied_rate(embodied_kg: float, lifetime_years: float) -> float:
    """Embodied carbon charged per year of operation (kg/yr)."""
    if embodied_kg < 0:
        raise ValueError("embodied carbon must be non-negative")
    if lifetime_years <= 0:
        raise ValueError("lifetime must be positive")
    return embodied_kg / lifetime_years


def lifetime_extension_savings(embodied_kg: float,
                               base_lifetime_years: float,
                               extension_years: float) -> float:
    """Annual embodied-rate reduction from extending a system's life (kg/yr).

    Extending from L to L+x years cuts the amortized rate from E/L to
    E/(L+x); the return is the rate difference (per year of operation).
    """
    if extension_years < 0:
        raise ValueError("extension must be non-negative")
    base = amortized_embodied_rate(embodied_kg, base_lifetime_years)
    extended = amortized_embodied_rate(embodied_kg,
                                       base_lifetime_years + extension_years)
    return base - extended


def _check_kind(kind: str) -> str:
    k = kind.lower()
    if k not in REUSE_EFFECTIVENESS:
        raise KeyError(f"unknown component kind {kind!r}; known: "
                       f"{', '.join(sorted(REUSE_EFFECTIVENESS))}")
    return k


def reuse_savings(kind: str, replacement_embodied_kg: float) -> float:
    """Carbon avoided by reusing a component instead of buying new (kg)."""
    k = _check_kind(kind)
    if replacement_embodied_kg < 0:
        raise ValueError("embodied carbon must be non-negative")
    return REUSE_EFFECTIVENESS[k] * replacement_embodied_kg


def recycle_savings(kind: str, component_embodied_kg: float) -> float:
    """Carbon recovered by recycling a component's materials (kg)."""
    k = _check_kind(kind)
    if component_embodied_kg < 0:
        raise ValueError("embodied carbon must be non-negative")
    return RECYCLE_RECOVERY[k] * component_embodied_kg


def reuse_vs_recycle_factor(kind: str) -> float:
    """How many times more carbon reuse saves than recycling.

    ``reuse_vs_recycle_factor("hdd") == 275.0`` — the paper's claim.
    """
    k = _check_kind(kind)
    return REUSE_EFFECTIVENESS[k] / RECYCLE_RECOVERY[k]


@dataclass(frozen=True)
class ComponentLifecycle:
    """End-of-life decision support for one component population.

    Compares the three §2.3 options for a fleet of ``count`` components
    each embodying ``embodied_kg_per_unit``.
    """

    kind: str
    count: int
    embodied_kg_per_unit: float

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.embodied_kg_per_unit < 0:
            raise ValueError("embodied carbon must be non-negative")

    @property
    def fleet_embodied_kg(self) -> float:
        return self.count * self.embodied_kg_per_unit

    def reuse_fleet_savings(self) -> float:
        """Fleet-wide carbon avoided by reuse (kg)."""
        return reuse_savings(self.kind, self.fleet_embodied_kg)

    def recycle_fleet_savings(self) -> float:
        """Fleet-wide carbon recovered by recycling (kg)."""
        return recycle_savings(self.kind, self.fleet_embodied_kg)

    def best_option(self) -> str:
        """``"reuse"`` or ``"recycle"``, whichever saves more carbon."""
        return ("reuse" if self.reuse_fleet_savings()
                >= self.recycle_fleet_savings() else "recycle")


def memory_reuse_scenario(dram_pb: float,
                          dram_kg_per_gb: float,
                          reuse_fraction: float = 0.7) -> float:
    """Carbon avoided by re-pooling DDR4 DIMMs into new servers (kg).

    Models the [38]-style scenario the paper cites (reusing DDR4 from
    decommissioned servers in new DDR5 servers via CXL memory pooling):
    ``reuse_fraction`` of the fleet's DRAM passes re-qualification.
    """
    if dram_pb < 0 or dram_kg_per_gb < 0:
        raise ValueError("capacity and factor must be non-negative")
    if not 0.0 <= reuse_fraction <= 1.0:
        raise ValueError("reuse_fraction must be in [0, 1]")
    fleet_kg = dram_pb * units.GB_PER_PB * dram_kg_per_gb
    return reuse_savings("dram", fleet_kg * reuse_fraction)
