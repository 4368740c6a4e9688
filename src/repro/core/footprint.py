"""Total carbon footprint: amortized embodied + operational.

Implements the §2 analysis of how the embodied/operational split depends
on where a system operates:

* LRZ runs exclusively on hydropower at ~20 gCO2/kWh, so *embodied*
  carbon dominates its total footprint;
* a coal-powered site at 1025 gCO2/kWh is overwhelmingly operational;
* the paper's rule of thumb (from Lyu et al., HotCarbon'23): "for data
  centers operating with 70-75% renewable energy, the embodied carbon
  accounts for 50% of the total carbon emissions".

:func:`blended_intensity` mixes a renewable and a fossil intensity by
renewable share; :class:`FootprintModel` combines an embodied total with
an operational power profile under an amortization policy; and
:func:`embodied_share_curve` sweeps renewable share to regenerate the
rule-of-thumb curve (bench E4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro import units

__all__ = [
    "LRZ_HYDRO_INTENSITY",
    "COAL_INTENSITY",
    "AmortizationPolicy",
    "DatacenterProfile",
    "FootprintModel",
    "FootprintReport",
    "blended_intensity",
    "embodied_share_curve",
]

#: LRZ's contractual hydropower intensity (§2), gCO2e/kWh.
LRZ_HYDRO_INTENSITY = 20.0
#: Carbon intensity of coal generation quoted in §2, gCO2e/kWh.
COAL_INTENSITY = 1025.0
#: A mixed fossil grid (gas+coal marginal mix) used for blending.
FOSSIL_MIX_INTENSITY = 600.0


def blended_intensity(renewable_share: float,
                      renewable_intensity: float = LRZ_HYDRO_INTENSITY,
                      fossil_intensity: float = FOSSIL_MIX_INTENSITY) -> float:
    """Grid intensity of a mix with ``renewable_share`` renewables (g/kWh)."""
    if not 0.0 <= renewable_share <= 1.0:
        raise ValueError("renewable_share must be in [0, 1]")
    if renewable_intensity < 0 or fossil_intensity < 0:
        raise ValueError("intensities must be non-negative")
    return (renewable_share * renewable_intensity
            + (1.0 - renewable_share) * fossil_intensity)


class AmortizationPolicy(enum.Enum):
    """How embodied carbon is attributed over a system's life.

    * ``LINEAR`` — equal share per unit time over the planned lifetime
      (the common convention; Table 1 lifetimes feed this);
    * ``USAGE`` — proportional to delivered node-hours, so idle time
      carries no embodied charge (relevant for §3.4 job accounting).
    """

    LINEAR = "linear"
    USAGE = "usage"


@dataclass(frozen=True)
class DatacenterProfile:
    """Aggregate per-server profile of a (cloud-style) datacenter fleet.

    Used by the E4 bench to reproduce the Lyu et al. rule of thumb with
    cloud-scale magnitudes: a flash-heavy cloud server embodies a few
    tonnes CO2e and draws a few hundred watts on average.
    """

    embodied_kg_per_server: float = 3000.0
    avg_power_w_per_server: float = 400.0
    lifetime_years: float = 5.0

    def __post_init__(self) -> None:
        if self.embodied_kg_per_server < 0:
            raise ValueError("embodied carbon must be non-negative")
        if self.avg_power_w_per_server < 0:
            raise ValueError("power must be non-negative")
        if self.lifetime_years <= 0:
            raise ValueError("lifetime must be positive")

    def footprint(self, renewable_share: float,
                  fossil_intensity: float = FOSSIL_MIX_INTENSITY) -> "FootprintReport":
        """Lifetime footprint of one server at the given renewable share."""
        ci = blended_intensity(renewable_share,
                               fossil_intensity=fossil_intensity)
        model = FootprintModel(
            embodied_kg=self.embodied_kg_per_server,
            avg_power_watts=self.avg_power_w_per_server,
            lifetime_years=self.lifetime_years,
            grid_intensity_g_per_kwh=ci,
        )
        return model.lifetime_report()


@dataclass(frozen=True)
class FootprintModel:
    """Embodied + operational footprint of a system at a site.

    Parameters
    ----------
    embodied_kg:
        Total Scope-3 embodied carbon of the system (kgCO2e), e.g. from
        :func:`repro.embodied.systems.system_embodied_breakdown`.
    avg_power_watts:
        Average electrical draw (W).
    lifetime_years:
        Planned lifetime used for amortization (Table 1 values).
    grid_intensity_g_per_kwh:
        Mean operational grid intensity (gCO2e/kWh).
    """

    embodied_kg: float
    avg_power_watts: float
    lifetime_years: float
    grid_intensity_g_per_kwh: float

    def __post_init__(self) -> None:
        if (self.embodied_kg < 0 or self.avg_power_watts < 0
                or self.grid_intensity_g_per_kwh < 0):
            raise ValueError("carbon/power/intensity must be non-negative")
        if self.lifetime_years <= 0:
            raise ValueError("lifetime must be positive")

    # -- rates ----------------------------------------------------------------

    def embodied_rate_kg_per_hour(self) -> float:
        """Linear amortization rate of embodied carbon (kg/h)."""
        return self.embodied_kg / (self.lifetime_years * units.HOURS_PER_YEAR)

    def operational_rate_kg_per_hour(self) -> float:
        """Operational emission rate at average power (kg/h)."""
        kw = self.avg_power_watts / units.WATTS_PER_KW
        return kw * self.grid_intensity_g_per_kwh / units.GRAMS_PER_KG

    # -- totals ----------------------------------------------------------------

    def operational_kg(self, duration_years: Optional[float] = None) -> float:
        """Operational carbon over ``duration_years`` (default: lifetime)."""
        dur = self.lifetime_years if duration_years is None else duration_years
        if dur < 0:
            raise ValueError("duration must be non-negative")
        return self.operational_rate_kg_per_hour() * dur * units.HOURS_PER_YEAR

    def total_kg(self, duration_years: Optional[float] = None) -> float:
        """Embodied (full, if duration = lifetime; else amortized) + operational."""
        dur = self.lifetime_years if duration_years is None else duration_years
        amortized = self.embodied_kg * min(dur / self.lifetime_years, 1.0)
        return amortized + self.operational_kg(dur)

    def embodied_share(self) -> float:
        """Fraction of the lifetime footprint that is embodied (Scope 3)."""
        total = self.total_kg()
        if total == 0:
            raise ValueError("zero total footprint")
        return self.embodied_kg / total

    def lifetime_report(self) -> "FootprintReport":
        return FootprintReport(
            embodied_kg=self.embodied_kg,
            operational_kg=self.operational_kg(),
            lifetime_years=self.lifetime_years,
            grid_intensity_g_per_kwh=self.grid_intensity_g_per_kwh,
        )


@dataclass(frozen=True)
class FootprintReport:
    """Result record of a lifetime footprint evaluation."""

    embodied_kg: float
    operational_kg: float
    lifetime_years: float
    grid_intensity_g_per_kwh: float

    @property
    def total_kg(self) -> float:
        return self.embodied_kg + self.operational_kg

    @property
    def embodied_share(self) -> float:
        if self.total_kg == 0:
            raise ValueError("zero total footprint")
        return self.embodied_kg / self.total_kg


def embodied_share_curve(profile: DatacenterProfile,
                         renewable_shares,
                         fossil_intensity: float = FOSSIL_MIX_INTENSITY) -> np.ndarray:
    """Embodied share of total footprint vs renewable share (bench E4).

    Returns an array of embodied-share fractions, one per input share.
    The paper's rule of thumb expects ~0.5 around shares of 0.70-0.75.
    """
    shares = np.asarray(renewable_shares, dtype=np.float64)
    out = np.empty_like(shares)
    for i, r in enumerate(shares):
        out[i] = profile.footprint(float(r), fossil_intensity).embodied_share
    return out
