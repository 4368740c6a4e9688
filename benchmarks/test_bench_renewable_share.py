"""E4 — Renewable share vs embodied share: the §2 rule of thumb.

Paper claims regenerated here:
* LRZ operates at ~20 gCO2/kWh (hydro) vs coal's 1025 gCO2/kWh, so at
  LRZ embodied carbon dominates the footprint;
* "for data centers operating with 70-75% renewable energy, the
  embodied carbon accounts for 50% of the total carbon emissions"
  (Lyu et al. rule of thumb).
"""

import numpy as np
import pytest

from benchmarks.conftest import report
from repro.core import DatacenterProfile, FootprintModel, embodied_share_curve
from repro.core.footprint import COAL_INTENSITY, LRZ_HYDRO_INTENSITY


def sweep():
    profile = DatacenterProfile()
    shares = np.linspace(0.0, 1.0, 21)
    curve = embodied_share_curve(profile, shares)
    return shares, curve


def test_bench_renewable_share(benchmark):
    shares, curve = benchmark(sweep)

    # rule of thumb: ~50% embodied at 70-75% renewables
    band = curve[(shares >= 0.70 - 1e-9) & (shares <= 0.75 + 1e-9)]
    assert np.all(band > 0.44) and np.all(band < 0.56)

    # monotone: more renewables -> larger embodied share
    assert np.all(np.diff(curve) > 0)

    # LRZ vs coal, with an HPC-scale footprint model
    hpc = dict(embodied_kg=4.6e5, avg_power_watts=3e6, lifetime_years=5.0)
    lrz = FootprintModel(grid_intensity_g_per_kwh=LRZ_HYDRO_INTENSITY, **hpc)
    coal = FootprintModel(grid_intensity_g_per_kwh=COAL_INTENSITY, **hpc)
    assert lrz.embodied_share() > 5 * coal.embodied_share()

    lines = [f"{'renewable %':>11s} {'embodied share %':>17s}"]
    for s, c in zip(shares, curve):
        marker = "  <- rule of thumb band" if 0.70 <= s <= 0.75 else ""
        lines.append(f"{s * 100:10.0f}% {c * 100:16.1f}%{marker}")
    lines.append("")
    lines.append(f"LRZ (20 g/kWh) embodied share: "
                 f"{lrz.embodied_share() * 100:.1f}%")
    lines.append(f"coal (1025 g/kWh) embodied share: "
                 f"{coal.embodied_share() * 100:.1f}%")
    report("E4 — embodied share vs renewable share (§2 rule of thumb)",
           "\n".join(lines))
