"""E7 — Procurement under a total carbon budget + Carbon500 (§2.2).

Paper claims regenerated here:
* system architects should treat the carbon footprint budget as a
  design constraint and trade embodied against operational carbon;
* unused embodied budget can be shifted to the operational budget "to
  boost the system performance by raising the system power limit";
* a Carbon500 ranking orders systems by carbon efficiency, and siting
  changes the order's absolute numbers.
"""

import pytest

from benchmarks.conftest import report
from repro.analysis import render_carbon500
from repro.embodied import (
    CandidateConfig,
    carbon500_ranking,
    optimize_procurement,
    shift_embodied_to_operational,
)
from repro.grid.zones import EUROPE_JAN2023

CANDIDATES = [
    CandidateConfig("gpu-node", embodied_kg_per_node=2000.0,
                    perf_tflops_per_node=90.0, power_w_per_node=2000.0),
    CandidateConfig("cpu-node", embodied_kg_per_node=120.0,
                    perf_tflops_per_node=6.0, power_w_per_node=700.0),
    CandidateConfig("lean-node", embodied_kg_per_node=300.0,
                    perf_tflops_per_node=40.0, power_w_per_node=1000.0),
]
BUDGET_KG = 5e6


def run_procurement():
    results = {ci: optimize_procurement(CANDIDATES, BUDGET_KG, ci)
               for ci in (20.0, 300.0, 1025.0)}
    shifts = {ci: shift_embodied_to_operational(r, max(ci, 1.0), 720.0)
              for ci, r in results.items()}
    zi = {z: p.mean_intensity_g_per_kwh for z, p in EUROPE_JAN2023.items()}
    ranking = carbon500_ranking(zone_intensities=zi)
    return results, shifts, ranking


def test_bench_procurement(benchmark):
    results, shifts, ranking = benchmark(run_procurement)

    # budget respected everywhere
    for r in results.values():
        assert r.total_kg <= BUDGET_KG + 1e-6

    # siting changes the winning architecture
    assert results[20.0].config.name != results[1025.0].config.name

    # the shift converts slack into watts and performance
    for ci, s in shifts.items():
        assert s["boosted_perf_tflops"] >= s["base_perf_tflops"]
        if s["slack_kg"] > 0:
            assert s["extra_watts"] > 0

    # Carbon500: dense ranks, efficiency sorted descending
    assert [e.rank for e in ranking] == list(range(1, len(ranking) + 1))
    effs = [e.carbon_efficiency for e in ranking]
    assert effs == sorted(effs, reverse=True)

    lines = [f"{'site CI':>8s} {'winner':>10s} {'nodes':>7s} "
             f"{'PFLOP/s':>8s} {'boost W':>10s}"]
    for ci, r in results.items():
        s = shifts[ci]
        lines.append(f"{ci:7.0f}g {r.config.name:>10s} {r.n_nodes:7d} "
                     f"{r.perf_tflops / 1000:8.2f} "
                     f"{s['extra_watts']:10.0f}")
    lines.append("")
    lines.append(render_carbon500(ranking))
    report("E7 — carbon-budgeted procurement + Carbon500 (§2.2)",
           "\n".join(lines))
