#!/usr/bin/env python3
"""Carbon-aware processor design and procurement: the §2.1-2.2 workflow.

Walks the paper's end-to-end flow:

1. assess the grid intensity of the target sites (step 1 of §2.1);
2. explore the chiplet design space under CDP / CEP / total-carbon
   objectives at each site, showing how the optimum moves;
3. compare fab locations for the winning design;
4. run a procurement under a total carbon footprint budget at each site
   and shift the unused embodied budget into a power-limit boost (§2.2).

Run:  python examples/processor_design.py
"""

from repro.embodied import (
    CandidateConfig,
    enumerate_designs,
    explore,
    optimize_procurement,
    shift_embodied_to_operational,
)
from repro.embodied.act import FabProcess, logic_die_carbon
from repro.grid.zones import get_zone

WORK_GOPS = 1e10
UTILIZATION = 0.01  # a poorly-amortized accelerator: embodied matters


def main() -> None:
    # 1. site assessment: where will the silicon run?
    sites = {code: get_zone(code).mean_intensity_g_per_kwh for code in ("NO", "DE", "PL")}
    print("target sites (mean grid intensity, gCO2/kWh):")
    for code, ci in sites.items():
        print(f"  {code}: {ci:.0f}")

    # 2. design-space exploration per site
    designs = enumerate_designs()
    print(f"\nexploring {len(designs)} design points "
          "(nodes x chiplet counts x areas)...")
    print(f"{'site':>5s} {'objective':>10s} "
          f"{'winner':>22s} {'carbon kg':>10s}")
    for code, ci in sites.items():
        sweep = explore(designs, WORK_GOPS, ci, utilization=UTILIZATION)
        for metric in ("carbon", "cdp", "cep"):
            best = sweep.best(metric)
            d = best.design
            print(f"{code:>5s} {metric:>10s} "
                  f"{d.node_nm:>3d}nm x{d.n_chiplets} x"
                  f"{d.chiplet_area_mm2:>4.0f}mm2   "
                  f"{best.total_carbon_kg:10.3f}")

    # 3. fab siting for the NO-site winner
    winner = explore(designs, WORK_GOPS, sites["NO"],
                     utilization=UTILIZATION).best("carbon").design
    print(f"\nfab siting for the {winner.node_nm}nm winner "
          f"({winner.chiplet_area_mm2:.0f}mm2 die):")
    for fab in ("TW", "US", "EU", "GREEN"):
        kg = logic_die_carbon(winner.chiplet_area_mm2,
                              FabProcess.named(winner.node_nm, fab))
        print(f"  {fab:6s} {kg:6.2f} kgCO2e per good die")

    # 4. procurement under a 5000 tCO2e total budget (§2.2)
    candidates = [
        CandidateConfig("gpu-node", 2000.0, 90.0, 2000.0),
        CandidateConfig("cpu-node", 120.0, 6.0, 700.0),
        CandidateConfig("lean-node", 300.0, 40.0, 1000.0),
    ]
    print("\nprocurement under a 5000 tCO2e total budget:")
    for code, ci in sites.items():
        result = optimize_procurement(candidates, 5e6, ci)
        boost = shift_embodied_to_operational(result, max(ci, 1.0), 720.0)
        print(f"  {code}: buy {result.n_nodes:5d} x {result.config.name:9s} "
              f"-> {result.perf_tflops / 1000:6.2f} PFLOP/s, "
              f"slack {result.budget_slack_kg / 1e3:6.1f} t -> "
              f"+{boost['extra_watts'] / 1e3:.0f} kW for 30 days "
              f"(+{(boost['boosted_perf_tflops'] / boost['base_perf_tflops'] - 1) * 100:.1f}% perf)")


if __name__ == "__main__":
    main()
