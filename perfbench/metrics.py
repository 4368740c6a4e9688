"""The benchmark's metric tables: one source for names, units and intent.

``BENCHMARK.json`` mirrors these tables (``selftest.py`` checks that the
two agree).  Each per-layer entry also records which end-to-end metric
it should move and on which workload, so a later change can state its
prediction by metric name before it is measured.

End-to-end metrics come from timing runs with tracing off, with times
in reference seconds (``hostref.py``); per-layer metrics come from a
separate traced run, in host seconds.  Every metric is emitted on
every workload: a layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

SIMULATION = ("carbon-backfill", "easy-long", "power-managed")
ALL = SIMULATION + ("sweep-tiny",)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    on: Tuple[str, ...]


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "imports (median of 5 fresh interpreters) plus the median of 5 "
             "input generations (job trace, or grid plus serial reference), "
             "in reference seconds"),
    EndToEnd("wall_s", "s", "lower", 0.25,
             "median reference seconds per iteration: host seconds with the "
             "host's speed during the iteration divided out; sample count "
             "and median host seconds printed"),
    EndToEnd("items_per_s", "1/s", "higher", 0.25,
             "simulated jobs completed per reference second (jobs_per_s) on "
             "the simulation workloads; sweep cells completed over both legs "
             "per reference second (cells_per_s) on sweep-tiny"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.25,
             "peak resident memory of the benchmark process (VmHWM), "
             "including the host reference's ~10 MB"),
)

_ENGINE = "simulator.engine"
_CLUSTER = "simulator.cluster"
_RJMS = "scheduler.rjms"
_POLICY = "scheduler.policy"

PER_LAYER = (
    PerLayer("engine.events", "count", "lower", _ENGINE,
             "exact; a pure speed-up leaves it unchanged", SIMULATION),
    PerLayer("engine.pending_calls", "count", "lower", _ENGINE,
             "wall_s", ("easy-long",)),
    PerLayer("engine.pending_s", "s", "lower", _ENGINE,
             "wall_s", ("easy-long",)),
    PerLayer("cluster.current_power_calls", "count", "lower", _CLUSTER,
             "items_per_s", ("easy-long", "power-managed")),
    PerLayer("cluster.current_power_s", "s", "lower", _CLUSTER,
             "items_per_s", ("easy-long", "power-managed")),
    PerLayer("cluster.write_calls", "count", "lower", _CLUSTER,
             "wall_s", ("power-managed",)),
    PerLayer("cluster.write_s", "s", "lower", _CLUSTER,
             "wall_s", ("power-managed",)),
    PerLayer("cluster.accrue_s", "s", "lower", _CLUSTER,
             "wall_s", SIMULATION),
    PerLayer("rjms.self_s", "s", "lower", _RJMS,
             "items_per_s", ("easy-long",)),
    PerLayer("sim.cost_growth", "ratio", "lower", _RJMS,
             "items_per_s", ("easy-long",)),
    PerLayer("policy.passes", "count", "lower", _POLICY,
             "exact count", SIMULATION),
    PerLayer("policy.starts", "count", "lower", _POLICY,
             "exact count", SIMULATION),
    PerLayer("policy.schedule_s", "s", "lower", _POLICY,
             "wall_s; should not move on easy-long", ("carbon-backfill",)),
    PerLayer("policy.schedule_p50_ms", "ms", "lower", _POLICY,
             "wall_s; should not move on easy-long", ("carbon-backfill",)),
    PerLayer("policy.schedule_p99_ms", "ms", "lower", _POLICY,
             "wall_s; should not move on easy-long", ("carbon-backfill",)),
    PerLayer("forecast.fits", "count", "lower", "grid.forecast",
             "wall_s", ("carbon-backfill",)),
    PerLayer("forecast.predicts", "count", "lower", "grid.forecast",
             "wall_s", ("carbon-backfill",)),
    PerLayer("forecast.predict_s", "s", "lower", "grid.forecast",
             "wall_s", ("carbon-backfill",)),
    PerLayer("intensity.integrals", "count", "lower", "grid.intensity",
             "wall_s", ("carbon-backfill", "easy-long")),
    PerLayer("intensity.integral_s", "s", "lower", "grid.intensity",
             "wall_s", ("carbon-backfill", "easy-long")),
    PerLayer("intensity.windows", "count", "lower", "grid.intensity",
             "wall_s", ("carbon-backfill", "easy-long")),
    PerLayer("provider.calls", "count", "lower", "grid.providers",
             "wall_s", SIMULATION),
    PerLayer("provider.s", "s", "lower", "grid.providers",
             "wall_s", SIMULATION),
    PerLayer("service.lookups", "count", "lower", "service",
             "wall_s", SIMULATION),
    PerLayer("service.self_s", "s", "lower", "service",
             "wall_s", SIMULATION),
    PerLayer("service.hit_ratio", "ratio", "higher", "service",
             "wall_s; base is service.cache_gets", SIMULATION),
    PerLayer("service.cache_gets", "count", "lower", "service",
             "base of service.hit_ratio", SIMULATION),
    PerLayer("telemetry.records", "count", "lower", "simulator.telemetry",
             "wall_s", ("power-managed",)),
    PerLayer("telemetry.s", "s", "lower", "simulator.telemetry",
             "wall_s", ("power-managed",)),
    PerLayer("powerstack.ticks", "count", "lower", "powerstack",
             "wall_s", ("power-managed",)),
    PerLayer("powerstack.s", "s", "lower", "powerstack",
             "wall_s", ("power-managed",)),
    PerLayer("powerstack.cap_changes", "count", "lower", "powerstack",
             "wall_s", ("power-managed",)),
    PerLayer("checkpoint.s", "s", "lower", "scheduler.carbon_checkpoint",
             "wall_s", ("power-managed",)),
    PerLayer("checkpoint.suspends", "count", "lower",
             "scheduler.carbon_checkpoint", "wall_s", ("power-managed",)),
    PerLayer("checkpoint.resumes", "count", "lower",
             "scheduler.carbon_checkpoint", "wall_s", ("power-managed",)),
    PerLayer("sweep.cells", "count", "higher", "parallel",
             "items_per_s", ("sweep-tiny",)),
    PerLayer("sweep.cell_s", "s", "lower", "parallel",
             "items_per_s", ("sweep-tiny",)),
    PerLayer("sweep.plain_s", "s", "lower", "parallel",
             "items_per_s", ("sweep-tiny",)),
    PerLayer("sweep.robust_s", "s", "lower", "chaos",
             "items_per_s", ("sweep-tiny",)),
    PerLayer("sweep.plain_overhead_ms_per_cell", "ms", "lower", "parallel",
             "items_per_s", ("sweep-tiny",)),
    PerLayer("sweep.robust_overhead_ms_per_cell", "ms", "lower", "chaos",
             "items_per_s", ("sweep-tiny",)),
    PerLayer("sweep.effective_parallelism", "ratio", "higher", "parallel",
             "items_per_s", ("sweep-tiny",)),
    PerLayer("sweep.retried", "count", "lower", "chaos",
             "items_per_s", ("sweep-tiny",)),
    PerLayer("sweep.quarantined", "count", "lower", "chaos",
             "items_per_s", ("sweep-tiny",)),
    PerLayer("trace.overhead_ratio", "ratio", "lower", "obs",
             "traced wall_s / untraced wall_s - 1", ALL),
)

#: per-layer counts that must repeat exactly between runs of one seed
EXACT_COUNTS = ("engine.events", "policy.passes", "policy.starts",
                "forecast.predicts", "intensity.integrals",
                "service.lookups", "powerstack.cap_changes",
                "checkpoint.suspends", "sweep.cells")
