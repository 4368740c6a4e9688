"""Per-layer metrics of one traced iteration.

Counts are exact and repeat from iteration to iteration.  Every ``_s``
metric is self time — span duration minus the traced calls nested in
it — except the pass-latency percentiles, which are whole scheduling
passes.  The sweep metrics come from the executor's ``SweepStats``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from perfbench.tracing import LayerView, SpanRecorder


def _sim_metrics(view: LayerView, legs) -> Dict[str, float]:
    passes = view.outer_durations("policy")
    hits = misses = 0
    for leg in legs:
        snap = leg.rjms.provider.snapshot()
        hits += snap.get("cache.hits", 0)
        misses += snap.get("cache.misses", 0)
    gets = hits + misses
    return {
        "engine.events": sum(leg.rjms.engine.processed for leg in legs),
        "engine.pending_calls": view.calls("engine.pending"),
        "engine.pending_s": view.self_time("engine.pending"),
        "cluster.current_power_calls": view.calls("cluster.current_power"),
        "cluster.current_power_s": view.self_time("cluster.current_power"),
        "cluster.write_calls": view.calls("cluster.write"),
        "cluster.write_s": view.self_time("cluster.write"),
        "cluster.accrue_s": view.self_time("cluster.accrue"),
        "rjms.self_s": view.self_time("rjms"),
        "policy.passes": sum(leg.counter.passes for leg in legs),
        "policy.starts": sum(leg.counter.starts for leg in legs),
        "policy.schedule_s": view.self_time("policy"),
        "policy.schedule_p50_ms": (float(np.percentile(passes, 50)) * 1e3
                                   if len(passes) else 0.0),
        "policy.schedule_p99_ms": (float(np.percentile(passes, 99)) * 1e3
                                   if len(passes) else 0.0),
        "forecast.fits": view.calls("forecast.fit"),
        "forecast.predicts": view.calls("forecast.predict"),
        "forecast.predict_s": view.self_time("forecast.predict"),
        "intensity.integrals": view.calls("intensity.integrate"),
        "intensity.integral_s": view.self_time("intensity.integrate"),
        "intensity.windows": view.calls("intensity.window"),
        "provider.calls": view.calls("provider"),
        "provider.s": view.self_time("provider"),
        "service.lookups": view.calls("service"),
        "service.self_s": view.self_time("service"),
        "service.hit_ratio": hits / gets if gets else 0.0,
        "service.cache_gets": gets,
        "telemetry.records": view.calls("telemetry"),
        "telemetry.s": view.self_time("telemetry"),
        "powerstack.ticks": view.calls("powerstack"),
        "powerstack.s": view.self_time("powerstack"),
        "powerstack.cap_changes": view.count("rjms.set_job_cap"),
        "checkpoint.s": view.self_time("checkpoint"),
        "checkpoint.suspends": view.count("rjms.suspend_job"),
        "checkpoint.resumes": view.count("rjms.resume_job"),
    }


def _sweep_metrics(legs, workers: int) -> Dict[str, float]:
    plain, robust = legs

    def overhead_ms(stats) -> float:
        return ((stats.wall_s * workers - stats.cell_time_total_s)
                / stats.n_cells * 1e3)

    cell_s = plain.stats.cell_time_total_s + robust.stats.cell_time_total_s
    wall_s = plain.stats.wall_s + robust.stats.wall_s
    return {
        "sweep.cells": plain.stats.n_cells + robust.stats.n_cells,
        "sweep.cell_s": cell_s,
        "sweep.plain_s": plain.stats.wall_s,
        "sweep.robust_s": robust.stats.wall_s,
        "sweep.plain_overhead_ms_per_cell": overhead_ms(plain.stats),
        "sweep.robust_overhead_ms_per_cell": overhead_ms(robust.stats),
        "sweep.effective_parallelism": cell_s / wall_s,
        "sweep.retried": robust.stats.n_retried + plain.stats.n_retried,
        "sweep.quarantined": len(robust.quarantined) + len(plain.quarantined),
    }


def layer_metrics(rec: SpanRecorder, outcome, wl) -> Dict[str, float]:
    """All per-layer metrics the traced iteration exercised.

    Metrics of layers the workload never enters are left out here and
    reported as 0 by the caller.
    """
    if wl.kind == "sweep":
        return _sweep_metrics(outcome.detail, wl.workers)
    return _sim_metrics(LayerView(rec), outcome.detail)
