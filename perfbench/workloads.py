"""The four benchmark workloads: inputs, one iteration, and its checks.

Every workload is a closed loop with one caller: an iteration starts
when the previous one returned.  Simulated arrivals follow simulated
time.  ``--seed`` draws the job trace (or the sweep grid); the grid
carbon signal is each site's fixed synthetic series, seeded as in the
E10/E11 experiments, so that a seed changes the jobs and not the site.

Each iteration builds its own ``SyntheticProvider`` and deep-copies the
job trace, as every real run does, so provider horizon generation is
part of the iteration's time.  Job-trace generation, and the serial
reference run of the sweep grid, are set-up.
"""

from __future__ import annotations

import copy
import hashlib
import os
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro import units
from repro.grid import SyntheticProvider
from repro.grid.forecast import ARForecaster, SeasonalNaiveForecaster
from repro.parallel import executor
from repro.parallel.scenarios import footprint_cell
from repro.powerstack import LinearScalingPolicy, SiteController
from repro.scheduler import (
    RJMS,
    CarbonBackfillPolicy,
    CarbonCheckpointPolicy,
    EasyBackfillPolicy,
)
from repro.scheduler.rjms import SchedulerPolicy, SchedulingContext
from repro.simulator import (
    CheckpointModel,
    Cluster,
    ComponentPowerModel,
    NodePowerModel,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.simulator.jobs import JobState

DEFAULT_SEED = 1
PM = NodePowerModel(cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2)
REL_TOL = 1e-9


class PassCounter(SchedulerPolicy):
    """Counts scheduling passes and starts around the real policy.

    Exact counts the benchmark checks in every iteration, traced or
    not; one extra call per pass, with no effect on the decisions.
    """

    def __init__(self, inner: SchedulerPolicy) -> None:
        self.inner = inner
        self.can_mold = bool(getattr(inner, "can_mold", False))
        self.passes = 0
        self.starts = 0

    def schedule(self, ctx: SchedulingContext):
        decisions = self.inner.schedule(ctx)
        self.passes += 1
        self.starts += len(decisions)
        return decisions


class Leg(NamedTuple):
    """One simulation run of an iteration and what it produced."""

    rjms: RJMS
    result: Any
    counter: PassCounter


class Outcome(NamedTuple):
    """What one iteration reports to the measurement loop."""

    items: int          # jobs completed, or sweep cells completed
    attempted: int      # operations attempted (iterations or cells)
    failed: int         # operations that failed a check
    errors: List[str]   # why, for the log
    fingerprint: tuple  # must repeat exactly from iteration to iteration
    detail: Any         # workload-specific data for per-layer metrics


# -- correctness oracle -------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def oracle_errors(leg: Leg, n_jobs: int) -> List[str]:
    """Check one simulation against references that bypass the service.

    Total carbon is recomputed from ``Cluster.power_segments()`` and the
    raw provider trace with a plain NumPy integral of the step signal;
    energy from the same segments.  Both must match to 1e-9 relative.
    """
    errs: List[str] = []
    r, rjms = leg.result, leg.rjms
    segs = np.asarray(rjms.cluster.power_segments(), dtype=np.float64)
    backend = getattr(rjms.provider, "backend", rjms.provider)
    t_end = float(segs[:, 1].max())
    raw = backend.history(0.0, t_end)
    vals = np.asarray(raw.values, dtype=np.float64)
    step, origin = raw.step_seconds, raw.start_time
    # cumulative intensity integral at every sample edge, (g/kWh)*s
    edges = np.concatenate(([0.0], np.cumsum(vals * step)))

    def cum(t: np.ndarray) -> np.ndarray:
        k = np.clip(np.floor((t - origin) / step).astype(np.int64),
                    0, len(vals) - 1)
        return edges[k] + vals[k] * (t - (origin + k * step))

    t0, t1, watts = segs[:, 0], segs[:, 1], segs[:, 2]
    carbon_g = np.sum(watts / units.WATTS_PER_KW * (cum(t1) - cum(t0))
                      / units.SECONDS_PER_HOUR)
    carbon_kg = float(carbon_g) / units.GRAMS_PER_KG
    energy_kwh = float(np.sum(watts * (t1 - t0))) / units.JOULES_PER_KWH
    if not _close(carbon_kg, r.total_carbon_kg):
        errs.append(f"carbon {r.total_carbon_kg!r} kg != oracle "
                    f"{carbon_kg!r} kg")
    if not _close(energy_kwh, r.total_energy_kwh):
        errs.append(f"energy {r.total_energy_kwh!r} kWh != oracle "
                    f"{energy_kwh!r} kWh")
    done = sum(1 for j in r.jobs if j.state is JobState.COMPLETED)
    if done != n_jobs:
        errs.append(f"{done}/{n_jobs} jobs completed")
    early = [j.job_id for j in r.jobs
             if j.start_time is None or j.start_time < j.submit_time]
    if early:
        errs.append(f"jobs never started or started before submit: "
                    f"{early[:5]}")
    try:
        rjms.cluster.check_invariants()
    except AssertionError as exc:
        errs.append(f"cluster invariant: {exc}")
    return errs


def leg_digest(legs: Sequence[Leg]) -> Dict[str, Any]:
    """Start times exactly (hashed) plus carbon and energy per leg."""
    h = hashlib.sha256()
    for leg in legs:
        for j in leg.result.jobs:
            h.update(f"{j.job_id}:{float(j.start_time).hex()};".encode())
        h.update(b"|")
    return {"starts_sha256": h.hexdigest(),
            "carbon_kg": [leg.result.total_carbon_kg for leg in legs],
            "energy_kwh": [leg.result.total_energy_kwh for leg in legs]}


def pin_errors(digest: Dict[str, Any], pin: Dict[str, Any]) -> List[str]:
    errs = []
    if digest["starts_sha256"] != pin["starts_sha256"]:
        errs.append("job start times differ from the pinned reference")
    for key in ("carbon_kg", "energy_kwh"):
        got, want = digest[key], pin[key]
        if len(got) != len(want) or not all(
                _close(g, w) for g, w in zip(got, want)):
            errs.append(f"{key} {got} != pinned {want}")
    return errs


# -- simulation workloads -----------------------------------------------------


class SimWorkload:
    """A seeded job trace run through one or more RJMS configurations."""

    kind = "simulation"

    def __init__(self, name: str, config: Dict[str, Any], n_nodes: int,
                 zone: str, provider_seed: int, idle_power_off: bool):
        self.name = name
        self.config = config
        self.n_nodes = n_nodes
        self.zone = zone
        self.provider_seed = provider_seed
        self.idle_power_off = idle_power_off
        self.pin: Optional[Dict[str, Any]] = None

    def make_inputs(self, seed: int):
        return WorkloadGenerator(WorkloadConfig(**self.config),
                                 seed=seed).generate()

    def input_digest(self, jobs) -> str:
        h = hashlib.sha256()
        for j in jobs:
            h.update(f"{j.job_id}:{j.submit_time.hex()}:{j.nodes_requested}:"
                     f"{j.work_seconds.hex()};".encode())
        return h.hexdigest()

    def legs(self) -> List[tuple]:
        """(policy, managers factory, checkpoint model) per run."""
        raise NotImplementedError

    def iterate(self, jobs) -> List[Leg]:
        out = []
        for policy, managers, ckpt in self.legs():
            cluster = Cluster(self.n_nodes, PM,
                              idle_power_off=self.idle_power_off)
            counter = PassCounter(policy)
            rjms = RJMS(cluster, copy.deepcopy(jobs), counter,
                        provider=SyntheticProvider(self.zone,
                                                   seed=self.provider_seed),
                        checkpoint_model=ckpt)
            for m in managers(cluster):
                rjms.register_manager(m)
            out.append(Leg(rjms, rjms.run(), counter))
        return out

    def check(self, jobs, legs: List[Leg]) -> Outcome:
        errors: List[str] = []
        for leg in legs:
            errors += oracle_errors(leg, len(jobs))
        digest = leg_digest(legs)
        if self.pin is not None:
            errors += pin_errors(digest, self.pin)
        fingerprint = (digest["starts_sha256"],
                       tuple(leg.rjms.engine.processed for leg in legs),
                       tuple(leg.counter.passes for leg in legs))
        items = sum(len(leg.result.completed_jobs) for leg in legs)
        return Outcome(items, 1, int(bool(errors)), errors, fingerprint,
                       legs)


class CarbonBackfill(SimWorkload):
    def legs(self):
        def policy(forecaster):
            return CarbonBackfillPolicy(forecaster=forecaster,
                                        max_delay_s=units.SECONDS_PER_DAY,
                                        min_saving_fraction=0.03)
        return [(policy(SeasonalNaiveForecaster()), lambda c: (), None),
                (policy(ARForecaster(order=4)), lambda c: (), None)]


class EasyLong(SimWorkload):
    def legs(self):
        return [(EasyBackfillPolicy(), lambda c: (), None)]


class PowerManaged(SimWorkload):
    def legs(self):
        peak, idle = PM.peak_watts, PM.idle_watts

        def managers(cluster):
            # energy-neutral linear anchors over the DE signal, as in E8
            scaling = LinearScalingPolicy(7 * peak + 9 * idle,
                                          15 * peak + 1 * idle,
                                          350.0, 490.0)
            return (SiteController(scaling, cluster),
                    CarbonCheckpointPolicy())
        ckpt = CheckpointModel(state_gb_per_node=8.0, write_bw_gb_s=1.0,
                               read_bw_gb_s=2.0)
        return [(EasyBackfillPolicy(), managers, ckpt)]


# -- sweep workload -----------------------------------------------------------


class SweepInputs(NamedTuple):
    grid: Dict[str, List[float]]
    reference_rows: List[Dict[str, float]]


class SweepTiny:
    """Thousands of ~20 us footprint cells, plain then robust path."""

    kind = "sweep"
    name = "sweep-tiny"
    metric_names = ("total_t", "embodied_share")

    def __init__(self, n_intensities: int, n_lifetimes: int,
                 workers: int, scratch: Path) -> None:
        self.n_intensities = n_intensities
        self.n_lifetimes = n_lifetimes
        self.workers = workers
        self.scratch = scratch

    @property
    def n_cells(self) -> int:
        return self.n_intensities * self.n_lifetimes

    def make_grid(self, seed: int) -> Dict[str, List[float]]:
        rng = np.random.default_rng(seed)
        return {
            "intensity_g_per_kwh": sorted(
                rng.uniform(20.0, 1100.0, self.n_intensities).round(3)
                .tolist()),
            "lifetime_years": sorted(
                rng.uniform(3.0, 10.0, self.n_lifetimes).round(3).tolist()),
        }

    def make_inputs(self, seed: int) -> SweepInputs:
        grid = self.make_grid(seed)
        serial = executor.run_sweep(footprint_cell, grid, self.metric_names,
                                    workers=1)
        return SweepInputs(grid, serial.rows)

    def input_digest(self, inputs: SweepInputs) -> str:
        return hashlib.sha256(repr(inputs.grid).encode()).hexdigest()

    @property
    def journal(self) -> Path:
        return self.scratch / f"journal-{os.getpid()}.jsonl"

    def iterate(self, inputs: SweepInputs):
        plain = executor.run_sweep(footprint_cell, inputs.grid,
                                   self.metric_names, workers=self.workers,
                                   strict=False)
        try:
            robust = executor.run_sweep(footprint_cell, inputs.grid,
                                        self.metric_names,
                                        workers=self.workers, strict=False,
                                        journal_path=str(self.journal),
                                        retries=1)
        finally:
            self.journal.unlink(missing_ok=True)
        return plain, robust

    def check(self, inputs: SweepInputs, legs) -> Outcome:
        plain, robust = legs
        ref = inputs.reference_rows
        errors: List[str] = []
        failed = 0
        for label, res in (("plain", plain), ("robust", robust)):
            bad = (len(res.failures) + len(res.quarantined)
                   + res.stats.n_retried)
            if res.rows != ref:
                bad = max(bad, sum(1 for a, b in zip(res.rows, ref)
                                   if a != b)
                          + abs(len(res.rows) - len(ref)))
                errors.append(f"{label} rows differ from the serial run")
            if bad:
                errors.append(f"{label}: {len(res.failures)} failed, "
                              f"{len(res.quarantined)} quarantined, "
                              f"{res.stats.n_retried} retried")
            failed += bad
        items = len(plain.rows) + len(robust.rows)
        return Outcome(items, 2 * self.n_cells, failed, errors,
                       (plain.stats.n_cells, robust.stats.n_cells), legs)


def build(scratch: Path) -> Dict[str, Any]:
    """The workloads by name, sized to a few seconds per iteration."""
    return {
        "carbon-backfill": CarbonBackfill(
            "carbon-backfill",
            dict(n_jobs=200, mean_interarrival_s=4000.0, max_nodes_log2=4,
                 runtime_median_s=2 * units.SECONDS_PER_HOUR,
                 runtime_sigma=0.8),
            n_nodes=32, zone="ES", provider_seed=7, idle_power_off=True),
        "easy-long": EasyLong(
            "easy-long",
            dict(n_jobs=1000, mean_interarrival_s=2000.0, max_nodes_log2=4,
                 runtime_median_s=2 * units.SECONDS_PER_HOUR,
                 runtime_sigma=0.8),
            n_nodes=32, zone="ES", provider_seed=7, idle_power_off=True),
        "power-managed": PowerManaged(
            "power-managed",
            dict(n_jobs=300, mean_interarrival_s=2200.0, max_nodes_log2=3,
                 runtime_median_s=3 * units.SECONDS_PER_HOUR,
                 runtime_sigma=0.8,
                 suspendable_fraction=0.5),
            n_nodes=16, zone="DE", provider_seed=9, idle_power_off=False),
        "sweep-tiny": SweepTiny(50, 40, workers=2, scratch=scratch),
    }
