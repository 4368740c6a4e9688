"""Per-job carbon profiles and job reports — the DCDB extension (§3.4).

"It is necessary to extend operational data analytics tools, such as
DCDB, to be able to quantify and aggregate carbon emissions data derived
from submitted HPC jobs; only then a comprehensive HPC job carbon
profile can be established and integrated into job reports."

:func:`build_job_report` assembles exactly that profile from the RJMS
accounting ledger plus the intensity provider: energy, carbon, the mean
intensity the job experienced, how much of it ran in green periods,
over-allocation waste, and the §3.4 analogies.  :func:`render_report`
produces the text block a user would see appended to their job output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import units
from repro.accounting.analogies import describe
from repro.grid.green import find_green_periods
from repro.grid.providers import CarbonIntensityProvider
from repro.scheduler.rjms import JobAccount
from repro.service.core import CarbonService
from repro.simulator.jobs import Job

__all__ = ["JobCarbonReport", "build_job_report", "render_report"]


@dataclass(frozen=True)
class JobCarbonReport:
    """The carbon profile of one completed job."""

    job_id: int
    user: str
    project: str
    n_nodes: int
    runtime_s: float
    energy_kwh: float
    carbon_kg: float
    mean_intensity_g_per_kwh: float
    green_fraction: float
    overallocation_waste_kwh: float
    analogy: str

    def __post_init__(self) -> None:
        if self.energy_kwh < 0 or self.carbon_kg < 0:
            raise ValueError("energy and carbon must be non-negative")


def build_job_report(job: Job, account: JobAccount,
                     provider: CarbonIntensityProvider,
                     green_threshold: float = 0.9) -> JobCarbonReport:
    """Assemble the carbon profile of a finished job.

    ``overallocation_waste_kwh`` estimates the energy burnt by nodes the
    user requested but did not use (``nodes_used < nodes_requested``):
    the idle-ish draw of the surplus nodes over the job's runtime — the
    §3.4 "suboptimal utilization ... contributes to higher carbon
    emissions" quantified per job.
    """
    if job.end_time is None or job.start_time is None:
        raise ValueError(f"job {job.job_id} has not finished")
    runtime = job.end_time - job.start_time
    t0, t1 = job.start_time, job.end_time
    # consume through the serving layer: report generation for a whole
    # campaign re-reads many overlapping windows, and a flaky backend
    # must degrade to cached values rather than kill the report run
    service = CarbonService.ensure(provider)
    history = service.history(t0, t1) if t1 > t0 else None
    mean_ci = history.mean_over(t0, t1) if history is not None else 0.0
    green_frac = 0.0
    if history is not None and runtime > 0:
        periods = find_green_periods(history, green_threshold)
        green_s = sum(p.overlaps(t0, t1) for p in periods)
        green_frac = min(1.0, green_s / runtime)

    surplus = max(0, job.nodes_requested - job.nodes_used)
    waste_kwh = 0.0
    if surplus:
        # surplus nodes draw like the rest (same utilization model), so
        # their share of the job energy is the node-count fraction
        waste_kwh = account.energy_kwh * surplus / job.nodes_requested

    return JobCarbonReport(
        job_id=job.job_id,
        user=job.user,
        project=job.project,
        n_nodes=job.nodes_requested,
        runtime_s=runtime,
        energy_kwh=account.energy_kwh,
        carbon_kg=account.carbon_g / units.GRAMS_PER_KG,
        mean_intensity_g_per_kwh=mean_ci,
        green_fraction=green_frac,
        overallocation_waste_kwh=waste_kwh,
        analogy=describe(account.carbon_g),
    )


def render_report(report: JobCarbonReport) -> str:
    """Text job report, as it would appear in the job's epilogue."""
    lines = [
        f"=== Carbon report for job {report.job_id} "
        f"(user {report.user}, project {report.project}) ===",
        f"  nodes: {report.n_nodes}   runtime: {report.runtime_s / units.SECONDS_PER_HOUR:.2f} h",
        f"  energy: {report.energy_kwh:.2f} kWh   "
        f"carbon: {report.carbon_kg:.3f} kgCO2e "
        f"(mean grid intensity {report.mean_intensity_g_per_kwh:.0f} gCO2e/kWh)",
        f"  share of runtime in green periods: {report.green_fraction * 100:.0f}%",
    ]
    if report.overallocation_waste_kwh > 0:
        lines.append(
            f"  over-allocation waste: {report.overallocation_waste_kwh:.2f} kWh "
            "(requested nodes that did no work)")
    lines.append(f"  {report.analogy}")
    return "\n".join(lines)
