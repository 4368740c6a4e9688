"""Carbon-aware backfill plugin (§3.3).

"Combined with forecasting techniques that leverage historical carbon
intensity data, these plugins can intelligently backfill submitted jobs
with suitable execution times during green periods."

The policy wraps EASY backfill with a *carbon gate*: a job that could
start now is **held** if (a) the present moment is carbon-expensive
relative to the forecast over the job's feasible start window, and
(b) holding it cannot push it past its delay bound.  Concretely, for
each startable job the policy compares the forecast mean intensity over
``[now, now + runtime]`` against the best achievable mean over start
times within the slack window; it holds the job when starting later
saves at least ``min_saving_fraction``.

Cost: the gate runs for every startable job of every pass, so it forecasts
through :meth:`~repro.grid.forecast.Forecaster.forecast`, the forecaster's
memo — all jobs of a pass (and passes within one history sample) share
one trailing-history window, so the forecaster refits once per distinct
window and predicts once per longest horizon since that fit, serving
shorter horizons as prefixes.  The candidate start times ``now + k·step``
are scanned in one vectorized pass,
:meth:`~repro.grid.intensity.CarbonIntensityTrace.window_means`, over a
compensated prefix sum of the forecast.  The horizon runs one step past
the last window, so the scan never reaches outside the forecast.

Starvation safety: a job whose accumulated wait exceeds ``max_delay_s``
bypasses the gate unconditionally, so the policy degrades to plain EASY
under persistent red skies.  The head job's reservation logic is
untouched — holding is only ever applied to jobs that would *start*,
never to the backfill-window computation, so held capacity is available
to later non-held jobs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.grid.forecast import Forecaster, SeasonalNaiveForecaster
from repro.scheduler.backfill import EasyBackfillPolicy
from repro.scheduler.rjms import SchedulerPolicy, SchedulingContext, StartDecision
from repro.service.core import CarbonService
from repro.simulator.jobs import Job
from repro import units

__all__ = ["CarbonBackfillPolicy"]


class CarbonBackfillPolicy(SchedulerPolicy):
    """EASY backfill with a forecast-driven green-period gate.

    Parameters
    ----------
    forecaster:
        Any :class:`~repro.grid.forecast.Forecaster`; fit on trailing
        history each pass. Defaults to seasonal-naive (the strong cheap
        baseline). Pass an oracle for the upper bound ablation.
    max_delay_s:
        Hard bound on added queue delay per job (default 12 h).
    min_saving_fraction:
        Hold a job only if the forecast promises at least this relative
        carbon saving (default 5%) — avoids churn on flat signals.
    history_s:
        Length of trailing history used to fit the forecaster.
    min_job_seconds:
        Jobs shorter than this are never held (they cannot exploit a
        green window; churn costs more than it saves).
    """

    def __init__(self, forecaster: Optional[Forecaster] = None,
                 max_delay_s: float = 12 * units.SECONDS_PER_HOUR,
                 min_saving_fraction: float = 0.05,
                 history_s: float = 7 * units.SECONDS_PER_DAY,
                 min_job_seconds: float = 900.0) -> None:
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if not 0.0 <= min_saving_fraction < 1.0:
            raise ValueError("min_saving_fraction must be in [0, 1)")
        if history_s <= 0:
            raise ValueError("history_s must be positive")
        self.forecaster = forecaster or SeasonalNaiveForecaster()
        self.max_delay_s = float(max_delay_s)
        self.min_saving_fraction = float(min_saving_fraction)
        self.history_s = float(history_s)
        self.min_job_seconds = float(min_job_seconds)
        self._inner = EasyBackfillPolicy()
        #: memoized serving-layer front per backing provider — every
        #: startable job in one pass asks for the same trailing-history
        #: window, so fetching it through the cache turns N backend
        #: round trips per pass into one
        self._service: Optional[CarbonService] = None

    # -- carbon gate -----------------------------------------------------------

    def _service_for(self, provider) -> CarbonService:
        if self._service is None or (
                self._service is not provider
                and self._service.backend is not provider):
            self._service = CarbonService.ensure(provider)
        return self._service

    def _forecast(self, ctx: SchedulingContext, horizon_s: float):
        """Forecast trace covering [now, now + horizon]; None if infeasible."""
        t0 = max(0.0, ctx.now - self.history_s)
        if ctx.now - t0 < 2 * units.SECONDS_PER_HOUR:
            return None  # not enough history to say anything
        try:
            history = self._service_for(ctx.provider).history(t0, ctx.now)
        except ValueError:
            return None
        # one step past the horizon, so the last window ends inside it
        steps = int(np.ceil(horizon_s / history.step_seconds)) + 1
        return self.forecaster.forecast(history, max(1, steps))

    def _should_hold(self, ctx: SchedulingContext, job: Job) -> bool:
        """True when delaying this job promises enough carbon savings."""
        waited = ctx.now - job.submit_time
        slack = self.max_delay_s - waited
        if slack <= 0:
            return False  # starvation guard: start it
        runtime = min(job.runtime_estimate, job.work_seconds * 2)
        if runtime < self.min_job_seconds:
            return False
        forecast = self._forecast(ctx, slack + runtime)
        if forecast is None:
            return False
        return self._hold_for_greener(forecast, runtime, slack)

    def _hold_for_greener(self, forecast, runtime_s: float,
                          slack_s: float) -> bool:
        """True when a start ``k·step`` into ``forecast`` (``k·step <=
        slack_s``) beats starting now by ``min_saving_fraction``."""
        means = forecast.window_means(
            forecast.start_time, runtime_s,
            int(slack_s // forecast.step_seconds))
        now_mean = float(means[0])
        if now_mean <= 0:
            return False
        best = float(means.min())
        return (now_mean - best) / now_mean >= self.min_saving_fraction

    # -- policy ------------------------------------------------------------------

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        base = self._inner.schedule(ctx)
        if not base:
            return base
        held_ids = set()
        out: List[StartDecision] = []
        for d in base:
            if d.job.job_id not in held_ids and self._should_hold(ctx, d.job):
                held_ids.add(d.job.job_id)
                continue
            out.append(d)
        if len(out) == len(base):
            return out
        # Holding freed nodes: rerun the inner policy on the reduced
        # queue so non-held jobs may use the capacity (single fixpoint
        # iteration; holding decisions are sticky within this pass).
        reduced = SchedulingContext(
            now=ctx.now,
            pending=[j for j in ctx.pending if j.job_id not in held_ids],
            cluster=ctx.cluster,
            provider=ctx.provider,
            running=ctx.running,
            expected_end=ctx.expected_end,
        )
        out2 = self._inner.schedule(reduced)
        final: List[StartDecision] = []
        for d in out2:
            if self._should_hold(ctx, d.job):
                continue
            final.append(d)
        return final
