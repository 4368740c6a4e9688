"""Tests for the carbon-aware backfill plugin (§3.3)."""

import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.grid import CarbonIntensityTrace, SyntheticProvider
from repro.grid.forecast import (ARForecaster, OracleForecaster,
                                 PersistenceForecaster,
                                 SeasonalNaiveForecaster)
from repro.scheduler import CarbonBackfillPolicy, EasyBackfillPolicy, RJMS
from repro.simulator import Cluster, WorkloadConfig, WorkloadGenerator

HOUR = 3600.0
DAY = 86400.0


@pytest.fixture
def light_workload():
    """Unsaturated load so the scheduler has freedom to shift jobs."""
    cfg = WorkloadConfig(n_jobs=80, mean_interarrival_s=4000.0,
                         max_nodes_log2=3, runtime_median_s=2 * HOUR,
                         runtime_sigma=0.8)
    return WorkloadGenerator(cfg, seed=3).generate()


def run(node_power_model, jobs, policy, zone="ES", seed=7):
    cluster = Cluster(16, node_power_model, idle_power_off=True)
    provider = SyntheticProvider(zone, seed=seed)
    return RJMS(cluster, copy.deepcopy(jobs), policy,
                provider=provider).run()


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            CarbonBackfillPolicy(max_delay_s=-1.0)
        with pytest.raises(ValueError):
            CarbonBackfillPolicy(min_saving_fraction=1.0)
        with pytest.raises(ValueError):
            CarbonBackfillPolicy(history_s=0.0)


class TestBehaviour:
    def test_all_jobs_complete(self, node_power_model, light_workload):
        result = run(node_power_model, light_workload,
                     CarbonBackfillPolicy(max_delay_s=DAY))
        assert len(result.completed_jobs) == len(light_workload)

    def test_saves_carbon_vs_easy(self, node_power_model, light_workload):
        """The §3.3 headline: green-period placement cuts carbon."""
        base = run(node_power_model, light_workload, EasyBackfillPolicy())
        carbon = run(node_power_model, light_workload,
                     CarbonBackfillPolicy(max_delay_s=DAY,
                                          min_saving_fraction=0.03))
        assert carbon.total_carbon_kg < base.total_carbon_kg * 0.99

    def test_oracle_bounds_realistic_forecast(self, node_power_model,
                                              light_workload):
        """Forecast-quality ablation: oracle >= seasonal-naive savings."""
        base = run(node_power_model, light_workload, EasyBackfillPolicy())
        sn = run(node_power_model, light_workload,
                 CarbonBackfillPolicy(max_delay_s=DAY,
                                      min_saving_fraction=0.03))
        oracle = run(node_power_model, light_workload,
                     CarbonBackfillPolicy(
                         forecaster=OracleForecaster(
                             SyntheticProvider("ES", seed=7)),
                         max_delay_s=DAY, min_saving_fraction=0.03))
        assert oracle.total_carbon_kg <= sn.total_carbon_kg + 1e-6
        assert oracle.total_carbon_kg < base.total_carbon_kg

    def test_persistence_forecast_never_holds(self, node_power_model,
                                              light_workload):
        """A flat forecast shows no better window, so the policy
        degenerates to plain EASY — an important sanity property."""
        base = run(node_power_model, light_workload, EasyBackfillPolicy())
        pers = run(node_power_model, light_workload,
                   CarbonBackfillPolicy(forecaster=PersistenceForecaster(),
                                        max_delay_s=DAY))
        assert pers.total_carbon_kg == pytest.approx(
            base.total_carbon_kg, rel=1e-6)
        assert pers.mean_wait_s == pytest.approx(base.mean_wait_s, abs=1.0)

    def test_bounded_delay_no_starvation(self, node_power_model,
                                         light_workload):
        max_delay = 6 * HOUR
        result = run(node_power_model, light_workload,
                     CarbonBackfillPolicy(max_delay_s=max_delay))
        base = run(node_power_model, light_workload, EasyBackfillPolicy())
        base_waits = {j.job_id: j.wait_time for j in base.jobs}
        for j in result.jobs:
            # wait grows by at most the delay bound (+ one tick slack)
            assert j.wait_time <= base_waits[j.job_id] + max_delay + 1800.0

    def test_holding_costs_wait_time(self, node_power_model,
                                     light_workload):
        """Carbon savings are bought with queue delay — report honestly."""
        base = run(node_power_model, light_workload, EasyBackfillPolicy())
        carbon = run(node_power_model, light_workload,
                     CarbonBackfillPolicy(max_delay_s=DAY,
                                          min_saving_fraction=0.03))
        assert carbon.mean_wait_s > base.mean_wait_s


# -- the gate's fast path against its slow reference -----------------------


def reference_scan(forecast, runtime, slack):
    """The gate's original scan, kept as the oracle: one ``mean_over``
    per candidate start ``k·step`` within the slack; returns
    ``(now_mean, best_mean)``."""
    now_mean = forecast.mean_over(forecast.start_time,
                                  forecast.start_time + runtime)
    step = forecast.step_seconds
    best = now_mean
    for k in range(1, int(slack // step) + 1):
        s = forecast.start_time + k * step
        e = min(s + runtime, forecast.end_time)
        if e <= s:
            break
        m = forecast.mean_over(s, e)
        if m < best:
            best = m
    return now_mean, best


class ReferenceCarbonBackfillPolicy(CarbonBackfillPolicy):
    """The gate before the forecast memo and the window scan: refit and
    re-predict for every candidate, then :func:`reference_scan`."""

    def _forecast(self, ctx, horizon_s):
        t0 = max(0.0, ctx.now - self.history_s)
        if ctx.now - t0 < 2 * HOUR:
            return None
        try:
            history = self._service_for(ctx.provider).history(t0, ctx.now)
        except ValueError:
            return None
        self.forecaster.fit(history)
        steps = int(np.ceil(horizon_s / history.step_seconds)) + 1
        return self.forecaster.predict(max(1, steps))

    def _hold_for_greener(self, forecast, runtime_s, slack_s):
        now_mean, best = reference_scan(forecast, runtime_s, slack_s)
        if now_mean <= 0:
            return False
        return (now_mean - best) / now_mean >= self.min_saving_fraction


@st.composite
def gate_inputs(draw):
    """A forecast sized as the policy sizes it, a runtime and a slack.

    Times are whole seconds, so the reference's own time arithmetic
    (``s + runtime``, bin overlaps) is exact and the comparison measures
    the scan alone.  Intensities are 0 or ``10**x`` g/kWh for x in
    [-3, 3.3]: no float running total resolves a window of subnormal
    values after values in the thousands.
    """
    step = draw(st.integers(60, 7200))
    kind = draw(st.sampled_from(["sub-step", "multiple", "fractional"]))
    if kind == "sub-step":
        runtime = draw(st.integers(1, step - 1))
    else:
        runtime = step * draw(st.integers(1, 48))
        if kind == "fractional":
            runtime += draw(st.integers(1, step - 1))
    slack = draw(st.integers(0, 4 * int(DAY)))
    n = int(np.ceil((slack + runtime) / step)) + 1 + draw(st.integers(0, 3))
    sample = st.tuples(st.integers(0, 9), st.floats(-3.0, 3.3)).map(
        lambda z_e: 0.0 if z_e[0] == 0 else 10.0 ** z_e[1])
    values = draw(st.lists(sample, min_size=n, max_size=n))
    if draw(st.booleans()):
        # large values first: the best window then sits where the
        # running total dwarfs it
        values.sort(reverse=True)
    start = float(step * draw(st.integers(0, 24 * 90)))
    forecast = CarbonIntensityTrace(np.array(values), float(step), start)
    return forecast, float(runtime), float(slack)


class TestGateMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(inputs=gate_inputs(), saving=st.floats(0.0, 0.5))
    def test_hold_decision_and_best_mean(self, inputs, saving):
        forecast, runtime, slack = inputs
        now_ref, best_ref = reference_scan(forecast, runtime, slack)
        means = forecast.window_means(forecast.start_time, runtime,
                                      int(slack // forecast.step_seconds))
        assert means[0] == pytest.approx(now_ref, rel=1e-12, abs=0.0)
        assert means.min() == pytest.approx(best_ref, rel=1e-12, abs=0.0)
        # the two paths round differently in the last ulps: a reference
        # saving that ties the threshold to 1e-12 may fall either way
        if now_ref > 0:
            assume(abs((now_ref - best_ref) / now_ref - saving) > 1e-12)
        policy = CarbonBackfillPolicy(min_saving_fraction=saving)
        reference = ReferenceCarbonBackfillPolicy(min_saving_fraction=saving)
        assert (policy._hold_for_greener(forecast, runtime, slack)
                == reference._hold_for_greener(forecast, runtime, slack))


class CountingSeasonalNaive(SeasonalNaiveForecaster):
    def __init__(self):
        super().__init__()
        self.fits = 0

    def fit(self, history):
        self.fits += 1
        return super().fit(history)


class TestPolicyMatchesReference:
    @pytest.mark.parametrize("make", [CountingSeasonalNaive,
                                      lambda: ARForecaster(order=4)],
                             ids=["seasonal-naive", "ar4"])
    def test_same_starts_and_carbon(self, node_power_model, light_workload,
                                    make):
        kw = dict(max_delay_s=DAY, min_saving_fraction=0.03)
        fast_fc, ref_fc = make(), make()
        fast = run(node_power_model, light_workload,
                   CarbonBackfillPolicy(forecaster=fast_fc, **kw))
        ref = run(node_power_model, light_workload,
                  ReferenceCarbonBackfillPolicy(forecaster=ref_fc, **kw))
        assert ([(j.job_id, j.start_time) for j in fast.jobs]
                == [(j.job_id, j.start_time) for j in ref.jobs])
        assert fast.total_carbon_kg == ref.total_carbon_kg
        if isinstance(fast_fc, CountingSeasonalNaive):
            assert fast_fc.fits < ref_fc.fits / 5

    def test_outside_refit_between_passes(self, node_power_model,
                                          light_workload):
        """Refitting the policy's forecaster on another history between
        scheduling passes must not leave the gate a stale forecast."""
        other = SyntheticProvider("DE", seed=1).history(0.0, 3 * DAY)

        class Meddling(CarbonBackfillPolicy):
            def schedule(self, ctx):
                self.forecaster.fit(other)
                return super().schedule(ctx)

        kw = dict(max_delay_s=DAY, min_saving_fraction=0.03)
        meddled = run(node_power_model, light_workload, Meddling(**kw))
        ref = run(node_power_model, light_workload,
                  ReferenceCarbonBackfillPolicy(**kw))
        assert ([j.start_time for j in meddled.jobs]
                == [j.start_time for j in ref.jobs])
