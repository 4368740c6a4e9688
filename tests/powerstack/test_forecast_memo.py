"""ForecastScalingPolicy polls its forecaster through the forecast memo."""

import numpy as np

from repro.grid import ARForecaster, SyntheticProvider
from repro.powerstack.carbon_scaling import (ForecastScalingPolicy,
                                             LinearScalingPolicy)

HOUR = 3600.0
DAY = 86400.0


def make_policy(forecaster):
    return ForecastScalingPolicy(LinearScalingPolicy(5e5, 1e6, 100.0, 500.0),
                                 forecaster=forecaster, horizon_s=6 * HOUR)


class CountingAR(ARForecaster):
    def __init__(self):
        super().__init__(order=4)
        self.fits = 0

    def fit(self, history):
        self.fits += 1
        return super().fit(history)


def test_one_fit_per_history_window():
    provider = SyntheticProvider("DE", seed=1)
    fc = CountingAR()
    policy = make_policy(fc)
    ticks = 4 * DAY + np.arange(0.0, 6 * HOUR, 300.0)  # 5-minute ticks
    budgets = [policy.budget(provider, t) for t in ticks]
    # ticks whose trailing 3-day history covers the same hourly samples
    # share one fit
    windows = {(np.floor((t - 3 * DAY) / HOUR), np.ceil(t / HOUR))
               for t in ticks}
    assert fc.fits == len(windows) < len(ticks) / 4
    assert budgets == [make_policy(ARForecaster(order=4)).budget(provider, t)
                       for t in ticks]


def test_outside_refit_between_ticks_is_not_stale():
    provider = SyntheticProvider("DE", seed=1)
    other = SyntheticProvider("ES", seed=7).history(0.0, 3 * DAY)
    fc = ARForecaster(order=4)
    policy = make_policy(fc)
    for t in 4 * DAY + np.arange(0.0, 3 * HOUR, 900.0):
        got = policy.budget(provider, t)
        fc.fit(other)  # another consumer of the same forecaster
        assert got == make_policy(ARForecaster(order=4)).budget(provider, t)
        assert policy.budget(provider, t) == got
