"""Tests for the carbon-intensity forecasters."""

import numpy as np
import pytest

from repro.grid import (
    ARForecaster,
    CarbonIntensityTrace,
    EnsembleForecaster,
    ExponentialSmoothingForecaster,
    OracleForecaster,
    PersistenceForecaster,
    SeasonalNaiveForecaster,
    SyntheticProvider,
    forecast_skill,
)

HOUR = 3600.0
DAY = 86400.0


def sine_history(n_days=7, amplitude=100.0, mean=300.0):
    h = np.arange(n_days * 24)
    vals = mean + amplitude * np.sin(2 * np.pi * h / 24.0)
    return CarbonIntensityTrace(vals, HOUR)


class TestForecasterContract:
    @pytest.mark.parametrize("cls", [PersistenceForecaster,
                                     SeasonalNaiveForecaster,
                                     ExponentialSmoothingForecaster,
                                     ARForecaster])
    def test_predict_requires_fit(self, cls):
        with pytest.raises(RuntimeError, match="fit"):
            cls().predict(4)

    @pytest.mark.parametrize("cls", [PersistenceForecaster,
                                     SeasonalNaiveForecaster,
                                     ExponentialSmoothingForecaster,
                                     ARForecaster])
    def test_forecast_starts_at_history_end(self, cls):
        hist = sine_history()
        f = cls().fit(hist).predict(12)
        assert f.start_time == hist.end_time
        assert len(f) == 12
        assert f.step_seconds == hist.step_seconds

    @pytest.mark.parametrize("cls", [PersistenceForecaster,
                                     SeasonalNaiveForecaster,
                                     ExponentialSmoothingForecaster,
                                     ARForecaster])
    def test_forecast_nonnegative(self, cls):
        vals = np.concatenate([np.full(24, 5.0), np.full(24, 0.5)])
        hist = CarbonIntensityTrace(vals, HOUR)
        f = cls().fit(hist).predict(48)
        assert f.min() >= 0.0

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            PersistenceForecaster().fit(sine_history()).predict(0)


class TestPersistence:
    def test_repeats_last_value(self):
        hist = CarbonIntensityTrace(np.array([10.0, 20.0, 30.0]), HOUR)
        f = PersistenceForecaster().fit(hist).predict(5)
        np.testing.assert_allclose(f.values, 30.0)


class TestSeasonalNaive:
    def test_perfect_on_pure_diurnal(self):
        hist = sine_history(n_days=3)
        f = SeasonalNaiveForecaster().fit(hist).predict(24)
        expected = hist.values[-24:]
        np.testing.assert_allclose(f.values, expected)

    def test_short_history_tiles(self):
        hist = CarbonIntensityTrace(np.array([1.0, 2.0]), HOUR)
        f = SeasonalNaiveForecaster().fit(hist).predict(5)
        np.testing.assert_allclose(f.values, [1, 2, 1, 2, 1])


class TestExponentialSmoothing:
    def test_tracks_level_shift(self):
        vals = np.concatenate([np.full(48, 100.0), np.full(48, 300.0)])
        hist = CarbonIntensityTrace(vals, HOUR)
        f = ExponentialSmoothingForecaster(alpha=0.5).fit(hist).predict(4)
        assert f.mean() > 250.0  # has adapted toward the new level

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExponentialSmoothingForecaster(alpha=0.0)
        with pytest.raises(ValueError):
            ExponentialSmoothingForecaster(gamma=1.5)


class TestAR:
    def test_beats_persistence_on_diurnal_signal(self):
        p = SyntheticProvider("ES", seed=21)
        hist = p.history(0, 14 * DAY)
        actual = p.history(14 * DAY, 16 * DAY)
        ar = ARForecaster(order=4).fit(hist).predict(48)
        pers = PersistenceForecaster().fit(hist).predict(48)
        assert forecast_skill(ar, actual)["rmse"] < \
            forecast_skill(pers, actual)["rmse"]

    def test_stable_on_short_history(self):
        hist = CarbonIntensityTrace(np.array([100.0, 110.0, 90.0]), HOUR)
        f = ARForecaster(order=5).fit(hist).predict(100)
        assert np.all(np.isfinite(f.values))
        assert f.max() < 1e4  # no explosion

    def test_order_validation(self):
        with pytest.raises(ValueError):
            ARForecaster(order=0)


class TestOracle:
    def test_oracle_is_exact(self):
        p = SyntheticProvider("DE", seed=5)
        hist = p.history(0, 7 * DAY)
        f = OracleForecaster(p).fit(hist).predict(48)
        actual = p.history(7 * DAY, 9 * DAY)
        skill = forecast_skill(f, actual)
        assert skill["mae"] == pytest.approx(0.0, abs=1e-9)


class TestForecastSkill:
    def test_metrics(self):
        a = CarbonIntensityTrace(np.array([100.0, 200.0]), HOUR)
        f = CarbonIntensityTrace(np.array([110.0, 190.0]), HOUR,
                                 start_time=0.0)
        s = forecast_skill(f, a)
        assert s["mae"] == pytest.approx(10.0)
        assert s["rmse"] == pytest.approx(10.0)
        assert s["n"] == 2

    def test_empty_traces_unconstructible(self):
        # the no-overlap guard in forecast_skill is unreachable through
        # the public API because empty traces cannot be built at all
        with pytest.raises(ValueError):
            CarbonIntensityTrace(np.array([]), HOUR)


# -- prefix property and the forecast memo ---------------------------------

FORECASTERS = {
    "persistence": PersistenceForecaster,
    "seasonal-naive": SeasonalNaiveForecaster,
    "exp-smoothing": ExponentialSmoothingForecaster,
    "ar4": lambda: ARForecaster(order=4),
    "ensemble": EnsembleForecaster,
    "oracle": lambda: OracleForecaster(SyntheticProvider("DE", seed=7)),
}


def de_history(t0, t1):
    return SyntheticProvider("DE", seed=7).history(t0, t1)


def same_bits(a, b):
    return a.values.tobytes() == b.values.tobytes()


class CountingCalls:
    """Count fit and predict calls on one forecaster instance."""

    def __init__(self, fc):
        self.fits = self.predicts = 0
        fit, predict = fc.fit, fc.predict

        def counted_fit(history):
            self.fits += 1
            return fit(history)

        def counted_predict(n):
            self.predicts += 1
            return predict(n)
        fc.fit, fc.predict = counted_fit, counted_predict


@pytest.mark.parametrize("name", sorted(FORECASTERS))
class TestPrefixAndMemo:
    HISTORIES = {"week": (2 * DAY, 9 * DAY),
                 "under-one-period": (2 * DAY, 2 * DAY + 10 * HOUR)}

    @pytest.mark.parametrize("window", sorted(HISTORIES))
    def test_longer_forecast_extends_shorter_bitwise(self, name, window):
        fc = FORECASTERS[name]().fit(de_history(*self.HISTORIES[window]))
        long = fc.predict(100)
        for m in (1, 2, 7, 24, 25, 99, 100):
            assert long.values[:m].tobytes() == fc.predict(m).values.tobytes()

    def test_memo_serves_prefixes_and_extends(self, name):
        history = de_history(2 * DAY, 9 * DAY)
        fc = FORECASTERS[name]()
        calls = CountingCalls(fc)
        fresh = FORECASTERS[name]().fit(history)
        for n in (5, 30, 10, 30, 1, 60):
            got = fc.forecast(history, n)
            want = fresh.predict(n)
            assert same_bits(got, want)
            assert (got.start_time, got.step_seconds, got.zone) == (
                want.start_time, want.step_seconds, want.zone)
        assert calls.fits == 1
        assert calls.predicts == 3  # horizons 5, 30 and 60

    def test_new_history_refits(self, name):
        fc = FORECASTERS[name]()
        calls = CountingCalls(fc)
        a = de_history(2 * DAY, 9 * DAY)
        shifted = a.shift(HOUR)  # same values, later start
        bumped = CarbonIntensityTrace(
            np.nextafter(a.values, np.inf), a.step_seconds, a.start_time,
            a.zone)  # same window, every value one ulp up
        copy = a.window(a.start_time, a.end_time)  # equal, new object
        for history in (a, copy, shifted, a, bumped):
            got = fc.forecast(history, 24)
            assert same_bits(got, FORECASTERS[name]().fit(history).predict(24))
            assert got.start_time == history.end_time
        assert calls.fits == 4  # the equal copy is a memo hit

    def test_outside_fit_drops_memo(self, name):
        a = de_history(2 * DAY, 9 * DAY)
        b = de_history(12 * DAY, 19 * DAY)
        fc = FORECASTERS[name]()
        fc.forecast(a, 24)
        fc.fit(b)
        assert same_bits(fc.forecast(a, 12),
                         FORECASTERS[name]().fit(a).predict(12))
        fc.fit(b)
        assert same_bits(fc.forecast(b, 48),
                         FORECASTERS[name]().fit(b).predict(48))

    def test_horizon_validated(self, name):
        with pytest.raises(ValueError, match="horizon"):
            FORECASTERS[name]().forecast(de_history(0.0, DAY), 0)
