"""Carbon-intensity forecasting.

Section 3.1 of the paper: "carbon intensity prediction can support the
job scheduler, in particular when the system is setup for long running
jobs"; §3.3: carbon-aware backfill plugins should be "combined with
forecasting techniques that leverage historical carbon intensity data".

The carbon-aware policies in :mod:`repro.scheduler` and
:mod:`repro.powerstack` accept any :class:`Forecaster`, enabling the
forecast-quality ablation (DESIGN.md §5): an oracle bounds the achievable
savings; seasonal-naive is the standard strong baseline for signals with
a daily cycle; persistence is the weak baseline; exponential smoothing
and an autoregressive model sit in between.

All forecasters share one contract: :meth:`Forecaster.fit` on a history
trace, then :meth:`Forecaster.predict` returns a
:class:`~repro.grid.intensity.CarbonIntensityTrace` of ``horizon_steps``
samples starting at the end of the history.  Forecasts are clipped at
zero (intensity is non-negative).

A forecast is a pure function of the history, and a longer forecast
extends a shorter one: ``predict(n).values[:m]`` equals
``predict(m).values`` bit for bit.  :meth:`Forecaster.forecast` relies
on both to memoize — the policies that poll a forecaster on every
scheduling pass or tick fit once per distinct history window and
predict once per longest horizon asked for since that fit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro import units
from repro.grid.intensity import CarbonIntensityTrace

__all__ = [
    "Forecaster",
    "PersistenceForecaster",
    "SeasonalNaiveForecaster",
    "ExponentialSmoothingForecaster",
    "ARForecaster",
    "EnsembleForecaster",
    "OracleForecaster",
    "forecast_skill",
    "compare_forecasters",
]


class Forecaster(ABC):
    """Base class: fit on history, predict a forward trace."""

    def __init__(self) -> None:
        self._history: CarbonIntensityTrace | None = None
        #: memo of :meth:`forecast`: the key of the history it fit on,
        #: and the longest forecast predicted since that fit
        self._memo_key: tuple | None = None
        self._memo: CarbonIntensityTrace | None = None

    @property
    def history(self) -> CarbonIntensityTrace:
        if self._history is None:
            raise RuntimeError("forecaster has not been fit; call fit() first")
        return self._history

    def fit(self, history: CarbonIntensityTrace) -> "Forecaster":
        """Record the history the next :meth:`predict` extrapolates from."""
        self._history = history
        self._memo_key = self._memo = None
        return self

    def forecast(self, history: CarbonIntensityTrace,
                 horizon_steps: int) -> CarbonIntensityTrace:
        """``fit(history).predict(horizon_steps)``, memoized.

        Refits only when ``history`` differs from the one the memo was
        fit on — in start time, step, zone or any value bit — and any
        :meth:`fit` in between drops the memo.  Predicts only when the
        horizon exceeds the longest forecast made since that fit; a
        shorter horizon is served as a prefix of it.
        """
        if horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        key = (history.start_time, history.step_seconds, history.zone,
               history.values.tobytes())
        if key != self._memo_key:
            self.fit(history)
            self._memo_key = key
        memo = self._memo
        if memo is None or len(memo) < horizon_steps:
            memo = self._memo = self.predict(horizon_steps)
        if len(memo) == horizon_steps:
            return memo
        return CarbonIntensityTrace(memo.values[:horizon_steps],
                                    memo.step_seconds, memo.start_time,
                                    memo.zone)

    @abstractmethod
    def _forecast_values(self, n: int) -> np.ndarray:
        """Return ``n`` forecast samples (may be any float; clipped later)."""

    def predict(self, horizon_steps: int) -> CarbonIntensityTrace:
        """Forecast ``horizon_steps`` samples past the end of the history."""
        if horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        h = self.history
        vals = np.clip(self._forecast_values(int(horizon_steps)), 0.0, None)
        return CarbonIntensityTrace(vals, h.step_seconds, h.end_time, h.zone)


class PersistenceForecaster(Forecaster):
    """Tomorrow looks like right now: repeat the last observed sample.

    The weakest sane baseline; ignores the daily cycle entirely.
    """

    def _forecast_values(self, n: int) -> np.ndarray:
        return np.full(n, self.history.values[-1])


class SeasonalNaiveForecaster(Forecaster):
    """Repeat the last full seasonal period (default: one day).

    The standard strong baseline for strongly diurnal signals like grid
    carbon intensity.  If the history is shorter than one period it
    degrades gracefully to tiling whatever history exists.
    """

    def __init__(self, period_seconds: float = units.SECONDS_PER_DAY) -> None:
        super().__init__()
        if period_seconds <= 0:
            raise ValueError("period_seconds must be positive")
        self.period_seconds = float(period_seconds)

    def _forecast_values(self, n: int) -> np.ndarray:
        h = self.history
        per = max(1, int(round(self.period_seconds / h.step_seconds)))
        per = min(per, len(h))
        last = h.values[-per:]
        reps = int(np.ceil(n / per))
        return np.tile(last, reps)[:n]


class ExponentialSmoothingForecaster(Forecaster):
    """Holt-Winters-style additive seasonal exponential smoothing.

    Maintains a level ``l`` and additive seasonal indices ``s[k]`` over a
    daily period::

        l   <- alpha * (y - s[k]) + (1 - alpha) * l
        s[k] <- gamma * (y - l) + (1 - gamma) * s[k]

    Forecast = level + seasonal index of the target slot.  No trend term:
    grid intensity is mean-reverting at the monthly scale, and a trend
    term destabilizes long horizons.
    """

    def __init__(self, alpha: float = 0.25, gamma: float = 0.15,
                 period_seconds: float = units.SECONDS_PER_DAY) -> None:
        super().__init__()
        if not 0 < alpha <= 1 or not 0 <= gamma <= 1:
            raise ValueError("alpha must be in (0,1], gamma in [0,1]")
        if period_seconds <= 0:
            raise ValueError("period_seconds must be positive")
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.period_seconds = float(period_seconds)

    def _forecast_values(self, n: int) -> np.ndarray:
        h = self.history
        y = h.values
        per = max(1, min(int(round(self.period_seconds / h.step_seconds)), len(y)))
        # Initialize seasonal indices from the first period's deviations.
        level = float(y[:per].mean())
        season = (y[:per] - level).astype(np.float64).copy()
        for i in range(len(y)):
            k = i % per
            prev_level = level
            level = self.alpha * (y[i] - season[k]) + (1 - self.alpha) * level
            season[k] = self.gamma * (y[i] - prev_level) + (1 - self.gamma) * season[k]
        start = len(y) % per
        idx = (start + np.arange(n)) % per
        return level + season[idx]


class ARForecaster(Forecaster):
    """Autoregressive model on seasonal anomalies, fit by least squares.

    The daily cycle is removed first (mean value per time-of-day slot);
    an AR(p) model is fit to the residuals via the normal equations and
    iterated forward; the cycle is added back.  Captures the synoptic
    persistence that seasonal-naive misses.
    """

    def __init__(self, order: int = 3,
                 period_seconds: float = units.SECONDS_PER_DAY) -> None:
        super().__init__()
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = int(order)
        self.period_seconds = float(period_seconds)

    def _forecast_values(self, n: int) -> np.ndarray:
        h = self.history
        y = h.values.astype(np.float64)
        per = max(1, min(int(round(self.period_seconds / h.step_seconds)), len(y)))
        # Per-slot daily profile (time-of-day means).
        slots = np.arange(len(y)) % per
        profile = np.zeros(per)
        for k in range(per):
            sel = y[slots == k]
            profile[k] = sel.mean() if sel.size else y.mean()
        resid = y - profile[slots]

        p = min(self.order, max(1, len(resid) - 1))
        if len(resid) <= p + 1:
            coef = np.zeros(p)
        else:
            # Design matrix of lagged residuals; ridge-regularized for
            # numerical safety on short histories.
            X = np.column_stack([resid[p - j - 1: len(resid) - j - 1]
                                 for j in range(p)])
            t = resid[p:]
            A = X.T @ X + 1e-6 * np.eye(p)
            coef = np.linalg.solve(A, X.T @ t)
            # Clamp to a stable region; an explosive fit would ruin long
            # horizons and intensity is physically mean-reverting.
            norm = np.abs(coef).sum()
            if norm > 0.999:
                coef *= 0.999 / norm

        hist = resid[-p:].tolist() if p <= len(resid) else [0.0] * p
        out = np.empty(n)
        for i in range(n):
            r = float(np.dot(coef, hist[::-1][:p])) if p else 0.0
            out[i] = r
            hist.append(r)
            hist = hist[-p:]
        start = len(y) % per
        idx = (start + np.arange(n)) % per
        return out + profile[idx]


class EnsembleForecaster(Forecaster):
    """Equal-weight mean of member forecasters.

    The classic cheap variance-reduction trick: seasonal-naive captures
    the diurnal cycle, the AR member captures synoptic persistence, and
    averaging hedges each one's failure mode.  Default members:
    seasonal-naive + AR(4) + exponential smoothing.
    """

    def __init__(self, members: "list[Forecaster] | None" = None) -> None:
        super().__init__()
        self.members = list(members) if members is not None else [
            SeasonalNaiveForecaster(),
            ARForecaster(order=4),
            ExponentialSmoothingForecaster(),
        ]
        if not self.members:
            raise ValueError("ensemble needs at least one member")

    def fit(self, history: CarbonIntensityTrace) -> "EnsembleForecaster":
        super().fit(history)
        for m in self.members:
            m.fit(history)
        return self

    def _forecast_values(self, n: int) -> np.ndarray:
        preds = [m.predict(n).values for m in self.members]
        return np.mean(preds, axis=0)


class OracleForecaster(Forecaster):
    """Perfect foresight: reads the future from the actual provider signal.

    Used to bound the achievable savings of carbon-aware policies in the
    forecast-quality ablation; obviously not realizable in production.
    """

    def __init__(self, provider) -> None:
        super().__init__()
        self.provider = provider

    def _forecast_values(self, n: int) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError("OracleForecaster overrides predict()")

    def predict(self, horizon_steps: int) -> CarbonIntensityTrace:
        if horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        h = self.history
        t0 = h.end_time
        t1 = t0 + horizon_steps * h.step_seconds
        actual = self.provider.history(t0, t1)
        if abs(actual.step_seconds - h.step_seconds) > 1e-9:
            actual = actual.resample(h.step_seconds)
        vals = actual.values[:horizon_steps]
        if vals.size < horizon_steps:
            vals = np.concatenate(
                [vals, np.full(horizon_steps - vals.size, vals[-1])])
        return CarbonIntensityTrace(vals, h.step_seconds, t0, h.zone)


def forecast_skill(forecast: CarbonIntensityTrace,
                   actual: CarbonIntensityTrace) -> dict:
    """Forecast-quality metrics over the overlapping samples.

    Returns a dict with mean absolute error (``mae``), root-mean-square
    error (``rmse``), and mean absolute percentage error (``mape``, in
    percent, guarded against division by ~0).
    """
    n = min(len(forecast), len(actual))
    if n == 0:
        raise ValueError("no overlapping samples")
    f = forecast.values[:n]
    a = actual.values[:n]
    err = f - a
    denom = np.maximum(a, 1e-9)
    return {
        "mae": float(np.abs(err).mean()),
        "rmse": float(np.sqrt((err ** 2).mean())),
        "mape": float((np.abs(err) / denom).mean() * 100.0),
        "n": n,
    }


def compare_forecasters(provider, forecasters: dict,
                        fit_window_s: float, horizon_steps: int,
                        n_folds: int = 5,
                        fold_stride_s: float = 86400.0) -> dict:
    """Rolling-origin evaluation of several forecasters on one signal.

    Fits each forecaster on ``fit_window_s`` of history ending at a
    rolling origin, predicts ``horizon_steps``, scores against the
    provider's actuals, and averages the skill metrics over
    ``n_folds`` origins spaced ``fold_stride_s`` apart.

    Returns ``{name: {"mae": ..., "rmse": ..., "mape": ...}}`` — the
    table behind the §3.1/§3.3 forecast-quality discussion.
    """
    if n_folds < 1:
        raise ValueError("need at least one fold")
    out: dict = {}
    for name, fc in forecasters.items():
        maes, rmses, mapes = [], [], []
        for k in range(n_folds):
            origin = fit_window_s + k * fold_stride_s
            history = provider.history(origin - fit_window_s, origin)
            fc.fit(history)
            pred = fc.predict(horizon_steps)
            actual = provider.history(pred.start_time, pred.end_time)
            skill = forecast_skill(pred, actual.resample(pred.step_seconds)
                                   if abs(actual.step_seconds
                                          - pred.step_seconds) > 1e-9
                                   else actual)
            maes.append(skill["mae"])
            rmses.append(skill["rmse"])
            mapes.append(skill["mape"])
        out[name] = {"mae": float(np.mean(maes)),
                     "rmse": float(np.mean(rmses)),
                     "mape": float(np.mean(mapes))}
    return out
