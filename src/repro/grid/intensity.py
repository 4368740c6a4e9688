"""NumPy-backed carbon-intensity time series.

:class:`CarbonIntensityTrace` is the fundamental data structure of the
operational-carbon half of the library.  It holds a regularly sampled
series of grid carbon intensity (gCO2e per kWh) and supports the
operations every downstream consumer needs:

* point lookup at arbitrary simulation times (zero-order hold, matching
  how grid data providers publish stepwise intensity signals);
* integration against power traces (operational carbon is the time
  integral of intensity x power, §3.1 of the paper);
* daily averaging (Figure 2 plots *averaged daily* intensities);
* resampling, slicing, and summary statistics.

The class is deliberately immutable: values are stored in a read-only
NumPy array so traces can be shared between scheduler, PowerStack and
accounting components without defensive copies (a guide-recommended
"views, not copies" idiom).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro import units

__all__ = ["CarbonIntensityTrace"]


@dataclass(frozen=True)
class CarbonIntensityTrace:
    """A regularly sampled carbon-intensity series.

    Parameters
    ----------
    values:
        Intensity samples in gCO2e/kWh. Must be non-negative and finite.
    step_seconds:
        Sampling period. Grid providers typically publish hourly data
        (``3600``); the simulator often uses finer steps.
    start_time:
        Simulation time (seconds) of the first sample. Sample ``i`` covers
        the half-open interval ``[start_time + i*step, start_time + (i+1)*step)``
        — i.e. the trace is a zero-order-hold (stepwise) signal, matching
        how intensity forecasts/actuals are published.
    zone:
        Optional zone identifier (e.g. ``"DE"``) for provenance.
    """

    values: np.ndarray
    step_seconds: float = units.SECONDS_PER_HOUR
    start_time: float = 0.0
    zone: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"trace values must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("trace must contain at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trace contains non-finite values")
        if np.any(arr < 0):
            raise ValueError("carbon intensity cannot be negative")
        if self.step_seconds <= 0:
            raise ValueError(f"step_seconds must be positive, got {self.step_seconds}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    # -- basic protocol ------------------------------------------------------

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self):
        return iter(self.values)

    @property
    def duration(self) -> float:
        """Total covered duration in seconds."""
        return float(len(self) * self.step_seconds)

    @property
    def end_time(self) -> float:
        """Simulation time one step past the last sample."""
        return self.start_time + self.duration

    @property
    def times(self) -> np.ndarray:
        """Start times (seconds) of each sample interval."""
        return self.start_time + np.arange(len(self)) * self.step_seconds

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(
        cls,
        intensity: float,
        duration_seconds: float,
        step_seconds: float = units.SECONDS_PER_HOUR,
        start_time: float = 0.0,
        zone: str = "",
    ) -> "CarbonIntensityTrace":
        """A flat trace, e.g. LRZ's contractual hydro intensity of 20 g/kWh."""
        n = max(1, int(np.ceil(duration_seconds / step_seconds)))
        return cls(np.full(n, float(intensity)), step_seconds, start_time, zone)

    @classmethod
    def from_hourly(
        cls, hourly: Iterable[float], start_time: float = 0.0, zone: str = ""
    ) -> "CarbonIntensityTrace":
        """Build from hourly samples (the provider convention)."""
        return cls(np.asarray(list(hourly), dtype=np.float64),
                   units.SECONDS_PER_HOUR, start_time, zone)

    # -- lookup ---------------------------------------------------------------

    def _index_at(self, t) -> np.ndarray:
        idx = np.floor((np.asarray(t, dtype=np.float64) - self.start_time)
                       / self.step_seconds).astype(np.int64)
        return np.clip(idx, 0, len(self) - 1)

    def at(self, t):
        """Intensity (g/kWh) in effect at simulation time ``t``.

        Zero-order hold; times outside the covered range clamp to the
        first/last sample (a provider keeps reporting its last known value).
        Accepts scalars or arrays.
        """
        out = self.values[self._index_at(t)]
        if np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0):
            return float(out)
        return out

    def window(self, t0: float, t1: float) -> "CarbonIntensityTrace":
        """Sub-trace covering ``[t0, t1)``; sample boundaries are preserved."""
        if t1 <= t0:
            raise ValueError(f"empty window [{t0}, {t1})")
        i0 = int(np.clip(np.floor((t0 - self.start_time) / self.step_seconds),
                         0, len(self) - 1))
        i1 = int(np.clip(np.ceil((t1 - self.start_time) / self.step_seconds),
                         i0 + 1, len(self)))
        return CarbonIntensityTrace(
            self.values[i0:i1], self.step_seconds,
            self.start_time + i0 * self.step_seconds, self.zone)

    # -- integration ----------------------------------------------------------

    def mean_over(self, t0: float, t1: float) -> float:
        """Time-weighted mean intensity over ``[t0, t1)`` (g/kWh).

        Partial overlap with the first/last sample interval is weighted
        exactly; this is what makes carbon accounting of jobs that start
        and end mid-hour correct.
        """
        if t1 <= t0:
            raise ValueError(f"empty interval [{t0}, {t1})")
        return self.integrate_intensity(t0, t1) / (t1 - t0)

    def integrate_intensity(self, t0: float, t1: float) -> float:
        """``∫ CI(t) dt`` over ``[t0, t1)`` in (g/kWh)·s, with exact partial bins."""
        if t1 <= t0:
            return 0.0
        step = self.step_seconds
        # Sample interval i covers [s_i, s_i + step). Overlap of [t0,t1) with
        # each interval, vectorized.
        i0 = int(np.floor((t0 - self.start_time) / step))
        i1 = int(np.ceil((t1 - self.start_time) / step))
        idx = np.arange(i0, i1)
        starts = self.start_time + idx * step
        overlaps = np.minimum(starts + step, t1) - np.maximum(starts, t0)
        overlaps = np.clip(overlaps, 0.0, None)
        vals = self.values[np.clip(idx, 0, len(self) - 1)]
        return float(np.dot(vals, overlaps))

    def window_means(self, t0: float, duration_s: float, n: int) -> np.ndarray:
        """Mean intensity over ``[t0 + k*step, t0 + k*step + duration_s)``
        for ``k = 0..n`` (g/kWh), as an array of ``n + 1`` means.

        The sliding form of :meth:`mean_over` in one pass: the whole
        samples inside each window come from a compensated prefix sum,
        so each mean is accurate to a few ulps of itself however large
        the running total grows; the partial first and last samples are
        weighted exactly.  Where :meth:`integrate_intensity` clamps, this
        raises ``ValueError`` if any window reaches outside
        ``[start_time, end_time]``.
        """
        if duration_s <= 0:
            raise ValueError(f"window duration must be positive, got {duration_s}")
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        step = self.step_seconds
        a = t0 - self.start_time
        b = a + duration_s
        if a < 0 or b + n * step > self.duration:
            raise ValueError(
                f"windows [{t0}, {t0 + n * step + duration_s}) reach outside "
                f"the trace [{self.start_time}, {self.end_time})")
        j0, f0 = divmod(a, step)
        j1, f1 = divmod(b, step)
        j0, j1 = int(j0), int(j1)
        v = self.values
        head = v[j0:j0 + n + 1]
        if j1 == j0:  # each window lies inside one sample
            return head.copy()
        # v[j1 + n] exists unless the last window ends exactly at end_time
        # (f1 == 0), where padding it with 0 adds nothing
        tail = v[j1:j1 + n + 1]
        if tail.size < n + 1:
            tail = np.append(tail, np.zeros(n + 1 - tail.size))
        # whole samples j0+k+1 .. j1+k-1 of window k: differences of a
        # running sum, plus the running sum of its rounding errors
        # (the error of each addition by TwoSum; np.cumsum is sequential)
        inner = v[j0 + 1:j1 + n]
        acc = np.concatenate(([0.0], np.cumsum(inner)))
        added = acc[1:] - acc[:-1]
        err = (acc[:-1] - (acc[1:] - added)) + (inner - added)
        lost = np.concatenate(([0.0], np.cumsum(err)))
        m = j1 - j0 - 1
        whole = ((acc[m:m + n + 1] - acc[:n + 1])
                 + (lost[m:m + n + 1] - lost[:n + 1]))
        return ((step - f0) * head + step * whole + f1 * tail) / duration_s

    def carbon_for_power(self, power_watts: float, t0: float, t1: float) -> float:
        """Operational carbon (gCO2e) of a constant ``power_watts`` load over ``[t0, t1)``."""
        kw = power_watts / units.WATTS_PER_KW
        return kw * self.integrate_intensity(t0, t1) / units.SECONDS_PER_HOUR

    # -- statistics ------------------------------------------------------------

    def mean(self) -> float:
        """Arithmetic mean of the samples (g/kWh)."""
        return float(self.values.mean())

    def std(self, ddof: int = 0) -> float:
        """Standard deviation of the samples (g/kWh)."""
        return float(self.values.std(ddof=ddof))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def percentile(self, q) -> float:
        """q-th percentile of the samples (g/kWh)."""
        return float(np.percentile(self.values, q))

    # -- transforms --------------------------------------------------------------

    def daily_means(self) -> np.ndarray:
        """Mean intensity per 24h block — the series plotted in Figure 2.

        A trailing partial day (fewer samples than a full day) is averaged
        over the samples it has.
        """
        per_day = int(round(units.SECONDS_PER_DAY / self.step_seconds))
        if per_day < 1:
            raise ValueError("step too coarse for daily averaging")
        n_full = len(self) // per_day
        out = []
        if n_full:
            out.append(self.values[: n_full * per_day]
                       .reshape(n_full, per_day).mean(axis=1))
        rem = self.values[n_full * per_day:]
        if rem.size:
            out.append(np.array([rem.mean()]))
        return np.concatenate(out) if out else np.empty(0)

    def resample(self, step_seconds: float) -> "CarbonIntensityTrace":
        """Return a trace resampled to ``step_seconds``.

        Upsampling repeats samples (zero-order hold); downsampling averages
        whole groups (energy-weighted mean is the sample mean for a ZOH
        signal with uniform bins).
        """
        if step_seconds <= 0:
            raise ValueError("step_seconds must be positive")
        if step_seconds == self.step_seconds:
            return self
        ratio = self.step_seconds / step_seconds
        if ratio >= 1:  # upsample
            rep = int(round(ratio))
            if abs(rep - ratio) > 1e-9:
                raise ValueError("upsampling requires an integer step ratio")
            return CarbonIntensityTrace(np.repeat(self.values, rep),
                                        step_seconds, self.start_time, self.zone)
        group = int(round(1.0 / ratio))
        if abs(group - 1.0 / ratio) > 1e-9:
            raise ValueError("downsampling requires an integer step ratio")
        n = (len(self) // group) * group
        if n == 0:
            raise ValueError("trace too short to downsample by that factor")
        vals = self.values[:n].reshape(-1, group).mean(axis=1)
        return CarbonIntensityTrace(vals, step_seconds, self.start_time, self.zone)

    def scale(self, factor: float) -> "CarbonIntensityTrace":
        """Uniformly scale intensities (e.g. marginal-vs-average adjustment)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return CarbonIntensityTrace(self.values * factor, self.step_seconds,
                                    self.start_time, self.zone)

    def shift(self, dt: float) -> "CarbonIntensityTrace":
        """Return the same samples anchored ``dt`` seconds later."""
        return CarbonIntensityTrace(self.values, self.step_seconds,
                                    self.start_time + dt, self.zone)

    def concat(self, other: "CarbonIntensityTrace") -> "CarbonIntensityTrace":
        """Append ``other`` (same step) immediately after this trace."""
        if abs(other.step_seconds - self.step_seconds) > 1e-9:
            raise ValueError("cannot concat traces with different steps")
        return CarbonIntensityTrace(
            np.concatenate([self.values, other.values]),
            self.step_seconds, self.start_time, self.zone or other.zone)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CarbonIntensityTrace(zone={self.zone!r}, n={len(self)}, "
                f"step={self.step_seconds:g}s, mean={self.mean():.1f} g/kWh)")
