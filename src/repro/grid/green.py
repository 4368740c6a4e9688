"""Green-period detection.

Section 3.3: "The fluctuating carbon intensity of the electricity grid
creates *green periods*, where the carbon intensity is significantly
lower than the average carbon intensity for that location."  Carbon-aware
backfill (§3.3) and incentive accounting (§3.4) both need to identify
those windows; this module is their shared definition.

A sample belongs to a green period when its intensity is at or below
``threshold_fraction`` x the reference mean of the trace under analysis
(default: 90% of the trace mean, i.e. "significantly lower than the
average").  Consecutive qualifying samples are merged into
:class:`GreenPeriod` windows, optionally discarding windows shorter than
a minimum duration (a scheduler cannot exploit a 15-minute dip with a
6-hour job).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.grid.intensity import CarbonIntensityTrace

__all__ = ["GreenPeriod", "find_green_periods", "green_fraction"]


@dataclass(frozen=True)
class GreenPeriod:
    """A contiguous low-carbon window ``[start, end)`` (simulation seconds)."""

    start: float
    end: float
    mean_intensity_g_per_kwh: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("green period must have positive duration")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, t: float) -> bool:
        """Whether time ``t`` falls inside the window."""
        return self.start <= t < self.end

    def overlaps(self, t0: float, t1: float) -> float:
        """Overlap duration (seconds) with the interval ``[t0, t1)``."""
        return max(0.0, min(self.end, t1) - max(self.start, t0))


def find_green_periods(
    trace: CarbonIntensityTrace,
    threshold_fraction: float = 0.9,
    min_duration: float = 0.0,
    reference: float | None = None,
) -> List[GreenPeriod]:
    """Identify green periods in an intensity trace.

    Parameters
    ----------
    trace:
        The intensity series to scan (actuals or a forecast).
    threshold_fraction:
        A sample is green when ``value <= threshold_fraction * reference``.
    min_duration:
        Windows shorter than this many seconds are dropped.
    reference:
        Reference intensity; defaults to the trace mean (the paper's
        "average carbon intensity for that location").

    Returns
    -------
    list of GreenPeriod, in chronological order, non-overlapping.
    """
    if threshold_fraction <= 0:
        raise ValueError("threshold_fraction must be positive")
    ref = trace.mean() if reference is None else float(reference)
    if ref < 0:
        raise ValueError("reference intensity must be non-negative")
    thresh = threshold_fraction * ref
    green = trace.values <= thresh
    if not green.any():
        return []

    # Edges of runs of True, vectorized.
    padded = np.concatenate([[False], green, [False]])
    diff = np.diff(padded.astype(np.int8))
    starts = np.nonzero(diff == 1)[0]
    ends = np.nonzero(diff == -1)[0]

    periods: List[GreenPeriod] = []
    for i0, i1 in zip(starts, ends):
        t0 = trace.start_time + i0 * trace.step_seconds
        t1 = trace.start_time + i1 * trace.step_seconds
        if t1 - t0 + 1e-9 < min_duration:
            continue
        periods.append(GreenPeriod(t0, t1, float(trace.values[i0:i1].mean())))
    return periods


def green_fraction(trace: CarbonIntensityTrace,
                   threshold_fraction: float = 0.9,
                   reference: float | None = None) -> float:
    """Fraction of the trace duration spent inside green periods."""
    periods = find_green_periods(trace, threshold_fraction,
                                 min_duration=0.0, reference=reference)
    total = sum(p.duration for p in periods)
    return total / trace.duration
