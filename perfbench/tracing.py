"""Traced-run harness: spans around the public entry points of each layer.

The program under test is not edited.  :class:`Tracing` replaces the
layer entry points named in :func:`layer_targets` with thin wrappers
that record one span per call — name, start, end and parent — into a
:class:`SpanRecorder`, and puts every original back on exit, before any
untraced iteration runs again.

Spans are kept in compact in-memory arrays and written out once, when
the run ends (:meth:`SpanRecorder.save`).  A span's *self time* is its
duration minus the time its child spans cover; the self times of all
spans under one root therefore add up to the root's duration, which
``selftest.py`` checks.
"""

from __future__ import annotations

import inspect
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

_perf = time.perf_counter


class SpanRecorder:
    """In-memory span store for one traced iteration."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stamps = array("d")
        self._stack = [-1]

    def name_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.start.append(_perf())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _perf()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the harness itself."""
        return _Span(self, self.name_of(name))

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self.name_of(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        traced.__wrapped__ = fn
        return traced

    def stamp(self, fn: Callable) -> Callable:
        """Wrapper that only records the host time each call returns."""
        stamps = self.stamps

        def stamped(*args, **kwargs):
            out = fn(*args, **kwargs)
            stamps.append(_perf())
            return out
        stamped.__wrapped__ = fn
        return stamped

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Duration minus the part covered by direct child spans.

        Spans come from one thread and nest strictly, so direct children
        never overlap and their union is the sum of their durations.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        return dur - covered

    def save(self, path, iteration: int = 0) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a,
                            stamps=np.frombuffer(self.stamps,
                                                 dtype=np.float64).copy(),
                            iteration=np.int64(iteration))


class _Span:
    def __init__(self, rec: SpanRecorder, nid: int) -> None:
        self._rec, self._nid = rec, nid

    def __enter__(self) -> int:
        self._idx = self._rec.open(self._nid)
        return self._idx

    def __exit__(self, *exc) -> None:
        self._rec.close(self._idx)


#: (owner, attribute, span name); span name "" marks a completion stamp
Target = Tuple[object, str, str]


def layer_targets() -> List[Target]:
    """The public entry points wrapped in a traced run, by layer."""
    from repro.chaos import runner
    from repro.grid.forecast import Forecaster
    from repro.grid.intensity import CarbonIntensityTrace
    from repro.grid.providers import SyntheticProvider
    from repro.parallel import executor
    from repro.powerstack.site import SiteController
    from repro.scheduler.backfill import EasyBackfillPolicy
    from repro.scheduler.carbon_backfill import CarbonBackfillPolicy
    from repro.scheduler.carbon_checkpoint import CarbonCheckpointPolicy
    from repro.scheduler.rjms import RJMS
    from repro.service.core import CarbonService
    from repro.simulator.cluster import Cluster
    from repro.simulator.engine import SimulationEngine
    from repro.simulator.jobs import Job
    from repro.simulator.telemetry import TelemetryDB

    targets: List[Target] = [
        (SimulationEngine, "pending", "engine.pending"),
        (Cluster, "current_power", "cluster.current_power"),
        (Cluster, "accrue", "cluster.accrue"),
        (RJMS, "run", "rjms.run"),
        (RJMS, "set_job_cap", "rjms.set_job_cap"),
        (RJMS, "suspend_job", "rjms.suspend_job"),
        (RJMS, "resume_job", "rjms.resume_job"),
        (Job, "complete", ""),
        (EasyBackfillPolicy, "schedule", "policy.schedule"),
        (CarbonBackfillPolicy, "schedule", "policy.schedule"),
        (Forecaster, "fit", "forecast.fit"),
        (Forecaster, "predict", "forecast.predict"),
        (CarbonIntensityTrace, "integrate_intensity", "intensity.integrate"),
        (CarbonIntensityTrace, "window", "intensity.window"),
        (TelemetryDB, "record", "telemetry.record"),
        (SiteController, "on_tick", "powerstack.tick"),
        (SiteController, "on_jobs_started", "powerstack.tick"),
        (CarbonCheckpointPolicy, "on_tick", "checkpoint.tick"),
        (executor, "run_sweep", "sweep.run_sweep"),
        (runner, "execute_robust", "chaos.execute_robust"),
    ]
    targets += [(Cluster, m, "cluster.write")
                for m in ("allocate", "release", "grow", "shrink",
                          "set_job_cap")]
    targets += [(SyntheticProvider, m, "provider.call")
                for m in ("history", "intensity_at", "average_intensity_at")]
    targets += [(CarbonService, m, "service.lookup")
                for m in ("history", "intensity_at", "average_intensity_at",
                          "batch_intensity")]
    return targets


def stamp_targets() -> List[Target]:
    """Only what ``sim.cost_growth`` needs: run spans, completion stamps."""
    from repro.scheduler.rjms import RJMS
    from repro.simulator.jobs import Job
    return [(RJMS, "run", "rjms.run"), (Job, "complete", "")]


class Tracing:
    """Install span wrappers on enter; restore every original on exit."""

    def __init__(self, recorder: SpanRecorder,
                 targets: Sequence[Target]) -> None:
        self.recorder = recorder
        self.targets = list(targets)
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        rec = self.recorder
        try:
            for owner, attr, name in self.targets:
                # wrap only where the attribute is defined, so restoring
                # is a plain setattr of the saved object
                orig = inspect.getattr_static(owner, attr)
                if attr not in vars(owner):
                    raise AttributeError(
                        f"{owner!r} inherits {attr}; wrap its definer")
                if isinstance(orig, property):
                    new = property(rec.wrap(orig.fget, name), orig.fset,
                                   orig.fdel, orig.__doc__)
                elif name:
                    new = rec.wrap(orig, name)
                else:
                    new = rec.stamp(orig)
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, new)
        except BaseException:
            self._restore()
            raise
        return rec

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


# -- layer metrics ------------------------------------------------------------

#: span name -> layer, where they differ; a layer's self time and call
#: count cover all of its spans
_LAYER_OF = {
    "rjms.run": "rjms", "rjms.set_job_cap": "rjms",
    "rjms.suspend_job": "rjms", "rjms.resume_job": "rjms",
    "policy.schedule": "policy",
    "provider.call": "provider",
    "service.lookup": "service",
    "telemetry.record": "telemetry",
    "powerstack.tick": "powerstack",
    "checkpoint.tick": "checkpoint",
}


class LayerView:
    """Per-layer counts and self times of one recorder's spans."""

    def __init__(self, rec: SpanRecorder) -> None:
        a = rec.arrays()
        self.rec = rec
        self.names = np.array(rec.names)
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        self.start = a["start"]
        self.self_s = rec.self_times()
        layer_names = np.array([_LAYER_OF.get(n, n) for n in rec.names]
                               + ["<root>"])
        self.layer = layer_names[self.name_id]
        parent_ids = np.where(self.parent >= 0,
                              self.name_id[np.maximum(self.parent, 0)],
                              len(rec.names))
        self.parent_layer = layer_names[parent_ids]

    def _mask(self, name: str) -> np.ndarray:
        return self.names[self.name_id] == name

    def count(self, span_name: str) -> int:
        return int(self._mask(span_name).sum())

    def calls(self, layer: str) -> int:
        """Entries into a layer: spans not nested in the same layer."""
        return int(((self.layer == layer)
                    & (self.parent_layer != layer)).sum())

    def self_time(self, layer: str) -> float:
        return float(self.self_s[self.layer == layer].sum())

    def outer_durations(self, layer: str) -> np.ndarray:
        m = (self.layer == layer) & (self.parent_layer != layer)
        return self.dur[m]

    def intervals(self, span_name: str) -> List[Tuple[float, float]]:
        m = self._mask(span_name)
        return list(zip(self.start[m], self.start[m] + self.dur[m]))


def cost_growth(view: LayerView) -> float:
    """Host time per completed job, last quarter over first quarter.

    Computed per ``RJMS.run`` from the completion stamps; the median
    over runs is returned (0 when no run completed four jobs).
    """
    stamps = np.frombuffer(view.rec.stamps, dtype=np.float64)
    ratios = []
    for t0, t1 in view.intervals("rjms.run"):
        c = stamps[(stamps >= t0) & (stamps <= t1)]
        q = len(c) // 4
        if q < 1:
            continue
        first = (c[q - 1] - t0) / q
        last = (c[-1] - c[-1 - q]) / q
        if first > 0:
            ratios.append(last / first)
    return float(np.median(ratios)) if ratios else 0.0
