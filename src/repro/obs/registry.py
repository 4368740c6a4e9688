"""Unified metrics registry: counters, gauges, histograms, labels.

The single metric model for the whole carbon stack — the serving
layer's cache/breaker/latency accounting, the simulator's event-loop
gauges, the sweep executor's throughput counters — grown out of the
serving layer's old metrics module.

Two export surfaces:

* :meth:`MetricsRegistry.render` — the aligned operator table behind
  ``repro service stats`` (unchanged from the service era);
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition (``# TYPE`` headers, ``name{label="v"} value`` samples,
  cumulative ``_bucket``/``_sum``/``_count`` histogram series) behind
  ``repro obs stats``, so any Prometheus-speaking scraper can ingest
  the stack's state.

Metrics are create-on-use and may carry **labels**::

    reg.counter("sweep.cells", labels={"mode": "process-pool"}).inc()

Labeled and unlabeled series of one name form one family in the
Prometheus rendering.  Names are dotted internally (cosmetic grouping);
the Prometheus renderer maps ``.`` -> ``_``.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "ServiceMetrics",
]

#: ``(("k","v"), ...)`` sorted label pairs — the hashable label identity
LabelPairs = Tuple[Tuple[str, str], ...]


def _label_pairs(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _display_name(name: str, pairs: LabelPairs) -> str:
    if not pairs:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in pairs)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str,
                 labels: Optional[Mapping[str, str]] = None) -> None:
        self.name = name
        self.labels: LabelPairs = _label_pairs(labels)
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that goes up and down (breaker state, queue depth).

    Supports both absolute :meth:`set` and relative :meth:`inc` /
    :meth:`dec`, so call sites tracking a delta (cache fill, breaker
    trips in flight) need not read-modify-write around the registry.
    """

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str,
                 labels: Optional[Mapping[str, str]] = None) -> None:
        self.name = name
        self.labels: LabelPairs = _label_pairs(labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        self._value += float(n)

    def dec(self, n: float = 1.0) -> None:
        self._value -= float(n)

    @property
    def value(self) -> float:
        return self._value


#: default latency buckets (seconds): 100 us .. ~10 s, roughly x4 apart —
#: wide enough to separate a dict hit from a network-ish backend call.
_DEFAULT_BUCKET_BOUNDS_S = (
    0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1024, 0.4096, 1.6384, 10.0)


class LatencyHistogram:
    """Fixed-bucket latency histogram with count/sum and percentiles."""

    __slots__ = ("name", "labels", "bounds_s", "bucket_counts", "count",
                 "total_s")

    def __init__(self, name: str,
                 bounds_s: Sequence[float] = _DEFAULT_BUCKET_BOUNDS_S,
                 labels: Optional[Mapping[str, str]] = None) -> None:
        bounds = [float(b) for b in bounds_s]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly ascending")
        if not bounds:
            raise ValueError("need at least one bucket bound")
        self.name = name
        self.labels: LabelPairs = _label_pairs(labels)
        self.bounds_s = bounds
        # one overflow bucket past the last bound
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total_s = 0.0

    def observe(self, latency_s: float) -> None:
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.bucket_counts[bisect.bisect_left(self.bounds_s, latency_s)] += 1
        self.count += 1
        self.total_s += latency_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def quantile_s(self, q: float) -> float:
        """Upper bucket bound containing the ``q``-quantile observation
        (the Prometheus-style conservative estimate)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank:
                return (self.bounds_s[i] if i < len(self.bounds_s)
                        else float("inf"))
        return float("inf")  # pragma: no cover - rank <= count always hits


def _prom_name(name: str) -> str:
    """Dotted internal name -> Prometheus metric name."""
    out = name.replace(".", "_").replace("-", "_")
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_value(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    if isinstance(v, int) or float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _prom_labels(pairs: LabelPairs, extra: str = "") -> str:
    parts = [f'{_prom_name(k)}="{v}"' for k, v in pairs]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class MetricsRegistry:
    """Registry of named counters/gauges/histograms, create-on-use.

    Names are dotted (``cache.hits``, ``backend.calls``); the dots are
    cosmetic grouping for :meth:`render` and become underscores in the
    Prometheus exposition.  ``labels`` distinguishes series within one
    family; the same ``(name, labels)`` pair always returns the same
    metric object.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}

    # -- create-on-use accessors ---------------------------------------------

    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        key = _display_name(name, _label_pairs(labels))
        if key not in self.counters:
            self.counters[key] = Counter(name, labels)
        return self.counters[key]

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        key = _display_name(name, _label_pairs(labels))
        if key not in self.gauges:
            self.gauges[key] = Gauge(name, labels)
        return self.gauges[key]

    def histogram(self, name: str,
                  bounds_s: Optional[Sequence[float]] = None,
                  labels: Optional[Mapping[str, str]] = None
                  ) -> LatencyHistogram:
        key = _display_name(name, _label_pairs(labels))
        if key not in self.histograms:
            self.histograms[key] = (
                LatencyHistogram(name, bounds_s, labels=labels)
                if bounds_s is not None
                else LatencyHistogram(name, labels=labels))
        return self.histograms[key]

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flat ``name -> value`` dict (histograms export count/mean/p95).

        Labeled series appear under their display name,
        ``name{k="v"}``.
        """
        out: Dict[str, float] = {}
        for name, c in self.counters.items():
            out[name] = c.value
        for name, g in self.gauges.items():
            out[name] = g.value
        for name, h in self.histograms.items():
            out[f"{name}.count"] = h.count
            out[f"{name}.mean_s"] = h.mean_s
            out[f"{name}.p95_s"] = h.quantile_s(0.95)
        return out

    def render(self) -> str:
        """Operator-facing text table, sorted by metric name."""
        lines: List[str] = []
        width = max((len(n) for n in self.snapshot()), default=10)
        for name in sorted(self.counters):
            lines.append(f"{name:<{width}}  {self.counters[name].value:>12d}")
        for name in sorted(self.gauges):
            lines.append(f"{name:<{width}}  {self.gauges[name].value:>12g}")
        for name in sorted(self.histograms):
            h = self.histograms[name]
            lines.append(
                f"{name + '.count':<{width}}  {h.count:>12d}")
            lines.append(
                f"{name + '.mean_s':<{width}}  {h.mean_s:>12.6f}")
            lines.append(
                f"{name + '.p95_s':<{width}}  {h.quantile_s(0.95):>12.6f}")
        return "\n".join(lines)

    def render_prometheus(self, prefix: str = "") -> str:
        """Prometheus text exposition format (v0.0.4 line format).

        One ``# TYPE`` header per family, then one sample line per
        series; histograms expand to cumulative ``_bucket`` series plus
        ``_sum`` and ``_count``.  ``prefix`` (e.g. ``"repro"``) is
        joined with ``_``.
        """
        out: List[str] = []
        base = (_prom_name(prefix) + "_") if prefix else ""

        def families(metrics):
            grouped: Dict[str, list] = {}
            for m in metrics.values():
                grouped.setdefault(m.name, []).append(m)
            return sorted(grouped.items())

        for name, series in families(self.counters):
            fam = base + _prom_name(name)
            out.append(f"# TYPE {fam} counter")
            for c in sorted(series, key=lambda m: m.labels):
                out.append(f"{fam}{_prom_labels(c.labels)} "
                           f"{_prom_value(c.value)}")
        for name, series in families(self.gauges):
            fam = base + _prom_name(name)
            out.append(f"# TYPE {fam} gauge")
            for g in sorted(series, key=lambda m: m.labels):
                out.append(f"{fam}{_prom_labels(g.labels)} "
                           f"{_prom_value(g.value)}")
        for name, series in families(self.histograms):
            fam = base + _prom_name(name)
            out.append(f"# TYPE {fam} histogram")
            for h in sorted(series, key=lambda m: m.labels):
                cumulative = 0
                for bound, n in zip(h.bounds_s, h.bucket_counts):
                    cumulative += n
                    le = _prom_labels(h.labels,
                                      extra=f'le="{_prom_value(bound)}"')
                    out.append(f"{fam}_bucket{le} {cumulative}")
                le = _prom_labels(h.labels, extra='le="+Inf"')
                out.append(f"{fam}_bucket{le} {h.count}")
                out.append(f"{fam}_sum{_prom_labels(h.labels)} "
                           f"{_prom_value(h.total_s)}")
                out.append(f"{fam}_count{_prom_labels(h.labels)} "
                           f"{h.count}")
        return "\n".join(out) + ("\n" if out else "")


#: historical name — the registry began life as the serving layer's;
#: kept as a first-class alias (``repro.service`` re-exports it).
ServiceMetrics = MetricsRegistry
