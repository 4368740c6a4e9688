"""Carbon-data serving layer: cache -> coalescer -> retry/breaker -> provider.

The production-shaped front for the repo's
:class:`~repro.grid.providers.CarbonIntensityProvider` seam (see
DESIGN.md §"repro.service" for the architecture sketch).  Consumers —
the RJMS accounting loop, the carbon backfill gate, the PowerStack
budget policies, the job reports — talk to a
:class:`~repro.service.core.CarbonService` exactly as they would to a
raw provider, and get caching, request coalescing, retry/backoff, a
circuit breaker with graceful degradation, and operational metrics for
free.

Public API
----------
:class:`CarbonService` / :class:`CarbonServicePool`
    The serving layer itself (single zone / multi-zone fleet).
:class:`TTLLRUCache`
    Accounted TTL+LRU cache (standalone-usable).
:class:`RequestCoalescer` / :class:`PendingLookup`
    Single-flight deduplication of keyed lookups.
:class:`RetryPolicy` / :class:`CircuitBreaker` / :class:`BreakerState`
    Robustness middleware.
:class:`FlakyProvider` / :class:`SlowProvider`
    Fault-injection wrappers for tests and benchmarks.
:class:`ServiceMetrics` (+ :class:`Counter`, :class:`Gauge`,
:class:`LatencyHistogram`)
    The observability registry behind ``repro service stats`` — now an
    alias of :class:`repro.obs.registry.MetricsRegistry`, the unified
    stack-wide registry.
Errors
    :class:`ServiceError`, :class:`TransientBackendError`,
    :class:`DeadlineExceededError`, :class:`CircuitOpenError`,
    :class:`ServiceUnavailableError`.
"""

from repro.service.cache import MISSING, TTLLRUCache
from repro.service.coalesce import PendingLookup, RequestCoalescer
from repro.service.core import SIGNALS, CarbonService, CarbonServicePool
from repro.service.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceError,
    ServiceUnavailableError,
    TransientBackendError,
)
from repro.service.faults import FlakyProvider, SlowProvider
from repro.obs.registry import (  # the registry lives in repro.obs
    Counter,
    Gauge,
    LatencyHistogram,
    ServiceMetrics,
)
from repro.service.retry import BreakerState, CircuitBreaker, RetryPolicy

__all__ = [
    "CarbonService",
    "CarbonServicePool",
    "SIGNALS",
    "TTLLRUCache",
    "MISSING",
    "RequestCoalescer",
    "PendingLookup",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerState",
    "FlakyProvider",
    "SlowProvider",
    "ServiceMetrics",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "ServiceError",
    "TransientBackendError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "ServiceUnavailableError",
]
