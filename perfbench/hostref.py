"""Host-speed reference: report timed work in reference seconds.

The benchmark runs on small shared hosts whose speed drifts with the
neighbours' load: on a 2-vCPU VM the same iteration took from 0.8x to
1.3x its median host time, in phases lasting seconds to minutes, so a
median over a run of tens of seconds mostly measured the phase it ran
in.

:class:`HostReference` times a fixed unit of reference work — a Python
dict loop, small NumPy calls and a pointer chase through 50k Python
objects, the operation mix and some of the cache pressure of the
simulator — three times before the timed call, every ``INTERVAL_S`` of
host time during it (from a ``SIGALRM`` handler, so the program under
test is not edited) and three times after it.  The call's host seconds,
minus the time the handler took, are scaled by ``REFERENCE_S`` over the
median sample: the call's duration on a host on which one unit of
reference work takes ``REFERENCE_S``.  The reference work is the
benchmark's own code, so a slower program still reads slower; only the
host's speed during the call is divided out.  Its objects (about 5 MB)
stay resident for the whole run and count toward ``peak_rss_mb``.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from typing import Any, Callable, List, Tuple

import numpy as np

#: about one sample's median host time on a 2-vCPU 2.1 GHz Xeon VM
REFERENCE_S = 1.0e-3
#: host seconds between reference samples during a timed call
INTERVAL_S = 0.05
#: reference samples taken just before and just after a timed call
BRACKET = 3
#: loop counts of the three parts of one sample, each about a third of it
K_DICT, K_NUMPY, K_CHASE = 1300, 35, 1500



class _Node:
    __slots__ = ("value", "next")


def _ring(n: int) -> List[_Node]:
    """``n`` nodes linked in a fixed random order."""
    nodes = [_Node() for _ in range(n)]
    order = list(range(n))
    random.Random(0).shuffle(order)
    for k in range(n):
        node = nodes[order[k]]
        node.value = float(k)
        node.next = nodes[order[(k + 1) % n]]
    return nodes


_RING = _ring(50_000)
_cursor = [_RING[0]]
_A = np.arange(25.0).reshape(5, 5)
_V = np.arange(100.0)


def reference_sample() -> float:
    """Host seconds one fixed unit of reference work takes right now."""
    t0 = time.perf_counter()
    d: dict = {}
    s = 0
    for i in range(K_DICT):
        k = i & 4095
        d[k] = d.get(k, 0) + i
        s += i * 3 % 7
    x = 0.0
    for _ in range(K_NUMPY):
        x += float((_A @ _A)[1, 2]) + float(np.cumsum(_V)[-1])
    node = _cursor[0]
    for _ in range(K_CHASE):
        x += node.value
        node = node.next
    _cursor[0] = node
    return time.perf_counter() - t0


def host_scale(n: int = 25) -> float:
    """``REFERENCE_S`` over the median of ``n`` samples taken now."""
    return REFERENCE_S / statistics.median(
        reference_sample() for _ in range(n))


class HostReference:
    """Times calls in host seconds and in reference seconds."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_sample())
        self.spent += time.perf_counter() - t0

    def time(self, fn: Callable, *args) -> Tuple[Any, float, float]:
        """Run ``fn(*args)``; return ``(result, host_s, scale)``.

        ``host_s`` excludes the sampling; ``host_s * scale`` is the
        call's duration in reference seconds.  The previous ``SIGALRM``
        handler is back in place and the timer disarmed on return, also
        when ``fn`` raises.
        """
        self.samples = [reference_sample() for _ in range(BRACKET)]
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                host_s = time.perf_counter() - t0 - self.spent
        finally:
            signal.signal(signal.SIGALRM, previous)
        self.samples += [reference_sample() for _ in range(BRACKET)]
        return result, host_s, REFERENCE_S / statistics.median(self.samples)
