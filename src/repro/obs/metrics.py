"""The metrics registry: counters, gauges, histograms with JSON export.

Instruments are created on first use (``registry.counter("cache.hits")``)
and are process-wide aggregates — no per-label cardinality machinery;
call sites that need a breakdown (e.g. the codegen-fallback reason
taxonomy) encode it in the instrument name
(``exec.codegen_fallback.reason.mem_hook``).

Histograms keep exact ``count``/``sum``/``min``/``max`` plus power-of-two
buckets (keyed ``"<=2^e"`` by the exponent of the upper bound), so the
export is small, deterministic, and mergeable across snapshots.

All updates are guarded by one registry-wide lock; every instrumented
site is at sweep/request granularity (never per instruction), so
contention is negligible next to the work being measured.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """A distribution summary (see module docstring)."""

    __slots__ = ("_lock", "count", "total", "min", "max", "buckets")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            e = _bucket_exponent(value)
            self.buckets[e] = self.buckets.get(e, 0) + 1

    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def as_dict(self) -> Dict[str, Any]:
        """A point-in-time copy — taken under the lock so a concurrent
        ``observe`` can neither tear the summary nor mutate the returned
        buckets, and the export never aliases live registry state."""
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.mean(),
                "buckets": {f"<=2^{e}": n
                            for e, n in sorted(self.buckets.items())},
            }


def _bucket_exponent(value: float) -> int:
    """Exponent ``e`` of the smallest power-of-two upper bound
    ``2^e >= value`` (clamped to [-40, 40]; <= 0 falls in the lowest)."""
    if value <= 0 or not math.isfinite(value):
        return -40
    return max(-40, min(40, math.ceil(math.log2(value))))


class NullMetric:
    """Inert counter/gauge/histogram used while observability is off."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_METRIC = NullMetric()


class MetricsRegistry:
    """Name -> instrument map with a JSON-compatible snapshot."""

    def __init__(self) -> None:
        # reentrant: snapshot() holds it while each histogram's as_dict
        # re-acquires it (instruments share the registry lock)
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            m = self._counters.get(name)
            if m is None:
                m = self._counters[name] = Counter(self._lock)
            return m

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            m = self._gauges.get(name)
            if m is None:
                m = self._gauges[name] = Gauge(self._lock)
            return m

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            m = self._histograms.get(name)
            if m is None:
                m = self._histograms[name] = Histogram(self._lock)
            return m

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "counters": {k: c.value
                             for k, c in sorted(self._counters.items())},
                "gauges": {k: g.value
                           for k, g in sorted(self._gauges.items())},
                "histograms": {k: h.as_dict()
                               for k, h in sorted(self._histograms.items())},
            }


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NULL_METRIC", "NullMetric"]
