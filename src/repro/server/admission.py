"""Admission control for the stencil server: quotas + queue depth.

Two independent guards decide whether a request may enter the server,
both designed to fail *fast* — a rejected request never touches the
batcher, the executor, or the kernel service, so overload turns into
cheap :class:`ServerOverloaded` responses instead of timeouts:

* a per-tenant **token bucket** (``quota_rate`` tokens/second refill,
  ``quota_burst`` capacity) bounds each tenant's sustained request rate
  while allowing short bursts.  The tenant is wire input, so the bucket
  table is bounded: an unlimited quota keeps no buckets, and past
  :data:`TENANT_BUCKETS` the buckets that have refilled to ``quota_burst``
  — indistinguishable from fresh ones — are dropped;
* a **global queue-depth** ceiling bounds the number of admitted
  requests that have not yet completed, which is the server's only
  unbounded resource.

A third check rejects requests whose deadline has already expired at
enqueue time — running them would only waste batch capacity on a
response the client has given up on.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Optional

from .. import obs
from ..errors import ReproError

#: rejection reasons :class:`ServerOverloaded` may carry.
REJECT_REASONS = ("quota", "queue", "deadline", "closed")

#: the bucket-table size at which a metered controller drops its full
#: buckets (the next sweep waits until the table has doubled from what
#: is left, so sweeps cost amortized O(1) per new tenant).
TENANT_BUCKETS = 4096


class ServerOverloaded(ReproError):
    """A request was rejected at admission (fast path, nothing ran).

    ``reason`` is one of :data:`REJECT_REASONS`; ``tenant`` names the
    requester the decision applied to.
    """

    def __init__(self, message: str, *, reason: str = "queue",
                 tenant: str = "") -> None:
        super().__init__(message)
        self.reason = reason
        self.tenant = tenant


class TokenBucket:
    """A lazily refilled token bucket (not thread-safe: the server only
    consults it from the event-loop thread)."""

    def __init__(self, rate: float, burst: float, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not rate > 0:
            raise ReproError("quota rate must be positive (use inf for "
                             "an unlimited tenant)")
        if not burst >= 1 or math.isnan(burst):
            raise ReproError("quota burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._clock = clock
        self._last = clock()

    def _refill(self, now: float) -> None:
        if self.rate == math.inf:
            self.tokens = self.burst
        else:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last) * self.rate)
        self._last = now

    def try_take(self, n: float = 1.0) -> bool:
        """Consume ``n`` tokens if available; never blocks."""
        self._refill(self._clock())
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def available(self) -> float:
        self._refill(self._clock())
        return self.tokens


class AdmissionController:
    """The admission decision: deadline, then queue depth, then quota.

    The ordering is deliberate: an expired deadline is the requester's
    fault and should not consume quota; a full queue is global and
    should not consume the tenant's tokens either.  Only a request that
    would actually be admitted pays a token.
    """

    def __init__(self, *, max_queue_depth: int, quota_rate: float,
                 quota_burst: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not isinstance(max_queue_depth, int) or max_queue_depth < 1:
            raise ReproError("max_queue_depth must be an integer >= 1")
        if not quota_rate > 0:
            raise ReproError("quota_rate must be positive (inf = unlimited)")
        if quota_burst is None:
            quota_burst = quota_rate if quota_rate != math.inf else 1.0
        if not quota_burst >= 1 or math.isnan(quota_burst):
            raise ReproError("quota_burst must be >= 1")
        self.max_queue_depth = max_queue_depth
        self.quota_rate = float(quota_rate)
        self.quota_burst = float(quota_burst)
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        #: the table size that triggers the next sweep of full buckets
        self._sweep_at = TENANT_BUCKETS

    def bucket(self, tenant: str) -> TokenBucket:
        b = self._buckets.get(tenant)
        if b is None:
            if len(self._buckets) >= self._sweep_at:
                self._drop_full_buckets()
            b = self._buckets[tenant] = TokenBucket(
                self.quota_rate, self.quota_burst, clock=self._clock)
        return b

    def _drop_full_buckets(self) -> None:
        """Forget every tenant whose bucket has refilled to the burst: a
        fresh bucket starts full, so no admission decision changes."""
        full = [t for t, b in self._buckets.items()
                if b.available() >= self.quota_burst]
        for t in full:
            del self._buckets[t]
        obs.counter("server.admission.buckets_dropped").inc(len(full))
        self._sweep_at = max(TENANT_BUCKETS, 2 * len(self._buckets))

    def check(self, tenant: str, inflight: int,
              deadline_s: Optional[float]) -> Optional[str]:
        """The rejection reason for one request, or ``None`` to admit."""
        if deadline_s is not None and deadline_s <= 0:
            return "deadline"
        if inflight >= self.max_queue_depth:
            return "queue"
        if self.quota_rate != math.inf and not self.bucket(tenant).try_take():
            return "quota"
        return None

    def tenants(self) -> tuple:
        """The metered tenants that currently hold a bucket."""
        return tuple(sorted(self._buckets))


__all__ = ["AdmissionController", "REJECT_REASONS", "ServerOverloaded",
           "TENANT_BUCKETS", "TokenBucket"]
