"""Failure helpers shared by the hardened service and tuner layers.

:func:`failure_reason` maps an exception onto the observability
failure-reason taxonomy (``fault | timeout | worker_lost | error``);
the service's failure rule (:mod:`repro.service`) retries only the
``fault`` and ``worker_lost`` buckets.  :func:`call_with_timeout`
bounds one blocking call (a tuner trial) by running it on a private
daemon thread; a timed-out callee keeps running in the background
(Python threads cannot be killed) but the caller gets a
:class:`TaskTimeout` promptly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, TypeVar

from .. import obs
from ..errors import ReproError
from .injector import FaultInjected

T = TypeVar("T")


class TaskTimeout(ReproError):
    """A guarded task exceeded its per-task timeout."""


def failure_reason(exc: BaseException) -> str:
    """The taxonomy bucket for one failure (``fault`` | ``timeout`` |
    ``worker_lost`` | ``error``)."""
    if isinstance(exc, FaultInjected):
        return "fault"
    if isinstance(exc, TaskTimeout):
        return "timeout"
    if isinstance(exc, BrokenProcessPool):
        return "worker_lost"
    return "error"


def call_with_timeout(fn: Callable[[], T],
                      timeout_s: Optional[float]) -> T:
    """``fn()`` bounded by ``timeout_s`` (``None`` = call directly).

    The call runs on a one-shot worker thread with the caller's span
    context propagated, so observability nesting survives the hop."""
    if timeout_s is None:
        return fn()
    pool = ThreadPoolExecutor(max_workers=1,
                              thread_name_prefix="repro-timeout")
    future = pool.submit(obs.propagate(fn))
    try:
        return future.result(timeout=timeout_s)
    except FuturesTimeout:
        raise TaskTimeout(
            f"task exceeded its {timeout_s:g}s timeout") from None
    finally:
        # never join the (possibly still running) worker thread
        pool.shutdown(wait=False, cancel_futures=True)


__all__ = [
    "TaskTimeout",
    "call_with_timeout",
    "failure_reason",
]
