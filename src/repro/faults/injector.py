"""The fault-injection runtime: named sites, hit counting, actions.

Production code is instrumented with **named sites** — one call to
:func:`fault_point` per site, costing a single module-global ``None``
check when no plan is active (no monkeypatching, no test-only code
paths).  Activating a plan is scoped and nestable::

    with faults.inject(FaultPlan(rules=(FaultRule("cache.disk_read"),))):
        ...   # the first disk read raises FaultInjected

Only the innermost active injector sees hits, so nested plans compose
the way context managers do.  Hit counters are per concrete site name
and shared by every rule matching that site, which makes "the Nth disk
read" mean the same thing no matter how many rules watch it.

Process-pool workers cannot see the parent's injector, so the executor
*decides* faults in the parent (consuming hits deterministically, in
submission order) and ships the resulting picklable
:class:`FaultAction` tokens with the task; the worker replays them with
:func:`perform_shipped` — the only place a ``kill`` fault actually
terminates a process.
"""

from __future__ import annotations

import fnmatch
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from .. import obs
from ..errors import ReproError
from .plan import FaultPlan

#: the instrumented site catalogue.  Rules may glob over these
#: (``"cache.*"``), and new sites only need a ``fault_point`` call.
SITES = (
    "cache.disk_read",     #: KernelCache loading a persisted entry
    "cache.disk_write",    #: KernelCache persisting an entry
    "compile.kernel",      #: vector-program generation (cache miss path)
    "exec.codegen_kernel",  #: one emitted-source sweep (codegen engine)
    "pool.task_start",     #: a parallel-executor task beginning
    "server.batch_flush",  #: a server micro-batch leaving the queue
    "server.enqueue",      #: an admitted server request entering the queue
    "tile.sweep",          #: one part's (or window sub-step's) sweep
)

#: exit status a ``kill`` fault terminates a pool worker with.
KILL_EXIT_CODE = 87


class FaultInjected(ReproError):
    """An injected fault (a :class:`ReproError` so every library-level
    degradation/retry path treats it like a real failure)."""

    def __init__(self, message: str = "injected fault", *,
                 site: str = "", kind: str = "raise", hit: int = -1) -> None:
        super().__init__(message)
        self.site = site
        self.kind = kind
        self.hit = hit

    def __reduce__(self):  # keep site/kind/hit across process pickling
        return (type(self), (str(self),),
                {"site": self.site, "kind": self.kind, "hit": self.hit})


@dataclass(frozen=True)
class FaultAction:
    """One concrete triggered fault (picklable, shippable to workers)."""

    site: str
    kind: str
    hit: int              #: the site hit index that triggered
    rule: int             #: index of the triggering rule in the plan
    delay_s: float = 0.0
    message: str = ""

    def to_fault(self) -> FaultInjected:
        return FaultInjected(
            self.message or f"injected {self.kind} at {self.site} "
                            f"(hit {self.hit})",
            site=self.site, kind=self.kind, hit=self.hit)


class FaultInjector:
    """Interprets one :class:`~repro.faults.plan.FaultPlan` (thread-safe).

    :meth:`decide` consumes one hit of a site and returns the triggered
    :class:`FaultAction` (or ``None``); :meth:`perform` executes an
    action in-process.  ``log`` records every triggered action in order.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._fired = [0] * len(plan.rules)
        self.log: List[FaultAction] = []

    # -- hit bookkeeping -------------------------------------------------------
    def decide(self, site: str) -> Optional[FaultAction]:
        """Count one hit of ``site``; return the action it triggers."""
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
            action = None
            for i, rule in enumerate(self.plan.rules):
                if self._fired[i] >= rule.times:
                    continue
                if not fnmatch.fnmatchcase(site, rule.site):
                    continue
                if hit < rule.after or (hit - rule.after) % rule.every:
                    continue
                self._fired[i] += 1
                action = FaultAction(site=site, kind=rule.kind, hit=hit,
                                     rule=i, delay_s=rule.delay_s,
                                     message=rule.message)
                self.log.append(action)
                break
        if action is not None and obs.enabled():
            obs.counter("faults.injected").inc()
            obs.counter(f"faults.injected.site.{site}").inc()
            obs.counter(f"faults.injected.kind.{action.kind}").inc()
        return action

    def hits(self, site: str) -> int:
        with self._lock:
            return self._hits.get(site, 0)

    def injected_by_site(self) -> Dict[str, int]:
        """Triggered-fault counts per concrete site."""
        with self._lock:
            out: Dict[str, int] = {}
            for a in self.log:
                out[a.site] = out.get(a.site, 0) + 1
            return out

    # -- executing actions -----------------------------------------------------
    def corrupt(self, payload: Union[str, bytes],
                action: FaultAction) -> Union[str, bytes]:
        """Deterministically mangle ``payload``.  The corruption either
        truncates the tail or splices raw control bytes into the middle —
        both guarantee a JSON consumer fails to parse (control characters
        are illegal anywhere in JSON), so corruption is always *detectable*
        rather than silently semantic."""
        rng = random.Random(f"{self.plan.seed}:{action.site}:{action.hit}")
        garbage = "\x00\x01\x02corrupt"
        if isinstance(payload, bytes):
            garbage_b = garbage.encode("latin-1")
            if len(payload) < 4 or rng.random() < 0.5:
                return payload[: max(0, len(payload) - 2)]  # truncate
            pos = rng.randrange(1, len(payload) - 1)
            return payload[:pos] + garbage_b + payload[pos + 1:]
        if len(payload) < 4 or rng.random() < 0.5:
            return payload[: max(0, len(payload) - 2)]
        pos = rng.randrange(1, len(payload) - 1)
        return payload[:pos] + garbage + payload[pos + 1:]

    def perform(self, action: FaultAction, payload=None):
        """Execute ``action`` in the current (non-worker) process: sleep,
        corrupt the payload, or raise.  ``kill`` degrades to ``raise``
        here — only :func:`perform_shipped` inside a pool worker actually
        terminates a process."""
        if action.kind == "delay":
            time.sleep(action.delay_s)
            return payload
        if action.kind == "corrupt" and payload is not None:
            return self.corrupt(payload, action)
        raise action.to_fault()


# -- the active-injector stack -------------------------------------------------

_stack: List[FaultInjector] = []
_stack_lock = threading.Lock()


def active() -> Optional[FaultInjector]:
    """The innermost active injector, or ``None`` (the common case)."""
    stack = _stack
    return stack[-1] if stack else None


@contextmanager
def inject(plan: Union[FaultPlan, FaultInjector]):
    """Activate ``plan`` for the dynamic extent of the ``with`` block
    (yields the :class:`FaultInjector` so callers can read its log)."""
    inj = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    with _stack_lock:
        _stack.append(inj)
    try:
        yield inj
    finally:
        with _stack_lock:
            # remove *this* injector even under exotic nesting
            for i in range(len(_stack) - 1, -1, -1):
                if _stack[i] is inj:
                    del _stack[i]
                    break


def fault_point(site: str, payload=None):
    """The instrumentation hook production code calls at a named site.

    Returns ``payload`` (possibly corrupted), sleeps, or raises
    :class:`FaultInjected` — and is a near-free no-op when no plan is
    active."""
    inj = active()
    if inj is None:
        return payload
    action = inj.decide(site)
    if action is None:
        return payload
    return inj.perform(action, payload)


def perform_shipped(action: FaultAction) -> None:
    """Replay a parent-decided action inside a process-pool worker.
    This is the only place ``kill`` really exits a process."""
    if action.kind == "delay":
        time.sleep(action.delay_s)
        return
    if action.kind == "kill":
        os._exit(KILL_EXIT_CODE)
    raise action.to_fault()


__all__ = [
    "FaultAction",
    "FaultInjected",
    "FaultInjector",
    "KILL_EXIT_CODE",
    "SITES",
    "active",
    "fault_point",
    "inject",
    "perform_shipped",
]
