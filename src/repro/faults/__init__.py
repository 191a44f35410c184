"""Deterministic, seedable fault injection for the whole stack.

The framework has three pieces:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultRule`,
  pure-data JSON-serializable descriptions of what to break and when;
* :mod:`repro.faults.injector` — the runtime: the named-site catalogue
  (:data:`SITES`), the :func:`inject` context manager, and the
  :func:`fault_point` hook production code calls (a near-free no-op
  when no plan is active — no monkeypatching anywhere);
* :mod:`repro.faults.policy` — the failure-reason taxonomy the
  hardened service/executor layers share, and the per-trial timeout
  the tuner uses.

``repro chaos`` (:mod:`repro.faults.chaos`, imported lazily to avoid a
cycle with the service layer) runs a full compile-and-sweep workload
under a randomized plan and verifies bitwise equality with the clean
run.
"""

from .injector import (
    KILL_EXIT_CODE,
    SITES,
    FaultAction,
    FaultInjected,
    FaultInjector,
    active,
    fault_point,
    inject,
    perform_shipped,
)
from .plan import FAULT_KINDS, FaultPlan, FaultRule
from .policy import TaskTimeout, call_with_timeout, failure_reason

__all__ = [
    "FAULT_KINDS",
    "FaultAction",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "KILL_EXIT_CODE",
    "SITES",
    "TaskTimeout",
    "active",
    "call_with_timeout",
    "failure_reason",
    "fault_point",
    "inject",
    "perform_shipped",
]
