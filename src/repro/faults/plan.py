"""Declarative fault plans: *what* to break, *where*, and *when*.

A :class:`FaultPlan` is a seedable, JSON-serializable description of the
faults one run should experience.  It is pure data — the runtime that
interprets it lives in :mod:`repro.faults.injector` — so plans can be
generated by hypothesis, stored next to a bug report, or passed to
``repro run --fault-plan plan.json`` and replayed deterministically.

Each :class:`FaultRule` names an injection *site* (a glob over the
:data:`SITES` catalogue that must match at least one site), a fault
*kind*, and a trigger window over the site's hit counter:

* ``after`` — the 0-based hit index of the first trigger;
* ``every`` — trigger on every ``every``-th matching hit from there;
* ``times`` — total triggers before the rule burns out.

The default ``after=0, every=1, times=1`` means "fault the first hit
only" — the shape almost every regression test wants.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Sequence, Tuple

from ..errors import ReproError

#: the instrumented site catalogue.  Rules may glob over these
#: (``"server.*"``), and new sites only need a ``fault_point`` call.
SITES: Tuple[str, ...] = (
    "compile.kernel",      #: vector-program generation (cache miss path)
    "exec.codegen_kernel",  #: one emitted-source sweep (codegen engine)
    "pool.task_start",     #: a parallel-executor task beginning
    "server.batch_flush",  #: a server micro-batch leaving the queue
    "server.enqueue",      #: an admitted server request entering the queue
    "tile.sweep",          #: one part's (or window sub-step's) sweep
)

#: fault kinds a rule may request.  ``raise`` throws
#: :class:`~repro.faults.injector.FaultInjected`; ``delay`` sleeps
#: ``delay_s``; ``kill`` terminates the surrounding process-pool worker
#: (outside a pool worker it degrades to ``raise`` — the parent process
#: is never killed).
FAULT_KINDS: Tuple[str, ...] = ("raise", "delay", "kill")


@dataclass(frozen=True)
class FaultRule:
    """One site-matching trigger rule (see the module docstring)."""

    site: str                #: glob over site names, e.g. ``"server.*"``
    kind: str = "raise"
    after: int = 0           #: first triggering hit (0-based)
    times: int = 1           #: total triggers before the rule burns out
    every: int = 1           #: trigger stride after ``after``
    delay_s: float = 0.0     #: sleep duration for ``kind="delay"``
    message: str = ""        #: optional note carried on the fault

    def __post_init__(self) -> None:
        if not self.site:
            raise ReproError("fault rule needs a site pattern")
        if not any(fnmatch.fnmatchcase(s, self.site) for s in SITES):
            raise ReproError(
                f"fault site {self.site!r} matches no site; known: {SITES}")
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.after < 0:
            raise ReproError("after must be >= 0")
        if self.times < 1:
            raise ReproError("times must be >= 1")
        if self.every < 1:
            raise ReproError("every must be >= 1")
        if self.delay_s < 0:
            raise ReproError("delay_s must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "after": self.after,
            "times": self.times,
            "every": self.every,
            "delay_s": self.delay_s,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "FaultRule":
        if not isinstance(payload, dict):
            raise ReproError("fault rule must be an object")
        known = {"site", "kind", "after", "times", "every", "delay_s",
                 "message"}
        unknown = set(payload) - known
        if unknown:
            raise ReproError(f"unknown fault rule fields: {sorted(unknown)}")
        try:
            return cls(
                site=str(payload["site"]),
                kind=str(payload.get("kind", "raise")),
                after=int(payload.get("after", 0)),
                times=int(payload.get("times", 1)),
                every=int(payload.get("every", 1)),
                delay_s=float(payload.get("delay_s", 0.0)),
                message=str(payload.get("message", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed fault rule: {exc}") from None


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of rules plus a seed.

    ``seed`` is provenance only: it names the seed a generated plan came
    from (``repro chaos`` builds ``chaos_plan(seed)``) and round-trips
    through JSON, but no injection reads it.  Rules fire by hit count,
    so two plans that differ only in ``seed`` inject identically."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    name: str = "fault-plan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        for r in self.rules:
            if not isinstance(r, FaultRule):
                raise ReproError("plan rules must be FaultRule instances")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "rules": [r.to_dict() for r in self.rules],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Any) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ReproError("fault plan must be an object")
        rules = payload.get("rules", [])
        if not isinstance(rules, list):
            raise ReproError("plan rules must be a list")
        try:
            seed = int(payload.get("seed", 0))
        except (TypeError, ValueError):
            raise ReproError("plan seed must be an integer") from None
        return cls(rules=tuple(FaultRule.from_dict(r) for r in rules),
                   seed=seed, name=str(payload.get("name", "fault-plan")))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ReproError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ReproError(f"cannot read fault plan {path}: {exc}") from None
        return cls.from_json(text)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


__all__ = ["FAULT_KINDS", "SITES", "FaultPlan", "FaultRule"]
