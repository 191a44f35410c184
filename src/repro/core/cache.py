"""Content-addressed kernel compilation cache.

Every call to :func:`repro.core.jigsaw.compile` used to re-plan, re-run
the SDF decomposition, and re-generate the vector program from scratch.
At service scale (many kernels, many repeated geometries) that is pure
redundancy: the lowered instruction stream is a deterministic function of
``(StencilSpec, MachineConfig, plan options)``; a grid only sets the loop
bounds.

:class:`KernelCache` memoizes all three stages in memory under
content-addressed keys (SHA-256 over the canonical JSON of every input
field, so *any* change to the spec, the machine or the plan options
produces a different key):

* **plans** — :class:`~repro.core.planner.JigsawPlan` objects (whose SDF
  ``terms`` are themselves memoized per plan);
* **programs** — shape-free :class:`~repro.core.jigsaw.JigsawTemplate`
  lowerings keyed by plan alone, in a bounded LRU.
  :meth:`KernelCache.program` binds the template to each grid, which is
  where the grid's rank, halo and x extent are checked.

Programs are not persisted: a lowering costs a few milliseconds, less
than reading and validating a stored one.

Concurrency: the cache is fully thread-safe, and concurrent misses for
the *same* key are collapsed through per-key in-flight locks — the first
caller compiles, every waiter reuses the result (a service and a tuner
sharing one cache no longer run the same compile twice).

Hit/miss/evict counters are exposed through :class:`CacheStats`.  With
observability enabled (:mod:`repro.obs`), cache operations additionally
record spans (``cache.plan``, ``cache.program``) and hit/miss latency
histograms.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from .. import faults, obs
from ..config import MachineConfig
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from ..vectorize.program import VectorProgram
from .jigsaw import JigsawTemplate
from .planner import JigsawPlan, plan as build_plan


# -- content fingerprints ------------------------------------------------------

def spec_fingerprint(spec: StencilSpec) -> Dict[str, Any]:
    """Canonical JSON-compatible content of a spec (every field).  Stored
    tuning records are keyed on this layout, so it must not change."""
    return {
        "name": spec.name,
        "ndim": spec.ndim,
        "offsets": [list(o) for o in spec.offsets],
        "coeffs": list(spec.coeffs),
    }


def machine_fingerprint(machine: MachineConfig) -> Dict[str, Any]:
    """Canonical JSON-compatible content of a machine (every field,
    cache hierarchy included)."""
    return dataclasses.asdict(machine)


def digest(payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``payload`` — the key function
    shared by the kernel cache and the tuning database
    (:mod:`repro.tune.db`)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()



def _object_digest(obj: Any, fingerprint) -> str:
    """``digest(fingerprint(obj))``, computed once per frozen object and
    kept on the object itself.  Specs that ``==`` treats as equal can
    still fingerprint differently (a ``-0.0`` coefficient), so the memo
    is never shared between objects."""
    cached = obj.__dict__.get("_digest_memo")
    if cached is None:
        cached = digest(fingerprint(obj))
        object.__setattr__(obj, "_digest_memo", cached)
    return cached


def spec_digest(spec: StencilSpec) -> str:
    """Content digest of a spec (see :func:`spec_fingerprint`)."""
    return _object_digest(spec, spec_fingerprint)


def machine_digest(machine: MachineConfig) -> str:
    """Content digest of a machine (see :func:`machine_fingerprint`)."""
    return _object_digest(machine, machine_fingerprint)


#: plan keys memoized per spec object (see :func:`plan_key`); past this
#: many option sets the memo starts over
PLAN_KEY_MEMO = 64


def plan_key(spec: StencilSpec, machine: MachineConfig, *,
             time_fusion: Union[int, str] = "auto",
             use_sdf: bool = True, backend: str = "auto") -> str:
    """Content hash identifying one planning request.

    ``backend`` is an execution-time preference carried on the plan; it
    keys plan lookups (so a cached plan honours the requested backend)
    but never the program cache (generated programs are backend-neutral).

    Keys are memoized on the spec object, like its digest, per machine
    digest and option set; the option types take part (``1`` and
    ``True`` serialize differently), so a memo hit returns exactly the
    key a fresh computation would.
    """
    md = machine_digest(machine)
    memo_key = (md, type(time_fusion), time_fusion, type(use_sdf), use_sdf,
                backend)
    memo = spec.__dict__.get("_plan_key_memo")
    if memo is None:
        memo = {}
        object.__setattr__(spec, "_plan_key_memo", memo)
    key = memo.get(memo_key)
    if key is None:
        payload = {
            "kind": "plan",
            "spec": spec_digest(spec),
            "machine": md,
            "time_fusion": time_fusion,
            "use_sdf": use_sdf,
        }
        if backend != "auto":  # default keys stay stable across versions
            payload["backend"] = backend
        key = digest(payload)
        if len(memo) >= PLAN_KEY_MEMO:
            memo.clear()
        memo[memo_key] = key
    return key


def program_key(plan: JigsawPlan) -> str:
    """Content hash identifying one shape-free program: the plan inputs.
    The spec fixes the rank, and a grid only sets loop bounds, so no
    grid field takes part.  Computed once per plan object."""
    cached = plan.__dict__.get("_program_key_memo")
    if cached is None:
        cached = digest({
            "kind": "program",
            "spec": spec_digest(plan.spec),
            "machine": machine_digest(plan.machine),
            "options": plan.cache_token(),
        })
        object.__setattr__(plan, "_program_key_memo", cached)
    return cached


# -- statistics ----------------------------------------------------------------

@dataclass
class CacheStats:
    """Counters for one :class:`KernelCache` (a live view, not a copy)."""

    hits: int = 0            #: program served from memory
    misses: int = 0          #: program lowered from scratch
    evictions: int = 0       #: programs dropped from the LRU
    plan_hits: int = 0
    plan_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def reset(self) -> None:
        for name in self.as_dict():
            setattr(self, name, 0)


class KernelCache:
    """Memoizes the Jigsaw compile pipeline (see module docstring).

    Thread-safe; safe to share across a :class:`~repro.service.KernelService`
    compile pool.
    """

    def __init__(self, *, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._plans: "OrderedDict[str, JigsawPlan]" = OrderedDict()
        self._programs: "OrderedDict[str, JigsawTemplate]" = OrderedDict()
        #: per-key in-flight locks collapsing concurrent same-key misses
        self._inflight: Dict[str, threading.Lock] = {}

    # -- in-flight dedup -------------------------------------------------------
    def _key_lock(self, key: str) -> threading.Lock:
        with self._lock:
            lock = self._inflight.get(key)
            if lock is None:
                lock = self._inflight[key] = threading.Lock()
            return lock

    def _drop_key_lock(self, key: str) -> None:
        with self._lock:
            self._inflight.pop(key, None)

    # -- plans -----------------------------------------------------------------
    def plan(self, spec: StencilSpec, machine: MachineConfig, *,
             time_fusion: Union[int, str] = "auto",
             use_sdf: bool = True, backend: str = "auto") -> JigsawPlan:
        """Memoized :func:`repro.core.planner.plan`."""
        key = plan_key(spec, machine, time_fusion=time_fusion,
                       use_sdf=use_sdf, backend=backend)
        t0 = time.perf_counter()
        with obs.span("cache.plan", kernel=spec.name):
            cached = self._plan_hit(key)
            if cached is not None:
                self._observe("cache.plan.hit", t0)
                return cached
            lock = self._key_lock("plan:" + key)
            try:
                with lock:
                    cached = self._plan_hit(key)
                    if cached is not None:  # a waiter reuses the leader's plan
                        self._observe("cache.plan.hit", t0)
                        return cached
                    built = build_plan(spec, machine, time_fusion=time_fusion,
                                       use_sdf=use_sdf, backend=backend)
                    with self._lock:
                        self.stats.plan_misses += 1
                        self._plans[key] = built
                        while len(self._plans) > self.max_entries:
                            self._plans.popitem(last=False)
            finally:
                self._drop_key_lock("plan:" + key)
            self._observe("cache.plan.miss", t0)
            return built

    def _plan_hit(self, key: str) -> Optional[JigsawPlan]:
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self._plans.move_to_end(key)
                self.stats.plan_hits += 1
            return cached

    # -- programs --------------------------------------------------------------
    def program(self, plan: JigsawPlan, grid: Grid) -> VectorProgram:
        """The vector program for ``plan`` bound to ``grid``: the plan's
        :meth:`template` with ``grid``'s loop bounds.  Raises
        :class:`~repro.errors.VectorizeError` for a grid the plan cannot
        run on."""
        with obs.span("cache.program", kernel=plan.spec.name):
            return self.template(plan).bind(grid)

    def template(self, plan: JigsawPlan) -> JigsawTemplate:
        """The shape-free program for ``plan`` — from memory, else a
        fresh lowering.  Concurrent misses for one key lower once
        (the in-flight lock); every waiter gets the leader's template and
        counts as a hit."""
        key = program_key(plan)
        t0 = time.perf_counter()
        cached = self._program_hit(key)
        if cached is not None:
            self._observe("cache.program.hit", t0)
            return cached
        lock = self._key_lock("prog:" + key)
        try:
            with lock:
                cached = self._program_hit(key)
                if cached is not None:
                    self._observe("cache.program.hit", t0)
                    return cached
                faults.fault_point("compile.kernel")
                template = plan.lower()
                with self._lock:
                    self.stats.misses += 1
                    self._remember(key, template)
        finally:
            self._drop_key_lock("prog:" + key)
        self._observe("cache.program.miss", t0)
        return template

    def _program_hit(self, key: str) -> Optional[JigsawTemplate]:
        with self._lock:
            cached = self._programs.get(key)
            if cached is not None:
                self._programs.move_to_end(key)
                self.stats.hits += 1
            return cached

    def compile(self, spec: StencilSpec, machine: MachineConfig, grid: Grid,
                *, time_fusion: Union[int, str] = "auto",
                use_sdf: bool = True, backend: str = "auto"):
        """Cache-aware equivalent of :func:`repro.core.jigsaw.compile`."""
        from .kernel import CompiledKernel
        p = self.plan(spec, machine, time_fusion=time_fusion,
                      use_sdf=use_sdf, backend=backend)
        return CompiledKernel(plan=p, machine=machine, grid=grid, cache=self)

    def _remember(self, key: str, template: JigsawTemplate) -> None:
        self._programs[key] = template
        while len(self._programs) > self.max_entries:
            self._programs.popitem(last=False)
            self.stats.evictions += 1

    @staticmethod
    def _observe(event: str, t0: float) -> None:
        """Record one cache event (``cache.program.hit`` etc.) as a
        counter plus a latency histogram — only when observability is on."""
        if obs.enabled():
            plural = "es" if event.endswith("miss") else "s"
            obs.counter(event + plural).inc()
            obs.histogram(event + "_ms").observe(
                (time.perf_counter() - t0) * 1e3)

    # -- maintenance -----------------------------------------------------------
    def clear(self) -> None:
        """Drop every cached plan and program, and every counter."""
        with self._lock:
            self._plans.clear()
            self._programs.clear()
            self.stats.reset()

    def stats_dict(self) -> Dict[str, int]:
        """Session counters plus occupancy, for the stats API.  The
        snapshot is taken under the cache lock so it is internally
        consistent (no torn hit/miss pairs)."""
        with self._lock:
            out = dict(self.stats.as_dict())
            out["memory_programs"] = len(self._programs)
            out["memory_plans"] = len(self._plans)
        return out


# -- module default ------------------------------------------------------------

_default: Optional[KernelCache] = None
_default_lock = threading.Lock()


def default_cache() -> KernelCache:
    """The process-wide cache :func:`repro.core.jigsaw.compile` uses
    when no explicit cache is given."""
    global _default
    with _default_lock:
        if _default is None:
            _default = KernelCache()
        return _default
