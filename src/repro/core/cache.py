"""Content-addressed kernel compilation cache.

Every call to :func:`repro.core.jigsaw.compile` used to re-plan, re-run
the SDF decomposition, and re-generate the vector program from scratch.
At service scale (many kernels, many repeated geometries) that is pure
redundancy: the lowered instruction stream is a deterministic function of
``(StencilSpec, MachineConfig, plan options)``; a grid only sets the loop
bounds.

:class:`KernelCache` memoizes all three stages under content-addressed
keys (SHA-256 over the canonical JSON of every input field, so *any*
change to the spec, the machine or the plan options produces a different
key):

* **plans** — :class:`~repro.core.planner.JigsawPlan` objects (whose SDF
  ``terms`` are themselves memoized per plan);
* **programs** — shape-free :class:`~repro.core.jigsaw.JigsawTemplate`
  lowerings keyed by plan alone, in a bounded in-memory LRU and, when a
  ``cache_dir`` is configured, as JSON artifacts on disk (the
  :mod:`repro.machine.serialize` format).  :meth:`KernelCache.program`
  binds the template to each grid, which is where the grid's rank, halo
  and x extent are checked.  Corrupted or stale disk entries are
  discarded and recompiled, never trusted.

Concurrency: the cache is fully thread-safe, and concurrent misses for
the *same* key are collapsed through per-key in-flight locks — the first
caller compiles, every waiter reuses the result (a service and a tuner
sharing one cache no longer run the same compile twice).

Hit/miss/evict counters are exposed through :class:`CacheStats`.  For
disk-backed caches every writer persists its *own* session counters to a
``_stats-<writer>.json`` delta file under the atomic-rename discipline;
:func:`persisted_totals` merges the legacy ``_stats.json`` base with all
delta files, so concurrent processes sharing a cache directory never
overwrite each other's counts (the old base+session scheme was
last-writer-wins).  With observability enabled (:mod:`repro.obs`), cache
operations additionally record spans (``cache.plan``, ``cache.program``,
``cache.disk_load``, ``cache.disk_store``) and hit/miss latency
histograms.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from .. import faults, obs
from ..config import MachineConfig
from ..machine.serialize import (
    machine_to_dict,
    program_from_dict,
    program_to_dict,
    spec_to_dict,
    term_to_dict,
)
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from ..vectorize.common import unbound_loops
from ..vectorize.program import VectorProgram
from .jigsaw import JigsawTemplate
from .planner import JigsawPlan, plan as build_plan

#: bump when the on-disk entry layout changes; older entries are discarded.
#: v2 added the program checksum (semantic corruption is now detectable,
#: not just structural corruption); v3 stores shape-free programs keyed
#: by plan alone.
ENTRY_FORMAT = 3

#: corrupt/truncated/stale disk entries are moved here (under the cache
#: directory) instead of deleted, so operators can inspect what broke.
QUARANTINE_DIR = "_quarantine"

#: legacy/compacted cumulative counters, one file per cache directory.
STATS_FILE = "_stats.json"

#: per-writer session-counter delta files (see :func:`persisted_totals`).
STATS_DELTA_PREFIX = "_stats-"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/kernels``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "kernels")


# -- content fingerprints ------------------------------------------------------

def spec_fingerprint(spec: StencilSpec) -> Dict[str, Any]:
    """Canonical JSON-compatible content of a spec (every field)."""
    return spec_to_dict(spec)


def machine_fingerprint(machine: MachineConfig) -> Dict[str, Any]:
    """Canonical JSON-compatible content of a machine (every field,
    cache hierarchy included)."""
    return machine_to_dict(machine)


def digest(payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``payload`` — the key function
    shared by the kernel cache and the tuning database
    (:mod:`repro.tune.db`)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_digest = digest  # backwards-compatible private alias


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


def plan_key(spec: StencilSpec, machine: MachineConfig, *,
             time_fusion: Union[int, str] = "auto",
             use_sdf: bool = True, backend: str = "auto") -> str:
    """Content hash identifying one planning request.

    ``backend`` is an execution-time preference carried on the plan; it
    keys plan lookups (so a cached plan honours the requested backend)
    but never the program cache (generated programs are backend-neutral).
    """
    payload = {
        "kind": "plan",
        "spec": spec_digest(spec),
        "machine": machine_digest(machine),
        "time_fusion": time_fusion,
        "use_sdf": use_sdf,
    }
    if backend != "auto":  # default keys stay stable across versions
        payload["backend"] = backend
    return _digest(payload)


def program_key(plan: JigsawPlan) -> str:
    """Content hash identifying one shape-free program: the plan inputs.
    The spec fixes the rank, and a grid only sets loop bounds, so no
    grid field takes part."""
    return _digest({
        "kind": "program",
        "spec": spec_digest(plan.spec),
        "machine": machine_digest(plan.machine),
        "options": plan.cache_token(),
    })


# -- statistics ----------------------------------------------------------------

@dataclass
class CacheStats:
    """Counters for one :class:`KernelCache` (a live view, not a copy)."""

    hits: int = 0            #: program served from memory or disk
    misses: int = 0          #: program lowered from scratch
    evictions: int = 0       #: programs dropped from the in-memory LRU
    plan_hits: int = 0
    plan_misses: int = 0
    disk_hits: int = 0       #: subset of ``hits`` loaded from cache_dir
    disk_writes: int = 0
    disk_discards: int = 0   #: corrupted/stale entries thrown away
    disk_quarantined: int = 0  #: subset of ``disk_discards`` moved aside
    disk_write_faults: int = 0  #: persists skipped by an injected fault

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "disk_discards": self.disk_discards,
            "disk_quarantined": self.disk_quarantined,
            "disk_write_faults": self.disk_write_faults,
        }

    def reset(self) -> None:
        for name in self.as_dict():
            setattr(self, name, 0)


def _is_stats_delta(name: str) -> bool:
    return name.startswith(STATS_DELTA_PREFIX) and name.endswith(".json")


def _is_stats_name(name: str) -> bool:
    return name == STATS_FILE or _is_stats_delta(name)


def persisted_totals(cache_dir: str) -> Dict[str, int]:
    """Cumulative counters for a cache directory: the ``_stats.json``
    base (legacy single-writer totals, kept as a compaction target) plus
    every per-writer ``_stats-*.json`` delta file.  Safe with live
    writers — each delta is rewritten atomically by its owning writer
    only, so the merge never observes torn or double-counted data."""
    sources = []
    base = read_json(os.path.join(cache_dir, STATS_FILE))
    if isinstance(base, dict):
        sources.append(base)
    try:
        names = sorted(os.listdir(cache_dir))
    except OSError:
        names = []
    for name in names:
        if _is_stats_delta(name):
            delta = read_json(os.path.join(cache_dir, name))
            if isinstance(delta, dict):
                sources.append(delta)
    totals: Dict[str, int] = {}
    for src in sources:
        for k, v in src.items():
            if isinstance(v, (int, float)):
                totals[k] = totals.get(k, 0) + int(v)
    return totals


class KernelCache:
    """Memoizes the Jigsaw compile pipeline (see module docstring).

    Thread-safe; safe to share across a :class:`~repro.service.KernelService`
    compile pool.  ``cache_dir=None`` keeps the cache purely in memory.
    """

    def __init__(self, cache_dir: Optional[str] = None, *,
                 max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.cache_dir = cache_dir
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._plans: "OrderedDict[str, JigsawPlan]" = OrderedDict()
        self._programs: "OrderedDict[str, JigsawTemplate]" = OrderedDict()
        #: per-key in-flight locks collapsing concurrent same-key misses
        self._inflight: Dict[str, threading.Lock] = {}
        #: this instance's stats delta file name (pid + random so writer
        #: identities never collide, even across pid reuse)
        self._writer_name = (
            f"{STATS_DELTA_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:8]}.json")
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)

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
        """The shape-free program for ``plan`` — from memory, then disk,
        then a fresh lowering.  Concurrent misses for one key lower once
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
                loaded = self._load_entry(key, plan)
                if loaded is not None:
                    with self._lock:
                        self.stats.hits += 1
                        self.stats.disk_hits += 1
                        self._remember(key, loaded)
                    self._persist_stats()
                    self._observe("cache.program.hit", t0)
                    return loaded
                faults.fault_point("compile.kernel")
                template = plan.lower()
                with self._lock:
                    self.stats.misses += 1
                    self._remember(key, template)
                self._store_entry(key, plan, template.program)
                self._persist_stats()
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

    # -- disk persistence ------------------------------------------------------
    def _entry_path(self, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{key}.json")

    def _load_entry(self, key: str,
                    plan: JigsawPlan) -> Optional[JigsawTemplate]:
        path = self._entry_path(key)
        if path is None or not os.path.exists(path):
            return None
        with obs.span("cache.disk_load", key=key[:12]):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    raw = fh.read()
            except OSError:
                return None  # a vanished/unreadable file is a plain miss
            try:
                raw = faults.fault_point("cache.disk_read", payload=raw)
                entry = json.loads(raw)
                if (not isinstance(entry, dict)
                        or entry.get("format") != ENTRY_FORMAT
                        or entry.get("key") != key):
                    raise ValueError("malformed or stale cache entry")
                if entry.get("checksum") != _digest(entry.get("program")):
                    raise ValueError("program checksum mismatch")
                program = program_from_dict(entry["program"])
                width = plan.machine.vector_elems
                if (program.width != width
                        or program.elem_bytes != plan.machine.element_bytes):
                    raise ValueError("entry lowered for a different machine")
                if program.loops != unbound_loops(plan.spec.ndim, 2 * width):
                    raise ValueError("entry is not a shape-free program")
                if program.tail_spec != plan.fused_spec:
                    raise ValueError("entry computes a different stencil")
            except Exception:
                # Anything wrong with a disk entry — unreadable or
                # truncated JSON, a checksum mismatch, an unknown opcode,
                # a loop nest or stencil the plan does not lower to, a
                # simulated read fault — means recompile, not crash.  The
                # bad file is quarantined for inspection instead of
                # silently deleted.
                self._quarantine(path)
                return None
            return JigsawTemplate(program=program, spec=plan.spec,
                                  halo=plan.halo)

    def _quarantine(self, path: str) -> None:
        """Move a bad disk entry into ``_quarantine/`` (falling back to
        deletion when the move itself fails) and count the discard."""
        with self._lock:
            self.stats.disk_discards += 1
            self.stats.disk_quarantined += 1
        obs.counter("cache.disk_discards").inc()
        obs.counter("cache.disk_quarantined").inc()
        qdir = os.path.join(os.path.dirname(path), QUARANTINE_DIR)
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass

    def quarantined_entries(self) -> Tuple[int, int]:
        """``(count, bytes)`` of quarantined disk entries."""
        if self.cache_dir is None:
            return 0, 0
        qdir = os.path.join(self.cache_dir, QUARANTINE_DIR)
        if not os.path.isdir(qdir):
            return 0, 0
        count = size = 0
        for name in os.listdir(qdir):
            count += 1
            try:
                size += os.path.getsize(os.path.join(qdir, name))
            except OSError:
                pass
        return count, size

    def _store_entry(self, key: str, plan: JigsawPlan,
                     program: VectorProgram) -> None:
        path = self._entry_path(key)
        if path is None:
            return
        program_dict = program_to_dict(program)
        entry = {
            "format": ENTRY_FORMAT,
            "key": key,
            "spec": spec_fingerprint(plan.spec),
            "machine": machine_fingerprint(plan.machine),
            "options": plan.cache_token(),
            "terms": [term_to_dict(t) for t in plan.terms],
            "program": program_dict,
            "checksum": _digest(program_dict),
        }
        text = json.dumps(entry, sort_keys=True)
        with obs.span("cache.disk_store", key=key[:12]):
            try:
                text = faults.fault_point("cache.disk_write", payload=text)
            except faults.FaultInjected:
                # a failed persist degrades to memory-only for this entry;
                # the next reader simply misses and recompiles
                with self._lock:
                    self.stats.disk_write_faults += 1
                obs.counter("cache.disk_write_faults").inc()
                return
            try:
                write_text_atomic(path, text)
            except OSError:
                return  # a read-only cache dir degrades to memory-only
        with self._lock:
            self.stats.disk_writes += 1

    def _persist_stats(self) -> None:
        """Write this writer's session counters to its own delta file.
        No read-modify-write, no base+session arithmetic: concurrent
        writers each own one file, and :func:`persisted_totals` merges."""
        if self.cache_dir is None:
            return
        with self._lock:
            session = self.stats.as_dict()
        try:
            _write_json_atomic(
                os.path.join(self.cache_dir, self._writer_name), session)
        except OSError:
            pass

    # -- maintenance -----------------------------------------------------------
    def clear(self, *, disk: bool = True) -> int:
        """Drop every cached object *and every counter*; returns the
        number of disk entries removed.  Persisted stats files (base and
        all writer deltas) are deleted too, so ``repro cache stats``
        after a clear reports a genuinely empty cache instead of
        cumulative counters from deleted state."""
        removed = 0
        with self._lock:
            self._plans.clear()
            self._programs.clear()
            self.stats.reset()
        if disk and self.cache_dir is not None:
            try:
                names = os.listdir(self.cache_dir)
            except OSError:
                names = []
            for name in names:
                path = os.path.join(self.cache_dir, name)
                if _is_stats_name(name):
                    try:
                        os.remove(path)
                    except OSError:
                        pass
                elif name.endswith(".json"):
                    try:
                        os.remove(path)
                        removed += 1
                    except OSError:
                        pass
            qdir = os.path.join(self.cache_dir, QUARANTINE_DIR)
            if os.path.isdir(qdir):
                for name in os.listdir(qdir):
                    try:
                        os.remove(os.path.join(qdir, name))
                    except OSError:
                        pass
        return removed

    def disk_entries(self) -> Tuple[int, int]:
        """``(count, bytes)`` of persisted program entries."""
        if self.cache_dir is None or not os.path.isdir(self.cache_dir):
            return 0, 0
        count = size = 0
        for name in os.listdir(self.cache_dir):
            if name.endswith(".json") and not _is_stats_name(name):
                count += 1
                try:
                    size += os.path.getsize(os.path.join(self.cache_dir, name))
                except OSError:
                    pass
        return count, size

    def stats_dict(self) -> Dict[str, int]:
        """Session counters plus disk occupancy, for the stats API/CLI.
        The counter snapshot is taken under the cache lock so it is
        internally consistent (no torn hit/miss pairs)."""
        with self._lock:
            out = dict(self.stats.as_dict())
            out["memory_programs"] = len(self._programs)
            out["memory_plans"] = len(self._plans)
        count, size = self.disk_entries()
        out["disk_entry_count"] = count
        out["disk_entry_bytes"] = size
        out["quarantine_entry_count"] = self.quarantined_entries()[0]
        return out


# -- module default ------------------------------------------------------------

_default: Optional[KernelCache] = None
_default_lock = threading.Lock()


def default_cache() -> KernelCache:
    """The process-wide in-memory cache :func:`repro.core.jigsaw.compile`
    uses when no explicit cache is given."""
    global _default
    with _default_lock:
        if _default is None:
            _default = KernelCache()
        return _default


def configure_default_cache(cache_dir: Optional[str] = None, *,
                            max_entries: int = 512) -> KernelCache:
    """Replace the process-wide default cache (e.g. to attach a disk
    directory); returns the new cache."""
    global _default
    with _default_lock:
        _default = KernelCache(cache_dir, max_entries=max_entries)
        return _default


# -- small io helpers (shared with repro.tune.db) ------------------------------

def read_json(path: str) -> Optional[Any]:
    """Parse a JSON file, returning ``None`` on any IO/parse failure
    (disk artifacts are never trusted to be well-formed)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


#: distinguishes temp files from concurrent writers within one process —
#: the pid alone is shared by every thread.
_tmp_counter = itertools.count()


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` via a temp file + atomic rename, so a concurrent
    reader never observes a half-written entry.  The temp name includes
    the pid, the thread id, and a process-wide monotonic counter: two
    threads (or two renames racing in one thread) can never interleave
    writes into a shared temp file."""
    tmp = (f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
           f".{next(_tmp_counter)}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        try:
            if os.path.exists(tmp):
                os.remove(tmp)
        except OSError:
            pass


def write_json_atomic(path: str, payload: Any) -> None:
    """:func:`write_text_atomic` over the sorted-key JSON of ``payload``."""
    write_text_atomic(path, json.dumps(payload, sort_keys=True))


_read_json = read_json       # backwards-compatible private aliases
_write_json_atomic = write_json_atomic
