"""The benchmark's own in-memory tracer.

Traced runs wrap the program's public entry points (and the wire line
handler, to learn each request's id) with timing shims installed from
here; nothing inside ``src/`` changes.  Each span records its name,
start, end, parent span and the request id the load generator
assigned.  Spans live in memory until the run ends, then
:meth:`Tracer.dump` writes them, with the ``repro.obs`` counters, to
``perfbench/out/``.

Parents follow :mod:`contextvars`, so a span opened on a pool thread
nests under its submitter only where the context travels with the
task: the program's ``obs.propagate`` does that for the service's
compile pool, and while tracing, the tile executor's per-call thread
pools are swapped for a subclass that does the same, so every
``apply_tile`` nests under its ``run_parallel``.  The server's batch
execution starts from the flusher task's context, so batch-side spans
are roots and carry no request id; the serving workloads match each
batch to the submits it answered (see ``serve.batch_service``) and pass
those matches to :meth:`Tracer.self_ms_by_layer` so batch work is not
counted again in the submits' self time.  A per-request stage split
inside the server needs program-side request ids.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from .common import Result, percentile

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None)
_RID: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_rid", default=None)

_ID_FIELD = re.compile(r'"id":\s*(\d+)')


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "thread",
                 "tag")

    def __init__(self, sid: int, name: str, start: float, end: float,
                 parent: Optional[int], rid: Optional[int],
                 thread: str, tag: Optional[str]) -> None:
        self.sid = sid
        self.tag = tag
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.thread = thread

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "rid": self.rid,
                "thread": self.thread, "tag": self.tag}


class Tracer:
    """Collects spans; installs and removes the timing shims."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _record(self, sid: int, name: str, t0: float,
                parent: Optional[int], rid: Optional[int],
                tag: Optional[str]) -> None:
        self.spans.append(Span(sid, name, t0, time.perf_counter(), parent,
                               rid, threading.current_thread().name, tag))

    def call(self, name: str, fn: Callable, /, *args,
             tag: Optional[str] = None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.
        Spans are appended from many threads without a lock: ``append``
        and ``next`` on the id counter are atomic under the GIL."""
        sid = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._record(sid, name, t0, parent, _RID.get(), tag)
            _CURRENT.reset(token)

    def _sync_shim(self, name: str, fn: Callable,
                   tag_of: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            tag = tag_of(*args, **kwargs) if tag_of is not None else None
            return self.call(name, fn, *args, tag=tag, **kwargs)
        return shim

    def _async_shim(self, name: str, fn: Callable,
                    rid_of: Optional[Callable],
                    tag_of: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        async def shim(*args, **kwargs):
            rid_token = None
            if rid_of is not None:
                rid_token = _RID.set(rid_of(*args, **kwargs))
            tag = tag_of(*args, **kwargs) if tag_of is not None else None
            sid = next(self._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._record(sid, name, t0, parent, _RID.get(), tag)
                _CURRENT.reset(token)
                if rid_token is not None:
                    _RID.reset(rid_token)
        return shim

    # -- installing shims ----------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, name: str, *,
                    is_async: bool = False,
                    tag_of: Optional[Callable] = None) -> None:
        fn = getattr(cls, attr)
        shim = (self._async_shim(name, fn, None, tag_of) if is_async
                else self._sync_shim(name, fn, tag_of))
        self._set(cls, attr, shim)

    def wrap_function(self, fn: Callable, name: str, *,
                      rid_of: Optional[Callable] = None) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that bound it
        (``from x import fn`` copies the reference, so each importer
        needs its own patch).  Only the wire line handler is a
        coroutine; ``rid_of`` marks it and reads the request id."""
        shim = (self._async_shim(name, fn, rid_of, None) if rid_of
                else self._sync_shim(name, fn, None))
        for modname, module in list(sys.modules.items()):
            if (modname == "repro" or modname.startswith("repro.")) and \
                    getattr(module, fn.__name__, None) is fn:
                self._set(module, fn.__name__, shim)

    def install(self) -> None:
        """Shim every layer boundary the per-layer metrics read."""
        from repro.core.cache import KernelCache
        from repro.parallel import executor
        from repro.server import net
        from repro.server.core import StencilServer
        from repro.service import KernelService
        from repro.shard import exchange, runner
        from repro.vectorize import driver

        def line_rid(_server, line: str) -> Optional[int]:
            m = _ID_FIELD.search(line)
            return int(m.group(1)) if m else None

        # the line handler is the one place a request's wire id is in
        # scope; without it spans carry no request id
        handler = getattr(net, "_handle_line", None)
        if handler is not None:
            self.wrap_function(handler, "net.handle", rid_of=line_rid)
        self.wrap_method(StencilServer, "submit", "server.submit",
                         is_async=True,
                         tag_of=lambda _self, job, **_kw: job_tag(job))
        self.wrap_method(KernelService, "run_many", "service.run_many",
                         tag_of=lambda _self, jobs: job_tag(jobs[0]))
        for attr in ("compile_many", "compile", "run"):
            self.wrap_method(KernelService, attr, f"service.{attr}")
        self.wrap_method(KernelCache, "plan", "cache.plan")
        self.wrap_method(KernelCache, "program", "cache.program")
        self._set(executor, "ThreadPoolExecutor", ContextPool)
        self.wrap_function(executor.run_parallel, "parallel.run_parallel")
        self.wrap_function(executor.apply_tile, "parallel.apply_tile")
        self.wrap_function(driver.run_program, "vectorize.run_program")
        self.wrap_function(runner.run_sharded, "shard.run_sharded")
        self.wrap_function(exchange.gather_window, "shard.gather_window")
        self.wrap_function(exchange.scatter_slab, "shard.scatter_slab")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------
    def named(self, name: str, since: float) -> List[Span]:
        return [s for s in self.spans if s.name == name and s.start >= since]

    def children(self, since: float) -> Dict[int, List[Span]]:
        """Each span's id to its child spans."""
        out: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None and s.start >= since:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_ms_by_layer(self, since: float,
                         covers: Mapping[int, Sequence[Span]]
                         ) -> Dict[str, float]:
        """Per layer (the span name's first dotted part), the summed self
        time: each span's duration minus the part of it that its child
        spans, and the spans ``covers`` names for its id, cover (children
        on pool threads may overlap each other, so the covered part is
        the union of their clipped intervals).  ``covers`` names work a
        span waited for that has no parent link to it, so every stretch
        of work is counted in one layer only."""
        spans = [s for s in self.spans if s.start >= since]
        children = self.children(since)
        out: Dict[str, float] = {}
        for s in spans:
            covered = union_length(
                (max(c.start, s.start), min(c.end, s.end))
                for c in (*children.get(s.sid, ()), *covers.get(s.sid, ())))
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (
                (s.end - s.start) - covered) * 1e3
        return out

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": [s.as_dict() for s in self.spans], **extra},
                      fh)


class ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in their submitter's context, so
    spans opened by a task nest under the submitter's span."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args,
                              **kwargs)


def job_tag(job) -> str:
    """Batch key of a server or service job: kernel and grid shape."""
    grid = getattr(job, "grid", None)
    shape = grid.shape if grid is not None else job.shape
    return f"{job.spec.name}:{tuple(shape)}"


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# -- per-layer metrics shared by the workloads ---------------------------------

def parallel_metrics(res: Result, tracer: Tracer, since: float) -> None:
    """``run_parallel`` call time and its tile work.  The overhead share
    is the part of the calls' wall time during which none of their tiles
    computed (pool start and join, halo fills)."""
    runs = tracer.named("parallel.run_parallel", since)
    tiles = tracer.named("parallel.apply_tile", since)
    res.put("parallel.run_parallel_ms.p50",
            percentile([s.ms for s in runs], 50), "ms")
    res.put("parallel.apply_tile_ms.sum", sum(s.ms for s in tiles), "ms")
    children = tracer.children(since)
    if any(t.parent is None for t in tiles):
        raise RuntimeError("apply_tile spans without a run_parallel parent")
    busy = sum(union_length((c.start, c.end) for c in children.get(r.sid, ())
                            if c.name == "parallel.apply_tile")
               for r in runs)
    total = sum(s.end - s.start for s in runs)
    res.put("parallel.overhead_share", 1.0 - busy / total if total else 0.0,
            "ratio")


#: every layer whose spans the shims record (``self_ms.<layer>``)
LAYERS = ("net", "server", "service", "cache", "parallel", "engine",
          "vectorize", "shard")
#: the codegen fallback taxonomy (``exec.codegen_fallback.reason.*``)
FALLBACK_REASONS = ("compile", "layout", "memory", "recurrence", "mem_hook",
                    "fault")


def self_time_metrics(res: Result, tracer: Tracer, since: float,
                      covers: Mapping[int, Sequence[Span]]) -> None:
    by_layer = tracer.self_ms_by_layer(since, covers)
    for layer in LAYERS:
        res.put(f"self_ms.{layer}", by_layer.get(layer, 0.0), "ms")


def cache_metrics(res: Result, before: Mapping[str, int],
                  after: Mapping[str, int]) -> None:
    """Kernel cache lookups between two ``KernelCache.stats_dict()``
    readings (the hit ratio's base is program lookups)."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    res.put("cache.hits", hits, "count")
    res.put("cache.misses", misses, "count")
    res.put("cache.hit_ratio", hits / max(1, hits + misses), "ratio")
    res.put("cache.evictions", after["evictions"] - before["evictions"],
            "count")
    res.put("cache.memory_programs", after["memory_programs"], "count")


def fallback_metrics(res: Result, counters: Mapping[str, float]) -> None:
    """Codegen runs that fell back to another backend, by reason."""
    res.put("exec.codegen_fallback", counters.get("exec.codegen_fallback", 0),
            "count")
    for reason in FALLBACK_REASONS:
        key = f"exec.codegen_fallback.reason.{reason}"
        res.put(key, counters.get(key, 0), "count")


def metric_names(snapshot: Dict) -> int:
    return sum(len(v) for v in snapshot.values() if isinstance(v, dict))
