"""The asyncio stencil server: deadline micro-batching over the service.

:class:`StencilServer` is the front door the ROADMAP's "millions of
users" goal asks for.  It accepts concurrent stencil jobs
(``await server.submit(job, tenant=..., deadline_s=...)``), admits or
rejects them through :class:`~repro.server.admission.AdmissionController`
(per-tenant token buckets + a global queue-depth ceiling), coalesces
compatible admitted jobs into micro-batches, and executes each batch as
one :meth:`~repro.service.KernelService.compile_many` /
:meth:`~repro.service.KernelService.run_many` call.  (The compile
only warms the shared kernel cache: every batch executes through
:func:`~repro.parallel.executor.run_parallel`.)

**Dispatch.**  One ``loop.call_at`` timer, armed for the earliest due
batch, flushes: enqueueing re-arms it only for an earlier due, and each
firing dispatches every due batch and re-arms for the next, so an idle
server runs no callback at all.  A chunk whose work (points x
max(steps, 1), summed over its jobs) is at most :data:`INLINE_WORK`
runs on the loop thread and resolves at once — a sub-millisecond sweep
costs less than the thread hop it would take.  Inline execution needs
a loop that can never sleep or wait inside the batch, so it applies
only when the service runs the ``thread`` backend, no fault plan is
active (injected delays sleep) and the batch key's last chunk ran clean
(:data:`PROVEN_KEYS`: a key's cold compile takes the pool).  Every
other chunk goes straight to the server's thread pool, and its
completion comes back to the loop in one ``call_soon_threadsafe`` hop.
Flushes run in a context captured at ``start()``, so ``server.batch``
spans are roots on both paths.

**Micro-batching.**  Jobs with the same batch key (stencil spec, shape,
steps, boundary) join one open batch.  A batch flushes when it fills
(``max_batch``), when its window expires (``batch_window_s`` after the
first job arrived), or — the deadline-aware part — early enough that
its most urgent job can still meet its deadline (``deadline -``
:data:`DEADLINE_MARGIN_S`).  Due batches dispatch in deadline order,
so urgent work is never stuck behind a lazier batch that
happened to open first.

**Overload ladder.**  Degradation rides the queue occupancy
(admitted-but-unfinished / ``max_queue_depth``):

1. occupancy >= :data:`SHED_OCCUPANCY` — batch size is shed to a
   quarter of ``max_batch`` so each flush returns sooner (lower
   per-batch latency, faster feedback to the admission gate);
2. occupancy at 1.0 — admission rejects with
   :class:`~repro.server.admission.ServerOverloaded` (the fast path:
   nothing is enqueued, nothing times out).

The underlying :class:`~repro.service.KernelService` failure rule still
applies inside each batch (transient faults are retried, then walk the
ladders; a deterministic error fails its jobs at once), and the two
server fault sites (``server.enqueue``, ``server.batch_flush``) are
retried :data:`FAULT_RETRIES` times against injected faults so a chaos
run returns bitwise-identical responses.

**Placement.**  Every batch runs the served default,
:func:`~repro.parallel.executor.default_parts` on the service's
``run_workers``; ``repro tune`` and ``compile_many(tune=True)`` are the
tuning entry points.

Everything is instrumented under the ``server.*`` taxonomy (see
``docs/architecture.md``, Serving layer).
"""

from __future__ import annotations

import asyncio
import contextvars
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import faults, obs
from ..config import GENERIC_AVX2, MachineConfig
from ..errors import ReproError
from ..faults import FaultInjected, fault_point
from ..service import CompileRequest, KernelService, SweepJob
from ..stencils.boundary import MODES
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from .admission import AdmissionController, ServerOverloaded

#: how far batch size is shed under overload rung 1 (divisor of
#: ``max_batch``, floored at 1).
SHED_DIVISOR = 4

#: the queue occupancy (in-flight / ``max_queue_depth``) at which
#: overload rung 1 sheds batch size.
SHED_OCCUPANCY = 0.5

#: how long before its most urgent job's deadline a batch is due, in
#: seconds.
DEADLINE_MARGIN_S = 0.002

#: how many times a server fault site (``server.enqueue``,
#: ``server.batch_flush``) is retried against injected faults.
FAULT_RETRIES = 3

#: the most work one request may ask for, in interior points x
#: max(steps, 1): 1024² x 16 steps, a 128 MiB float64 grid at most.  The
#: largest request the tests, benchmarks and perfbench send is serve-
#: churn's 32³ heat-3d x 2 steps (65 536, above its 96² x 2 = 18 432),
#: 256x below the cap.
WORK_CAP = 1 << 24

#: the most work, in interior points x max(steps, 1) summed over a
#: chunk's jobs, that runs on the loop thread instead of taking a
#: thread hop.  Set from the inline-against-hop table in CHANGES.md: a
#: 32² x 2-step job (2048) or two of them run inline, 48² x 2 (4608) and
#: up take the pool, and the longest inline chunk stays near 1 ms warm.
INLINE_WORK = 1 << 12

#: batch keys remembered as having run clean, the other half of the
#: inline test: a key's first chunk, whose compile is cold, takes the
#: pool.  Past this many keys the set starts over.
PROVEN_KEYS = 1024


@dataclass(frozen=True)
class StencilJob:
    """One serving request: ``steps`` sweeps of ``spec`` over a grid.

    The input grid is either supplied explicitly (``grid=``) or derived
    deterministically from ``seed`` (``Grid.random(shape, spec.radius,
    seed=seed)``) — the seeded form is what the wire protocol and the
    load generator use, and it makes responses reproducible for bitwise
    verification.  An explicit grid must be floating point, with a halo
    of at least the spec's radius.
    """

    spec: StencilSpec
    shape: Tuple[int, ...]
    steps: int
    seed: Optional[int] = None
    grid: Optional[Grid] = field(default=None, compare=False)
    boundary: str = "periodic"
    value: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape",
                           tuple(int(s) for s in self.shape))
        if len(self.shape) != self.spec.ndim:
            raise ReproError(
                f"shape {self.shape} is {len(self.shape)}-d but "
                f"{self.spec.name} is {self.spec.ndim}-d")
        if any(s < 1 for s in self.shape):
            raise ReproError("shape extents must be >= 1")
        if self.steps < 0:
            raise ReproError("steps must be >= 0")
        if self.boundary not in MODES:
            raise ReproError(f"unknown boundary {self.boundary!r}; "
                             f"known: {MODES}")
        try:
            finite = math.isfinite(self.value)
        except TypeError:
            finite = False
        if not finite:
            raise ReproError(
                f"value must be a finite number, got {self.value!r}")
        work = self.work
        if work > WORK_CAP:
            raise ReproError(
                f"{self.shape} x {self.steps} steps is {work} point-steps "
                f"of work; one request may ask for at most {WORK_CAP}")
        if (self.seed is None) == (self.grid is None):
            raise ReproError("pass exactly one of seed= or grid=")
        if self.grid is not None and self.grid.shape != self.shape:
            raise ReproError(f"grid shape {self.grid.shape} is not the "
                             f"job's shape {self.shape}")
        if self.grid is not None and not np.issubdtype(
                self.grid.data.dtype, np.floating):
            raise ReproError(
                f"grid dtype {self.grid.data.dtype} is not floating point")
        if self.grid is not None and any(
                h < r for h, r in zip(self.grid.halo, self.spec.radius)):
            raise ReproError(
                f"grid halo {self.grid.halo} is below {self.spec.name}'s "
                f"radius {self.spec.radius}")

    @property
    def work(self) -> int:
        """Interior points x max(steps, 1): what the work cap and the
        inline bound count."""
        return math.prod(self.shape) * max(self.steps, 1)

    def batch_key(self) -> Tuple:
        """Jobs sharing this key may ride one micro-batch (one compile,
        one ``run_many`` dispatch)."""
        return (self.spec, self.shape, self.steps, self.boundary,
                self.value)

    def materialize(self) -> Grid:
        if self.grid is not None:
            return self.grid
        return Grid.random(self.shape, self.spec.radius, seed=self.seed)


@dataclass
class JobResult:
    """One completed request."""

    grid: Grid                   #: the swept grid (interior = the answer)
    tenant: str
    latency_s: float             #: submit-to-completion wall clock
    batch_size: int              #: jobs that shared this flush
    deadline_met: bool = True


class _Pending:
    __slots__ = ("job", "tenant", "deadline", "t0", "future")

    def __init__(self, job: StencilJob, tenant: str,
                 deadline: Optional[float], t0: float,
                 future: "asyncio.Future") -> None:
        self.job = job
        self.tenant = tenant
        self.deadline = deadline          #: absolute loop time, or None
        self.t0 = t0
        self.future = future


class _Batch:
    __slots__ = ("key", "jobs", "created", "due")

    def __init__(self, key: Tuple, created: float, due: float) -> None:
        self.key = key
        self.jobs: List[_Pending] = []
        self.created = created
        self.due = due                    #: earliest flush obligation


class StencilServer:
    """Async multi-tenant front door over a :class:`KernelService`.

    Use as an async context manager::

        async with StencilServer(machine=GENERIC_AVX2) as server:
            result = await server.submit(job, tenant="acme",
                                         deadline_s=0.5)

    All public methods must be called from the event-loop thread that
    entered the server.  Batches flush from one loop timer; a chunk
    within :data:`INLINE_WORK` runs on that thread (thread run backend,
    no active fault plan, a proven batch key), every other chunk on the
    server's ``repro-serve`` threads, which hand each result back with
    one ``call_soon_threadsafe``.
    """

    def __init__(
        self,
        service: Optional[KernelService] = None,
        *,
        machine: Optional[MachineConfig] = None,
        max_queue_depth: int = 256,
        quota_rate: float = float("inf"),
        quota_burst: Optional[float] = None,
        batch_window_s: float = 0.005,
        max_batch: int = 16,
        executor_workers: int = 4,
        **service_kwargs,
    ) -> None:
        if service is not None and (machine is not None or service_kwargs):
            raise ReproError(
                "pass either a ready KernelService or construction "
                "keywords, not both")
        if not batch_window_s >= 0:
            raise ReproError("batch_window_s must be >= 0")
        if not isinstance(max_batch, int) or max_batch < 1:
            raise ReproError("max_batch must be an integer >= 1")
        if not isinstance(executor_workers, int) or executor_workers < 1:
            raise ReproError("executor_workers must be an integer >= 1")
        if service is None:
            service = KernelService(machine or GENERIC_AVX2,
                                    **service_kwargs)
        self.service = service
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth, quota_rate=quota_rate,
            quota_burst=quota_burst)
        self.max_queue_depth = max_queue_depth
        self.batch_window_s = batch_window_s
        self.max_batch = max_batch
        self.executor_workers = executor_workers
        #: batch keys in dispatch order (newest 256) — the flush-ordering
        #: contract tests read this
        self.flush_log: Deque[Tuple] = deque(maxlen=256)
        self._batches: Dict[Tuple, _Batch] = {}
        self._inflight = 0
        self._closing = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._drained: Optional[asyncio.Event] = None
        #: the flush timer and the loop time it is armed for
        self._timer: Optional[asyncio.TimerHandle] = None
        self._timer_at = math.inf
        #: the context flushes run in, captured at ``start()``
        self._root: Optional[contextvars.Context] = None
        #: batch keys whose last chunk ran clean (see PROVEN_KEYS)
        self._proven: Dict[Tuple, None] = {}

    # -- lifecycle -------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._executor is not None and not self._closing

    @property
    def inflight(self) -> int:
        """Admitted requests that have not completed yet."""
        return self._inflight

    async def start(self) -> "StencilServer":
        if self._executor is not None:
            raise ReproError("server already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_workers,
            thread_name_prefix="repro-serve")
        self._drained = asyncio.Event()
        self._drained.set()
        self._closing = False
        self._root = contextvars.copy_context()
        return self

    async def stop(self) -> None:
        """Dispatch every open batch now, wait for completion, shut down."""
        if self._executor is None:
            return
        self._closing = True
        self._root.run(self._flush)
        await self._drained.wait()
        self._executor.shutdown(wait=True)
        self._executor = None

    async def __aenter__(self) -> "StencilServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- submission ------------------------------------------------------------
    async def submit(self, job: StencilJob, *, tenant: str = "default",
                     deadline_s: Optional[float] = None) -> JobResult:
        """Admit, enqueue and await one job (see the module docstring).

        Raises :class:`ServerOverloaded` on rejection — always quickly,
        before any kernel work happens.
        """
        if not isinstance(job, StencilJob):
            raise ReproError("submit() takes a StencilJob")
        if deadline_s is not None and not deadline_s == deadline_s:
            raise ReproError("deadline_s must not be NaN")
        if self._executor is None or self._closing:
            raise ServerOverloaded("server is not accepting requests",
                                   reason="closed", tenant=tenant)
        t0 = self._loop.time()
        obs.counter("server.requests").inc()
        obs.counter(f"server.requests.tenant.{tenant}").inc()
        reason = self.admission.check(tenant, self._inflight, deadline_s)
        if reason is not None:
            obs.counter("server.admission.rejected").inc()
            obs.counter(f"server.admission.rejected.reason.{reason}").inc()
            obs.counter(f"server.admission.rejected.tenant.{tenant}").inc()
            raise ServerOverloaded(
                f"request rejected ({reason}) for tenant {tenant!r}",
                reason=reason, tenant=tenant)
        obs.counter("server.admission.accepted").inc()
        self._retry_faults("server.enqueue")
        pending = _Pending(job, tenant,
                           None if deadline_s is None else t0 + deadline_s,
                           t0, self._loop.create_future())
        self._inflight += 1
        self._drained.clear()
        obs.gauge("server.queue_depth").set(self._inflight)
        self._enqueue(pending)
        return await pending.future

    def _enqueue(self, pending: _Pending) -> None:
        key = pending.job.batch_key()
        now = self._loop.time()
        batch = self._batches.get(key)
        if batch is None:
            batch = self._batches[key] = _Batch(
                key, now, now + self.batch_window_s)
        batch.jobs.append(pending)
        if pending.deadline is not None:
            batch.due = min(batch.due,
                            pending.deadline - DEADLINE_MARGIN_S)
        if len(batch.jobs) >= self._effective_max_batch():
            batch.due = 0.0  # full: flush at the next loop iteration
        self._arm(batch.due)

    # -- overload ladder -------------------------------------------------------
    def occupancy(self) -> float:
        return self._inflight / self.max_queue_depth

    def _effective_max_batch(self) -> int:
        if self.occupancy() >= SHED_OCCUPANCY:
            obs.counter("server.overload.shed_batch").inc()
            return max(1, self.max_batch // SHED_DIVISOR)
        return self.max_batch

    # -- flushing --------------------------------------------------------------
    def _arm(self, due: float) -> None:
        """Make the flush timer fire by loop time ``due`` (a timer armed
        for an earlier time already does)."""
        if due >= self._timer_at:
            return
        if self._timer is not None:
            self._timer.cancel()
        self._timer_at = due
        self._timer = self._loop.call_at(due, self._flush,
                                         context=self._root)

    def _flush(self) -> None:
        """The timer callback: dispatch every due batch (every batch
        once closing), most urgent first — the deadline-ordering
        contract — then re-arm for the earliest batch left."""
        if self._timer is not None:
            self._timer.cancel()
        # the loop may fire a timer up to its clock resolution early;
        # whatever the timer was armed for is due
        now = max(self._loop.time(), self._timer_at)
        self._timer, self._timer_at = None, math.inf
        due = [b for b in self._batches.values()
               if self._closing or b.due <= now]
        due.sort(key=lambda b: b.due)
        for batch in due:
            del self._batches[batch.key]
        for batch in due:
            self._dispatch(batch)
        if self._batches:
            self._arm(min(b.due for b in self._batches.values()))

    def _dispatch(self, batch: _Batch) -> None:
        obs.counter("server.batch.flushes").inc()
        self.flush_log.append(batch.key)
        eff = self._effective_max_batch()
        key, work = batch.key, batch.jobs[0].job.work
        for i in range(0, len(batch.jobs), eff):
            chunk = batch.jobs[i:i + eff]
            obs.histogram("server.batch.size").observe(len(chunk))
            # a batch may run on the loop thread only if nothing in it
            # can wait: pooled process runs block on futures
            if (self.service.run_backend == "thread"
                    and len(chunk) * work <= INLINE_WORK
                    and key in self._proven and faults.active() is None):
                obs.counter("server.batch.inline").inc()
                try:
                    grids = self._execute_batch(chunk)
                except Exception as exc:
                    self._resolve(key, chunk, None, exc)
                else:
                    self._resolve(key, chunk, grids, None)
                continue
            fut = self._executor.submit(obs.propagate(self._execute_batch),
                                        chunk)
            fut.add_done_callback(
                lambda f, c=chunk: self._loop.call_soon_threadsafe(
                    self._finish, key, c, f))

    def _execute_batch(self, chunk: Sequence[_Pending]
                       ) -> List[Union[Grid, Exception]]:
        """One flushed chunk, inline or on a pool thread: compile once
        through the shared cache, then run every job (the service's
        failure rule guards both calls).  Returns each job's grid, or
        the exception that job alone raised."""
        self._retry_faults("server.batch_flush")
        job0 = chunk[0].job
        with obs.span("server.batch", kernel=job0.spec.name,
                      jobs=len(chunk)):
            self.service.compile_many(
                [CompileRequest(job0.spec, job0.shape)])
            return self.service.run_many(
                [SweepJob(p.job.spec, p.job.materialize(), p.job.steps,
                          boundary=p.job.boundary, value=p.job.value)
                 for p in chunk])

    def _finish(self, key: Tuple, chunk: Sequence[_Pending], fut) -> None:
        """A pooled chunk's completion, back on the loop thread."""
        exc = fut.exception()
        self._resolve(key, chunk, None if exc is not None else fut.result(),
                      exc)

    def _resolve(self, key: Tuple, chunk: Sequence[_Pending],
                 grids: Optional[List[Union[Grid, Exception]]],
                 exc: Optional[BaseException]) -> None:
        now = self._loop.time()
        if exc is None and not any(isinstance(g, BaseException)
                                   for g in grids):
            if len(self._proven) >= PROVEN_KEYS:
                self._proven.clear()
            self._proven[key] = None
        else:
            self._proven.pop(key, None)
        for i, p in enumerate(chunk):
            self._inflight -= 1
            failure = exc if exc is not None else grids[i]
            if isinstance(failure, BaseException):
                obs.counter("server.batch.failures").inc()
                if not p.future.done():
                    p.future.set_exception(failure)
                continue
            latency = now - p.t0
            met = p.deadline is None or now <= p.deadline
            if not met:
                obs.counter("server.deadline_missed").inc()
                obs.counter(
                    f"server.deadline_missed.tenant.{p.tenant}").inc()
            obs.counter("server.completed").inc()
            obs.histogram("server.latency_ms").observe(latency * 1e3)
            obs.histogram(
                f"server.latency_ms.tenant.{p.tenant}").observe(
                latency * 1e3)
            if not p.future.done():
                p.future.set_result(JobResult(
                    grid=grids[i], tenant=p.tenant, latency_s=latency,
                    batch_size=len(chunk), deadline_met=met))
        obs.gauge("server.queue_depth").set(self._inflight)
        if self._inflight == 0 and not self._batches:
            self._drained.set()

    # -- fault sites -----------------------------------------------------------
    def _retry_faults(self, site: str) -> None:
        """Hit ``site``; injected raises are retried (bounded) so chaos
        plans perturb latency, never results."""
        for attempt in range(FAULT_RETRIES + 1):
            try:
                fault_point(site)
                return
            except FaultInjected:
                obs.counter("server.faults").inc()
                obs.counter(f"server.faults.site.{site}").inc()
                if attempt == FAULT_RETRIES:
                    raise

    # -- introspection ---------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Live serving stats (cache/tuning counters ride the service)."""
        out: Dict[str, float] = {
            "inflight": self._inflight,
            "occupancy": self.occupancy(),
            "open_batches": len(self._batches),
            "tenants": len(self.admission.tenants()),
        }
        for k, v in self.service.stats().items():
            out[f"service_{k}"] = v
        return out


__all__ = ["DEADLINE_MARGIN_S", "FAULT_RETRIES", "JobResult",
           "SHED_DIVISOR", "SHED_OCCUPANCY", "StencilJob", "StencilServer"]
