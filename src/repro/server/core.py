"""The asyncio stencil server: deadline micro-batching over the service.

:class:`StencilServer` is the front door the ROADMAP's "millions of
users" goal asks for.  It accepts concurrent stencil jobs
(``await server.submit(job, tenant=..., deadline_s=...)``), admits or
rejects them through :class:`~repro.server.admission.AdmissionController`
(per-tenant token buckets + a global queue-depth ceiling), coalesces
compatible admitted jobs into micro-batches, and executes each batch as
one :meth:`~repro.service.KernelService.compile_many` /
:meth:`~repro.service.KernelService.run_many` call on a thread-pool
executor so the event loop never blocks on kernel work.  (The compile
only warms the shared kernel cache: every batch executes through
:func:`~repro.parallel.executor.run_parallel`.)

**Micro-batching.**  Jobs with the same batch key (stencil spec, shape,
steps, boundary) join one open batch.  A batch flushes when it fills
(``max_batch``), when its window expires (``batch_window_s`` after the
first job arrived), or — the deadline-aware part — early enough that
its most urgent job can still meet its deadline
(``deadline - deadline_margin_s``).  Due batches dispatch in deadline
order, so urgent work is never stuck behind a lazier batch that
happened to open first.

**Overload ladder.**  Degradation rides the queue occupancy
(admitted-but-unfinished / ``max_queue_depth``):

1. occupancy >= ``shed_occupancy`` — batch size is shed to a quarter of
   ``max_batch`` so each flush returns sooner (lower per-batch latency,
   faster feedback to the admission gate);
2. occupancy at 1.0 — admission rejects with
   :class:`~repro.server.admission.ServerOverloaded` (the fast path:
   nothing is enqueued, nothing times out).

The underlying :class:`~repro.service.KernelService` ladders
(``failure_policy="degrade"``, retries, per-task timeouts) still apply
inside each batch, and the two server fault sites (``server.enqueue``,
``server.batch_flush``) are retried against injected faults so a chaos
run returns bitwise-identical responses.

**Online autotuning** (``online_tune=True``).  A background
:class:`~repro.tune.online.OnlineTuner` watches every admitted workload
and explores the partitioned executor configurations the server
runs — but only while the server is completely idle (no admitted
request in flight, no batch open), so a trial can never delay a
request.  Promoted winners (bitwise-verified against the incumbent)
land in the service's shared :class:`~repro.tune.db.TuningDB`; each
batch then runs on the stored winner for its workload, applied whole:
its parts, worker count and temporal block reach
``run_parallel`` exactly as the trial ran them.  A stored winner the
server cannot run as measured (another engine or run backend) is
ignored.

Everything is instrumented under the ``server.*`` taxonomy (see
``docs/architecture.md``, Serving layer).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..config import GENERIC_AVX2, MachineConfig
from ..errors import ReproError
from ..faults import FaultInjected, fault_point
from ..service import CompileRequest, KernelService, SweepJob
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from ..tune.online import OnlineTuneConfig, OnlineTuner
from .admission import AdmissionController, ServerOverloaded

#: how far batch size is shed under overload rung 1 (divisor of
#: ``max_batch``, floored at 1).
SHED_DIVISOR = 4


@dataclass(frozen=True)
class StencilJob:
    """One serving request: ``steps`` sweeps of ``spec`` over a grid.

    The input grid is either supplied explicitly (``grid=``) or derived
    deterministically from ``seed`` (``Grid.random(shape, spec.radius,
    seed=seed)``) — the seeded form is what the wire protocol and the
    load generator use, and it makes responses reproducible for bitwise
    verification.
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
        if (self.seed is None) == (self.grid is None):
            raise ReproError("pass exactly one of seed= or grid=")

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
        self.deadline = deadline          #: absolute monotonic, or None
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
    entered the server (the executor threads only run kernel work).
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
        deadline_margin_s: float = 0.002,
        shed_occupancy: float = 0.5,
        executor_workers: int = 4,
        fault_retries: int = 3,
        online_tune: bool = False,
        online_tune_config: Optional[OnlineTuneConfig] = None,
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
        if not deadline_margin_s >= 0:
            raise ReproError("deadline_margin_s must be >= 0")
        if not 0.0 < shed_occupancy <= 1.0:
            raise ReproError("shed_occupancy must be in (0, 1]")
        if not isinstance(executor_workers, int) or executor_workers < 1:
            raise ReproError("executor_workers must be an integer >= 1")
        if not isinstance(fault_retries, int) or fault_retries < 0:
            raise ReproError("fault_retries must be an integer >= 0")
        if not isinstance(online_tune, bool):
            raise ReproError("online_tune must be a bool")
        if online_tune_config is not None:
            if not isinstance(online_tune_config, OnlineTuneConfig):
                raise ReproError(
                    "online_tune_config must be an OnlineTuneConfig")
            if not online_tune:
                raise ReproError(
                    "online_tune_config requires online_tune=True")
        if service is None:
            service_kwargs.setdefault("failure_policy", "degrade")
            service_kwargs.setdefault("retries", 2)
            service = KernelService(machine or GENERIC_AVX2,
                                    **service_kwargs)
        self.service = service
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth, quota_rate=quota_rate,
            quota_burst=quota_burst)
        self.max_queue_depth = max_queue_depth
        self.batch_window_s = batch_window_s
        self.max_batch = max_batch
        self.deadline_margin_s = deadline_margin_s
        self.shed_occupancy = shed_occupancy
        self.executor_workers = executor_workers
        self.fault_retries = fault_retries
        self.online_tune = online_tune
        self.online_tune_config = online_tune_config
        #: the live OnlineTuner between start() and stop() (kept after
        #: stop for post-run stats); None when online_tune is off
        self.online_tuner: Optional[OnlineTuner] = None
        #: batch keys in dispatch order (newest 256) — the flush-ordering
        #: contract tests read this
        self.flush_log: Deque[Tuple] = deque(maxlen=256)
        self._batches: Dict[Tuple, _Batch] = {}
        self._inflight = 0
        self._closing = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._flusher: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None

    # -- lifecycle -------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._flusher is not None and not self._closing

    @property
    def inflight(self) -> int:
        """Admitted requests that have not completed yet."""
        return self._inflight

    async def start(self) -> "StencilServer":
        if self._flusher is not None:
            raise ReproError("server already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_workers,
            thread_name_prefix="repro-serve")
        self._wake = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()
        self._closing = False
        self._flusher = self._loop.create_task(self._flush_loop())
        if self.online_tune:
            self.online_tuner = self.service.online_tuner(
                config=self.online_tune_config, idle=self._tuner_idle)
            self.online_tuner.start()
        return self

    def _tuner_idle(self) -> bool:
        """The occupancy gate: exploration only while nothing admitted
        is in flight and no batch is open (read from the tuner thread —
        both fields are single loop-thread writes, so a stale read only
        delays or skips one trial, never admits one under load)."""
        return (not self._closing and self._inflight == 0
                and not self._batches)

    async def stop(self) -> None:
        """Flush everything outstanding, wait for completion, shut down."""
        if self._flusher is None:
            return
        self._closing = True
        if self.online_tuner is not None:
            # join off-loop: a trial in flight may hold the thread a while
            await self._loop.run_in_executor(None, self.online_tuner.stop)
        self._wake.set()
        await self._drained.wait()
        self._flusher.cancel()
        try:
            await self._flusher
        except asyncio.CancelledError:
            pass
        self._flusher = None
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
        if self._flusher is None or self._closing:
            raise ServerOverloaded("server is not accepting requests",
                                   reason="closed", tenant=tenant)
        t0 = time.monotonic()
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
        if self.online_tuner is not None:
            self.online_tuner.observe(job.spec, job.shape,
                                      steps=job.steps,
                                      boundary=job.boundary)
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
        now = time.monotonic()
        batch = self._batches.get(key)
        if batch is None:
            batch = self._batches[key] = _Batch(
                key, now, now + self.batch_window_s)
        batch.jobs.append(pending)
        if pending.deadline is not None:
            batch.due = min(batch.due,
                            pending.deadline - self.deadline_margin_s)
        if len(batch.jobs) >= self._effective_max_batch():
            batch.due = 0.0  # full: flush at the next flusher wakeup
        self._wake.set()

    # -- overload ladder -------------------------------------------------------
    def occupancy(self) -> float:
        return self._inflight / self.max_queue_depth

    def _effective_max_batch(self) -> int:
        if self.occupancy() >= self.shed_occupancy:
            obs.counter("server.overload.shed_batch").inc()
            return max(1, self.max_batch // SHED_DIVISOR)
        return self.max_batch

    # -- flushing --------------------------------------------------------------
    async def _flush_loop(self) -> None:
        while True:
            self._wake.clear()
            now = time.monotonic()
            due = [b for b in self._batches.values()
                   if self._closing or b.due <= now]
            # urgent first: the deadline-ordering contract
            due.sort(key=lambda b: b.due)
            for batch in due:
                del self._batches[batch.key]
                self._dispatch(batch)
            timeout = None
            if self._batches:
                timeout = max(0.0, min(b.due for b in self._batches.values())
                              - time.monotonic())
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass

    def _dispatch(self, batch: _Batch) -> None:
        obs.counter("server.batch.flushes").inc()
        self.flush_log.append(batch.key)
        eff = self._effective_max_batch()
        for i in range(0, len(batch.jobs), eff):
            chunk = batch.jobs[i:i + eff]
            obs.histogram("server.batch.size").observe(len(chunk))
            fut = self._loop.run_in_executor(
                self._executor, obs.propagate(self._execute_batch), chunk)
            fut.add_done_callback(
                lambda f, c=chunk: self._finish(c, f))

    def _execute_batch(self, chunk: Sequence[_Pending]) -> List[Grid]:
        """One flushed chunk, on an executor thread: compile once through
        the shared cache, then run every job (the service's retry /
        degrade ladders guard both calls).

        With online tuning on, the batch runs on the stored winner for
        its workload (a pure lookup, zero trials).  Every placement is
        bitwise-identical, so a promotion mid-stream never changes
        responses."""
        self._retry_faults("server.batch_flush")
        job0 = chunk[0].job
        where = self._placement(job0)
        with obs.span("server.batch", kernel=job0.spec.name,
                      jobs=len(chunk)):
            self.service.compile_many(
                [CompileRequest(job0.spec, job0.shape)])
            return self.service.run_many(
                [SweepJob(p.job.spec, p.job.materialize(), p.job.steps,
                          boundary=p.job.boundary, value=p.job.value,
                          **where)
                 for p in chunk])

    def _placement(self, job: StencilJob) -> Dict[str, Any]:
        """The ``SweepJob`` executor keywords of the servable stored
        winner for ``job``'s workload (empty: the served default)."""
        if self.online_tuner is None:
            return {}
        winner = self.online_tuner.winner(job.spec, job.shape,
                                          boundary=job.boundary)
        if winner is None:
            return {}
        obs.counter("tune.online.applied").inc()
        return winner.run_kwargs()

    def _finish(self, chunk: Sequence[_Pending], fut) -> None:
        """Executor-side completion: hop back to the loop thread."""
        exc = fut.exception()
        grids = None if exc is not None else fut.result()
        self._loop.call_soon_threadsafe(self._resolve, chunk, grids, exc)

    def _resolve(self, chunk: Sequence[_Pending],
                 grids: Optional[List[Grid]],
                 exc: Optional[BaseException]) -> None:
        now = time.monotonic()
        for i, p in enumerate(chunk):
            self._inflight -= 1
            if exc is not None:
                obs.counter("server.batch.failures").inc()
                if not p.future.done():
                    p.future.set_exception(exc)
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
        self._wake.set()  # freed capacity may un-shed the next flush

    # -- fault sites -----------------------------------------------------------
    def _retry_faults(self, site: str) -> None:
        """Hit ``site``; injected raises are retried (bounded) so chaos
        plans perturb latency, never results."""
        for attempt in range(self.fault_retries + 1):
            try:
                fault_point(site)
                return
            except FaultInjected:
                obs.counter("server.faults").inc()
                obs.counter(f"server.faults.site.{site}").inc()
                if attempt == self.fault_retries:
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
        if self.online_tuner is not None:
            for k, v in self.online_tuner.stats().items():
                out[f"online_{k}"] = v
        return out


__all__ = ["JobResult", "SHED_DIVISOR", "StencilJob", "StencilServer"]
