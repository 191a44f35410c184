"""The batched kernel service: compile many, run many.

:class:`KernelService` is the production-facing front-end the ROADMAP's
scale goal asks for.  It owns one machine model, one
:class:`~repro.core.cache.KernelCache` (shared by every compile, so
repeated requests for the same kernel pay for compilation once), and an
execution configuration for the partitioned numpy path:

* :meth:`compile_many` — deduplicates a batch of compile requests by
  content key and compiles each distinct one in the caller's thread;
* :meth:`run_many` — dispatches a batch of sweep jobs through
  :func:`repro.parallel.executor.run_parallel`, each job split into
  outer-axis parts across the service's workers on the configured
  backend (thread pool by default, the opt-in process pool for GIL-heavy
  sweeps); a job that fails returns its exception in its grid's place.

**One failure rule.**  A transient failure — an injected fault
(:class:`~repro.faults.FaultInjected`) or a lost process pool
(``BrokenProcessPool``), the only failures a second attempt can clear —
is retried up to ``retries`` times, then walks the call's ladder
(compile: codegen → ``interp``; run: process → ``thread`` → ``serial``).
Any other :class:`~repro.errors.ReproError` (a geometry the engine
refuses, say) is deterministic and propagates after one attempt.
Nothing sleeps between attempts: injected faults count hits, not time,
and :class:`~repro.parallel.executor.SupervisedPool` restarts a broken
pool itself.

Usage::

    svc = KernelService(GENERIC_AVX2)
    kernels = svc.compile_many([
        CompileRequest(library.get("heat-2d"), (512, 512)),
        CompileRequest(library.get("box-2d9p"), (512, 512)),
    ])
    grids = svc.run_many([SweepJob(k.plan.spec, k.grid_like(k.grid.shape,
                                                            seed=0), steps=4)
                          for k in kernels])
"""

from __future__ import annotations

import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import obs
from .config import MachineConfig
from .core.cache import KernelCache, plan_key
from .core.kernel import CompiledKernel
from .errors import ReproError
from .faults import FaultInjected, failure_reason
from .parallel.executor import BACKENDS, run_parallel
from .stencils.grid import Grid
from .stencils.spec import StencilSpec
from .tune.db import TuningDB
from .tune.engine import TuneBudget
from .tune.tuner import TuneReport, Tuner

#: the deliberately small search budget ``compile_many(tune=True)`` uses
#: when a workload has no stored winner yet: enough to compare the plan
#: variants and the default, cheap enough for a compile path.
DEFAULT_SERVICE_BUDGET = TuneBudget(max_trials=4, warmup=0, repeats=1,
                                    trial_timeout_s=30.0, patience=3)

#: the failures a second attempt can clear (see the module docstring)
TRANSIENT = (FaultInjected, BrokenProcessPool)


def _require_int(name: str, value, minimum: int) -> None:
    """Reject non-integers (bools included) and out-of-range counts with
    a message that names the offending parameter."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ReproError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class CompileRequest:
    """One kernel to compile: a spec plus the interior shape it will run
    on (the halo is derived from the plan)."""

    spec: StencilSpec
    shape: Tuple[int, ...]
    time_fusion: Union[int, str] = "auto"
    use_sdf: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape",
                           tuple(int(s) for s in self.shape))


@dataclass(frozen=True)
class SweepJob:
    """One batch-execution job: ``steps`` Jacobi sweeps of ``spec`` over
    ``grid`` on the partitioned executor — ``parts`` outer-axis parts
    (default: one per worker, as the grid's size allows) with halo
    exchange every ``temporal_block`` sub-steps.  ``workers`` overrides
    the service's ``run_workers``."""

    spec: StencilSpec
    grid: Grid
    steps: int
    boundary: str = "periodic"
    value: float = 0.0
    parts: Optional[int] = None
    temporal_block: int = 1
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ReproError("workers must be >= 1")
        if self.parts is not None and self.parts < 1:
            raise ReproError("parts must be >= 1")
        if self.temporal_block < 1:
            raise ReproError("temporal_block must be >= 1")


class KernelService:
    """Batch compile-and-run front-end (see module docstring).

    ``cache_dir`` places the tuning database at ``<cache_dir>/tuning``
    (without one the service tunes in memory); ``run_workers`` and
    ``run_backend`` configure :meth:`run`; ``retries`` is the transient-
    failure budget spent before a ladder is walked."""

    def __init__(
        self,
        machine: MachineConfig,
        *,
        cache_dir: Optional[str] = None,
        run_workers: int = 4,
        run_backend: str = "thread",
        retries: int = 2,
    ) -> None:
        if run_backend not in BACKENDS:
            raise ReproError(
                f"unknown run backend {run_backend!r}; known: {BACKENDS}"
            )
        _require_int("run_workers", run_workers, 1)
        _require_int("retries", retries, 0)
        self.machine = machine
        self.cache = KernelCache()
        self.run_workers = run_workers
        self.run_backend = run_backend
        #: persistent winner store consulted by ``compile_many(tune=True)``
        self.tuning_db = TuningDB(
            os.path.join(os.path.expanduser(cache_dir), "tuning")
            if cache_dir else None)
        #: transient failures retried before the ladder is walked
        self.retries = retries

    # -- failure handling ------------------------------------------------------
    def _guarded(self, primary: Callable[[], "T"],
                 ladder: Sequence[Tuple[str, Callable[[], "T"]]]):
        """Run ``primary`` under the service's failure rule (see the
        module docstring): a transient failure is retried ``retries``
        times, then ``ladder`` — ordered ``(label, fn)`` alternatives —
        is walked; any other failure propagates at once.  Every failure
        and fallback lands in the obs taxonomy
        (``fault | worker_lost | error``)."""
        last: Optional[BaseException] = None
        for label, fn in [(None, primary)] * (1 + self.retries) + [*ladder]:
            if label is not None:
                obs.counter("service.fallback").inc()
                obs.counter(
                    f"service.fallback.reason.{failure_reason(last)}").inc()
                obs.counter(f"service.fallback.to.{label}").inc()
            try:
                return fn()
            except (ReproError, BrokenProcessPool) as exc:
                obs.counter("service.failures").inc()
                obs.counter(
                    f"service.failures.reason.{failure_reason(exc)}").inc()
                if not isinstance(exc, TRANSIENT):
                    raise
                last = exc
        raise last

    # -- compilation -----------------------------------------------------------
    def compile(self, spec: StencilSpec, shape: Sequence[int], *,
                time_fusion: Union[int, str] = "auto",
                use_sdf: bool = True,
                backend: str = "auto") -> CompiledKernel:
        """Compile one kernel through the service cache.

        The program is lowered eagerly so the returned kernel is
        ready-to-run (and the expensive work is behind the cache).
        ``backend`` is the kernel's SIMD-machine execution backend
        (tuned compiles pin one).

        The compile is guarded by the failure rule; its ladder's one
        rung pins the interpreter backend, which is bitwise identical to
        the codegen engine, so degrading never changes results."""

        def attempt(backend: str) -> Callable[[], CompiledKernel]:
            return lambda: self._compile_once(
                spec, shape, time_fusion=time_fusion, use_sdf=use_sdf,
                backend=backend)

        return self._guarded(attempt(backend),
                             [("interp", attempt("interp"))])

    def _compile_once(self, spec: StencilSpec, shape: Sequence[int], *,
                      time_fusion: Union[int, str], use_sdf: bool,
                      backend: str) -> CompiledKernel:
        """One unguarded compile attempt through the service cache."""
        t0 = time.perf_counter()
        with obs.span("service.compile", kernel=spec.name):
            plan = self.cache.plan(spec, self.machine,
                                   time_fusion=time_fusion, use_sdf=use_sdf,
                                   backend=backend)
            grid = Grid(tuple(shape), plan.halo)
            kernel = CompiledKernel(plan=plan, machine=self.machine,
                                    grid=grid, cache=self.cache,
                                    backend=backend)
            kernel.program  # force lowering through the cache
        if obs.enabled():
            obs.histogram("service.compile_ms").observe(
                (time.perf_counter() - t0) * 1e3)
        return kernel

    def compile_many(
        self,
        requests: Sequence[Union[CompileRequest, Tuple]],
        *,
        tune: bool = False,
    ) -> List[CompiledKernel]:
        """Compile a batch, deduplicating identical requests; each
        distinct one goes through :meth:`compile` in the caller's
        thread.  Results are returned in request order; duplicate
        requests share one compiled kernel.

        With ``tune=True`` each request's plan options are replaced by the
        autotuned winner for its workload: a :class:`~repro.tune.TuningDB`
        hit applies instantly (zero trials), a miss runs the tuner under
        :data:`DEFAULT_SERVICE_BUDGET` first and stores the winner for
        next time.  Tuned winners on a non-plan engine (the partitioned
        executor) only pin plan options, not the executor."""
        if not isinstance(tune, bool):
            raise ReproError(f"tune must be a bool, got {tune!r}")
        reqs = [r if isinstance(r, CompileRequest) else CompileRequest(*r)
                for r in requests]
        with obs.span("service.compile_many", requests=len(reqs)) as s:
            obs.histogram("service.compile_batch_size").observe(len(reqs))
            resolved = [self._resolve(r, tune=tune) for r in reqs]
            distinct: Dict[Tuple, Tuple[CompileRequest, Dict]] = {}
            for r, (key, kwargs) in zip(reqs, resolved):
                distinct.setdefault(key, (r, kwargs))
            s.set(distinct=len(distinct))
            compiled = {k: self.compile(r.spec, r.shape, **kwargs)
                        for k, (r, kwargs) in distinct.items()}
            return [compiled[key] for key, _ in resolved]

    def _resolve(self, r: CompileRequest, *,
                 tune: bool) -> Tuple[Tuple, Dict]:
        """The deduplication key and effective compile kwargs for one
        request (tuned overrides already applied)."""
        kwargs: Dict = {"time_fusion": r.time_fusion, "use_sdf": r.use_sdf,
                        "backend": "auto"}
        if tune:
            cfg = self.tuner().tune(r.spec, r.shape).best.config
            if cfg.is_plan_aware:
                kwargs = {"time_fusion": cfg.time_fusion,
                          "use_sdf": cfg.use_sdf,
                          "backend": cfg.plan_backend}
        key = (plan_key(r.spec, self.machine,
                        time_fusion=kwargs["time_fusion"],
                        use_sdf=kwargs["use_sdf"],
                        backend=kwargs["backend"]),
               r.shape)
        return key, kwargs

    # -- tuning ----------------------------------------------------------------
    def tuner(self) -> Tuner:
        """A :class:`~repro.tune.Tuner` sharing this service's machine,
        kernel cache and tuning database."""
        return Tuner(self.machine, cache=self.cache, db=self.tuning_db,
                     budget=DEFAULT_SERVICE_BUDGET)

    def tune(self, spec: StencilSpec, shape: Sequence[int],
             **kwargs) -> TuneReport:
        """Autotune one workload through the service's database (see
        :meth:`repro.tune.Tuner.tune` for keywords)."""
        return self.tuner().tune(spec, tuple(shape), **kwargs)

    # -- execution -------------------------------------------------------------
    def run(self, job: SweepJob) -> Grid:
        """Execute one sweep job on the partitioned parallel executor.

        The run is guarded by the failure rule; its ladder is process →
        thread → serial (``serial`` = one thread-backend worker).  The
        executor is bitwise deterministic across backends and worker
        counts, so the ladder never changes results."""
        ladder: List[Tuple[str, Callable[[], Grid]]] = []
        if self.run_backend == "process":
            ladder.append(
                ("thread", lambda: self._run_once(job, backend="thread")))
        ladder.append(
            ("serial", lambda: self._run_once(job, backend="thread",
                                              workers=1)))
        return self._guarded(
            lambda: self._run_once(job, backend=self.run_backend), ladder)

    def _run_once(self, job: SweepJob, *, backend: str,
                  workers: Optional[int] = None) -> Grid:
        """One unguarded sweep-job execution (``workers`` overrides the
        job's own count, which overrides ``run_workers``)."""
        if workers is None:
            workers = job.workers or self.run_workers
        t0 = time.perf_counter()
        with obs.span("service.run", kernel=job.spec.name, steps=job.steps):
            result = run_parallel(
                job.spec, job.grid, job.steps,
                parts=job.parts,
                temporal_block=job.temporal_block,
                workers=workers,
                boundary=job.boundary,
                value=job.value,
                backend=backend,
            )
        if obs.enabled():
            obs.histogram("service.run_ms").observe(
                (time.perf_counter() - t0) * 1e3)
        return result

    def run_many(self, jobs: Sequence[Union[SweepJob, Tuple]]
                 ) -> List[Union[Grid, Exception]]:
        """Execute a batch of sweep jobs.  Jobs run one after another,
        each internally partitioned across the service's workers (a job already
        saturates them; overlapping jobs would just thrash the pool).

        Every job runs once.  A job whose guarded :meth:`run` still
        raises gets its exception in its grid's place (as with
        ``asyncio.gather(..., return_exceptions=True)``), so one bad job
        fails alone."""
        jobs = [j if isinstance(j, SweepJob) else SweepJob(*j) for j in jobs]
        with obs.span("service.run_many", jobs=len(jobs)):
            obs.histogram("service.run_batch_size").observe(len(jobs))
            return [self._run_or_exception(j) for j in jobs]

    def _run_or_exception(self, job: SweepJob) -> Union[Grid, Exception]:
        try:
            return self.run(job)
        except Exception as exc:
            return exc

    # -- introspection -----------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """The service cache's hit/miss/evict counters and occupancy,
        plus the tuning database's counters (``tuning_`` prefix)."""
        out = self.cache.stats_dict()
        for k, v in self.tuning_db.stats_dict().items():
            out[f"tuning_{k}"] = v
        return out


__all__ = ["CompileRequest", "SweepJob", "KernelService"]
