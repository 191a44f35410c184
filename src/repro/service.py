"""The batched kernel service: compile many, run many.

:class:`KernelService` is the production-facing front-end the ROADMAP's
scale goal asks for.  It owns one machine model, one
:class:`~repro.core.cache.KernelCache` (shared by every compile, so
repeated and concurrent requests for the same kernel pay for compilation
once), and an execution configuration for the partitioned numpy path:

* :meth:`compile_many` — deduplicates a batch of compile requests by
  content key and compiles the distinct ones concurrently on a thread
  pool (the SVD and numpy work release the GIL; a lone distinct request
  compiles inline);
* :meth:`run_many` — dispatches a batch of sweep jobs through
  :func:`repro.parallel.executor.run_parallel`, each job split into
  outer-axis parts across the service's workers on the configured
  backend (thread pool by default, the opt-in process pool for GIL-heavy
  sweeps).

Usage::

    svc = KernelService(GENERIC_AVX2, cache_dir="~/.cache/repro/kernels")
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
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import obs
from .config import MachineConfig
from .core.cache import KernelCache, plan_key
from .core.jigsaw import required_halo
from .core.kernel import CompiledKernel
from .errors import ReproError
from .faults import POLICIES, call_with_timeout, failure_reason
from .parallel.executor import BACKENDS, run_parallel
from .stencils.grid import Grid
from .stencils.spec import StencilSpec
from .tune.db import TuningDB
from .tune.engine import TuneBudget
from .tune.tuner import TuneReport, Tuner
from .vectorize.driver import EXEC_BACKENDS

#: the deliberately small search budget ``compile_many(tune=True)`` uses
#: when a workload has no stored winner yet: enough to compare the plan
#: variants and the default, cheap enough for a compile path.  Explicit
#: ``tune_budget=`` overrides it.
DEFAULT_SERVICE_BUDGET = TuneBudget(max_trials=4, warmup=0, repeats=1,
                                    trial_timeout_s=30.0, patience=3)


def _require_int(name: str, value, minimum: int) -> None:
    """Reject non-integers (bools included) and out-of-range counts with
    a message that names the offending parameter."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ReproError(f"{name} must be >= {minimum}, got {value}")


def _require_finite(name: str, value, *, minimum: float,
                    exclusive: bool = False) -> None:
    """Reject NaN/inf/non-numeric durations (bools included)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ReproError(f"{name} must be a number, got {value!r}")
    if value != value or value in (float("inf"), float("-inf")):
        raise ReproError(f"{name} must be finite, got {value!r}")
    if (value <= minimum) if exclusive else (value < minimum):
        bound = f"> {minimum:g}" if exclusive else f">= {minimum:g}"
        raise ReproError(f"{name} must be {bound}, got {value!r}")


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
    """Batch compile-and-run front-end (see module docstring)."""

    def __init__(
        self,
        machine: MachineConfig,
        *,
        cache: Optional[KernelCache] = None,
        cache_dir: Optional[str] = None,
        compile_workers: int = 4,
        run_workers: int = 4,
        run_backend: str = "thread",
        exec_backend: str = "auto",
        tuning_db: Optional[TuningDB] = None,
        tune_budget: Optional[TuneBudget] = None,
        task_timeout_s: Optional[float] = None,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
        failure_policy: str = "raise",
    ) -> None:
        if cache is not None and cache_dir is not None:
            raise ReproError("pass either cache or cache_dir, not both")
        if run_backend not in BACKENDS:
            raise ReproError(
                f"unknown run backend {run_backend!r}; known: {BACKENDS}"
            )
        if exec_backend not in EXEC_BACKENDS:
            raise ReproError(
                f"unknown exec backend {exec_backend!r}; "
                f"known: {EXEC_BACKENDS}"
            )
        _require_int("compile_workers", compile_workers, 1)
        _require_int("run_workers", run_workers, 1)
        if task_timeout_s is not None:
            _require_finite("task_timeout_s", task_timeout_s,
                            minimum=0.0, exclusive=True)
        _require_int("retries", retries, 0)
        _require_finite("retry_backoff_s", retry_backoff_s, minimum=0.0)
        if tune_budget is not None and not isinstance(tune_budget,
                                                     TuneBudget):
            raise ReproError(
                f"tune_budget must be a TuneBudget, got {tune_budget!r}")
        if failure_policy not in POLICIES:
            raise ReproError(
                f"unknown failure policy {failure_policy!r}; "
                f"known: {POLICIES}"
            )
        if cache is None:
            cache = KernelCache(
                os.path.expanduser(cache_dir) if cache_dir else None
            )
        self.machine = machine
        self.cache = cache
        self.compile_workers = compile_workers
        self.run_workers = run_workers
        self.run_backend = run_backend
        #: SIMD-machine execution backend stamped on every compiled
        #: kernel (see :data:`repro.vectorize.driver.EXEC_BACKENDS`);
        #: ``auto`` degrades codegen -> interp at run time
        self.exec_backend = exec_backend
        if tuning_db is None:
            # disk-backed caches get a disk-backed tuning DB next to the
            # kernel entries; memory-only caches tune in memory
            tuning_db = TuningDB(
                os.path.join(cache.cache_dir, "tuning")
                if cache.cache_dir else None)
        #: persistent winner store consulted by ``compile_many(tune=True)``
        self.tuning_db = tuning_db
        self.tune_budget = tune_budget or DEFAULT_SERVICE_BUDGET
        #: per-task wall-clock bound for guarded compiles/runs (None = off)
        self.task_timeout_s = task_timeout_s
        #: bounded retry budget consumed before degrading or raising
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        #: ``raise`` | ``retry`` | ``degrade`` (see :mod:`repro.faults.policy`)
        self.failure_policy = failure_policy

    # -- failure handling ------------------------------------------------------
    def _guarded(self, what: str, primary: Callable[[], "T"],
                 degraded: Sequence[Tuple[str, Callable[[], "T"]]] = ()):
        """Run ``primary`` under the per-task timeout with the service's
        retry budget (exponential backoff between attempts); once the
        budget is spent, the ``degrade`` policy walks ``degraded`` — an
        ordered ladder of ``(label, fn)`` alternatives — before the final
        failure propagates.  Every failure and fallback lands in the obs
        taxonomy (``fault | timeout | worker_lost | error``)."""
        attempts = 1
        if self.failure_policy in ("retry", "degrade"):
            attempts += self.retries
        last: Optional[BaseException] = None
        for attempt in range(attempts):
            try:
                return call_with_timeout(primary, self.task_timeout_s)
            except (ReproError, BrokenProcessPool) as exc:
                last = exc
                reason = failure_reason(exc)
                obs.counter("service.failures").inc()
                obs.counter(f"service.failures.reason.{reason}").inc()
                if attempt + 1 < attempts and self.retry_backoff_s:
                    time.sleep(self.retry_backoff_s * (2 ** attempt))
        if self.failure_policy == "degrade":
            for label, fn in degraded:
                obs.counter("service.fallback").inc()
                obs.counter(
                    f"service.fallback.reason.{failure_reason(last)}").inc()
                obs.counter(f"service.fallback.to.{label}").inc()
                try:
                    return call_with_timeout(fn, self.task_timeout_s)
                except (ReproError, BrokenProcessPool) as exc:
                    last = exc
                    obs.counter("service.failures").inc()
                    obs.counter(
                        f"service.failures.reason.{failure_reason(exc)}"
                    ).inc()
        raise last

    # -- compilation -----------------------------------------------------------
    def compile(self, spec: StencilSpec, shape: Sequence[int], *,
                time_fusion: Union[int, str] = "auto",
                use_sdf: bool = True,
                backend: Optional[str] = None) -> CompiledKernel:
        """Compile one kernel through the service cache.

        The program is lowered eagerly so the returned kernel is
        ready-to-run (and the expensive work is behind the cache).
        ``backend`` overrides the service-wide execution backend for this
        kernel (used by tuned compiles).

        The compile is guarded: retried/backed-off per the failure
        policy, and under ``degrade`` a final attempt pins the
        interpreter backend on a *private in-memory cache* — a wedged
        shared cache (e.g. an in-flight compile stuck past its timeout
        still holding the key lock) cannot block it, and interp is
        bitwise identical to the codegen engine, so degrading never
        changes results."""
        backend = backend or self.exec_backend
        degraded = [("interp", lambda: self._compile_once(
            spec, shape, time_fusion=time_fusion, use_sdf=use_sdf,
            backend="interp", cache=KernelCache(None)))]
        return self._guarded(
            "compile",
            lambda: self._compile_once(spec, shape, time_fusion=time_fusion,
                                       use_sdf=use_sdf, backend=backend),
            degraded)

    def _compile_once(self, spec: StencilSpec, shape: Sequence[int], *,
                      time_fusion: Union[int, str], use_sdf: bool,
                      backend: str,
                      cache: Optional[KernelCache] = None) -> CompiledKernel:
        """One unguarded compile attempt through ``cache`` (the service
        cache unless the degraded path supplies a private one)."""
        cache = cache if cache is not None else self.cache
        t0 = time.perf_counter()
        with obs.span("service.compile", kernel=spec.name):
            plan = cache.plan(spec, self.machine,
                              time_fusion=time_fusion, use_sdf=use_sdf,
                              backend=backend)
            halo = required_halo(spec, self.machine,
                                 time_fusion=plan.time_fusion)
            grid = Grid(tuple(shape), halo)
            kernel = CompiledKernel(plan=plan, machine=self.machine,
                                    grid=grid, cache=cache,
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
        """Compile a batch, deduplicating identical requests and lowering
        the distinct ones concurrently (a single distinct request
        compiles inline).  Results are returned in request order;
        duplicate requests share one compiled kernel.

        With ``tune=True`` each request's plan options are replaced by the
        autotuned winner for its workload: a :class:`~repro.tune.TuningDB`
        hit applies instantly (zero trials), a miss runs the tuner under
        the service's ``tune_budget`` first and stores the winner for next
        time.  Tuned winners on a non-plan engine (the partitioned
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
            compiled: Dict[Tuple, CompiledKernel] = {}
            if len(distinct) == 1:
                (k, (r, kwargs)), = distinct.items()
                compiled[k] = self.compile(r.spec, r.shape, **kwargs)
            elif distinct:
                workers = min(self.compile_workers, len(distinct))
                # obs.propagate keeps pool-thread spans nested under this
                # compile_many span instead of opening new roots
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        k: pool.submit(obs.propagate(self.compile),
                                       r.spec, r.shape, **kwargs)
                        for k, (r, kwargs) in distinct.items()
                    }
                    compiled = {k: f.result() for k, f in futures.items()}
            return [compiled[key] for key, _ in resolved]

    def _resolve(self, r: CompileRequest, *,
                 tune: bool) -> Tuple[Tuple, Dict]:
        """The deduplication key and effective compile kwargs for one
        request (tuned overrides already applied)."""
        kwargs: Dict = {"time_fusion": r.time_fusion, "use_sdf": r.use_sdf,
                        "backend": self.exec_backend}
        if tune:
            cfg = self.tuner().tune(r.spec, r.shape,
                                    budget=self.tune_budget).best.config
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
                     budget=self.tune_budget)

    def tune(self, spec: StencilSpec, shape: Sequence[int],
             **kwargs) -> TuneReport:
        """Autotune one workload through the service's database (see
        :meth:`repro.tune.Tuner.tune` for keywords)."""
        return self.tuner().tune(spec, tuple(shape), **kwargs)

    def online_tuner(self, *, config=None, idle=None):
        """An :class:`~repro.tune.online.OnlineTuner` exploring this
        service's workloads: shares the machine, kernel cache and tuning
        database, so promotions are visible to every consumer."""
        from .tune.online import OnlineTuner
        return OnlineTuner(self, config=config, idle=idle)

    # -- execution -------------------------------------------------------------
    def run(self, job: SweepJob) -> Grid:
        """Execute one sweep job on the partitioned parallel executor.

        The run is guarded: retried/backed-off per the failure policy,
        and under ``degrade`` it walks the process → thread → serial
        ladder (``serial`` = one thread-backend worker).  The executor
        is bitwise deterministic across backends and worker counts, so the
        ladder never changes results."""
        degraded: List[Tuple[str, Callable[[], Grid]]] = []
        if self.run_backend == "process":
            degraded.append(
                ("thread", lambda: self._run_once(job, backend="thread")))
        degraded.append(
            ("serial", lambda: self._run_once(job, backend="thread",
                                              workers=1)))
        return self._guarded(
            "run", lambda: self._run_once(job, backend=self.run_backend),
            degraded)

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

    def run_many(self, jobs: Sequence[Union[SweepJob, Tuple]]) -> List[Grid]:
        """Execute a batch of sweep jobs.  Jobs run one after another,
        each internally partitioned across the service's workers (a job already
        saturates them; overlapping jobs would just thrash the pool)."""
        jobs = [j if isinstance(j, SweepJob) else SweepJob(*j) for j in jobs]
        with obs.span("service.run_many", jobs=len(jobs)):
            obs.histogram("service.run_batch_size").observe(len(jobs))
            return [self.run(j) for j in jobs]

    # -- introspection -----------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """The service cache's hit/miss/evict counters + disk occupancy,
        plus the tuning database's counters (``tuning_`` prefix)."""
        out = self.cache.stats_dict()
        for k, v in self.tuning_db.stats_dict().items():
            out[f"tuning_{k}"] = v
        return out


__all__ = ["CompileRequest", "SweepJob", "KernelService"]
