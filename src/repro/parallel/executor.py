"""Real parallel execution of stencil sweeps: one outer-axis partitioned
executor.

:func:`run_parallel` splits the grid's outermost axis into ``parts``
contiguous slabs (:func:`repro.parallel.topology.partition_axis`) and
runs every sweep as one barrier of independent part tasks over a
:class:`SupervisedPool` — the OpenMP structure the paper's multicore
runs use, in Python form.  How a part reaches its worker follows from
inputs the call already fixes:

* **in place** — on the ``"thread"`` backend, at ``temporal_block == 1``
  and without a compiled recipe, every part sweeps the shared input and
  output buffers directly through :func:`apply_tile` (numpy ufuncs
  release the GIL, so parts genuinely overlap), with one halo fill and
  one barrier per sweep;
* **windows** — on the ``"process"`` backend, at ``temporal_block > 1``,
  or when :meth:`repro.core.kernel.CompiledKernel.run_sharded` supplies
  a :class:`~repro.shard.worker.KernelRecipe`, each part is shipped as a
  private window: :func:`repro.shard.exchange.gather_window` cuts its
  slab plus ``radius * s`` context rows per side, the worker advances
  it ``s`` sub-steps (:func:`repro.shard.worker.run_shard_task`), and
  :func:`repro.shard.exchange.scatter_slab` lands the slab.  Deeper
  blocks trade redundant ghost-row work for ``s``-fold fewer barriers
  (see :mod:`repro.shard.plan`).

Both paths are bitwise deterministic: a part's result depends only on
the input grid, never on scheduling, every part writes a disjoint
output slab, and the reference window sweep applies :func:`apply_tile`
over a collar that shrinks one radius per sub-step, in the same tap
order as the in-place sweep.  So any part count, worker count, temporal
block and backend produce identical interiors (guarded by
``tests/test_parallel.py`` and ``tests/test_shard.py``).

Recovery (see ``docs/architecture.md``): a thread-backend barrier of
one task runs inline in the caller, and grids below
:data:`MIN_PART_POINTS` per worker default to fewer parts, so a small
grid never starts a pool.  A task that fails with a
:class:`~repro.errors.ReproError` (injected faults included) is
recomputed in the parent, with :data:`TASK_RETRIES` further attempts if
that fails too; recomputation is idempotent, because :func:`apply_tile`
zeroes its output slice first and a window is a private copy.  A
crashed process pool (``BrokenProcessPool``, e.g. a killed worker) is
restarted up to :data:`POOL_RESTARTS` times per run with the unfinished
tasks resubmitted; past that budget the parent finishes the run itself.
The input of a barrier is never written during it, so a completed
barrier is never redone and doubles as a recovery checkpoint.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from .. import faults, obs
from ..errors import ReproError, TilingError
from ..stencils.boundary import fill_halo
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from ..tiling.blocks import Tile

if TYPE_CHECKING:  # the shard package imports this module
    from ..shard.worker import KernelRecipe

#: executor backends accepted by :func:`run_parallel`.
BACKENDS: Tuple[str, ...] = ("thread", "process")

#: extra in-parent attempts at a failed task after the first recompute
TASK_RETRIES = 2
#: process-pool restarts per run after a worker loss; past them the
#: parent finishes the run itself
POOL_RESTARTS = 2
#: fewest grid points worth one part of their own: smaller grids run as
#: one part, which the thread backend sweeps inline without a pool
MIN_PART_POINTS = 2 ** 15


def pool_context() -> multiprocessing.context.BaseContext:
    """The pinned multiprocessing context every process pool uses.

    Defaults to ``forkserver`` where available, else ``spawn`` — both are
    spawn-safe: workers start from a fresh interpreter, so nothing leaks
    in by fork (an inherited fault injector, a half-held lock) and tasks
    must be picklable, which is exactly the contract the fault-shipping
    protocol and the window tasks rely on.  ``fork`` made all of that
    platform-dependent (macOS/Windows never had it for pools).

    ``REPRO_MP_START`` overrides the method (``fork`` included, for
    benchmarking against the cheaper-but-unsafe default).
    """
    method = os.environ.get("REPRO_MP_START")
    if not method:
        method = ("forkserver"
                  if "forkserver" in multiprocessing.get_all_start_methods()
                  else "spawn")
    if method not in multiprocessing.get_all_start_methods():
        raise TilingError(
            f"unsupported start method {method!r} (REPRO_MP_START); "
            f"available: {multiprocessing.get_all_start_methods()}"
        )
    return multiprocessing.get_context(method)


def default_parts(shape: Sequence[int], workers: int) -> int:
    """The default partition: ``min(workers, points // MIN_PART_POINTS)``
    outer-axis parts, at least one and at most one per outer row."""
    points = math.prod(shape)
    return max(1, min(workers, points // MIN_PART_POINTS, shape[0]))


def apply_tile(spec: StencilSpec, grid: Grid, out: Grid, tile: Tile) -> None:
    """One Jacobi sweep restricted to ``tile`` (halo must be filled).
    Zeroes the output slice first, so a retried tile is idempotent."""
    faults.fault_point("tile.sweep")
    dst = out.data[tile.slices(out.halo)]
    dst.fill(0.0)
    for off, c in zip(spec.offsets, spec.coeffs):
        sl = tuple(
            slice(h + a + o, h + b + o)
            for h, a, b, o in zip(grid.halo, tile.start, tile.stop, off)
        )
        np.add(dst, c * grid.data[sl], out=dst)


def _thread_task(local: Callable[[Any], None], task: Any) -> None:
    """Thread-pool task: a thread worker shares the parent's injector, so
    it takes its own ``pool.task_start`` hit."""
    faults.fault_point("pool.task_start")
    local(task)


class SupervisedPool:
    """A worker pool that runs barriers of independent tasks and recovers
    every failure bitwise (see the module docstring).

    A caller supplies, per :meth:`barrier`, the tasks plus three
    functions: ``local(task)`` computes a task in this process and lands
    its result (thread workers and every in-parent recomputation run
    it); ``remote(task, actions)`` is a picklable module-level callable
    that replays the shipped fault ``actions`` and returns the task's
    result from a process worker; ``land(task, result)`` writes that
    result.  ``sites`` are the fault sites a process-backend task
    consumes, decided in the parent in submission order.  Recoveries
    count under ``parallel.task_retries`` / ``parallel.pool_restarts``.

    The executor starts lazily and lives until :meth:`close`; the
    restart budget covers the pool's whole life (one run).
    """

    def __init__(self, backend: str, workers: int, *,
                 sites: Tuple[str, ...] = ("pool.task_start",)) -> None:
        self.backend = backend
        self.workers = workers
        self.sites = sites
        self._executor = None
        self._restarts_left = POOL_RESTARTS

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _pool(self):
        if self._executor is None:
            if self.backend == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=pool_context())
            else:
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
        return self._executor

    def _decide(self, inj) -> Tuple[faults.FaultAction, ...]:
        """Consume one process task's fault-site hits in the parent, in
        submission order: the deterministic stand-in for worker-side
        ``fault_point`` calls the injector cannot observe across the
        process boundary.  Triggered actions ride along with the task."""
        if inj is None:
            return ()
        return tuple(a for a in map(inj.decide, self.sites) if a is not None)

    def barrier(self, tasks: Sequence[Any], local: Callable[[Any], None],
                remote: Optional[Callable] = None,
                land: Optional[Callable[[Any, Any], None]] = None) -> None:
        """Run ``tasks`` to completion: on return every result has landed.
        A lone thread-backend task runs inline in the caller."""
        thread = self.backend == "thread"
        pending = list(tasks)
        if thread and len(pending) == 1:
            try:
                _thread_task(local, pending[0])
            except ReproError:
                self._recompute(local, pending[0])
            return
        while pending:
            if self._restarts_left < 0:
                # restart budget spent: the parent finishes the run
                for task in pending:
                    self._recompute(local, task)
                return
            inj = faults.active()
            pool = self._pool()
            futures = []
            lost: List[Any] = []
            try:
                for task in pending:
                    futures.append((
                        pool.submit(_thread_task, local, task) if thread
                        else pool.submit(remote, task, self._decide(inj)),
                        task))
            except BrokenProcessPool:
                # the pool died before this barrier's submissions finished
                lost = pending[len(futures):]
            failed = []
            for fut, task in futures:
                try:
                    result = fut.result()
                except ReproError:
                    failed.append(task)
                except BrokenProcessPool:
                    lost.append(task)
                else:
                    if not thread:  # thread tasks landed their own result
                        land(task, result)
            for task in failed:
                self._recompute(local, task)
            if lost:
                # a worker died: drop the pool, resubmit the unfinished
                # tasks to a fresh one (or, past the budget, to the parent)
                obs.counter("parallel.pool_restarts").inc()
                obs.counter("parallel.fallback.reason.worker_lost").inc()
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
                self._restarts_left -= 1
            pending = lost

    def _recompute(self, local: Callable[[Any], None], task: Any) -> None:
        """In-parent recomputation of a failed task, with a bounded retry
        budget (later attempts count fresh fault-site hits, so a rule
        with a finite ``times`` eventually lets the task through)."""
        obs.counter("parallel.task_retries").inc()
        for attempt in range(TASK_RETRIES + 1):
            try:
                local(task)
                return
            except ReproError:
                if attempt == TASK_RETRIES:
                    raise  # retry budget exhausted: surface the failure


def run_parallel(
    spec: StencilSpec,
    grid: Grid,
    steps: int,
    *,
    parts: Optional[int] = None,
    workers: int = 4,
    boundary: str = "periodic",
    value: float = 0.0,
    backend: str = "thread",
    temporal_block: int = 1,
    recipe: Optional["KernelRecipe"] = None,
) -> Grid:
    """``steps`` parallel Jacobi sweeps; returns a new grid.

    ``parts`` outer-axis slabs (default :func:`default_parts`) run over
    at most ``workers`` workers of the ``backend`` pool, in place or as
    shipped windows (see the module docstring).  ``temporal_block=s``
    advances each window ``s`` sub-steps per barrier on a ``radius*s``
    deep halo.  ``recipe`` (a :class:`~repro.shard.worker.KernelRecipe`)
    sweeps each window through the compiled vector pipeline instead of
    the reference tap order; ``temporal_block`` and ``steps`` must then
    be multiples of its fused depth.  Interiors are bitwise identical
    across parts, workers, blocks and backends, and every recovery path
    of the :class:`SupervisedPool` is bitwise identical to a clean run.
    """
    from ..shard import exchange, worker
    from ..shard.plan import make_shard_plan

    if steps < 0:
        raise TilingError("steps must be non-negative")
    if workers < 1:
        raise TilingError("workers must be >= 1")
    if backend not in BACKENDS:
        raise TilingError(
            f"unknown executor backend {backend!r}; known: {BACKENDS}")
    if parts is None:
        parts = default_parts(grid.shape, workers)
    plan = make_shard_plan(spec, grid.shape, shards=parts,
                           temporal_block=temporal_block, boundary=boundary)
    if recipe is not None:
        tf = recipe.time_fusion
        if spec.ndim < 2:
            raise TilingError(
                "the program engine partitions the outer axis of a >= 2-D "
                "kernel; 1-D kernels run on the reference engine only")
        if temporal_block % tf or steps % tf:
            raise TilingError(
                f"temporal_block={temporal_block} and steps={steps} must be "
                f"multiples of the plan's fused depth {tf}")
        if tf > 1 and boundary != "periodic":
            raise TilingError(
                "temporally merged programs are exact only with periodic "
                "boundaries; use time_fusion=1 for dirichlet runs")
    if steps == 0:
        return grid.copy()
    cur = grid.copy()
    nxt = grid.like()
    in_place = backend == "thread" and temporal_block == 1 and recipe is None
    # process tasks consume the sites their sweep would hit in the parent
    sites = ("pool.task_start",) + (("tile.sweep",) if recipe is None
                                    else ())
    with SupervisedPool(backend, min(workers, parts), sites=sites) as pool:
        if in_place:
            inner = tuple(grid.shape[1:])
            tiles = [Tile((s.start,) + (0,) * len(inner), (s.stop,) + inner)
                     for s in plan.slabs]
            for _ in range(steps):
                fill_halo(cur, boundary, value=value)
                pool.barrier(
                    tiles, lambda tile: apply_tile(spec, cur, nxt, tile))
                cur, nxt = nxt, cur
            return cur

        def land(task, slab: np.ndarray) -> None:
            exchange.scatter_slab(nxt, task[0].bounds, slab)

        def local(task) -> None:
            land(task, worker.run_shard_task(spec, task))

        remote = partial(worker.run_shard_task, spec)
        inner_points = math.prod(grid.shape[1:])
        for step_idx, s_eff in enumerate(plan.supersteps(steps)):
            # windows carry their own ghosts; the fill keeps the parent's
            # halo the in-place path's, so both return equal grids
            fill_halo(cur, boundary, value=value)
            with obs.span("shard.superstep", step=step_idx,
                          sub_steps=s_eff, shards=parts):
                tasks = []
                for i in range(parts):
                    b = plan.bounds(i, s_eff)
                    with obs.span("shard.exchange", shard=i):
                        window = exchange.gather_window(cur, plan, b)
                    tasks.append((worker.ShardJob(
                        bounds=b, s_eff=s_eff, boundary=boundary,
                        value=value, recipe=recipe), window))
                pool.barrier(tasks, local, remote, land)
            if obs.enabled():
                obs.counter("shard.supersteps").inc()
                obs.counter("shard.exchange_bytes").inc(
                    plan.exchange_rows(s_eff) * inner_points
                    * grid.data.itemsize)
                obs.counter("shard.redundant_points").inc(
                    plan.redundant_rows(s_eff,
                                        full_interior=recipe is not None)
                    * inner_points)
            cur, nxt = nxt, cur
    return cur
