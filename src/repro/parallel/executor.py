"""Real shared-memory parallel execution of stencil sweeps.

Runs each phase of a :class:`~repro.tiling.schedule.TileSchedule`
concurrently, with a barrier between phases — the OpenMP structure the
paper's runs use, in Python form.  Jacobi sweeps with distinct in/out
buffers make every tile of a sweep independent, so the default schedule is
a single phase.

Two backends:

* ``"thread"`` (default) — a :class:`~concurrent.futures.ThreadPoolExecutor`
  writing tiles directly into the shared output buffer (numpy ufuncs
  release the GIL, so tiles genuinely overlap);
* ``"process"`` (opt-in) — a
  :class:`~concurrent.futures.ProcessPoolExecutor`: each worker computes
  its tile on a pickled copy of the input grid and returns the tile patch,
  which the parent writes back.  Heavier per-sweep traffic, but immune to
  GIL-bound tile kernels (pure-Python inner work) and a building block for
  multi-node dispatch.

Both backends are bitwise deterministic: a tile's result depends only on
the input grid, never on scheduling, and patches land in disjoint output
slices — so any worker count, and either backend, produces identical
grids from the same inputs (guarded by ``tests/test_parallel.py``).

Both callers of the pool, this tile executor and the shard runner
(:mod:`repro.shard.runner`), dispatch through one :class:`SupervisedPool`:
one barrier of independent tasks at a time, then recovery (see
``docs/architecture.md``).  A thread-backend barrier of one task runs
inline in the caller, and grids below :data:`MIN_TILE_POINTS` per
worker default to fewer tiles, so a small grid never starts a pool.
A task that fails with a :class:`~repro.errors.ReproError` (injected
faults included) is recomputed in the parent, with
:data:`TASK_RETRIES` further attempts if that fails too;
recomputation is idempotent, because :func:`apply_tile` zeroes its
output slice first.  A crashed process pool (``BrokenProcessPool``,
e.g. a killed worker) is restarted up to :data:`POOL_RESTARTS` times
per run with the unfinished tasks resubmitted; past that budget the
parent finishes the run itself, and the next run starts a fresh pool.
Barriers completed before a crash are never redone, so the per-phase
barrier doubles as a recovery checkpoint.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults, obs
from ..errors import ReproError, TilingError
from ..stencils.boundary import fill_halo
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from ..tiling.blocks import Tile
from ..tiling.schedule import TileSchedule, build_schedule

#: executor backends accepted by :func:`run_parallel`.
BACKENDS: Tuple[str, ...] = ("thread", "process")

#: extra in-parent attempts at a failed task after the first recompute
#: (also bounds the shard runner's gather retries)
TASK_RETRIES = 2
#: process-pool restarts per run after a worker loss; past them the
#: parent finishes the run itself
POOL_RESTARTS = 2
#: fewest grid points worth one tile of their own: smaller grids run as
#: one tile, which the thread backend sweeps inline without a pool
MIN_TILE_POINTS = 2 ** 15


def pool_context() -> multiprocessing.context.BaseContext:
    """The pinned multiprocessing context every process pool uses.

    Defaults to ``forkserver`` where available, else ``spawn`` — both are
    spawn-safe: workers start from a fresh interpreter, so nothing leaks
    in by fork (an inherited fault injector, a half-held lock) and tasks
    must be picklable, which is exactly the contract the fault-shipping
    protocol and the shard runner rely on.  ``fork`` made all of that
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


def default_tile(shape: Sequence[int], workers: int) -> Tuple[int, ...]:
    """The default tiling: the outermost axis split into
    ``min(workers, points // MIN_TILE_POINTS)`` slabs (at least one)."""
    points = int(np.prod(shape))
    tiles = max(1, min(workers, points // MIN_TILE_POINTS))
    return (-(-shape[0] // tiles),) + tuple(shape[1:])


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


def _sweep_tile_patch(spec: StencilSpec, grid: Grid, tile: Tile,
                      actions: Tuple[faults.FaultAction, ...]) -> np.ndarray:
    """Process-pool worker: compute one tile's sweep on a private copy of
    the grid and return the dense patch (module-level for picklability)."""
    for action in actions:
        faults.perform_shipped(action)
    out = grid.like()
    apply_tile(spec, grid, out, tile)
    return np.ascontiguousarray(out.data[tile.slices(out.halo)])


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
    consumes, decided in the parent in submission order; ``prefix``
    names the ``{prefix}.task_retries`` / ``{prefix}.pool_restarts``
    counters.

    The executor starts lazily and lives until :meth:`close`; call
    :meth:`reset` at the start of each run to refill the restart budget.
    """

    def __init__(self, backend: str, workers: int, *, prefix: str,
                 sites: Tuple[str, ...] = ("pool.task_start",)) -> None:
        self.backend = backend
        self.workers = workers
        self.sites = sites
        self._retries = f"{prefix}.task_retries"
        self._restarts = f"{prefix}.pool_restarts"
        self._executor = None
        self._restarts_left = POOL_RESTARTS

    def reset(self) -> None:
        """Start a new run with the full restart budget.  A pool the
        previous run gave up on was already dropped, so the next
        submission starts a fresh one without counting a loss."""
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
                remote: Callable, land: Callable[[Any, Any], None]) -> None:
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
                obs.counter(self._restarts).inc()
                obs.counter("parallel.fallback.reason.worker_lost").inc()
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
                self._restarts_left -= 1
            pending = lost

    def _recompute(self, local: Callable[[Any], None], task: Any) -> None:
        """In-parent recomputation of a failed task, with a bounded retry
        budget (later attempts count fresh fault-site hits, so a rule
        with a finite ``times`` eventually lets the task through)."""
        obs.counter(self._retries).inc()
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
    tile_shape: Optional[Sequence[int]] = None,
    workers: int = 4,
    boundary: str = "periodic",
    value: float = 0.0,
    schedule: Optional[TileSchedule] = None,
    backend: str = "thread",
    shards: Optional[int] = None,
    temporal_block: int = 1,
) -> Grid:
    """``steps`` parallel Jacobi sweeps; returns a new grid.

    ``tile_shape`` defaults to :func:`default_tile`: the outermost axis
    split across ``workers``, one tile per :data:`MIN_TILE_POINTS` at
    most.  A custom ``schedule`` overrides the default single-phase
    blocking.  ``backend`` selects the executor (see the
    module docstring); results are bitwise identical across backends and
    worker counts, and every recovery path of the :class:`SupervisedPool`
    is bitwise identical to a clean run.

    ``shards=N`` switches to the halo-exchange shard runner
    (:mod:`repro.shard`): the grid is partitioned into N outer-axis
    slabs, each swept privately with ghost rows exchanged at every
    synchronization point; ``temporal_block=s`` widens the exchanged
    halo to ``radius*s`` so ``s`` sweeps run per exchange.  Interiors
    stay bitwise identical to the unsharded path.
    """
    if steps < 0:
        raise TilingError("steps must be non-negative")
    if shards is None and temporal_block != 1:
        raise TilingError("temporal_block requires shards=N")
    if shards is not None:
        if tile_shape is not None or schedule is not None:
            raise TilingError(
                "shards= is mutually exclusive with tile_shape/schedule "
                "(shards partition the outer axis themselves)"
            )
        from ..shard.runner import run_sharded  # lazy: avoids an import cycle
        return run_sharded(
            spec, grid, steps, shards=shards,
            temporal_block=temporal_block, executor=backend,
            workers=workers, boundary=boundary, value=value,
        )
    if workers < 1:
        raise TilingError("workers must be >= 1")
    if backend not in BACKENDS:
        raise TilingError(
            f"unknown executor backend {backend!r}; known: {BACKENDS}"
        )
    if schedule is None:
        if tile_shape is None:
            tile_shape = default_tile(grid.shape, workers)
        schedule = build_schedule(grid.shape, tile_shape)
    cur = grid.copy()
    nxt = grid.like()

    def local(tile: Tile) -> None:
        apply_tile(spec, cur, nxt, tile)

    def land(tile: Tile, patch: np.ndarray) -> None:
        nxt.data[tile.slices(nxt.halo)] = patch

    with SupervisedPool(backend, workers, prefix="parallel",
                        sites=("pool.task_start", "tile.sweep")) as pool:
        for _ in range(steps):
            fill_halo(cur, boundary, value=value)
            remote = partial(_sweep_tile_patch, spec, cur)
            for phase in schedule.phases:
                # barrier per phase: every tile lands before the next
                # phase starts, and a completed phase is never redone
                pool.barrier(phase, local, remote, land)
            cur, nxt = nxt, cur
    return cur
