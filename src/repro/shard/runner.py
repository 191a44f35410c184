"""The shard runner: superstep loop, dispatch, checkpoint/restart.

:class:`ShardRunner` owns a persistent
:class:`~repro.parallel.executor.SupervisedPool` (thread or pinned
spawn-safe process backend) and drives the deep-halo schedule: per
superstep it gathers every shard's padded window from the authoritative
grid (:mod:`repro.shard.exchange`), runs the windows as one pool barrier
through :func:`~repro.shard.worker.run_shard_task`, scatters the returned
slabs into the output buffer, and swaps.  The swap is the synchronization
barrier *and* the recovery checkpoint, the role the phase barrier plays
for :func:`~repro.parallel.executor.run_parallel`'s tiles.  The pool's
recovery covers the tasks (in-parent recompute from the same private
window, pool restarts with the unfinished shards resubmitted, then
degrade-to-parent; counted under ``shard.*``); the runner itself retries
a faulted *gather* (``shard.exchange``) against the authoritative grid,
which the superstep never mutates, up to
:data:`~repro.parallel.executor.TASK_RETRIES` times.

Every recovery path replays the same arithmetic on the same inputs, so
faulted runs stay bitwise identical to clean ones — the property
``repro chaos`` gates.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from .. import faults, obs
from ..errors import TilingError
from ..parallel import executor as pool_mod
from ..parallel.executor import BACKENDS, SupervisedPool
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from .exchange import gather_window, scatter_slab, window_bytes
from .plan import ShardBounds, ShardPlan, make_shard_plan
from .worker import KernelRecipe, ShardJob, run_shard_task


class ShardRunner:
    """Reusable sharded executor for one ``(spec, shards, s)`` setup.

    Construct once, call :meth:`run` many times: the worker pool (and,
    for the program engine, each worker's compiled local program)
    persists across runs, so repeated sweeps pay the pool spin-up and
    per-window compilation once.  Each run gets the full
    :data:`~repro.parallel.executor.POOL_RESTARTS` budget, and a pool a
    degraded run gave up on is replaced without counting a loss.  Use as
    a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        spec: StencilSpec,
        *,
        shards: int,
        temporal_block: int = 1,
        executor: str = "thread",
        workers: Optional[int] = None,
        recipe: Optional[KernelRecipe] = None,
        exec_backend: str = "auto",
    ) -> None:
        if shards < 1:
            raise TilingError("shards must be >= 1")
        if temporal_block < 1:
            raise TilingError("temporal_block must be >= 1")
        if executor not in BACKENDS:
            raise TilingError(
                f"unknown executor backend {executor!r}; known: {BACKENDS}")
        if workers is not None and workers < 1:
            raise TilingError("workers must be >= 1")
        if recipe is not None:
            if spec.ndim < 2:
                raise TilingError(
                    "the program engine shards the outer axis of a >= 2-D "
                    "kernel; 1-D kernels shard on the reference engine only")
            if temporal_block % recipe.time_fusion:
                raise TilingError(
                    f"temporal_block={temporal_block} must be a multiple of "
                    f"the plan's fused depth {recipe.time_fusion}")
        self.spec = spec
        self.shards = shards
        self.temporal_block = temporal_block
        self.executor = executor
        self.workers = min(shards, workers) if workers else shards
        self.recipe = recipe
        self.exec_backend = exec_backend
        self._pool = SupervisedPool(executor, self.workers, prefix="shard")

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "ShardRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution -----------------------------------------------------------
    def run(self, grid: Grid, steps: int, *, boundary: str = "periodic",
            value: float = 0.0) -> Grid:
        """``steps`` sweeps of the sharded schedule; returns a new grid
        whose interior is bitwise identical to the unsharded engine's."""
        if steps < 0:
            raise TilingError("steps must be non-negative")
        tf = self.recipe.time_fusion if self.recipe is not None else 1
        if steps % tf:
            raise TilingError(
                f"steps={steps} not a multiple of the fused depth {tf}")
        if tf > 1 and boundary != "periodic":
            raise TilingError(
                "temporally merged programs are exact only with periodic "
                "boundaries; use time_fusion=1 for dirichlet shards")
        plan = make_shard_plan(self.spec, grid.shape, shards=self.shards,
                               temporal_block=self.temporal_block,
                               boundary=boundary)
        if steps == 0:
            return grid.copy()
        inner_points = 1
        for n in grid.shape[1:]:
            inner_points *= n
        observing = obs.enabled()
        cur = grid.copy()
        nxt = grid.like()

        def land(task: Tuple[ShardJob, np.ndarray], slab: np.ndarray) -> None:
            scatter_slab(nxt, bounds[task[0].index], slab)

        def local(task: Tuple[ShardJob, np.ndarray]) -> None:
            land(task, run_shard_task(self.spec, task))

        remote = partial(run_shard_task, self.spec)
        self._pool.reset()
        for step_idx, s_eff in enumerate(plan.supersteps(steps)):
            with obs.span("shard.superstep", step=step_idx,
                          sub_steps=s_eff, shards=plan.shards):
                bounds = [plan.bounds(i, s_eff) for i in range(plan.shards)]
                tasks = self._gather_all(cur, plan, bounds, s_eff,
                                         boundary=boundary, value=value)
                self._pool.barrier(tasks, local, remote, land)
            if observing:
                obs.counter("shard.supersteps").inc()
                obs.counter("shard.redundant_points").inc(
                    plan.redundant_rows(
                        s_eff, full_interior=self.recipe is not None)
                    * inner_points)
            cur, nxt = nxt, cur
        return cur

    # -- exchange ------------------------------------------------------------
    def _gather_all(self, cur: Grid, plan: ShardPlan,
                    bounds: List[ShardBounds], s_eff: int, *,
                    boundary: str, value: float
                    ) -> List[Tuple[ShardJob, np.ndarray]]:
        tasks = []
        for i, b in enumerate(bounds):
            job = ShardJob(index=i, s_eff=s_eff,
                           lo_pad=b.lo_pad, hi_pad=b.hi_pad,
                           lo_edge=b.lo_edge, hi_edge=b.hi_edge,
                           boundary=boundary, value=value,
                           recipe=self.recipe,
                           exec_backend=self.exec_backend)
            tasks.append((job, self._gather(cur, plan, b)))
        return tasks

    def _gather(self, cur: Grid, plan: ShardPlan,
                b: ShardBounds) -> np.ndarray:
        """One window gather with a bounded retry against the (immutable
        within the superstep) authoritative grid."""
        last: Optional[faults.FaultInjected] = None
        for _ in range(pool_mod.TASK_RETRIES + 1):
            try:
                with obs.span("shard.exchange", shard=b.slab.index):
                    payload = gather_window(cur, plan, b)
            except faults.FaultInjected as exc:
                last = exc
                obs.counter("shard.exchange_retries").inc()
                continue
            if obs.enabled():
                obs.counter("shard.exchange_bytes").inc(
                    window_bytes(b, cur))
            return payload
        raise last


def run_sharded(
    spec: StencilSpec,
    grid: Grid,
    steps: int,
    *,
    shards: int,
    temporal_block: int = 1,
    executor: str = "thread",
    workers: Optional[int] = None,
    boundary: str = "periodic",
    value: float = 0.0,
    recipe: Optional[KernelRecipe] = None,
    exec_backend: str = "auto",
) -> Grid:
    """One-shot convenience wrapper: build a :class:`ShardRunner`, run,
    tear the pool down.  For repeated runs hold a runner instead."""
    with ShardRunner(spec, shards=shards, temporal_block=temporal_block,
                     executor=executor, workers=workers, recipe=recipe,
                     exec_backend=exec_backend) as runner:
        return runner.run(grid, steps, boundary=boundary, value=value)
