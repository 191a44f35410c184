"""Window sweep workers (module-level, picklable, spawn-safe).

A worker receives one part's window — the slab plus ``r0*s`` gathered
context rows per side — and advances it ``s`` sub-steps without talking
to anyone, then returns exactly the slab rows.  Two engines:

* **reference** — :func:`~repro.parallel.executor.apply_tile` over a
  collar that shrinks one radius per sub-step
  (:meth:`~repro.shard.plan.ShardBounds.margins`), so the result is
  *bitwise* what the serial reference produces for those rows;
* **program** — the compiled vector pipeline: a local program is lowered
  for the window's geometry (memoized per worker process) and driven by
  :func:`~repro.vectorize.driver.run_program` with its full
  codegen → interp degradation ladder.  The local boundary fill
  writes garbage into neighbor-fed ghosts, but garbage creeps inward at
  one fused radius per sweep and the pad is sized to absorb exactly
  ``s`` sub-steps of creep, so the slab stays bitwise exact.

Shipped ``actions`` are faults the parent decided at submission time
(workers cannot see the parent's injector; see
:mod:`repro.faults.injector`) — replayed first, before any array is
touched, so a faulted task is all-or-nothing and recomputation is
idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .. import faults
from ..config import MachineConfig
from ..parallel.executor import apply_tile
from ..stencils.boundary import fill_halo
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from ..tiling.blocks import Tile
from .plan import ShardBounds


@dataclass(frozen=True)
class KernelRecipe:
    """Everything a worker needs to rebuild the compiled pipeline for its
    own window geometry (hashable: keys the per-process program memo)."""

    spec: StencilSpec
    machine: MachineConfig
    time_fusion: int               #: resolved ITM depth (an int, not "auto")
    use_sdf: bool
    exec_backend: str              #: SIMD-machine backend of the sweep


@dataclass(frozen=True)
class ShardJob:
    """One window task (picklable; the window rides separately)."""

    bounds: ShardBounds            #: the part's slab and gathered pads
    s_eff: int                     #: sub-steps this barrier advances
    boundary: str
    value: float
    recipe: Optional[KernelRecipe] = None  #: None = reference engine


def _machine_dtype(machine: MachineConfig):
    return np.float32 if machine.element_bytes == 4 else np.float64


@lru_cache(maxsize=64)
def _local_program(recipe: KernelRecipe, shape: Tuple[int, ...]):
    """The compiled vector program for one window geometry, plus the halo
    it binds.  Planning is deterministic, so every worker process lowers
    the same program the parent would."""
    from ..core.jigsaw import generate_jigsaw, required_halo
    from ..core.planner import plan as make_plan
    p = make_plan(recipe.spec, recipe.machine,
                  time_fusion=recipe.time_fusion, use_sdf=recipe.use_sdf)
    halo = required_halo(recipe.spec, recipe.machine,
                         time_fusion=p.time_fusion)
    grid = Grid(shape, halo, dtype=_machine_dtype(recipe.machine))
    program = generate_jigsaw(recipe.spec, recipe.machine, grid,
                              time_fusion=p.time_fusion, terms=p.terms,
                              scheme=p.scheme)
    return program, halo


def _collar_sweep(spec: StencilSpec, job: ShardJob, cur: Grid) -> Grid:
    """``s_eff`` reference sub-steps, each over the rows later sub-steps
    still need."""
    b = job.bounds
    inner = tuple(cur.shape[1:])
    nxt = cur.like()
    for k in range(1, job.s_eff + 1):
        # the halo fill serves double duty: inner-axis ghosts are exact
        # (full rows travel with the window), and the outer-axis ghost is
        # the dirichlet constant on domain-edge sides — neighbor-fed
        # sides never read theirs (the collar keeps reads off it)
        fill_halo(cur, job.boundary, value=job.value)
        m_lo, m_hi = b.margins(spec.radius[0], k, job.s_eff)
        apply_tile(spec, cur, nxt, Tile((m_lo,) + (0,) * len(inner),
                                        (b.extent - m_hi,) + inner))
        cur, nxt = nxt, cur
    return cur


def run_shard_task(spec: StencilSpec, task: Tuple[ShardJob, np.ndarray],
                   actions: Tuple[faults.FaultAction, ...] = ()
                   ) -> np.ndarray:
    """Pool entry point: replay shipped faults, sweep one ``(job,
    window)`` task, return the slab."""
    job, payload = task
    for action in actions:
        faults.perform_shipped(action)
    if job.recipe is None:
        out = _collar_sweep(spec, job, Grid.from_array(payload, spec.radius))
    else:
        from ..vectorize.driver import run_program
        program, halo = _local_program(job.recipe, payload.shape)
        out = run_program(program, Grid.from_array(payload, halo), job.s_eff,
                          boundary=job.boundary, value=job.value,
                          backend=job.recipe.exec_backend)
    lo = job.bounds.lo_pad
    return np.ascontiguousarray(out.interior[lo:lo + job.bounds.slab.rows])
