"""Compiled Jigsaw kernels — the user-facing execution object.

A :class:`CompiledKernel` bundles a :class:`~repro.core.planner.JigsawPlan`
with a concrete grid geometry and exposes two things:

* :meth:`run` — execution of the lowered program on the SIMD machine:
  emitted-source codegen (:mod:`repro.machine.codegen`) at realistic
  problem sizes, bitwise equal to the cycle-exact interpreter it falls
  back to (:meth:`run_numpy` is an alias of the codegen backend);
* :meth:`trace` / :meth:`kernel_cost` / :meth:`estimate` — the analytic
  accounting that feeds the paper's tables and figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..config import MachineConfig
from ..errors import VectorizeError
from ..machine.perfmodel import KernelCost, PerformanceModel, PerfResult
from ..machine.trace import TraceCounter
from ..stencils.grid import Grid
from ..vectorize.driver import measure_trace, run_program
from ..vectorize.program import VectorProgram
from .planner import JigsawPlan


@dataclass
class CompiledKernel:
    plan: JigsawPlan
    machine: MachineConfig
    grid: Grid  #: geometry template (shape + halo) programs are bound to
    #: optional :class:`~repro.core.cache.KernelCache` the lowering is
    #: memoized through (kernels from ``jigsaw.compile`` share the process
    #: default cache)
    cache: Optional[object] = None
    #: SIMD-machine execution backend for :meth:`run` / :meth:`trace`
    #: (one of :data:`repro.vectorize.driver.EXEC_BACKENDS`); defaults to
    #: the plan's preference (normally ``"auto"`` = emitted-source
    #: codegen with automatic interpreter fallback)
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        self._program: Optional[VectorProgram] = None

    # -- lowering ----------------------------------------------------------------
    @property
    def program(self) -> VectorProgram:
        if self._program is None:
            if self.cache is not None:
                self._program = self.cache.program(self.plan, self.grid)
            else:
                self._program = self.plan.lower().bind(self.grid)
        return self._program

    def halo(self) -> tuple:
        return self.plan.halo

    def grid_like(self, shape, *, seed: Optional[int] = None) -> Grid:
        """A grid with the halo this kernel needs."""
        if seed is None:
            return Grid(shape, self.halo())
        return Grid.random(shape, self.halo(), seed=seed)

    def exec_backend(self) -> str:
        """The resolved SIMD-machine backend: the kernel's own override,
        else the plan's preference, else ``"auto"``."""
        if self.backend is not None:
            return self.backend
        return getattr(self.plan, "backend", None) or "auto"

    # -- execution ----------------------------------------------------------------
    def run(self, grid: Grid, steps: int, *, boundary: str = "periodic",
            value: float = 0.0, backend: Optional[str] = None) -> Grid:
        """Cycle-exact execution on the SIMD machine (emitted-source
        codegen by default, with automatic interpreter fallback — both
        produce bitwise-identical grids)."""
        self._check_grid(grid)
        return run_program(self.program, grid, steps, boundary=boundary,
                           value=value,
                           backend=backend or self.exec_backend())

    def run_sharded(self, grid: Grid, steps: int, *,
                    shards: int,
                    temporal_block: Optional[int] = None,
                    executor: str = "process",
                    boundary: str = "periodic", value: float = 0.0,
                    backend: Optional[str] = None,
                    workers: Optional[int] = None) -> Grid:
        """Sharded execution: the outer axis is partitioned into ``shards``
        slabs, each advanced by this kernel's compiled pipeline in its own
        worker, with deep-halo exchange every ``temporal_block`` sub-steps
        (default: the plan's fused depth, i.e. one exchange per fused
        sweep).  Bitwise identical to :meth:`run` on the interior."""
        from ..shard.runner import run_sharded
        from ..shard.worker import KernelRecipe
        if grid.shape != self.grid.shape:
            raise VectorizeError(
                f"grid shape {grid.shape} does not match the compiled "
                f"shape {self.grid.shape}")
        recipe = KernelRecipe(
            spec=self.plan.spec, machine=self.machine,
            time_fusion=self.plan.time_fusion, use_sdf=self.plan.use_sdf,
            exec_backend=backend or self.exec_backend())
        return run_sharded(
            self.plan.spec, grid, steps, shards=shards,
            temporal_block=(temporal_block if temporal_block is not None
                            else self.plan.time_fusion),
            executor=executor, workers=workers, boundary=boundary,
            value=value, recipe=recipe)

    def run_numpy(self, grid: Grid, steps: int, *, boundary: str = "periodic",
                  value: float = 0.0) -> Grid:
        """An alias of :meth:`run` on the codegen backend, kept for
        callers of this name (``perfbench/sweep.py``).  Codegen runs the
        same fused, flattened program faster than a separate numpy
        engine did, and bitwise equal to the interpreter."""
        return self.run(grid, steps, boundary=boundary, value=value,
                        backend="codegen")

    # -- accounting ----------------------------------------------------------------
    def trace(self, grid: Optional[Grid] = None) -> TraceCounter:
        g = grid if grid is not None else self.grid
        self._check_grid(g)
        return measure_trace(self.program, g, backend=self.exec_backend())

    def per_vector_mix(self) -> Dict[str, float]:
        return self.program.per_vector_mix()

    def kernel_cost(self) -> KernelCost:
        return PerformanceModel(self.machine).kernel_cost(self.program)

    def estimate(self, *, points: int, steps: int, **kwargs) -> PerfResult:
        model = PerformanceModel(self.machine)
        return model.estimate(self.kernel_cost(), points=points, steps=steps,
                              **kwargs)

    # -- internals ----------------------------------------------------------------
    def _check_grid(self, grid: Grid) -> None:
        if grid.shape != self.grid.shape or grid.halo != self.grid.halo:
            raise VectorizeError(
                f"grid geometry {grid.shape}/{grid.halo} does not match the "
                f"compiled geometry {self.grid.shape}/{self.grid.halo}"
            )
