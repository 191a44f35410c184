"""Compiled Jigsaw kernels — the user-facing execution object.

A :class:`CompiledKernel` bundles a :class:`~repro.core.planner.JigsawPlan`
with a concrete grid geometry and exposes three things:

* :meth:`run` — cycle-exact execution on the SIMD machine interpreter
  (small grids; this is what the test suite validates against the
  reference);
* :meth:`run_numpy` — a fast numpy path computing the *same algorithm*
  (ITM-fused spec, per-term flatten-then-1D passes), usable at realistic
  problem sizes.  The low-rank structure makes this genuinely cheaper than
  a dense tap-by-tap sweep;
* :meth:`trace` / :meth:`kernel_cost` / :meth:`estimate` — the analytic
  accounting that feeds the paper's tables and figures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .. import obs
from ..config import MachineConfig
from ..errors import VectorizeError
from ..machine.perfmodel import KernelCost, PerformanceModel, PerfResult
from ..machine.trace import TraceCounter
from ..stencils.boundary import fill_halo
from ..stencils.grid import Grid
from ..vectorize.driver import measure_trace, run_program
from ..vectorize.program import VectorProgram
from .planner import JigsawPlan

#: output points per axis-0 row block of :meth:`CompiledKernel.run_numpy`:
#: 2^15 points keep a block's flattened temporaries in L2.  The codegen
#: engine strip-mines by its own bound,
#: :data:`repro.machine.codegen.SLAB_POINTS`, because its de-interleaved
#: layout measures best at a larger slab
NUMPY_SLAB_POINTS = 1 << 15


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
        """Fast numpy execution of the same (fused, flattened) algorithm.

        Each fused sweep fills the halo once, then runs block by block
        over interior rows of axis 0, at most :data:`NUMPY_SLAB_POINTS`
        output points per block, so a block's temporaries stay
        cache-resident.  Each flattened sum starts from its first
        product and each output block from its first ``c * g`` product,
        written straight into the block (no zero fill), so every output
        element sees the same IEEE ops in the same order whatever the
        block size; a 1-D grid (axis 0 is x) is one block."""
        s = self.plan.time_fusion
        if steps % s:
            raise VectorizeError(
                f"steps={steps} not a multiple of fused depth {s}"
            )
        if s > 1 and boundary != "periodic":
            raise VectorizeError(
                "temporally merged kernels are exact only with periodic boundaries"
            )
        terms = self.plan.terms
        rx = max(max(abs(d) for d in t.v) for t in terms)
        cur = grid.copy()
        nxt = grid.like()
        nx = grid.shape[-1]
        n0 = grid.shape[0]
        rows = (n0 if grid.ndim == 1
                else max(1, NUMPY_SLAB_POINTS // math.prod(grid.shape[1:])))
        observing = obs.enabled()
        with obs.span("execute", kernel=self.plan.spec.name,
                      backend="numpy", steps=steps) as espan:
            for _ in range(steps // s):
                t0 = time.perf_counter() if observing else 0.0
                fill_halo(cur, boundary, value=value)
                for k0 in range(0, n0, rows):
                    k1 = min(n0, k0 + rows)
                    out = nxt.interior[k0:k1]
                    seeded = False
                    for term in terms:
                        g = self._flatten_numpy(cur, term, rx, k0, k1)
                        for dx, c in term.v.items():
                            src = g[..., rx + dx:rx + dx + nx]
                            if seeded:
                                np.add(out, c * src, out=out)
                            else:  # the first product seeds the output
                                np.multiply(c, src, out=out)
                                seeded = True
                cur, nxt = nxt, cur
                if observing:
                    obs.counter("exec.sweeps").inc()
                    obs.histogram("exec.sweep_ms").observe(
                        (time.perf_counter() - t0) * 1e3)
            if observing:
                espan.set(engine="numpy")
        return cur

    def _flatten_numpy(self, grid: Grid, term, rx: int, k0: int,
                       k1: int) -> np.ndarray:
        """Algorithm 2's Flattening on numpy views, for interior rows
        ``k0:k1`` of axis 0 (ignored on a 1-D grid, whose axis 0 is x):
        the x axis keeps an ``rx`` margin so the subsequent 1-D pass can
        shift within it."""
        hx = grid.halo[-1]
        nx = grid.shape[-1]
        spans = [(0, n) for n in grid.shape[:-1]]
        if spans:
            spans[0] = (k0, k1)
        g = None
        for outer, c in term.u.items():
            sl = [slice(h + o + a, h + o + b)
                  for (a, b), h, o in zip(spans, grid.halo, outer)]
            sl.append(slice(hx - rx, hx - rx + nx + 2 * rx))
            product = c * grid.data[tuple(sl)]
            if g is None:  # the first product seeds the float64 sum
                g = np.asarray(product, dtype=np.float64)
            else:
                np.add(g, product, out=g)
        return g

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
