"""``run_sharded``: the sharded-execution entry point.

The executor itself is :func:`repro.parallel.executor.run_parallel`; a
shard is one of its outer-axis parts.
"""

from __future__ import annotations

from typing import Optional

from ..parallel import executor as _executor
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec


def run_sharded(spec: StencilSpec, grid: Grid, steps: int, *, shards: int,
                executor: str = "thread", workers: Optional[int] = None,
                **kwargs) -> Grid:
    """:func:`~repro.parallel.executor.run_parallel` with ``parts=shards``
    on the ``executor`` backend, one worker per shard unless ``workers``
    caps them.  Kept because ``CompiledKernel.run_sharded``, the
    benchmarks and their tracer call it by this name; it adds no
    behavior."""
    return _executor.run_parallel(spec, grid, steps, parts=shards,
                                  backend=executor,
                                  workers=shards if workers is None
                                  else workers, **kwargs)
