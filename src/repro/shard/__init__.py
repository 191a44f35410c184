"""Sharded execution: outer-axis windows with halo exchange and
temporal blocking.

A shard is one outer-axis part of the partitioned executor
(:func:`repro.parallel.executor.run_parallel`).  This package holds what
a part needs when it is shipped as a window instead of swept in place:
the geometry (:mod:`~repro.shard.plan` — slabs, ``radius * s`` deep
halos, supersteps), the exchange (:mod:`~repro.shard.exchange` — gather
a window, scatter a slab) and the window workers
(:mod:`~repro.shard.worker` — the reference tap order over a shrinking
collar, or the compiled codegen/interp pipeline).  Temporal blocking
widens the exchanged halo so ``s`` sweeps run per exchange, amortizing
synchronization at the cost of redundant ghost-row recomputation the
executor meters.

Entry points: ``run_parallel(..., parts=N, temporal_block=s)``,
:func:`run_sharded` (the same call with ``shards=N``),
:meth:`repro.core.kernel.CompiledKernel.run_sharded` and
``repro run --shards N --temporal-block s``.
"""

from .exchange import gather_window, scatter_slab
from .plan import ShardPlan, make_shard_plan
from .runner import run_sharded
from .worker import KernelRecipe, ShardJob

__all__ = [
    "KernelRecipe",
    "ShardJob",
    "ShardPlan",
    "gather_window",
    "make_shard_plan",
    "run_sharded",
    "scatter_slab",
]
