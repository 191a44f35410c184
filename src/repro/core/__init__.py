"""Jigsaw's core: Lane-based Butterfly Vectorization (LBV), SVD-based
Dimension Flattening (SDF), and Iteration-based Temporal Merging (ITM),
composed by the planner into compiled kernels.

Public entry point::

    from repro.core import jigsaw
    kernel = jigsaw.compile(spec, machine, grid, time_fusion=2)
    result = kernel.run(grid, steps=100)
"""

from .lbv import generate_lbv
from .sdf import Rank1Term, flatten_terms, matricize, reconstruct
from .itm import merged_spec, fusable
from .planner import JigsawPlan, plan
from .jigsaw import (
    JigsawTemplate,
    compile as compile_kernel,
    generate_jigsaw,
    lower_jigsaw,
)
from .kernel import CompiledKernel
from .cache import (
    CacheStats,
    KernelCache,
    default_cache,
)

__all__ = [
    "generate_lbv",
    "Rank1Term",
    "flatten_terms",
    "matricize",
    "reconstruct",
    "merged_spec",
    "fusable",
    "JigsawPlan",
    "plan",
    "compile_kernel",
    "generate_jigsaw",
    "lower_jigsaw",
    "JigsawTemplate",
    "CompiledKernel",
    "CacheStats",
    "KernelCache",
    "default_cache",
]
