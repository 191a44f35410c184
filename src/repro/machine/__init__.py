"""The SIMD register-machine substrate.

Python has no register-level control, so the paper's hardware target is
substituted by this package (see DESIGN.md §2): an instruction-set
interpreter with AVX2-faithful shuffle semantics (:mod:`repro.machine.isa`,
:mod:`repro.machine.machine`), per-instruction cost tables mirroring the
paper's Table 1 (:mod:`repro.machine.costs`), a port-pressure/critical-path
pipeline model (:mod:`repro.machine.pipeline`), and a cache-hierarchy
bandwidth model (:mod:`repro.machine.memory`), combined into GStencil/s
estimates by :mod:`repro.machine.perfmodel`.
"""

from .isa import (
    Affine,
    Instr,
    InstrClass,
    MemRef,
    Op,
    classify,
)
from .machine import SimdMachine
from .codegen import CodegenFallback, CodegenProgram, emitted_source, get_codegen
from .trace import TraceCounter, analytic_trace
from .costs import CostTable, cost_table_for
from .pipeline import PipelineModel, PipelineEstimate
from .memory import CacheHierarchyModel, MemoryEstimate
from .perfmodel import PerformanceModel, PerfResult, KernelCost
from .cachesim import (
    CacheHierarchySim,
    CacheLevelSim,
    CacheStats,
    MemoryTraceRecorder,
    simulate_program_cache,
)

__all__ = [
    "Affine",
    "Instr",
    "InstrClass",
    "MemRef",
    "Op",
    "classify",
    "SimdMachine",
    "CodegenFallback",
    "CodegenProgram",
    "analytic_trace",
    "emitted_source",
    "get_codegen",
    "TraceCounter",
    "CostTable",
    "cost_table_for",
    "PipelineModel",
    "PipelineEstimate",
    "CacheHierarchyModel",
    "MemoryEstimate",
    "PerformanceModel",
    "PerfResult",
    "KernelCost",
    "CacheHierarchySim",
    "CacheLevelSim",
    "CacheStats",
    "MemoryTraceRecorder",
    "simulate_program_cache",
]
