"""Quickstart: compile and run a Jigsaw stencil kernel.

Shows the full public API surface in ~40 lines:

1. pick a machine model and a kernel,
2. compile it (the planner chooses ITM depth and the SDF decomposition),
3. run it — cycle-exact on the SIMD-machine interpreter and fast as
   emitted numpy source (codegen) — and check both against the dense
   reference,
4. read the analytic accounting: per-vector instruction mix (the paper's
   Table-2 currency) and the modelled GStencil/s.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.config import AMD_EPYC_7V13
from repro.core import compile_kernel
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid

machine = AMD_EPYC_7V13
spec = library.get("box-2d9p")
print(f"kernel: {spec.name} ({spec.tag}), machine: {machine.name}")

# compile: geometry template first, then bind the real grid
shape = (64, 64)
template = compile_kernel(spec, machine, Grid(shape, 16))
grid = template.grid_like(shape, seed=42)
kernel = compile_kernel(spec, machine, grid)
print(f"plan:   {kernel.plan.describe()}")

steps = 2 * kernel.plan.time_fusion

# 1) cycle-exact execution on the SIMD register-machine interpreter
simulated = kernel.run(grid, steps, backend="interp")
# 2) the same program as emitted straight-line numpy source (codegen)
fast = kernel.run(grid, steps)
# 3) ground truth
reference = apply_steps(spec, grid, steps)

assert np.allclose(simulated.interior, reference.interior, rtol=1e-12)
assert np.array_equal(fast.data, simulated.data)
print(f"correct: interpreter and codegen match the reference "
      f"(and each other, bitwise) over {steps} steps")

# analytic accounting
mix = kernel.per_vector_mix()
print("\nper-vector instruction mix (loads/stores/cross-lane/in-lane/arith):")
print("  " + "  ".join(f"{k}={v:.2f}" for k, v in mix.items()))

est = kernel.estimate(points=10_000 * 10_000, steps=100)
print(f"\nmodelled single-core performance at 10000^2 x 100 steps:")
print(f"  {est.gstencil_s:.2f} GStencil/s ({est.bottleneck}-bound, "
      f"fed from {est.level})")
