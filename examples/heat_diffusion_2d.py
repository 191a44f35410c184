"""Heat diffusion on a 2-D plate — the workload the paper's Heat-2D
kernel models.

A hot square is placed on a cold plate and diffused with the 2D5P Jacobi
kernel.  The example exercises:

* the Jigsaw kernel on codegen at a realistic size (512 x 512),
* physical sanity (heat conservation under periodic boundaries, peak decay),
* the modelled scheme comparison for this kernel on both paper machines —
  the single-kernel slice of Figure 9.

Run:  python examples/heat_diffusion_2d.py
"""

import time

import numpy as np

from repro.analysis.report import render_table
from repro.config import PAPER_MACHINES
from repro.core import compile_kernel
from repro.machine.perfmodel import PerformanceModel
from repro.schemes import LABELS, model_cost
from repro.stencils import library
from repro.stencils.grid import Grid

N = 512
STEPS = 200

spec = library.get("heat-2d")
machine = PAPER_MACHINES[0]

# -- build the initial condition: a hot square on a cold plate -----------------
template = compile_kernel(spec, machine, Grid((N, N), 16), time_fusion=2)
grid = template.grid_like((N, N))
grid.interior[...] = 20.0                      # 20 degrees everywhere
hot = slice(N // 2 - 8, N // 2 + 8)
grid.interior[hot, hot] = 400.0  # the hot square
kernel = compile_kernel(spec, machine, grid, time_fusion=2)

total_before = grid.interior.sum()
t0 = time.perf_counter()
result = kernel.run(grid, STEPS)
elapsed = time.perf_counter() - t0

field = result.interior
print(f"diffused {N}x{N} plate for {STEPS} steps in {elapsed:.3f}s "
      f"({N * N * STEPS / elapsed / 1e6:.1f} MStencil/s on codegen)")
print(f"heat conserved: {total_before:.1f} -> {field.sum():.1f} "
      f"(periodic boundaries)")
print(f"peak temperature decayed: 400.00 -> {field.max():.2f}")
assert np.isclose(total_before, field.sum(), rtol=1e-9)
assert field.max() < 400.0

# -- a coarse temperature map ---------------------------------------------------
print("\ntemperature map (block-averaged):")
blocks = field.reshape(8, N // 8, 8, N // 8).mean(axis=(1, 3))
ramp = " .:-=+*#%@"
lo, hi = blocks.min(), blocks.max()
for row in blocks:
    line = "".join(ramp[int((v - lo) / (hi - lo + 1e-12) * (len(ramp) - 1))]
                   for v in row)
    print("  " + line)

# -- the Figure-9 slice for this kernel ------------------------------------------
print("\nmodelled sequential GStencil/s for heat-2d "
      "(10000^2, 100 steps, no tiling):")
rows = []
for m in PAPER_MACHINES:
    model = PerformanceModel(m)
    row = [m.name]
    for scheme in ("auto", "reorg", "folding", "jigsaw", "t-jigsaw"):
        cost = model_cost(scheme, spec, m)
        row.append(model.estimate(cost, points=10_000**2, steps=100).gstencil_s)
    rows.append(row)
print(render_table(
    ["machine"] + [LABELS[s] for s in ("auto", "reorg", "folding", "jigsaw",
                                       "t-jigsaw")],
    rows,
))
