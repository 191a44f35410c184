"""3-D volume smoothing with the Box-3D27P kernel, in parallel.

Box stencils are the workhorse of seismic velocity-model smoothing and
volumetric image filtering (the paper's intro motivates exactly these
high-point-count kernels).  This example:

* smooths a noisy 3-D volume with the separable 27-point box filter,
* runs it on the real shared-memory thread-pool executor (tiles +
  barrier phases — the OpenMP structure of §4.4),
* shows why SDF loves this kernel: rank-1 separability collapses the
  27-tap gather into one flatten + one 3-tap pass,
* prints the modelled multicore scaling — the Box-3D27P slice of
  Figure 11.

Run:  python examples/seismic_smoothing_3d.py
"""

import time

import numpy as np

from repro.analysis.report import render_series
from repro.config import AMD_EPYC_7V13
from repro.core import compile_kernel
from repro.core.sdf import structured_terms
from repro.parallel.executor import run_parallel
from repro.parallel.simulator import MulticoreModel, ParallelSetup
from repro.schemes import model_cost
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid
from repro.stencils.library import table3_config

N = 64
STEPS = 4
WORKERS = 4

spec = library.get("box-3d27p")
machine = AMD_EPYC_7V13

# -- a noisy layered "velocity model" -----------------------------------------
rng = np.random.default_rng(7)
grid = Grid((N, N, N), spec.radius)
depth = np.linspace(1500.0, 4500.0, N)[:, None, None]  # velocity gradient
grid.interior[...] = depth + rng.normal(0.0, 300.0, size=(N, N, N))
noisy_std = grid.interior.std(axis=(1, 2)).mean()

t0 = time.perf_counter()
smoothed = run_parallel(spec, grid, STEPS, workers=WORKERS, parts=WORKERS)
elapsed = time.perf_counter() - t0
smooth_std = smoothed.interior.std(axis=(1, 2)).mean()

ref = apply_steps(spec, grid, STEPS)
assert np.allclose(smoothed.interior, ref.interior, rtol=1e-12)
print(f"smoothed {N}^3 volume x {STEPS} sweeps on {WORKERS} threads "
      f"in {elapsed:.3f}s ({N**3 * STEPS / elapsed / 1e6:.1f} MStencil/s)")
print(f"per-layer noise std: {noisy_std:.1f} -> {smooth_std:.1f} m/s")

# -- why SDF loves this kernel ---------------------------------------------------
terms = structured_terms(spec)
print(f"\nSDF decomposition of {spec.tag}: {len(terms)} rank-1 term(s)")
for i, t in enumerate(terms):
    print(f"  term {i}: {t.rows} rows x {t.taps} x-taps "
          f"(27 dense taps collapse to {t.rows} FMAs + a 1-D pass)")

# -- the Figure-11 slice ------------------------------------------------------------
cfg = table3_config("box-3d27p")
model = MulticoreModel(machine)
cost = model_cost("jigsaw", spec, machine)
cores = [1, 2, 4, 8, 16, 24]
curve = model.scaling_curve(
    cost, spec, points=cfg.grid_points(), steps=cfg.time_steps,
    core_counts=cores,
    setup=ParallelSetup(tile_shape=cfg.tile_shape,
                        time_depth=cfg.time_depth),
)
print("\nmodelled Box-3D27P scalability on " + machine.name +
      " (Table-3 config):")
print(render_series("cores", cores,
                    {"jigsaw GStencil/s": [r.gstencil_s for r in curve]}))
print("note the 3-D roll-off at high core counts — the §4.5 bandwidth wall")
