"""Autotuning the blocking parameters — how Table 3's numbers arise.

The paper "fine-tuned the size and blocking of each stencil kernel based
on relevant work to guarantee peak performance" (§4.1).  This example
reruns that process with the analytic model: for each Table-3 kernel,
``repro.experiments.table3`` searches spatial tiles and tessellation
time depths, and the best blocking is printed beside the paper's.

Also places the kernel on the machine's roofline, showing *why* the search
prefers deep time tiles: the kernel sits far left of the ridge point, and
only temporal reuse moves it right.

Run:  python examples/autotune_blocking.py
"""

from repro.analysis.report import render_table
from repro.analysis.roofline import roofline_table
from repro.experiments import table3
from repro.stencils import library

machine = table3.MACHINE

print(f"Table-3 blockings: the paper's beside the model's best on "
      f"{machine.name}\n")
print(table3.run())

# -- roofline: why deep time tiles win --------------------------------------------
spec = library.get("heat-2d")
print(f"\nroofline placement of heat-2d schemes on {machine.name} "
      f"(one core):")
pts = roofline_table(spec, machine)
table = [
    [p.scheme, f"{p.intensity:.2f}", f"{p.achieved_gflops:.1f}",
     f"{p.bandwidth_ceiling_gflops['DRAM']:.1f}",
     f"{p.compute_ceiling_gflops:.1f}"]
    for p in pts
]
print(render_table(
    ["scheme", "FLOP/byte", "achieved GF/s", "DRAM ceiling", "peak GF/s"],
    table,
))
print("\nevery scheme's DRAM ceiling sits far below the compute peak — "
      "stencils live left of the ridge point, so the search reaches for "
      "temporal reuse (ITM + deep tessellation) before anything else.")
