"""Cache tiling substrates.

* :mod:`repro.tiling.blocks` — the :class:`~repro.tiling.blocks.Tile`
  box the partitioned executor sweeps, and tile working-set accounting
  (Table 3's blocking sizes) for the cache model;
* :mod:`repro.tiling.tessellate` — tessellating tiling [Yuan et al.
  SC'17], the time-tiling scheme the paper pairs Jigsaw with (§4.4): one
  exact executable engine for any dimension (``2^d`` phases: cores, seam
  bands and their products) with no redundant computation, plus the
  phase/traffic accounting the multicore model uses.
"""

from .blocks import Tile, tile_working_set
from .tessellate import (
    TessellationPlan,
    tessellate_grid,
    tessellate_nd,
    tessellation_plan,
)

__all__ = [
    "Tile",
    "tile_working_set",
    "TessellationPlan",
    "tessellate_grid",
    "tessellate_nd",
    "tessellation_plan",
]
