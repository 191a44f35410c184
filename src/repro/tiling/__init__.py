"""Cache tiling substrates.

* :mod:`repro.tiling.blocks` — hyper-rectangular spatial blocking
  (Table 3's blocking sizes) with working-set accounting for the cache
  model;
* :mod:`repro.tiling.tessellate` — tessellating tiling [Yuan et al.
  SC'17], the time-tiling scheme the paper pairs Jigsaw with (§4.4): exact
  executable 1-D (two phases: triangles + inverted triangles) and 2-D
  (four phases: cores, seam wedges, corners) implementations with no
  redundant computation, plus the phase/traffic accounting used for N-D
  cost modelling.
"""

from .blocks import BlockPartition, Tile, partition, tile_working_set
from .tessellate import (
    TessellationPlan,
    tessellate_1d,
    tessellate_2d,
    tessellate_grid,
    tessellate_nd,
    tessellation_plan,
)

__all__ = [
    "BlockPartition",
    "Tile",
    "partition",
    "tile_working_set",
    "TessellationPlan",
    "tessellate_1d",
    "tessellate_2d",
    "tessellate_grid",
    "tessellate_nd",
    "tessellation_plan",
]
