"""The halo-exchange protocol: gather windows, scatter slabs.

The parent holds the authoritative grid at every barrier, so an
"exchange" is parent-mediated: :func:`gather_window` cuts one part's
window — its slab plus ``r0*s`` context rows per side — out of the
authoritative interior (wrapping around the domain under periodic
boundaries, clipping to it under dirichlet), and :func:`scatter_slab`
writes the returned slab back.  Because the parent never hands out live
views of rows another part writes, parts cannot race, and because the
authoritative grid survives the barrier, any failed or killed task can
be recomputed bitwise identically from its window — the checkpoint that
backs the restart story in :mod:`repro.parallel.executor`.
"""

from __future__ import annotations

import numpy as np

from ..stencils.grid import Grid
from .plan import ShardBounds, ShardPlan


def gather_window(grid: Grid, plan: ShardPlan,
                  bounds: ShardBounds) -> np.ndarray:
    """One part's window, copied out of the authoritative interior (full
    inner-axis rows; the outer axis spans the padded window).  The copy
    *is* the exchange message: workers never alias the parent's
    buffers."""
    interior = grid.interior
    lo = bounds.slab.start - bounds.lo_pad
    hi = bounds.slab.stop + bounds.hi_pad
    if plan.boundary == "periodic" and (lo < 0 or hi > plan.extent):
        idx = np.arange(lo, hi) % plan.extent
        return interior[idx]  # fancy indexing copies
    return np.array(interior[lo:hi], copy=True, order="C")


def scatter_slab(grid: Grid, bounds: ShardBounds,
                 patch: np.ndarray) -> None:
    """Land one part's computed slab in the authoritative output grid
    (disjoint slices per part, so scatter order cannot matter)."""
    grid.interior[bounds.slab.start:bounds.slab.stop] = patch
