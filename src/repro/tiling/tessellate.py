"""Tessellating tiling [Yuan et al., SC'17] — the cache/time tiling the
paper composes Jigsaw with (§4.4).

The scheme covers the space-time iteration prism with two *phases* of
congruent tiles per dimension (triangles and inverted triangles in 1-D;
``2^d`` phases in d-D).  Tiles within one phase are dependence-free, so a
phase is embarrassingly parallel; the grid is read once per ``Tb`` fused
time steps instead of once per step, which is the traffic reduction the
multicore model credits.

:func:`tessellate_nd` is the one executable implementation, for any
dimension (bitwise equal to the Jacobi reference): per time block it runs
the ``2^d`` phase families indexed by their seam-axis set — shrinking
tile cores, expanding seam bands, and their mixed products
(triangles/inverted triangles in 1-D; cores, wedges and corners in 2-D;
up to the 8-phase 3-D tessellation).  Every point is computed exactly
once (no ghost-zone redundancy) and regions within one phase touch
disjoint data, so each phase is embarrassingly parallel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..errors import TilingError
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec


@dataclass(frozen=True)
class TessellationPlan:
    """Accounting for a tessellated time-block: phases per block, tiles
    per phase, and the per-step traffic factor."""

    spec_radius: Tuple[int, ...]
    tile_shape: Tuple[int, ...]
    time_depth: int

    @property
    def ndim(self) -> int:
        return len(self.tile_shape)

    @property
    def phases(self) -> int:
        """Dependence-free parallel phases per time block (2 per axis)."""
        return 2 ** self.ndim

    @property
    def traffic_factor(self) -> float:
        """Grid reads per time step relative to untiled sweeps (1/Tb)."""
        return 1.0 / self.time_depth

    def validate(self) -> "TessellationPlan":
        for t, r in zip(self.tile_shape, self.spec_radius):
            if 2 * r * self.time_depth > t:
                raise TilingError(
                    f"time depth {self.time_depth} too deep: 2*r*Tb = "
                    f"{2 * r * self.time_depth} exceeds tile extent {t}"
                )
        return self


def tessellation_plan(spec: StencilSpec, tile_shape: Sequence[int],
                      time_depth: int) -> TessellationPlan:
    if time_depth < 1:
        raise TilingError("time_depth must be >= 1")
    if len(tile_shape) != spec.ndim:
        raise TilingError(
            f"tile rank {len(tile_shape)} != stencil ndim {spec.ndim}"
        )
    return TessellationPlan(
        spec_radius=spec.radius,
        tile_shape=tuple(int(t) for t in tile_shape),
        time_depth=time_depth,
    ).validate()


# ---------------------------------------------------------------------------
# exact N-D execution (the generic 2^d-phase engine)
# ---------------------------------------------------------------------------

def _axis_index(lo: int, hi: int, n: int):
    """Index ``[lo, hi)`` of an axis of extent ``n``: a slice (a view)
    when the range lies inside ``[0, n)``, else indices modulo ``n``."""
    if 0 <= lo and hi <= n:
        return slice(lo, hi)
    return np.arange(lo, hi) % n


def _box_index(ranges: Sequence[Tuple[int, int]],
               shape: Tuple[int, ...]) -> tuple:
    """Index the (possibly wrapping) box ``ranges`` selects.  Only axes
    that wrap take index arrays; with two or more of them every axis
    goes through ``np.ix_``, which keeps the axis order that mixed
    slices and separated index arrays would not."""
    index = tuple(_axis_index(lo, hi, n)
                  for (lo, hi), n in zip(ranges, shape))
    if sum(not isinstance(i, slice) for i in index) < 2:
        return index
    return np.ix_(*(np.arange(i.start, i.stop) if isinstance(i, slice)
                    else i for i in index))


def _apply_box_periodic(
    spec: StencilSpec,
    src: np.ndarray,
    dst: np.ndarray,
    ranges: Sequence[Tuple[int, int]],
) -> None:
    """dst = stencil(src) over the (possibly wrapping) hyper-rectangle
    given by per-axis ``[lo, hi)`` ranges, indices modulo the extents.
    Every point accumulates ``acc += c * src`` in tap order, exactly as
    :func:`repro.stencils.apply_numpy` does."""
    if any(hi <= lo for lo, hi in ranges):
        return
    shape = src.shape
    acc = np.zeros(tuple(hi - lo for lo, hi in ranges))
    for off, c in zip(spec.offsets, spec.coeffs):
        acc += c * src[_box_index(
            [(lo + o, hi + o) for (lo, hi), o in zip(ranges, off)], shape)]
    dst[_box_index(ranges, shape)] = acc


def tessellate_nd(
    spec: StencilSpec,
    values: np.ndarray,
    steps: int,
    *,
    tile: Sequence[int],
    time_depth: int | None = None,
    on_phase: Callable[[int, int, int], None] | None = None,
    pool=None,
) -> np.ndarray:
    """Periodic Jacobi steps with the generic ``2^d``-phase tessellating
    tiling — the N-dimensional form of [Yuan et al., SC'17].

    Each phase is identified by the set ``S`` of *seam axes*: per axis the
    level-``t`` ranges are the shrinking tile cores
    ``[a + r·t, a+B - r·t)`` (axis not in ``S``) or the expanding seam
    bands ``[c - r·t, c + r·t)`` around each tile boundary (axis in
    ``S``); a phase's regions are the cross products.  Per level the
    ``2^d`` families partition the space exactly (no redundant
    computation), regions within a phase touch disjoint data (parallel
    phase), and processing phases in order of ``|S|`` satisfies every
    dependency: a point's ``r``-neighbourhood decomposes per axis into
    same-or-core roles, i.e. into phases with seam-set ``⊆ S`` — already
    complete — or the same phase at the previous level.  Validity needs
    ``2·r_a·Tb <= tile_a`` per axis (checked).

    ``on_phase(block, phase_index, region_count)`` reports progress;
    phases are indexed by the seam-set's bitmask (axis ``a`` seams ⇔ bit
    ``a``), so phase 0 is the core phase.

    ``pool`` (any executor with ``map``, e.g.
    ``concurrent.futures.ThreadPoolExecutor``) fans the regions of each
    (phase, level) out concurrently — they touch disjoint data, which is
    precisely the parallelism tessellating tiling was designed for.
    """
    values = np.asarray(values, dtype=np.float64)
    ndim = spec.ndim
    if values.ndim != ndim:
        raise TilingError(
            f"values rank {values.ndim} != stencil ndim {ndim}"
        )
    shape = values.shape
    tile = tuple(int(t) for t in tile)
    if len(tile) != ndim:
        raise TilingError(f"tile rank {len(tile)} != stencil ndim {ndim}")
    radius = spec.radius
    for n, b in zip(shape, tile):
        if b <= 0 or n % b:
            raise TilingError(
                f"tile {tile} must positively divide the grid {shape}"
            )
    caps = [
        b // (2 * r) if r else steps or 1
        for b, r in zip(tile, radius)
    ]
    tb = min(caps) if time_depth is None else int(time_depth)
    if tb < 1:
        raise TilingError(f"tile {tile} too narrow for radius {radius}")
    tessellation_plan(spec, tile, tb)

    axis_tiles = [
        [(a, a + b) for a in range(0, n, b)]
        for n, b in zip(shape, tile)
    ]
    axis_seams = [[a for a, _ in tiles] for tiles in axis_tiles]

    cur = values.copy()
    block_no = 0
    remaining = steps
    while remaining > 0:
        depth = min(tb, remaining)
        levels = [cur] + [np.empty(shape) for _ in range(depth)]
        for mask in range(1 << ndim):
            count = 0
            for t in range(1, depth + 1):
                per_axis: List[List[Tuple[int, int]]] = []
                for axis in range(ndim):
                    r = radius[axis]
                    if mask >> axis & 1:
                        per_axis.append([
                            (c - r * t, c + r * t)
                            for c in axis_seams[axis]
                        ])
                    else:
                        per_axis.append([
                            (a + r * t, b - r * t)
                            for a, b in axis_tiles[axis]
                        ])
                regions = list(itertools.product(*per_axis))
                if pool is not None and len(regions) > 1:
                    # regions of one (phase, level) touch disjoint data
                    list(pool.map(
                        lambda rr: _apply_box_periodic(
                            spec, levels[t - 1], levels[t], rr),
                        regions,
                    ))
                else:
                    for ranges in regions:
                        _apply_box_periodic(spec, levels[t - 1],
                                            levels[t], ranges)
                count += len(regions)
            if on_phase is not None:
                on_phase(block_no, mask, count)
        cur = levels[depth]
        remaining -= depth
        block_no += 1
    return cur


def tessellate_grid(spec: StencilSpec, grid: Grid, steps: int, *,
                    tile: Sequence[int],
                    time_depth: int | None = None) -> Grid:
    """Grid-level wrapper around :func:`tessellate_nd` (any dimension)."""
    out = grid.like()
    out.interior[...] = tessellate_nd(
        spec, grid.interior, steps, tile=tile, time_depth=time_depth
    )
    return out
