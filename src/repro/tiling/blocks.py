"""Spatial tiles and their working sets.

A :class:`Tile` is the box one partitioned-executor task sweeps;
:func:`tile_working_set` is the cache model's accounting for a blocking
(the paper's Table-3 "Blocking Size" column): a tile's sweep working set
is the tile plus its stencil halo, for the input and output arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..errors import TilingError
from ..stencils.spec import StencilSpec


@dataclass(frozen=True)
class Tile:
    """One tile: per-axis ``[start, stop)`` in interior coordinates."""

    start: Tuple[int, ...]
    stop: Tuple[int, ...]

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.start, self.stop))

    @property
    def points(self) -> int:
        return math.prod(self.shape)

    def slices(self, halo: Sequence[int] | None = None) -> Tuple[slice, ...]:
        """Numpy slices into a padded array (halo offsets added)."""
        halo = tuple(halo) if halo is not None else (0,) * len(self.start)
        return tuple(
            slice(h + a, h + b)
            for h, a, b in zip(halo, self.start, self.stop)
        )


def tile_working_set(
    tile_shape: Sequence[int],
    spec: StencilSpec,
    *,
    element_bytes: int = 8,
    arrays: int = 2,
    time_depth: int = 1,
) -> int:
    """Bytes a tile's sweep keeps live: tile + stencil halo (scaled by the
    time-tiling depth for trapezoid/tessellated blocks), for ``arrays``
    buffers."""
    if time_depth < 1:
        raise TilingError("time_depth must be >= 1")
    r = spec.radius
    if len(tile_shape) != spec.ndim:
        raise TilingError(
            f"tile rank {len(tile_shape)} != stencil ndim {spec.ndim}"
        )
    padded = math.prod(
        int(t) + 2 * ra * time_depth for t, ra in zip(tile_shape, r)
    )
    return padded * element_bytes * arrays
