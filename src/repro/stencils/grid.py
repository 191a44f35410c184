"""Grids with halo (ghost) regions.

Vector kernels only ever touch aligned interior data; boundary conditions
are realised by filling the halo (:mod:`repro.stencils.boundary`) before a
sweep, exactly like the ghost-region practice in the stencil codes the
paper builds on.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import GridError


class Grid:
    """A d-dimensional float64 grid with a per-axis halo.

    ``data`` has shape ``interior + 2*halo`` per axis; :attr:`interior`
    is the writable view without ghosts.
    """

    __slots__ = ("halo", "shape", "data")

    def __init__(
        self,
        shape: Sequence[int],
        halo: int | Sequence[int],
        *,
        dtype=np.float64,
    ) -> None:
        shape = tuple(int(s) for s in shape)
        if not shape or any(s <= 0 for s in shape):
            raise GridError(f"interior shape must be positive, got {shape}")
        if isinstance(halo, int):
            halo = (halo,) * len(shape)
        halo = tuple(int(h) for h in halo)
        if len(halo) != len(shape):
            raise GridError(f"halo {halo} does not match ndim {len(shape)}")
        if any(h < 0 for h in halo):
            raise GridError(f"halo must be non-negative, got {halo}")
        self.shape: Tuple[int, ...] = shape
        self.halo: Tuple[int, ...] = halo
        self.data = np.zeros(
            tuple(s + 2 * h for s, h in zip(shape, halo)), dtype=dtype
        )

    # -- construction --------------------------------------------------------
    @classmethod
    def from_array(cls, array: np.ndarray, halo: int | Sequence[int]) -> "Grid":
        """A grid whose interior is a copy of ``array``."""
        g = cls(array.shape, halo, dtype=array.dtype)
        g.interior[...] = array
        return g

    @classmethod
    def random(
        cls,
        shape: Sequence[int],
        halo: int | Sequence[int],
        *,
        seed: int = 0,
        low: float = 0.0,
        high: float = 1.0,
        dtype=np.float64,
    ) -> "Grid":
        """A grid with reproducible uniform-random interior values: those
        of ``default_rng(seed).uniform(low, high, size=shape)`` cast to
        ``dtype`` (the assignment casts, so no second full-grid copy)."""
        g = cls(shape, halo, dtype=dtype)
        rng = np.random.default_rng(seed)
        g.interior[...] = rng.uniform(low, high, size=g.shape)
        return g

    # -- views ---------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def interior(self) -> np.ndarray:
        """Writable view of the interior (no ghosts)."""
        sl = tuple(
            slice(h, h + s) if h else slice(None)
            for s, h in zip(self.shape, self.halo)
        )
        return self.data[sl]

    def shifted_interior(self, offset: Sequence[int]) -> np.ndarray:
        """Interior-shaped view shifted by ``offset`` (may read the halo).

        This is how the numpy reference gathers a neighbour field: the view
        at offset ``o`` aligned against the interior gives ``in[p + o]`` for
        every interior point ``p``.
        """
        offset = tuple(int(o) for o in offset)
        if len(offset) != self.ndim:
            raise GridError(f"offset {offset} does not match ndim {self.ndim}")
        sl = []
        for o, s, h in zip(offset, self.shape, self.halo):
            if abs(o) > h:
                raise GridError(f"offset {offset} exceeds halo {self.halo}")
            sl.append(slice(h + o, h + o + s))
        return self.data[tuple(sl)]

    # -- misc ----------------------------------------------------------------
    def like(self) -> "Grid":
        """A zeroed grid with the same geometry."""
        return Grid(self.shape, self.halo, dtype=self.data.dtype)

    def copy(self) -> "Grid":
        """A grid with the same geometry and a copy of ``data``, halo
        included."""
        g = object.__new__(Grid)
        g.shape, g.halo, g.data = self.shape, self.halo, self.data.copy()
        return g

    def npoints(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def nbytes(self) -> int:
        return self.data.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Grid shape={self.shape} halo={self.halo}>"
