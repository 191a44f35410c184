"""Shard geometry: slabs, deep halos, and the temporal-block contract.

A :class:`ShardPlan` fixes everything static about one sharded run: the
outer-axis partition (:func:`repro.parallel.topology.partition_axis`),
the outer radius ``r0`` the exchange depth derives from, and the
temporal block ``s``.  The deep-halo scheme is the classic ghost-zone
temporal blocking: each exchange ships ``pad = r0*s`` context rows per
side, so a shard can advance ``s`` sweeps before the next exchange —
trading redundant ghost-row recomputation (tracked by
:meth:`ShardPlan.redundant_rows`) for ``s``-fold fewer synchronizations, the
amortization the temporal-vectorization line of work builds on.

Validity bookkeeping (:meth:`ShardBounds.margins`): a
gathered context row is exact at exchange time and loses one ``r0`` band
of validity per sub-step, so sub-step ``k`` computes the slab plus a
``r0*(s-k)`` collar — after ``s`` sub-steps exactly the slab is exact.
A side that coincides with a dirichlet domain edge is clipped to the
domain instead and refills its constant ghost every sub-step, so it
never loses validity (``margins`` returns 0 there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import TilingError
from ..parallel.topology import ShardSlab, partition_axis
from ..stencils.boundary import MODES
from ..stencils.spec import StencilSpec


@dataclass(frozen=True)
class ShardBounds:
    """One shard's local outer-axis window for one superstep.

    ``lo_pad``/``hi_pad`` are the in-domain context rows gathered below /
    above the slab; ``lo_edge``/``hi_edge`` mark sides that sit on a
    dirichlet domain edge (constant ghosts instead of neighbor data).
    """

    slab: ShardSlab
    lo_pad: int
    hi_pad: int
    lo_edge: bool
    hi_edge: bool

    @property
    def extent(self) -> int:
        """Local interior rows: pads + slab."""
        return self.lo_pad + self.slab.rows + self.hi_pad

    def margins(self, radius: int, k: int, s_eff: int) -> Tuple[int, int]:
        """Rows of the window sub-step ``k`` (1-based) of ``s_eff`` skips
        from each side: all but ``radius*(s_eff-k)`` pad rows on a
        neighbor-fed side (validity shrinks one radius per sub-step), 0
        on a constant-ghost domain edge."""
        shrink = radius * (s_eff - k)
        return (0 if self.lo_edge else self.lo_pad - shrink,
                0 if self.hi_edge else self.hi_pad - shrink)


@dataclass(frozen=True)
class ShardPlan:
    """The static geometry of one sharded run (see module docstring)."""

    shards: int
    temporal_block: int
    radius: int                      #: outer-axis stencil radius ``r0``
    extent: int                      #: global outer-axis interior extent
    boundary: str
    slabs: Tuple[ShardSlab, ...]

    @property
    def pad(self) -> int:
        """Exchange depth per side at the full temporal block."""
        return self.radius * self.temporal_block

    def pad_for(self, s_eff: int) -> int:
        """Exchange depth for a (possibly remainder) superstep of
        ``s_eff`` sub-steps."""
        return self.radius * s_eff

    def bounds(self, index: int, s_eff: int) -> ShardBounds:
        """Shard ``index``'s local window for one superstep.

        Periodic boundaries always gather the full ``pad`` (wrapping
        around the domain as needed); dirichlet clips the window to the
        domain and marks the clipped side as a constant-ghost edge.
        """
        slab = self.slabs[index]
        pad = self.pad_for(s_eff)
        if self.boundary == "periodic":
            return ShardBounds(slab=slab, lo_pad=pad, hi_pad=pad,
                               lo_edge=False, hi_edge=False)
        lo_pad = min(pad, slab.start)
        hi_pad = min(pad, self.extent - slab.stop)
        return ShardBounds(slab=slab, lo_pad=lo_pad, hi_pad=hi_pad,
                           lo_edge=lo_pad < pad, hi_edge=hi_pad < pad)

    def supersteps(self, steps: int) -> Tuple[int, ...]:
        """The superstep schedule for ``steps`` sweeps: full temporal
        blocks, then one remainder block."""
        if steps < 0:
            raise TilingError("steps must be non-negative")
        full, rem = divmod(steps, self.temporal_block)
        out = (self.temporal_block,) * full
        return out + ((rem,) if rem else ())

    # -- accounting ----------------------------------------------------------
    def exchange_rows(self, s_eff: int) -> int:
        """In-domain context rows gathered across all parts for one
        superstep (the exchange traffic, in rows)."""
        total = 0
        for i in range(self.shards):
            b = self.bounds(i, s_eff)
            total += b.lo_pad + b.hi_pad
        return total

    def redundant_rows(self, s_eff: int, *, full_interior: bool) -> int:
        """Ghost rows recomputed beyond the slabs during one superstep —
        the price of temporal blocking (Li et al.'s redundancy metric).

        ``full_interior=True`` models engines that sweep the whole local
        window every sub-step (the program engine); ``False`` models the
        shrinking-collar reference engine, which only computes rows still
        needed for later sub-steps.
        """
        total = 0
        for i in range(self.shards):
            b = self.bounds(i, s_eff)
            for k in range(1, s_eff + 1):
                if full_interior:
                    total += b.lo_pad + b.hi_pad
                    continue
                m_lo, m_hi = b.margins(self.radius, k, s_eff)
                total += (b.lo_pad - m_lo) + (b.hi_pad - m_hi)
        return total


def make_shard_plan(spec: StencilSpec, shape: Tuple[int, ...], *,
                    shards: int, temporal_block: int = 1,
                    boundary: str = "periodic") -> ShardPlan:
    """Build and validate the shard geometry for one workload."""
    if temporal_block < 1:
        raise TilingError("temporal_block must be >= 1")
    if boundary not in MODES:
        raise TilingError(
            f"unknown boundary mode {boundary!r}; known: {MODES}")
    if len(shape) != spec.ndim:
        raise TilingError(
            f"shape rank {len(shape)} != stencil ndim {spec.ndim}")
    extent = int(shape[0])
    slabs = partition_axis(extent, shards)
    return ShardPlan(shards=shards, temporal_block=temporal_block,
                     radius=spec.radius[0], extent=extent,
                     boundary=boundary, slabs=slabs)
