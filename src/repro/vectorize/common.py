"""Shared lowering helpers for scheme generators.

Vector addresses are "loop variable + offset" (:func:`point_addr`), so an
instruction stream depends on the grid's rank only; the grid's interior
shape and halo set the loop bounds (:func:`loop_nest`).  The
iteration-space convention:

* outer loops walk axes ``0 .. d-2`` over the interior, one point per trip;
* the innermost loop walks the unit-stride x axis in steps of ``block``
  elements (``block`` is scheme-specific, e.g. ``2*W`` for LBV).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import VectorizeError
from ..machine.isa import Affine, MemRef
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from .program import Loop

#: loop variable names by axis depth (outermost first); x is always last.
AXIS_VARS = ("z", "y", "x")


def axis_vars(ndim: int) -> Tuple[str, ...]:
    """Loop variable names for ``ndim`` spatial axes, innermost last."""
    if not 1 <= ndim <= len(AXIS_VARS):
        raise VectorizeError(f"supported dims are 1..{len(AXIS_VARS)}, got {ndim}")
    return AXIS_VARS[-ndim:]


def check_geometry(spec: StencilSpec, grid: Grid, block: int,
                   halo_needed: Sequence[int] | None = None) -> None:
    """Validate grid vs stencil and block divisibility."""
    need = tuple(halo_needed) if halo_needed is not None else spec.radius
    if grid.ndim != spec.ndim:
        raise VectorizeError(
            f"grid ndim {grid.ndim} != stencil ndim {spec.ndim} ({spec.tag})"
        )
    if any(h < r for h, r in zip(grid.halo, need)):
        raise VectorizeError(
            f"grid halo {grid.halo} too small for {spec.tag} (needs {need})"
        )
    nx = grid.shape[-1]
    if nx < block:
        raise VectorizeError(
            f"x extent {nx} shorter than one scheme block ({block}); "
            f"no vector iteration fits"
        )


def loop_nest(grid: Grid, block: int) -> Tuple[Loop, ...]:
    """The interior loop nest: one trip per outer-axis point, ``block``
    elements per x trip.  Loop variables hold *padded-buffer* indices (the
    halo offset is the loop start)."""
    loops = []
    vars_ = axis_vars(grid.ndim)
    for axis, var in enumerate(vars_):
        h, n = grid.halo[axis], grid.shape[axis]
        if axis == grid.ndim - 1:
            # the vector loop covers the largest block-aligned prefix;
            # the driver completes the remainder strip with a scalar
            # epilogue (VectorProgram.x_tail)
            loops.append(Loop(var=var, start=h, stop=h + (n // block) * block,
                              step=block))
        else:
            loops.append(Loop(var=var, start=h, stop=h + n, step=1))
    return tuple(loops)


def unbound_loops(ndim: int, block: int) -> Tuple[Loop, ...]:
    """The loop nest of a shape-free program: :func:`loop_nest`'s
    variables and steps over empty ``[0, 0)`` ranges, until a grid binds
    the bounds."""
    return tuple(Loop(var=var, start=0, stop=0,
                      step=block if axis == ndim - 1 else 1)
                 for axis, var in enumerate(axis_vars(ndim)))


def point_addr(ndim: int, offset: Sequence[int], *, array: str,
               x_extra: int = 0) -> MemRef:
    """Address of the vector starting at loop point + ``offset`` (+
    ``x_extra`` along x) in an ``ndim``-d grid.  Offsets index
    neighbours, so they are added to the loop variables directly (loop
    vars already include the halo)."""
    vars_ = axis_vars(ndim)
    deltas = [int(offset[axis]) for axis in range(ndim)]
    deltas[-1] += x_extra
    return MemRef(array, tuple(Affine(int(d), ((var, 1),))
                               for var, d in zip(vars_, deltas)))


def out_addr(ndim: int, *, array: str = "out", x_extra: int = 0) -> MemRef:
    return point_addr(ndim, (0,) * ndim, array=array, x_extra=x_extra)
