"""Temporal vectorization — vertical time fusion in registers.

The scheme from Yuan et al. ("Temporal Vectorization for Stencils"): one
body iteration advances the *same* output vector through ``s`` consecutive
Jacobi steps, keeping every partially-updated intermediate vector in
registers.  Level ``t`` of the in-register dataflow holds step-``t`` values
at the offsets still needed by the remaining ``s - t`` steps; only level 0
touches memory (unaligned neighbour loads, Multiple-Loads style), and only
the final level stores.

Compared with ITM (:mod:`repro.core.itm`), which *merges* ``s`` sweeps into
one wider stencil before lowering, temporal vectorization evaluates the
original stencil ``s`` times per iteration and shares the step-``t``
intermediates between the fused applications — the classic
loads-versus-arithmetic trade rotated into the time dimension.

Legality: the live intermediate set at level ``t`` spans a box of radius
``(s - t) * r`` around the output vector, so the fusion depth is bounded by
the vector width over the stencil radius (``s * max(r) <= W``) — the same
shape of bound as :func:`repro.core.itm.fusable`, applied on every axis so
the register working set and the halo both stay within one vector window
per fused step.  Depth 1 is always legal (a plain sweep).

Exactness caveat (same as ITM): fused programs require periodic halos —
with Dirichlet ghosts the intermediate steps would need refreshed boundary
values mid-iteration.  The driver enforces this.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import MachineConfig
from ..core.itm import merged_spec
from ..errors import VectorizeError
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from .common import check_geometry, loop_nest, out_addr, point_addr
from .program import ProgramBuilder, VectorProgram


def max_fusion(spec: StencilSpec, machine: MachineConfig) -> int:
    """The deepest legal fusion for ``spec`` on ``machine``:
    ``max(1, W // max(radius))``.  Depth 1 (no fusion) is always legal."""
    r = max(spec.radius)
    if r == 0:
        return machine.vector_elems
    return max(1, machine.vector_elems // r)


def legal_fusion(spec: StencilSpec, machine: MachineConfig, depth: int) -> bool:
    """Whether ``depth`` fused steps fit the register working set."""
    return 1 <= depth <= max_fusion(spec, machine)


def default_fusion(spec: StencilSpec, machine: MachineConfig) -> int:
    """The registry default: two fused steps when legal, else one."""
    return min(2, max_fusion(spec, machine))


def required_halo(spec: StencilSpec, machine: MachineConfig, *,
                  time_fusion: int = 1) -> Tuple[int, ...]:
    """Unaligned loads reach ``s * r`` on every axis (the fused stencil's
    dependency footprint); no rounding to vector multiples is needed."""
    return tuple(time_fusion * r for r in spec.radius)


def generate_temporal(
    spec: StencilSpec,
    machine: MachineConfig,
    grid: Grid,
    *,
    time_fusion: Optional[int] = None,
) -> VectorProgram:
    """Lower ``time_fusion`` fused Jacobi steps of ``spec`` (default:
    :func:`default_fusion`) as one vertical in-register dataflow."""
    width = machine.vector_elems
    s = default_fusion(spec, machine) if time_fusion is None else int(time_fusion)
    if not legal_fusion(spec, machine, s):
        raise VectorizeError(
            f"temporal fusion depth {s} illegal for {spec.tag}: radius "
            f"{max(spec.radius)} at W={width} admits depths "
            f"1..{max_fusion(spec, machine)}"
        )
    check_geometry(spec, grid, block=width,
                   halo_needed=required_halo(spec, machine, time_fusion=s))
    b = ProgramBuilder(width, elem_bytes=machine.element_bytes)
    b.in_body()

    # value(t, outer, e) = the vector of step-t values at loop point +
    # outer (outer axes) + e (x axis), memoized so intermediates shared by
    # neighbouring applications of the stencil are computed once.
    memo: Dict[Tuple[int, Tuple[int, ...], int], str] = {}

    def value(t: int, outer: Tuple[int, ...], e: int) -> str:
        key = (t, outer, e)
        if key in memo:
            return memo[key]
        at = outer + (e,)
        if t == 0:
            reg = b.load(
                point_addr(grid.ndim, outer + (0,), array=b.input_array, x_extra=e),
                hint="t",
                unaligned=True,
                comment=f"step 0 @ {at}",
            )
        else:
            acc: Optional[str] = None
            for off, coeff in zip(spec.offsets, spec.coeffs):
                src = value(
                    t - 1,
                    tuple(a + d for a, d in zip(outer, off[:-1])),
                    e + off[-1],
                )
                c = b.broadcast(coeff)
                if acc is None:
                    acc = b.mul(c, src, comment=f"step {t} @ {at}")
                else:
                    acc = b.fma(c, src, acc, comment=f"step {t} @ {at}")
            reg = acc
        memo[key] = reg
        return reg

    result = value(s, (0,) * (spec.ndim - 1), 0)
    b.store(result, out_addr(grid.ndim), comment=f"store step {s} vector")

    return b.build(
        name=f"temporal/{spec.name}",
        scheme="temporal",
        loops=loop_nest(grid, block=width),
        vectors_per_iter=1,
        steps_per_iter=s,
        tail_spec=merged_spec(spec, s),
        notes=f"vertical time fusion, depth {s}; "
              f"intermediate steps live in registers",
    )
