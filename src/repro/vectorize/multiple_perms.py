"""Multiple Permutations — the Data Reorganization baseline ("Reorg").

Each grid element is loaded exactly once (one aligned load per stencil
*row* per iteration, slid through a loop-carried ``prev/cur/next``
window); every shifted neighbour vector is assembled with
inter/intra-register shuffles (:mod:`repro.vectorize.shifts`).  This trades
the Multiple-Loads memory traffic for shuffle-port pressure and
data-preparation latency — the "massive non-compute bubbles" of §2.1.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..config import MachineConfig
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec, iter_row_offsets
from .common import check_geometry, loop_nest, out_addr, point_addr
from .program import ProgramBuilder, VectorProgram
from .shifts import RowShifter, window_offsets


def required_halo(spec: StencilSpec, machine: MachineConfig) -> Tuple[int, ...]:
    """Reorg slides a window of aligned registers, so the x halo must
    admit aligned loads covering the widest tap rounded up to vectors."""
    r = spec.radius
    w = machine.vector_elems
    span = -(-r[-1] // w) * w  # radius rounded up to whole vectors
    return r[:-1] + (max(span, w),)


def _row_window_name(rid: int, offset: int) -> str:
    return f"w{rid}_{'m' if offset < 0 else ''}{abs(offset)}"


def generate_multiple_perms(
    spec: StencilSpec,
    machine: MachineConfig,
    grid: Grid,
) -> VectorProgram:
    """Lower one Jacobi sweep of ``spec`` with Multiple Permutations."""
    width = machine.vector_elems
    check_geometry(spec, grid, block=width,
                   halo_needed=required_halo(spec, machine))
    b = ProgramBuilder(width, elem_bytes=machine.element_bytes)

    rows = list(iter_row_offsets(spec))
    terms: List[Tuple[float, str]] = []
    carried: List[Tuple[str, str]] = []  # (dst, src) end-of-body moves
    windows: List[Tuple[Tuple[int, ...], Dict[int, str], List[int]]] = []

    # One sliding window of aligned registers per row, sized to cover the
    # row's widest tap (arbitrary radius / SSE widths included).
    b.in_prologue()
    for rid, (outer, taps) in enumerate(rows):
        offsets = window_offsets(taps.keys(), width)
        regs = {o: _row_window_name(rid, o) for o in offsets}
        off0 = outer + (0,)
        for o in offsets[:-1]:  # the topmost register is loaded per-iter
            b.load_to(regs[o], point_addr(grid.ndim, off0, array=b.input_array,
                                          x_extra=o),
                      comment=f"row {outer}: window [{o}]")
        windows.append((outer, regs, offsets))

    b.in_body()
    for rid, (outer, taps) in enumerate(rows):
        _, regs, offsets = windows[rid]
        off0 = outer + (0,)
        top = offsets[-1]
        b.load_to(regs[top], point_addr(grid.ndim, off0, array=b.input_array,
                                        x_extra=top),
                  comment=f"row {outer}: window [{top}]")
        shifter = RowShifter.from_window(b, regs)
        for dx in sorted(taps):
            terms.append((taps[dx], shifter.at(dx)))
        for o in offsets[:-1]:
            carried.append((regs[o], regs[o + width]))

    acc = b.weighted_sum(terms, comment="accumulate taps")
    b.store(acc, out_addr(grid.ndim), comment="store result vector")
    for dst, src in carried:
        b.mov_to(dst, src, comment="slide window")

    return b.build(
        name=f"multiple-perms/{spec.name}",
        scheme="multiple-perms",
        loops=loop_nest(grid, block=width),
        vectors_per_iter=1,
        overlapped=False,
        tail_spec=spec,
        notes="one load per row; shuffles build every shifted vector",
    )
