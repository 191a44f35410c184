"""Tessellation — the ICPP'19 star-stencil baseline (Yuan et al. [60]).

The tessellation line of work reduces *arithmetic* redundancy for
symmetric star stencils by pre-adding the symmetric neighbour pairs
(``c_d * (a[x-d] + a[x+d])``) before multiplying, and pairs this in-core
scheme with tessellating cache tiling (:mod:`repro.tiling.tessellate`).
Its register-level data organization is the Multiple-Permutations window,
so it inherits Reorg's shuffle pressure — the gap Jigsaw's LBV closes.

This generator produces the in-core instruction stream: Reorg-style
loads/shuffles with symmetric pre-addition.  It accepts any kernel whose
coefficients are centro-symmetric (all the paper's kernels are).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..config import MachineConfig
from ..errors import VectorizeError
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec, iter_row_offsets
from .common import check_geometry, loop_nest, out_addr, point_addr
from .multiple_perms import required_halo
from .program import ProgramBuilder, VectorProgram
from .multiple_perms import _row_window_name
from .shifts import RowShifter, window_offsets


def generate_tessellation(
    spec: StencilSpec,
    machine: MachineConfig,
    grid: Grid,
) -> VectorProgram:
    """Lower one Jacobi sweep with the tessellation in-core scheme."""
    if not spec.is_symmetric:
        raise VectorizeError(
            f"tessellation baseline requires centro-symmetric coefficients; "
            f"{spec.name} is not"
        )
    width = machine.vector_elems
    check_geometry(spec, grid, block=width,
                   halo_needed=required_halo(spec, machine))
    b = ProgramBuilder(width, elem_bytes=machine.element_bytes)

    rows = list(iter_row_offsets(spec))
    carried: List[Tuple[str, str]] = []
    windows: List[Tuple[Dict[int, str], List[int]]] = []

    b.in_prologue()
    for rid, (outer, taps) in enumerate(rows):
        offsets = window_offsets(taps.keys(), width)
        regs = {o: _row_window_name(rid, o) for o in offsets}
        off0 = outer + (0,)
        for o in offsets[:-1]:
            b.load_to(regs[o], point_addr(grid.ndim, off0, array=b.input_array,
                                          x_extra=o),
                      comment=f"row {outer}: window [{o}]")
        windows.append((regs, offsets))

    b.in_body()
    # Build every neighbour register first (Reorg data organization).
    point_reg: Dict[Tuple[Tuple[int, ...], int], str] = {}
    coeff_of: Dict[Tuple[Tuple[int, ...], int], float] = {}
    for rid, (outer, taps) in enumerate(rows):
        regs, offsets = windows[rid]
        off0 = outer + (0,)
        top = offsets[-1]
        b.load_to(regs[top], point_addr(grid.ndim, off0, array=b.input_array,
                                        x_extra=top),
                  comment=f"row {outer}: window [{top}]")
        shifter = RowShifter.from_window(b, regs)
        for dx in sorted(taps):
            point_reg[(outer, dx)] = shifter.at(dx)
            coeff_of[(outer, dx)] = taps[dx]
        for o in offsets[:-1]:
            carried.append((regs[o], regs[o + width]))

    # Symmetric pre-addition: pair each point with its centro-symmetric
    # partner, adding the registers before the multiply.
    terms: List[Tuple[float, str]] = []
    done: set = set()
    for key in sorted(point_reg):
        if key in done:
            continue
        outer, dx = key
        mirror = (tuple(-o for o in outer), -dx)
        done.add(key)
        if mirror != key and mirror in point_reg and mirror not in done:
            done.add(mirror)
            paired = b.add(point_reg[key], point_reg[mirror],
                           comment=f"symmetric pair {key}/{mirror}")
            terms.append((coeff_of[key], paired))
        else:
            terms.append((coeff_of[key], point_reg[key]))

    acc = b.weighted_sum(terms, comment="accumulate pre-added taps")
    b.store(acc, out_addr(grid.ndim), comment="store result vector")
    for dst, src in carried:
        b.mov_to(dst, src, comment="slide window")

    return b.build(
        name=f"tessellation/{spec.name}",
        scheme="tessellation",
        loops=loop_nest(grid, block=width),
        vectors_per_iter=1,
        overlapped=False,
        tail_spec=spec,
        notes="Reorg window + symmetric pre-addition (arithmetic halved)",
    )
