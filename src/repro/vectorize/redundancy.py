"""Redundancy elimination — the data-reorganization reuse scheme.

The scheme of Li et al. (arXiv 2103.09235): neighbouring output vectors
share most of their shifted operands, so the generator hoists the common
subexpressions instead of rebuilding them.  Taps are grouped by x-offset
into *columns*; each column's weighted row sum

    ``S_dx[x] = sum_rows coeff[row, dx] * a[row, x]``

is computed once per aligned vector position and slid through a
loop-carried window, exactly like Reorg slides raw row registers.  The
output vector is then just the sum of each column's shifted ``S_dx`` —
every multiply that Reorg repeats per shifted operand is paid once per
*column* instead of once per *tap*, and the shuffles that build shifted
vectors act on the pre-reduced sums.

Instruction shape per output vector (vs Reorg on the same spec):

* loads — one aligned load per stencil row (same as Reorg);
* arithmetic — one MUL/FMA per tap to build the fresh column sums, plus
  ``#columns - 1`` ADDs to combine them (Reorg pays one MUL/FMA per tap
  *after* shuffling, so the counts match on stars but the shuffles don't);
* shuffles — one shift per nonzero column offset, regardless of how many
  rows share it (Reorg shifts every row at every offset: a ``(2r+1)^2``
  box pays ``2r`` shifted columns here vs ``(2r+1) * 2r`` shifted row
  accesses there).

The scheme degenerates gracefully on specs with no sharing (1-D rows,
stars): it becomes Reorg with the multiply hoisted before the shuffle.
:func:`has_sharing` reports whether any shifted column is shared by
several rows — the tuner uses it to skip the scheme where it cannot win.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..config import MachineConfig
from ..stencils.grid import Grid
from ..stencils.spec import Offset, StencilSpec, iter_row_offsets
from .common import check_geometry, loop_nest, out_addr, point_addr
from .multiple_perms import required_halo as _perms_halo
from .program import ProgramBuilder, VectorProgram
from .shifts import RowShifter, window_offsets


def required_halo(spec: StencilSpec, machine: MachineConfig) -> Tuple[int, ...]:
    """Identical to Reorg: aligned loads/column sums reach the widest tap
    rounded up to whole vectors along x, the spec radius elsewhere."""
    return _perms_halo(spec, machine)


def _columns(spec: StencilSpec) -> Dict[int, List[Tuple[Offset, float]]]:
    """Taps grouped by x-offset: ``{dx: [(outer_row, coeff), ...]}``,
    deterministically ordered (columns by dx, rows by outer offset)."""
    cols: Dict[int, List[Tuple[Offset, float]]] = {}
    for outer, taps in iter_row_offsets(spec):
        for dx in sorted(taps):
            cols.setdefault(dx, []).append((outer, taps[dx]))
    return {dx: cols[dx] for dx in sorted(cols)}


def has_sharing(spec: StencilSpec) -> bool:
    """True when some *shifted* column (dx != 0) is shared by >= 2 rows —
    the case where hoisting the column sum saves shuffles over Reorg."""
    return any(dx != 0 and len(entries) >= 2
               for dx, entries in _columns(spec).items())


def _fmt(offset: int) -> str:
    return f"{'m' if offset < 0 else ''}{abs(offset)}"


def generate_redundancy_elim(
    spec: StencilSpec,
    machine: MachineConfig,
    grid: Grid,
) -> VectorProgram:
    """Lower one Jacobi sweep of ``spec`` with column-sum hoisting."""
    width = machine.vector_elems
    check_geometry(spec, grid, block=width,
                   halo_needed=required_halo(spec, machine))
    b = ProgramBuilder(width, elem_bytes=machine.element_bytes)

    rows = list(iter_row_offsets(spec))
    cols = _columns(spec)
    col_window = {dx: window_offsets([dx], width) for dx in cols}
    col_top = {dx: col_window[dx][-1] for dx in cols}

    # Each row needs fresh aligned loads only at the tops of the columns it
    # participates in; a row window spans those tops (consecutive multiples
    # of W), sliding like Reorg's.
    row_window: List[List[int]] = []
    for outer, taps in rows:
        tops = sorted({col_top[dx] for dx in taps})
        row_window.append(list(range(tops[0], tops[-1] + width, width)))

    def weighted_to(dst: str, terms: List[Tuple[float, str]],
                    comment: str) -> str:
        """MUL + FMA chain into a *named* register (window names must be
        stable across iterations, so no coefficient-1.0 MOV shortcut)."""
        acc = None
        for i, (coeff, reg) in enumerate(terms):
            c = b.broadcast(coeff)
            d = dst if i == len(terms) - 1 else None
            if acc is None:
                acc = b.mul(c, reg, dst=d, comment=comment)
            else:
                acc = b.fma(c, reg, acc, dst=d, comment=comment)
        return acc

    # (outer_row, aligned x offset) -> register holding that row vector.
    row_regs: Dict[Tuple[Offset, int], str] = {}

    # -- prologue: seed the loop-carried row and column-sum windows --------
    b.in_prologue()
    for rid, (outer, taps) in enumerate(rows):
        for o in row_window[rid][:-1]:  # the top register is loaded per-iter
            name = f"rw{rid}_{_fmt(o)}"
            b.load_to(name, point_addr(grid.ndim, outer + (0,),
                                       array=b.input_array, x_extra=o),
                      comment=f"row {outer}: aligned [{o}]")
            row_regs[(outer, o)] = name
    for cid, (dx, entries) in enumerate(cols.items()):
        for o in col_window[dx][:-1]:
            terms = []
            for outer, coeff in entries:
                if (outer, o) not in row_regs:
                    # one-shot seed load outside any carried row window
                    row_regs[(outer, o)] = b.load(
                        point_addr(grid.ndim, outer + (0,), array=b.input_array,
                                   x_extra=o),
                        hint="pl",
                        comment=f"row {outer}: aligned [{o}] (column seed)",
                    )
                terms.append((coeff, row_regs[(outer, o)]))
            weighted_to(f"cs{cid}_{_fmt(o)}", terms,
                        comment=f"column x{dx:+d}: sum @ [{o}]")

    # -- body --------------------------------------------------------------
    b.in_body()
    for rid, (outer, taps) in enumerate(rows):
        top = row_window[rid][-1]
        b.load_to(f"rw{rid}_{_fmt(top)}",
                  point_addr(grid.ndim, outer + (0,), array=b.input_array,
                             x_extra=top),
                  comment=f"row {outer}: aligned [{top}]")
        row_regs[(outer, top)] = f"rw{rid}_{_fmt(top)}"
    for cid, (dx, entries) in enumerate(cols.items()):
        top = col_top[dx]
        terms = [(coeff, row_regs[(outer, top)]) for outer, coeff in entries]
        weighted_to(f"cs{cid}_{_fmt(top)}", terms,
                    comment=f"column x{dx:+d}: sum @ [{top}]")

    acc = None
    for cid, (dx, entries) in enumerate(cols.items()):
        regs = {o: f"cs{cid}_{_fmt(o)}" for o in col_window[dx]}
        shifted = RowShifter.from_window(b, regs).at(dx)
        acc = shifted if acc is None else b.add(
            acc, shifted, comment="combine column sums")
    b.store(acc, out_addr(grid.ndim), comment="store result vector")

    for rid, (outer, taps) in enumerate(rows):
        for o in row_window[rid][:-1]:
            b.mov_to(f"rw{rid}_{_fmt(o)}", f"rw{rid}_{_fmt(o + width)}",
                     comment="slide row window")
    for cid, (dx, entries) in enumerate(cols.items()):
        for o in col_window[dx][:-1]:
            b.mov_to(f"cs{cid}_{_fmt(o)}", f"cs{cid}_{_fmt(o + width)}",
                     comment="slide column-sum window")

    return b.build(
        name=f"redundancy-elim/{spec.name}",
        scheme="redundancy-elim",
        loops=loop_nest(grid, block=width),
        vectors_per_iter=1,
        overlapped=False,
        tail_spec=spec,
        notes="column sums hoisted and slid; one shift per shifted column",
    )
