"""Folding — the SC'21 in-register transpose baseline (Li et al. [37]).

Folding vectorizes by transposing a ``W x W`` element block inside the
registers: in the transposed domain a stencil tap at x-offset ``d`` simply
reads another register (same position), so the tap gathering itself is
conflict-free.  The price is the transpose network before *and* after the
arithmetic — for AVX2's 4x4 float64 transpose, 4 ``vshufpd`` + 4
``vperm2f128`` each way — plus rotation registers at block seams.  That is
exactly the critique §3.1 levels at it: about **2 cross-lane shuffles per
output vector** (double LBV's single one) and no shuffle/compute overlap
(the transpose phases serialize against the arithmetic).

This implementation executes correctly on the SIMD machine for any kernel
with x-radius ``<= W``; multi-row (2-D/3-D) kernels keep one transposed
window per stencil row.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..config import MachineConfig
from ..errors import VectorizeError
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec, iter_row_offsets
from .common import check_geometry, loop_nest, out_addr, point_addr
from .program import ProgramBuilder, VectorProgram


def required_halo(spec: StencilSpec, machine: MachineConfig) -> Tuple[int, ...]:
    """Folding's windows span one whole transposed block (W^2 elements)
    on each side of the current block along x."""
    r = spec.radius
    w = machine.vector_elems
    return r[:-1] + (max(r[-1], w * w),)


def _transpose4(b: ProgramBuilder, regs: List[str], tag: str) -> List[str]:
    """The standard AVX2 4x4 float64 in-register transpose
    (4 in-lane ``vshufpd`` + 4 cross-lane ``vperm2f128``)."""
    r0, r1, r2, r3 = regs
    lo01 = b.shufpd(r0, r1, 0b0000, comment=f"{tag} interleave lo 01")
    hi01 = b.shufpd(r0, r1, 0b1111, comment=f"{tag} interleave hi 01")
    lo23 = b.shufpd(r2, r3, 0b0000, comment=f"{tag} interleave lo 23")
    hi23 = b.shufpd(r2, r3, 0b1111, comment=f"{tag} interleave hi 23")
    t0 = b.lane_concat(lo01, lo23, (0, 2), comment=f"{tag} gather col 0")
    t1 = b.lane_concat(hi01, hi23, (0, 2), comment=f"{tag} gather col 1")
    t2 = b.lane_concat(lo01, lo23, (1, 3), comment=f"{tag} gather col 2")
    t3 = b.lane_concat(hi01, hi23, (1, 3), comment=f"{tag} gather col 3")
    return [t0, t1, t2, t3]


class _TransposedWindow:
    """Loop-carried transposed registers of the previous/current block of
    one stencil row, with memoized seam rotations.

    Register ``T[j]`` of the block at ``x`` holds elements
    ``a[x + W*i + j]`` for ``i = 0..W-1``; the tap at transposed column
    ``q = j + d`` resolves to ``T_cur[q]`` or a one-position rotation
    across the block seam.
    """

    def __init__(self, b: ProgramBuilder, rid: int) -> None:
        self.b = b
        self.w = b.width
        self.rid = rid
        self.prev = [f"fold_p{rid}_{j}" for j in range(self.w)]
        self.cur = [f"fold_c{rid}_{j}" for j in range(self.w)]
        self._rot: Dict[int, str] = {}

    def column(self, next_regs: List[str], q: int) -> str:
        """Register for transposed column ``q`` in ``[-W, 2W)``."""
        b, w = self.b, self.w
        if 0 <= q < w:
            return self.cur[q]
        if q in self._rot:
            return self._rot[q]
        if -w <= q < 0:
            # rotate right: (prev[q+W][W-1], cur[q+W][0..W-2])
            p, c = self.prev[q + w], self.cur[q + w]
            mid = b.lane_concat(p, c, (w // 2 - 1, w // 2),
                                comment=f"row{self.rid} seam q={q}")
            reg = b.shufpd(mid, c, 0b0101, comment=f"row{self.rid} rot-right q={q}")
        elif w <= q < 2 * w:
            # rotate left: (cur[q-W][1..W-1], next[q-W][0])
            c, n = self.cur[q - w], next_regs[q - w]
            mid = b.lane_concat(c, n, (1, 2),
                                comment=f"row{self.rid} seam q={q}")
            reg = b.shufpd(c, mid, 0b0101, comment=f"row{self.rid} rot-left q={q}")
        else:
            raise VectorizeError(f"transposed column {q} outside [-W, 2W)")
        self._rot[q] = reg
        return reg


def generate_folding(
    spec: StencilSpec,
    machine: MachineConfig,
    grid: Grid,
) -> VectorProgram:
    """Lower one Jacobi sweep of ``spec`` with the Folding strategy.

    AVX2-only (the transpose network is the 4x4 float64 one) and requires
    x-radius ``<= W`` (one-position seam rotations)."""
    width = machine.vector_elems
    if width != 4 or machine.element_bytes != 8:
        raise VectorizeError(
            f"folding baseline implements the AVX2 4x4 float64 transpose; "
            f"got width={width}, {machine.element_bytes}B elements"
        )
    rx = spec.radius[-1]
    if rx > width:
        raise VectorizeError(
            f"folding seam rotation supports x-radius <= {width}, got {rx}"
        )
    block = width * width  # one transposed block per iteration
    check_geometry(spec, grid, block=block,
                   halo_needed=required_halo(spec, machine))
    b = ProgramBuilder(width, elem_bytes=machine.element_bytes)

    rows = list(iter_row_offsets(spec))
    windows: List[_TransposedWindow] = []

    # prologue: transpose the previous and current block of every row
    b.in_prologue()
    for rid, (outer, _taps) in enumerate(rows):
        win = _TransposedWindow(b, rid)
        off0 = outer + (0,)
        for base, names in ((-block, win.prev), (0, win.cur)):
            raw = [
                b.load(point_addr(grid.ndim, off0, array=b.input_array,
                                  x_extra=base + j * width),
                       comment=f"row {outer}: block load")
                for j in range(width)
            ]
            cols = _transpose4(b, raw, tag=f"row{rid} in")
            for name, col in zip(names, cols):
                b.mov_to(name, col, comment="pin transposed column")
        windows.append(win)

    # body
    b.in_body()
    carried: List[Tuple[str, str]] = []
    next_cols: List[List[str]] = []
    for rid, (outer, _taps) in enumerate(rows):
        off0 = outer + (0,)
        raw = [
            b.load(point_addr(grid.ndim, off0, array=b.input_array,
                              x_extra=block + j * width),
                   comment=f"row {outer}: next block load")
            for j in range(width)
        ]
        next_cols.append(_transpose4(b, raw, tag=f"row{rid} in"))

    results: List[str] = []
    for j in range(width):
        acc = None
        for rid, (outer, taps) in enumerate(rows):
            win = windows[rid]
            for dx in sorted(taps):
                reg = win.column(next_cols[rid], j + dx)
                c = b.broadcast(taps[dx])
                if acc is None:
                    acc = b.mul(c, reg, comment=f"col {j} first tap")
                else:
                    acc = b.fma(c, reg, acc, comment=f"col {j} tap {outer}+{dx}")
        results.append(acc)

    outs = _transpose4(b, results, tag="out")
    for j, reg in enumerate(outs):
        b.store(reg, out_addr(grid.ndim, x_extra=j * width),
                comment=f"store output vector {j}")

    for win, cols in zip(windows, next_cols):
        for p, c in zip(win.prev, win.cur):
            carried.append((p, c))
        for c, n in zip(win.cur, cols):
            carried.append((c, n))
    for dst, src in carried:
        b.mov_to(dst, src, comment="slide transposed window")

    return b.build(
        name=f"folding/{spec.name}",
        scheme="folding",
        loops=loop_nest(grid, block=block),
        vectors_per_iter=width,
        overlapped=False,
        tail_spec=spec,
        notes="in-register 4x4 transpose in/out; seam rotations at block edges",
    )
