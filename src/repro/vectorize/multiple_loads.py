"""Multiple Loads — the compiler auto-vectorization baseline ("Auto").

For every neighbour offset the scheme issues one (generally unaligned)
vector load and accumulates with an FMA: ``k`` loads and one store per
output vector, zero shuffles (paper Table 2, "Auto" row).  The data-transfer
volume multiplies with the stencil size and the unaligned accesses make the
pipeline load-port bound — the weakness §2.1 describes.
"""

from __future__ import annotations

from ..config import MachineConfig
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from .common import check_geometry, loop_nest, out_addr, point_addr
from .program import ProgramBuilder, VectorProgram


def generate_multiple_loads(
    spec: StencilSpec,
    machine: MachineConfig,
    grid: Grid,
) -> VectorProgram:
    """Lower one Jacobi sweep of ``spec`` with the Multiple-Loads strategy."""
    width = machine.vector_elems
    check_geometry(spec, grid, block=width)
    b = ProgramBuilder(width, elem_bytes=machine.element_bytes)

    acc = None
    for off, coeff in zip(spec.offsets, spec.coeffs):
        v = b.load(point_addr(grid.ndim, off, array=b.input_array),
                   comment=f"neighbour {off}",
                   unaligned=off[-1] % width != 0)
        c = b.broadcast(coeff)
        if acc is None:
            acc = b.mul(c, v, comment="first tap")
        else:
            acc = b.fma(c, v, acc, comment=f"tap {off}")
    b.store(acc, out_addr(grid.ndim), comment="store result vector")

    return b.build(
        name=f"multiple-loads/{spec.name}",
        scheme="multiple-loads",
        loops=loop_nest(grid, block=width),
        vectors_per_iter=1,
        overlapped=False,
        tail_spec=spec,
        notes="one unaligned load per neighbour; no shuffles",
    )
