"""float32 (4-elements-per-lane) support tests.

The paper's §3.1 claims LBV "is not constrained by register length or
specific application scenarios"; these tests exercise the single-precision
instantiation: the ps-family shuffle ISA (vshufps / vpermilps /
vunpck*ps), the generalized shift chains, and the full scheme matrix on
float32 grids at SSE/AVX2/AVX-512 widths.
"""

import numpy as np
import pytest

from repro.config import (
    GENERIC_AVX2,
    GENERIC_AVX2_F32,
    GENERIC_AVX512_F32,
    GENERIC_SSE_F32,
)
from repro.errors import IsaError, MachineError, VectorizeError
from repro.core.jigsaw import generate_jigsaw, required_halo as jig_halo
from repro.machine.isa import Affine, Instr, Op, execute_alu
from repro.machine.machine import SimdMachine
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid
from repro.vectorize.driver import run_program
from repro.vectorize.program import Loop, ProgramBuilder
from repro.vectorize.shifts import ShiftCache

F32_MACHINES = (GENERIC_SSE_F32, GENERIC_AVX2_F32, GENERIC_AVX512_F32)


def vec32(*xs):
    return np.array(xs, dtype=np.float32)


def run_alu(instr, width=8, **regs):
    regs = {k: vec32(*v) for k, v in regs.items()}
    execute_alu(instr, regs, width, epl=4, dtype=np.float32)
    return regs[instr.dst]


class TestPsIsa:
    def test_shufps_field_selection(self):
        out = run_alu(Instr(Op.SHUFPS, dst="d", srcs=("a", "b"), imm=0x1B),
                      width=4, a=(0, 1, 2, 3), b=(4, 5, 6, 7))
        # fields (3, 2, 1, 0): (a3, a2, b1, b0)
        assert np.array_equal(out, [3, 2, 5, 4])

    def test_shufps_same_imm_every_lane(self):
        out = run_alu(Instr(Op.SHUFPS, dst="d", srcs=("a", "b"), imm=0x88),
                      a=tuple(range(8)), b=tuple(range(8, 16)))
        assert np.array_equal(out, [0, 2, 8, 10, 4, 6, 12, 14])

    def test_permilps(self):
        out = run_alu(Instr(Op.PERMILPS, dst="d", srcs=("a",), imm=0x1B),
                      width=4, a=(0, 1, 2, 3))
        assert np.array_equal(out, [3, 2, 1, 0])

    def test_unpck_pair(self):
        e = (0, 2, 8, 10, 4, 6, 12, 14)
        o = (1, 3, 9, 11, 5, 7, 13, 15)
        lo = run_alu(Instr(Op.UNPCKLPS, dst="d", srcs=("e", "o")), e=e, o=o)
        hi = run_alu(Instr(Op.UNPCKHPS, dst="d", srcs=("e", "o")), e=e, o=o)
        assert np.array_equal(lo, list(range(8)))
        assert np.array_equal(hi, list(range(8, 16)))

    def test_perm2f128_four_elem_lanes(self):
        out = run_alu(Instr(Op.PERM2F128, dst="d", srcs=("a", "b"),
                            imm=(1, 2)),
                      a=tuple(range(8)), b=tuple(range(8, 16)))
        assert np.array_equal(out, [4, 5, 6, 7, 8, 9, 10, 11])

    def test_pd_family_rejected_on_f32_lanes(self):
        with pytest.raises(IsaError):
            run_alu(Instr(Op.SHUFPD, dst="d", srcs=("a", "b"), imm=0),
                    a=tuple(range(8)), b=tuple(range(8)))

    def test_ps_family_rejected_on_f64_lanes(self):
        regs = {"a": np.zeros(4), "b": np.zeros(4)}
        with pytest.raises(IsaError):
            execute_alu(Instr(Op.SHUFPS, dst="d", srcs=("a", "b"), imm=0),
                        regs, 4, epl=2)

    def test_bad_imm(self):
        with pytest.raises(IsaError):
            run_alu(Instr(Op.SHUFPS, dst="d", srcs=("a", "b"), imm=256),
                    a=tuple(range(8)), b=tuple(range(8)))


class TestMachineDtype:
    def test_machine_validates_lane_divisibility(self):
        with pytest.raises(MachineError):
            SimdMachine(2, elem_bytes=4)  # half a float32 lane

    def test_machine_rejects_other_sizes(self):
        with pytest.raises(MachineError):
            SimdMachine(8, elem_bytes=2)

    def test_driver_checks_grid_dtype(self):
        spec = library.get("heat-1d")
        m = GENERIC_AVX2_F32
        g64 = Grid.random((96,), jig_halo(spec, m), seed=0)  # float64 grid
        prog = generate_jigsaw(spec, m, g64)
        with pytest.raises(VectorizeError):
            run_program(prog, g64, 1)

    def test_registers_hold_f32(self):
        m = SimdMachine(8, elem_bytes=4)
        assert m.dtype is np.float32 and m.epl == 4


def _f32_shift_cases():
    """(width, d) matrix for the f32 shift chains.  d <= width must
    execute; beyond the register pair is a hard rejection, marked
    xfail(strict) so the supported range can only widen deliberately."""
    for width in (4, 8, 16):
        for d in range(0, 17):
            if d <= width:
                yield pytest.param(width, d)
            else:
                yield pytest.param(
                    width, d,
                    marks=pytest.mark.xfail(
                        strict=True, raises=VectorizeError,
                        reason=f"shift {d} exceeds the {width}-element "
                               f"register pair"),
                )


class TestShiftsF32:
    @pytest.mark.parametrize("width,d", _f32_shift_cases())
    def test_all_distances(self, width, d):
        b = ProgramBuilder(width, elem_bytes=4)
        u = b.load(b.mem(Affine.var("x")))
        v = b.load(b.mem(Affine.var("x", const=width)))
        r = ShiftCache(b, u, v).shift(d)
        b.store(r, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="t", scheme="t",
                       loops=[Loop("x", 0, width, width)],
                       vectors_per_iter=1)
        a = np.arange(4.0 * width, dtype=np.float32)
        out = np.zeros(width, dtype=np.float32)
        SimdMachine(width, elem_bytes=4).run(prog, {"a": a, "out": out})
        assert np.array_equal(out, np.arange(d, d + width,
                                             dtype=np.float32))

    @pytest.mark.parametrize("width", [4, 8, 16])
    def test_supported_range_boundary(self, width):
        """shift(width) is the last supported distance at 4-byte lanes;
        width+1 raises."""
        b = ProgramBuilder(width, elem_bytes=4)
        u = b.load(b.mem(Affine.var("x")))
        v = b.load(b.mem(Affine.var("x", const=width)))
        r = ShiftCache(b, u, v).shift(width)
        b.store(r, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="t", scheme="t",
                       loops=[Loop("x", 0, width, width)],
                       vectors_per_iter=1)
        a = np.arange(4.0 * width, dtype=np.float32)
        out = np.zeros(width, dtype=np.float32)
        SimdMachine(width, elem_bytes=4).run(prog, {"a": a, "out": out})
        assert np.array_equal(out, np.arange(width, 2 * width,
                                             dtype=np.float32))
        b = ProgramBuilder(width, elem_bytes=4)
        with pytest.raises(VectorizeError):
            ShiftCache(b, "u", "v").shift(width + 1)

    def test_sublane_shift_cost(self):
        """rem=2 costs one vshufps over the lane pair; rem=1/3 two."""
        b = ProgramBuilder(8, elem_bytes=4)
        cache = ShiftCache(b, "u", "v")
        before = len(b._body)
        cache.shift(2)
        assert len(b._body) - before == 2  # 1 lane concat + 1 shufps
        before = len(b._body)
        cache.shift(1)  # shares the lane concat and the mid
        assert len(b._body) - before == 1

    def test_lane_aligned_rejects_sublane(self):
        b = ProgramBuilder(8, elem_bytes=4)
        with pytest.raises(VectorizeError):
            ShiftCache(b, "u", "v").even_shift(2)  # not lane-aligned at E=4


def f32_grid(spec, halo, nx, seed=0):
    shape = (4,) * (spec.ndim - 1) + (nx,)
    return Grid.random(shape, halo, seed=seed, dtype=np.float32)


class TestSchemesF32:
    @pytest.mark.parametrize("machine", F32_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("kernel", ["heat-1d", "heat-2d", "box-2d9p",
                                        "heat-3d"])
    def test_jigsaw_matches_reference(self, machine, kernel):
        spec = library.get(kernel)
        g = f32_grid(spec, jig_halo(spec, machine),
                     nx=6 * 2 * machine.vector_elems, seed=1)
        prog = generate_jigsaw(spec, machine, g)
        got = run_program(prog, g, 1)
        ref = apply_steps(spec, g, 1)
        assert np.allclose(got.interior, ref.interior, rtol=2e-4, atol=1e-6)

    def test_t_jigsaw_fusion_f32(self):
        m = GENERIC_AVX2_F32
        spec = library.get("heat-2d")
        g = f32_grid(spec, jig_halo(spec, m, time_fusion=2), nx=96, seed=2)
        prog = generate_jigsaw(spec, m, g, time_fusion=2)
        got = run_program(prog, g, 4)
        ref = apply_steps(spec, g, 4)
        assert np.allclose(got.interior, ref.interior, rtol=5e-4, atol=1e-6)

    def test_program_uses_ps_family_only(self):
        m = GENERIC_AVX2_F32
        spec = library.get("box-2d9p")
        g = f32_grid(spec, jig_halo(spec, m), nx=96)
        prog = generate_jigsaw(spec, m, g)
        ops = {i.op for i in prog.body + prog.prologue}
        assert Op.SHUFPD not in ops and Op.PERMILPD not in ops
        assert Op.SHUFPS in ops or Op.UNPCKLPS in ops

    def test_cross_lane_budget_stays_low(self):
        """The §3.1 economy survives single precision: far fewer
        cross-lane shuffles than the per-neighbour approaches."""
        m = GENERIC_AVX2_F32
        spec = library.get("heat-1d")
        g = f32_grid(spec, jig_halo(spec, m), nx=96)
        pv = generate_jigsaw(spec, m, g).per_vector_mix()
        assert pv["C"] <= 2.0

    def test_elem_bytes_recorded(self):
        m = GENERIC_AVX2_F32
        spec = library.get("heat-1d")
        g = f32_grid(spec, jig_halo(spec, m), nx=96)
        prog = generate_jigsaw(spec, m, g)
        assert prog.elem_bytes == 4


def test_validation_matrix_f32():
    from repro.validate import validate
    rep = validate(machines=(GENERIC_AVX2_F32,),
                   kernels=("heat-1d", "box-2d9p"))
    assert rep.all_ok, rep.summary()


def test_f32_machine_geometry():
    assert GENERIC_AVX2_F32.vector_elems == 8
    assert GENERIC_AVX2_F32.elems_per_lane == 4
    assert GENERIC_AVX512_F32.vector_elems == 16
    assert GENERIC_AVX2.vector_elems == 4  # f64 twin unchanged
