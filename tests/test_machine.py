"""Unit tests for the SIMD machine interpreter."""

import numpy as np
import pytest

from repro.config import GENERIC_AVX2
from repro.errors import MachineError
from repro.machine.isa import Affine, Instr, MemRef, Op
from repro.machine.machine import SimdMachine
from repro.machine.trace import TraceCounter, analytic_trace
from repro.schemes import SCHEMES, generate, scheme_halo
from repro.stencils.grid import Grid
from repro.stencils.spec import star
from repro.vectorize.driver import measure_trace
from repro.vectorize.program import Loop, ProgramBuilder, VectorProgram


def copy_program(n=16, width=4):
    """for x in [0, n) step 4: out[x:x+4] = 2 * a[x:x+4]"""
    b = ProgramBuilder(width)
    v = b.load(b.mem(Affine.var("x")))
    two = b.broadcast(2.0)
    r = b.mul(two, v)
    b.store(r, b.mem(Affine.var("x"), array="out"))
    return b.build(name="copy", scheme="test",
                   loops=[Loop("x", 0, n, width)], vectors_per_iter=1)


class TestExecution:
    def test_simple_loop(self):
        prog = copy_program()
        a = np.arange(16.0)
        out = np.zeros(16)
        SimdMachine(4).run(prog, {"a": a, "out": out})
        assert np.array_equal(out, 2 * a)

    def test_width_mismatch_rejected(self):
        prog = copy_program(width=4)
        with pytest.raises(MachineError):
            SimdMachine(8).run(prog, {"a": np.zeros(16), "out": np.zeros(16)})

    def test_odd_width_rejected(self):
        with pytest.raises(MachineError):
            SimdMachine(3)

    def test_unknown_array_rejected(self):
        prog = copy_program()
        with pytest.raises(MachineError):
            SimdMachine(4).run(prog, {"a": np.zeros(16)})

    def test_out_of_bounds_load_rejected(self):
        # n=16 but array only 12 long -> last iteration faults
        prog = copy_program(n=16)
        with pytest.raises(MachineError):
            SimdMachine(4).run(prog, {"a": np.zeros(12), "out": np.zeros(16)})

    def test_axis_bounds_checked(self):
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("y"), Affine.var("x")))
        b.store(v, b.mem(Affine.var("y"), Affine.var("x"), array="out"))
        prog = b.build(name="p", scheme="t",
                       loops=[Loop("y", 0, 3, 1), Loop("x", 0, 4, 4)],
                       vectors_per_iter=1)
        with pytest.raises(MachineError):
            SimdMachine(4).run(prog, {"a": np.zeros((2, 4)),
                                      "out": np.zeros((2, 4))})

    def test_store_of_undefined_register(self):
        b = ProgramBuilder(4)
        b.store("ghost", b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="p", scheme="t", loops=[Loop("x", 0, 4, 4)],
                       vectors_per_iter=1)
        with pytest.raises(MachineError):
            SimdMachine(4).run(prog, {"a": np.zeros(4), "out": np.zeros(4)})

    def test_address_rank_checked(self):
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        b.store(v, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="p", scheme="t", loops=[Loop("x", 0, 4, 4)],
                       vectors_per_iter=1)
        with pytest.raises(MachineError):
            SimdMachine(4).run(prog, {"a": np.zeros((2, 4)),
                                      "out": np.zeros((2, 4))})


class TestLoopCarriedState:
    def test_prologue_binds_x_start(self):
        """Prologue loads at the x-loop's start value (Algorithm 1)."""
        b = ProgramBuilder(4)
        b.in_prologue()
        b.load_to("carry", b.mem(Affine.var("x")))
        b.in_body()
        b.store("carry", b.mem(Affine.var("x"), array="out"))
        b.load_to("carry", b.mem(Affine.var("x", const=4)))
        prog = b.build(name="p", scheme="t", loops=[Loop("x", 0, 8, 4)],
                       vectors_per_iter=1)
        a = np.arange(12.0)
        out = np.zeros(8)
        SimdMachine(4).run(prog, {"a": a, "out": out})
        # iteration 0 stores the prologue load (a[0:4]); iteration 1
        # stores the value reloaded at x=0+4
        assert np.array_equal(out, np.arange(8.0))

    def test_registers_reset_per_inner_entry(self):
        b = ProgramBuilder(4)
        b.in_prologue()
        b.load_to("w", b.mem(Affine.var("y"), Affine.var("x")))
        b.in_body()
        b.store("w", b.mem(Affine.var("y"), Affine.var("x"), array="out"))
        prog = b.build(name="p", scheme="t",
                       loops=[Loop("y", 0, 2, 1), Loop("x", 0, 4, 4)],
                       vectors_per_iter=1)
        a = np.arange(8.0).reshape(2, 4)
        out = np.zeros((2, 4))
        SimdMachine(4).run(prog, {"a": a, "out": out})
        assert np.array_equal(out, a)  # each row re-ran its prologue


class TestAnalyticTrace:
    """The codegen backend never executes instructions one at a time, so
    its trace is computed statically (:func:`repro.machine.trace.
    analytic_trace`); it must tally *exactly* what the interpreter
    counts."""

    def _assert_traces_equal(self, analytic, interp):
        assert analytic.by_class == interp.by_class
        assert analytic.by_op == interp.by_op
        assert analytic.vectors == interp.vectors
        assert analytic.steps == interp.steps

    def test_matches_interpreter_on_copy_program(self):
        prog = copy_program(n=16)
        interp = TraceCounter()
        SimdMachine(4).run(prog, {"a": np.zeros(16), "out": np.zeros(16)},
                           counter=interp)
        self._assert_traces_equal(analytic_trace(prog), interp)

    def test_counts_prologue_once_per_outer_entry(self):
        b = ProgramBuilder(4)
        b.in_prologue()
        b.load_to("w", b.mem(Affine.var("y"), Affine.var("x")))
        b.in_body()
        b.store("w", b.mem(Affine.var("y"), Affine.var("x"), array="out"))
        b.load_to("w", b.mem(Affine.var("y"), Affine.var("x", const=4)))
        prog = b.build(name="p", scheme="t",
                       loops=[Loop("y", 0, 3, 1), Loop("x", 0, 8, 4)],
                       vectors_per_iter=1)
        interp = TraceCounter()
        SimdMachine(4).run(prog, {"a": np.zeros((3, 12)),
                                  "out": np.zeros((3, 12))}, counter=interp)
        analytic = analytic_trace(prog)
        assert analytic.loads == 3 * (1 + 2)  # prologue x3 + body x6
        self._assert_traces_equal(analytic, interp)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_interpreter_for_scheme(self, scheme):
        # t4-jigsaw fuses 4 steps, so its x-radius quadruples: only
        # radius-1 1-D kernels fit the butterfly window at W=4.
        if scheme == "t4-jigsaw":
            spec = star(1, 1, center=-3.0, arm=[0.5])
        else:
            spec = star(2, 2, center=-3.0, arm=[0.5, 0.25])
        width = GENERIC_AVX2.vector_elems
        nx = 6 * width + 3  # tail strip: analytic must count it too
        shape = (4,) * (spec.ndim - 1) + (nx,)
        halo = scheme_halo(scheme, spec, GENERIC_AVX2)
        grid = Grid.random(shape, halo, seed=5)
        prog = generate(scheme, spec, GENERIC_AVX2, grid)
        interp = measure_trace(prog, grid, backend="interp")
        analytic = measure_trace(prog, grid, backend="codegen")
        self._assert_traces_equal(analytic, interp)

    def test_analytic_trace_fresh_counter(self):
        spec = star(1, 1, center=-2.0, arm=[1.0])
        halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
        grid = Grid.random((40,), halo, seed=0)
        prog = generate("jigsaw", spec, GENERIC_AVX2, grid)
        tc = analytic_trace(prog)
        assert tc.vectors == prog.vectors_per_iter * prog.total_body_runs()
        assert tc.steps == prog.steps_per_iter


class TestTraceCounting:
    def test_counts_match_execution(self):
        prog = copy_program(n=16)
        tc = TraceCounter()
        SimdMachine(4).run(prog, {"a": np.zeros(16), "out": np.zeros(16)},
                           counter=tc)
        assert tc.loads == 4
        assert tc.stores == 4
        assert tc.arith == 4
        assert tc.vectors == 4

    def test_per_vector_normalization(self):
        prog = copy_program(n=16)
        tc = TraceCounter()
        SimdMachine(4).run(prog, {"a": np.zeros(16), "out": np.zeros(16)},
                           counter=tc)
        pv = tc.per_vector()
        assert pv["L"] == pytest.approx(1.0)
        assert pv["S"] == pytest.approx(1.0)

    def test_merge(self):
        t1, t2 = TraceCounter(), TraceCounter()
        t1.add(Instr(Op.ADD, dst="d", srcs=("a", "b")))
        t2.add(Instr(Op.ADD, dst="d", srcs=("a", "b")), times=2)
        t1.merge(t2)
        assert t1.arith == 3

    def test_summary_keys(self):
        tc = TraceCounter()
        tc.add(Instr(Op.SHUFPD, dst="d", srcs=("a", "b"), imm=0))
        s = tc.summary()
        assert s["in-lane"] == 1
        assert s["total"] == 1
        assert tc.shuffles == 1
