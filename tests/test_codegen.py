"""Conformance suite for the emitted-source codegen backend.

Eight layers of guarantees:

* **golden sources** — the exact text :func:`repro.machine.codegen.
  emitted_source` produces for canonical star/box kernels is committed
  under ``tests/goldens/`` and compared byte-for-byte.  Any change to
  the emission pipeline shows up as a readable source diff; rerun with
  ``pytest --regen-goldens`` to bless an intended change.
* **emission units** — zero-copy lane views, shuffles as lane renames,
  and register-file arithmetic (one ufunc call per lane op with
  ``out=`` a register, FMA as a multiply and an add into one register,
  single-use registers reused) hold on purpose-built programs, with
  results checked bitwise against the interpreter.
* **fallback taxonomy** — every :class:`CodegenFallback` reason
  (``compile`` | ``layout`` | ``recurrence`` | ``mem_hook``) fires where
  documented, a refused program leaves its arrays untouched, and the
  driver degrades codegen -> interp with the per-reason counters.  Each
  program outside the generated shape (gathered loads, copied carries,
  live prologue planes, overlapping or reversed stores) is refused, and
  ``backend="auto"`` returns the interpreter's grid bitwise.
* **generated shape** — every registry lowering and every planner
  program on odd shapes, in one sweep and in a 2-shard sweep, runs on
  codegen without a single fallback.
* **lane planes** — constant registers stored as they are, a shuffle
  duplicating one lane of a single-use value, and constants no float32
  holds exactly all stay bitwise in float32 and float64 (every hoisted
  scalar has the program's dtype), windows seeded or refilled by a
  constant are refused in both, and the per-program specialization
  tables stay LRU-bounded.
* **strip-mining** — sweeps above :data:`repro.machine.codegen.
  SLAB_POINTS` run slab by slab along the outermost loop (split evenly
  when a divisor of its extent is in reach), bitwise equal to the
  interpreter, through slab programs that share their parent's
  analysis.
* **flat layout** — dealt row pitches off any block multiple, 1-D grids
  and duplicate carry lanes bound once, each bitwise against the
  interpreter.
* **register file** — two threads running one slabbed specialization
  at once (directly and as thread-executor shards), a grid four times
  larger needing no larger register file, and float32/float64 programs
  alternating on one thread all stay bitwise equal to the interpreter.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.config import GENERIC_AVX2, GENERIC_AVX2_F32, PAPER_MACHINES
from repro.core import compile_kernel
from repro.core.itm import fusable
from repro.core.jigsaw import required_halo
from repro.errors import ReproError, VectorizeError
from repro.machine import codegen as codegen_mod
from repro.machine.codegen import (
    CodegenFallback,
    CodegenProgram,
    emitted_source,
    get_codegen,
)
from repro.machine.isa import Affine
from repro.machine.machine import SimdMachine
from repro.schemes import SCHEMES, generate, model_grid, scheme_halo
from repro.stencils import library
from repro.stencils.grid import Grid
from repro.stencils.spec import star
from repro.vectorize.driver import run_program
from repro.vectorize.program import Loop, ProgramBuilder

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: kernel name -> committed golden file for the jigsaw/AVX2 lowering on
#: a fixed 8x32 interior (the source depends only on program + shapes)
GOLDEN_CASES = {
    "star-2d9p": "codegen_star2d9p_jigsaw_avx2.txt",
    "box-2d9p": "codegen_box2d9p_jigsaw_avx2.txt",
}

GOLDEN_SHAPE = (8, 32)


def _jigsaw_case(kernel_name, shape=GOLDEN_SHAPE, seed=7):
    spec = library.get(kernel_name)
    halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
    grid = Grid.random(shape, halo, seed=seed)
    prog = generate("jigsaw", spec, GENERIC_AVX2, grid)
    return prog, grid


def _golden_source(kernel_name):
    prog, grid = _jigsaw_case(kernel_name)
    arrays = {prog.input_array: grid.data,
              prog.output_array: grid.like().data}
    return emitted_source(prog, arrays)


def _run_both(prog, arrays_factory):
    """(interpreter arrays, codegen arrays) after one sweep each."""
    a1 = arrays_factory()
    a2 = arrays_factory()
    SimdMachine(prog.width, elem_bytes=prog.elem_bytes).run(prog, a1)
    CodegenProgram(prog).run(a2)
    return a1, a2


def _hoisted(spec):
    """The hoisted constants (``_K{n}``) a specialization's source reads."""
    return {k: v for k, v in spec.fn.__globals__.items()
            if re.fullmatch(r"_K\d+", k)}


def _section(src, start, stop=None):
    """The stripped statements of one emitted-source section: the lines
    after the comment starting with ``start``, up to ``stop``."""
    lines = [ln.strip() for ln in src.splitlines()]
    i = next(n for n, ln in enumerate(lines) if ln.startswith(start)) + 1
    j = next((n for n, ln in enumerate(lines)
              if stop and n >= i and ln.startswith(stop)), len(lines))
    return [ln for ln in lines[i:j] if ln]


def _operands(args):
    """The operand texts of a call's argument list, split at the commas
    outside brackets (slices and scalar expressions kept whole)."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(args):
        depth += (ch in "([") - (ch in ")]")
        if ch == "," and depth == 0:
            parts.append(args[start:i].strip())
            start = i + 1
    return parts + [args[start:].strip()]


def _arith(src):
    """``(ufunc, operands, register)`` of every arithmetic statement of
    an emitted body, in order; each must write a register via ``out=``."""
    stmts = [ln for ln in _section(src, "# body", "# deferred")
             if " = " not in ln] if "# body" in src else []
    calls = [re.fullmatch(r"np\.(add|subtract|multiply)\((.*), "
                          r"out=(_r\d+)\)", ln) for ln in stmts]
    assert all(calls), src
    return [(m.group(1), _operands(m.group(2)), m.group(3)) for m in calls]


def _refused(prog, reason, shape, halo, dtype=np.float64):
    """Codegen refuses ``prog`` with ``reason`` and leaves its arrays
    untouched; ``backend="auto"`` then returns the interpreter's grid
    bitwise (one sweep over a random ``shape``/``halo`` grid)."""
    grid = Grid.random(shape, halo, seed=1, dtype=dtype)
    arrays = {prog.input_array: grid.data.copy(),
              prog.output_array: grid.like().data}
    before = {k: v.copy() for k, v in arrays.items()}
    with pytest.raises(CodegenFallback) as ei:
        CodegenProgram(prog).run(arrays)
    assert ei.value.reason == reason, ei.value
    assert all(np.array_equal(v, before[k]) for k, v in arrays.items())
    want = run_program(prog, grid, prog.steps_per_iter, backend="interp")
    got = run_program(prog, grid, prog.steps_per_iter, backend="auto")
    assert np.array_equal(got.data, want.data)


# ---------------------------------------------------------------------------
# golden sources
# ---------------------------------------------------------------------------

class TestGoldenSources:
    @pytest.mark.parametrize("kernel", sorted(GOLDEN_CASES))
    def test_emitted_source_matches_golden(self, kernel, request):
        src = _golden_source(kernel)
        path = os.path.join(GOLDEN_DIR, GOLDEN_CASES[kernel])
        if request.config.getoption("--regen-goldens"):
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(src)
        with open(path, "r", encoding="utf-8") as fh:
            expected = fh.read()
        assert src == expected, (
            f"emitted source for {kernel!r} drifted from the committed "
            f"golden ({path}); if the emission change is intended, rerun "
            f"with --regen-goldens and review the diff")

    def test_emitted_source_is_deterministic(self):
        assert _golden_source("star-2d9p") == _golden_source("star-2d9p")

    def test_specialization_is_per_shape(self):
        """A different grid shape re-specializes; the original entry
        stays cached (source text differs in its hoisted geometry)."""
        prog, grid = _jigsaw_case("star-2d9p")
        cg = CodegenProgram(prog)
        arrays = {prog.input_array: grid.data,
                  prog.output_array: grid.like().data}
        first = cg.specialize(arrays)
        assert cg.specialize(arrays) is first


# ---------------------------------------------------------------------------
# emission units
# ---------------------------------------------------------------------------

class TestEmissionUnits:
    def test_forward_strides_become_views(self):
        """Non-negative lattice strides lower every load and store lane to
        a zero-copy ``np.ndarray`` view — a view-only program hoists no
        index constant, only its scalar coefficients."""
        prog, grid = _jigsaw_case("star-2d9p")
        arrays = {prog.input_array: grid.data,
                  prog.output_array: grid.like().data}
        spec = CodegenProgram(prog).specialize(arrays)
        assert "np.ndarray(" in spec.source
        hoisted = _hoisted(spec)
        assert hoisted
        assert all(isinstance(v, np.generic) for v in hoisted.values()), \
            sorted(k for k, v in hoisted.items()
                   if not isinstance(v, np.generic))

    def test_negative_stride_becomes_gather(self):
        """A reversed x walk (negative row stride) is in no dealt plane;
        codegen emits no gather for it and refuses (``layout``)."""
        _refused(_reversed_copy_program(), "layout", (16,), 0)

    def test_fma_chain_writes_one_register_per_lane(self):
        """An FMA lane is a multiply into a register and an add into the
        same register: each link of the chain writes one register per
        lane, the second link reads the first link's register of its
        lane, and the first link's single-use registers are reused as
        scratch (``width + 1`` registers in all)."""
        b = ProgramBuilder(4)
        v0 = b.load(b.mem(Affine.var("x")))
        v1 = b.load(b.mem(Affine.var("x", const=1)))
        c = b.broadcast(3.0)
        z = b.setzero()
        f1 = b.fma(c, v0, z)
        f2 = b.fma(c, v1, f1)
        b.store(f2, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="fold", scheme="t",
                       loops=[Loop("x", 0, 16, 4)], vectors_per_iter=1)
        arrays = {"a": np.arange(20.0), "out": np.zeros(16)}
        src = emitted_source(prog, arrays)
        ops = _arith(src)
        assert len(ops) == 16, src   # two FMAs x four lanes x two ops
        links = []
        for (mul, mul_args, r), (add, add_args, r2) in zip(ops[::2],
                                                          ops[1::2]):
            assert (mul, add) == ("multiply", "add") and r2 == r, src
            assert re.fullmatch(r"_K\d+", mul_args[0]), src
            assert add_args[0] == r, src
            links.append((r, add_args[1]))
        first, second = links[:4], links[4:]
        assert len({r for r, _ in first}) == 4, src
        assert [prev for _, prev in second] == [r for r, _ in first], src
        stored = [ln.split(" = ")[1].split("[")[0]
                  for ln in _section(src, "# deferred")]
        assert stored == [r for r, _ in second], src
        assert len(set(stored)) == 4, src
        assert len(set(re.findall(r"^\s*(_r\d+) = ", src, re.M))) == 5, src

        def factory():
            return {"a": np.linspace(0.0, 2.0, 20), "out": np.zeros(16)}
        a1, a2 = _run_both(prog, factory)
        assert np.array_equal(a2["out"], a1["out"])

    def test_multi_use_value_is_materialized_once(self):
        """A value consumed twice is computed once into its own register,
        and its consumer reads that register twice."""
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        s = b.add(v, v)
        r = b.mul(s, s)
        b.store(r, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="reuse", scheme="t",
                       loops=[Loop("x", 0, 16, 4)], vectors_per_iter=1)
        arrays = {"a": np.arange(16.0), "out": np.zeros(16)}
        src = emitted_source(prog, arrays)
        ops = _arith(src)
        sums = [(args, r) for f, args, r in ops if f == "add"]
        squares = [(args, r) for f, args, r in ops if f == "multiply"]
        # each lane's doubly-used sum is evaluated once, into a register
        # of its own, and its square reads that register
        assert len(sums) == 4 and len(ops) == 8, src
        assert all(a == b and a.startswith("_v") for (a, b), _ in sums), src
        assert len({r for _, r in sums}) == 4, src
        assert [args for args, _ in squares] == \
            [[r, r] for _, r in sums], src

        def factory():
            return {"a": np.arange(16.0), "out": np.zeros(16)}
        a1, a2 = _run_both(prog, factory)
        assert np.array_equal(a2["out"], a1["out"])

    def test_straight_line_body(self):
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        two = b.broadcast(2.0)
        r = b.mul(two, v)
        b.store(r, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="copy2", scheme="t",
                       loops=[Loop("x", 0, 16, 4)], vectors_per_iter=1)

        def factory():
            return {"a": np.arange(16.0), "out": np.zeros(16)}
        a1, a2 = _run_both(prog, factory)
        assert np.array_equal(a2["out"], a1["out"])
        assert np.array_equal(a2["out"], 2 * np.arange(16.0))

    def test_carried_register_peeling(self):
        """A prologue-seeded register slid by the body (the Algorithm-1
        window) must peel into shifted rows, matching the interpreter."""
        b = ProgramBuilder(4)
        b.in_prologue()
        b.load_to("carry", b.mem(Affine.var("x")))
        b.in_body()
        b.store("carry", b.mem(Affine.var("x"), array="out"))
        b.load_to("carry", b.mem(Affine.var("x", const=4)))
        prog = b.build(name="p", scheme="t", loops=[Loop("x", 0, 16, 4)],
                       vectors_per_iter=1)
        assert CodegenProgram(prog).carried == ("carry",)

        def factory():
            return {"a": np.arange(20.0) ** 2, "out": np.zeros(16)}
        a1, a2 = _run_both(prog, factory)
        assert np.array_equal(a2["out"], a1["out"])

    def test_carry_chain_of_depth_two(self):
        """mov-slide chains (w0 <- w1 <- fresh load) are built carry by
        carry, w1 before w0; the result must still be exact."""
        b = ProgramBuilder(4)
        b.in_prologue()
        b.load_to("w0", b.mem(Affine.var("x")))
        b.load_to("w1", b.mem(Affine.var("x", const=4)))
        b.in_body()
        r = b.add("w0", "w1")
        b.store(r, b.mem(Affine.var("x"), array="out"))
        b.mov_to("w0", "w1")
        b.load_to("w1", b.mem(Affine.var("x", const=8)))
        prog = b.build(name="p", scheme="t", loops=[Loop("x", 0, 24, 4)],
                       vectors_per_iter=1)
        assert set(CodegenProgram(prog).carried) == {"w0", "w1"}

        def factory():
            return {"a": np.linspace(0.0, 1.0, 32), "out": np.zeros(24)}
        a1, a2 = _run_both(prog, factory)
        assert np.array_equal(a2["out"], a1["out"])

    def test_get_codegen_is_memoized(self):
        prog, _ = _jigsaw_case("star-2d9p")
        assert get_codegen(prog) is get_codegen(prog)

    def test_get_codegen_memoizes_per_program(self):
        """One cached engine per program object: a 1-D star lowering
        reuses its engine and never shares the 2-D kernel's."""
        spec = star(1, 1, center=-2.0, arm=[1.0])
        halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
        grid = Grid.random((40,), halo, seed=0)
        prog = generate("jigsaw", spec, GENERIC_AVX2, grid)
        other, _ = _jigsaw_case("star-2d9p")
        assert get_codegen(prog) is get_codegen(prog)
        assert get_codegen(prog) is not get_codegen(other)


# ---------------------------------------------------------------------------
# fallback taxonomy
# ---------------------------------------------------------------------------

def _scan_program():
    """A prefix-sum over x — a true loop-carried recurrence no amount
    of peeling resolves."""
    b = ProgramBuilder(4)
    b.in_prologue()
    z = b.setzero()
    b.mov_to("acc", z)
    b.in_body()
    v = b.load(b.mem(Affine.var("x")))
    b.add(v, "acc", dst="acc")
    b.store("acc", b.mem(Affine.var("x"), array="out"))
    return b.build(name="scan", scheme="t", loops=[Loop("x", 0, 16, 4)],
                   vectors_per_iter=1)


def _copy_program():
    b = ProgramBuilder(4)
    v = b.load(b.mem(Affine.var("x")))
    b.store(v, b.mem(Affine.var("x"), array="out"))
    return b.build(name="copy", scheme="t", loops=[Loop("x", 0, 16, 4)],
                   vectors_per_iter=1)


def _reversed_copy_program():
    b = ProgramBuilder(4)
    v = b.load(b.mem(Affine.var("x", coeff=-1, const=12)))
    b.store(v, b.mem(Affine.var("x"), array="out"))
    return b.build(name="rev", scheme="t", loops=[Loop("x", 0, 16, 4)],
                   vectors_per_iter=1)


class TestFallbackTaxonomy:
    def test_recurrence_raises_with_untouched_output(self):
        prog = _scan_program()
        arrays = {"a": np.arange(16.0), "out": np.zeros(16)}
        with pytest.raises(CodegenFallback) as ei:
            CodegenProgram(prog).run(arrays)
        assert ei.value.reason == "recurrence"
        # deferred stores: the failed attempt must not have scribbled
        assert np.array_equal(arrays["out"], np.zeros(16))

    def test_true_recurrence_refusal_repeats_on_cached_engine(self):
        """The cached engine must refuse the accumulator on every run,
        not just the first, and never scribble on the output."""
        engine = get_codegen(_scan_program())
        arrays = {"a": np.arange(16.0), "out": np.zeros(16)}
        for _ in range(2):
            with pytest.raises(CodegenFallback) as ei:
                engine.run(arrays)
            assert ei.value.reason == "recurrence"
            assert np.array_equal(arrays["out"], np.zeros(16))

    def test_dtype_mismatch_is_layout_fallback(self):
        arrays = {"a": np.arange(16, dtype=np.float32),
                  "out": np.zeros(16, dtype=np.float32)}
        with pytest.raises(CodegenFallback) as ei:
            CodegenProgram(_copy_program()).run(arrays)
        assert ei.value.reason == "layout"

    def test_noncontiguous_array_is_layout_fallback(self):
        arrays = {"a": np.arange(32.0)[::2], "out": np.zeros(16)}
        with pytest.raises(CodegenFallback) as ei:
            CodegenProgram(_copy_program()).run(arrays)
        assert ei.value.reason == "layout"

    def test_view_only_program_hoists_nothing(self):
        """A dealt-view load and a direct view store hoist no constant."""
        def factory():
            return {"a": np.arange(16.0) + 0.5, "out": np.zeros(16)}
        spec = CodegenProgram(_copy_program()).specialize(factory())
        assert _hoisted(spec) == {}, spec.source
        a1, a2 = _run_both(_copy_program(), factory)
        assert np.array_equal(a2["out"], a1["out"])

    def test_prologue_store_is_compile_fallback(self):
        b = ProgramBuilder(4)
        b.in_prologue()
        v = b.load(b.mem(Affine.of(0)))
        b.store(v, b.mem(Affine.of(0), array="out"))
        b.in_body()
        w = b.load(b.mem(Affine.var("x")))
        b.store(w, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="ps", scheme="t", loops=[Loop("x", 0, 16, 4)],
                       vectors_per_iter=1)
        with pytest.raises(CodegenFallback) as ei:
            CodegenProgram(prog)
        assert ei.value.reason == "compile"

    def test_inplace_aliasing_is_compile_fallback(self):
        """Loading and storing the same array would reorder reads past
        writes once flattened; codegen must refuse."""
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        b.store(v, b.mem(Affine.var("x", const=4)))
        prog = b.build(name="alias", scheme="t",
                       loops=[Loop("x", 0, 16, 4)], vectors_per_iter=1)
        with pytest.raises(CodegenFallback) as ei:
            CodegenProgram(prog)
        assert ei.value.reason == "compile"


@pytest.fixture()
def observing():
    was = obs.enabled()
    obs.enable(reset=True)
    try:
        yield
    finally:
        if not was:
            obs.disable()


class TestDriverDegradation:
    def test_unknown_backend_rejected(self):
        prog, grid = _jigsaw_case("star-2d9p")
        with pytest.raises(VectorizeError):
            run_program(prog, grid, prog.steps_per_iter, backend="vliw")

    def test_unknown_backend_rejected_before_running(self):
        """An unknown engine name fails fast and leaves the grid alone."""
        spec = star(2, 1, center=-4.0, arm=[1.0], name="fb-probe")
        halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
        grid = Grid.random((4, 24), halo, seed=3)
        prog = generate("jigsaw", spec, GENERIC_AVX2, grid)
        before = grid.data.copy()
        with pytest.raises(VectorizeError, match="unknown execution backend"):
            run_program(prog, grid, 1, backend="simd")
        assert np.array_equal(grid.data, before)

    def test_recurrence_under_auto_falls_back_silently(self, observing):
        """backend="auto" on a non-peelable program transparently
        returns the interpreter's result."""
        prog = _scan_program()
        grid = Grid.random((16,), 0, seed=2)
        expect = run_program(prog, grid, 1, backend="interp")
        got = run_program(prog, grid, 1, backend="auto")
        assert np.array_equal(got.data, expect.data)
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["exec.codegen_fallback.reason.recurrence"] == 1

    def test_mem_hook_under_auto_forces_interpreter(self):
        """With backend="auto" a per-access hook still needs ordered
        accesses, so the interpreter runs and yields the codegen grid."""
        spec = star(2, 1, center=-4.0, arm=[1.0], name="fb-probe")
        halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
        grid = Grid.random((4, 24), halo, seed=3)
        prog = generate("jigsaw", spec, GENERIC_AVX2, grid)
        accesses = []

        def hook(array, offset, nbytes, is_store):
            accesses.append((array, offset, nbytes, is_store))
        hooked = run_program(prog, grid, 1, mem_hook=hook, backend="auto")
        assert accesses, "hook must observe the interpreter's accesses"
        plain = run_program(prog, grid, 1, backend="codegen")
        assert np.array_equal(hooked.data, plain.data)

    def test_recurrence_walks_the_full_ladder(self, observing):
        """codegen (recurrence) -> interp, with one reason counter and
        interp-identical output."""
        prog = _scan_program()
        grid = Grid.random((16,), 0, seed=1)
        expect = run_program(prog, grid, 1, backend="interp")
        got = run_program(prog, grid, 1, backend="codegen")
        assert np.array_equal(got.data, expect.data)
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["exec.codegen_fallback"] == 1
        assert counters["exec.codegen_fallback.reason.recurrence"] == 1

    def test_steps_zero_short_circuits(self):
        prog, grid = _jigsaw_case("star-2d9p")
        before = grid.data.copy()
        got = run_program(prog, grid, 0)
        assert got is not grid
        assert np.array_equal(got.data, before)
        assert np.array_equal(grid.data, before)  # input untouched

    def test_batch_is_a_counted_alias_of_codegen(self, observing):
        """The retired ``batch`` backend name still runs, on codegen."""
        prog, grid = _jigsaw_case("star-2d9p", seed=5)
        steps = prog.steps_per_iter
        want = run_program(prog, grid, steps, backend="interp")
        got = run_program(prog, grid, steps, backend="batch")
        assert np.array_equal(got.data, want.data)
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["exec.backend_alias.batch"] == 1
        assert "exec.codegen_fallback" not in counters

    def test_mem_hook_forces_interp(self, observing):
        """A per-access hook needs the interpreter's ordered accesses;
        the codegen engine must bow out before the first sweep."""
        prog, grid = _jigsaw_case("star-2d9p")
        expect = run_program(prog, grid, prog.steps_per_iter,
                             backend="interp")
        hits = []
        got = run_program(prog, grid, prog.steps_per_iter,
                          backend="codegen",
                          mem_hook=lambda *a, **k: hits.append(a))
        assert np.array_equal(got.data, expect.data)
        assert hits, "mem_hook never fired — interp did not run"
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["exec.codegen_fallback.reason.mem_hook"] == 1

    def test_codegen_backend_matches_interp_on_jigsaw(self):
        prog, grid = _jigsaw_case("star-2d9p", seed=11)
        steps = 2 * prog.steps_per_iter
        a = run_program(prog, grid, steps, backend="interp")
        b = run_program(prog, grid, steps, backend="codegen")
        assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# static carry schedule
# ---------------------------------------------------------------------------

def _lowered_cases():
    """Every (scheme, kernel, machine) the registry lowers, on the
    scheme's model grid."""
    for machine in PAPER_MACHINES:
        for scheme in SCHEMES:
            for kernel in library.names():
                spec = library.get(kernel)
                try:
                    grid = model_grid(scheme, spec, machine, seed=0)
                    prog = generate(scheme, spec, machine, grid)
                except ReproError:
                    continue  # e.g. t4-jigsaw is 1-D only
                yield prog, grid


def _swap_program():
    """Two registers swapped every iteration through a temporary: each
    one's end-of-body value is the other's carry, a cyclic carry graph."""
    b = ProgramBuilder(4)
    b.in_prologue()
    b.load_to("p", b.mem(Affine.var("x")))
    b.load_to("q", b.mem(Affine.var("x", const=4)))
    b.in_body()
    v = b.load(b.mem(Affine.var("x")))
    r = b.add(v, "p")
    b.store(r, b.mem(Affine.var("x"), array="out"))
    b.mov_to("t", "p")
    b.mov_to("p", "q")
    b.mov_to("q", "t")
    return b.build(name="swap", scheme="t", loops=[Loop("x", 0, 16, 4)],
                   vectors_per_iter=1)


#: odd interiors per rank: no x extent is a multiple of any block
ODD_SHAPES = {1: (203,), 2: (19, 45), 3: (7, 9, 37)}


class TestCarrySchedule:
    def test_library_carries_schedule_without_recurrence(self, observing):
        """Every scheme's carries are renames of fresh loads: all lower
        to one pass, every one is a view of its end-of-body plane (no
        carry is copied), and the sweep through the driver equals the
        interpreter's bitwise without one codegen fallback."""
        count = 0
        for prog, grid in _lowered_cases():
            cg = CodegenProgram(prog)
            assert cg.recurrence is None, prog.name
            assert cg.views == set(cg.carried), prog.name
            steps = prog.steps_per_iter
            want = run_program(prog, grid, steps, backend="interp")
            got = run_program(prog, grid, steps, backend="codegen")
            assert np.array_equal(got.data, want.data), prog.name
            count += 1
        assert count > len(SCHEMES) * len(library.names())
        counters = obs.snapshot()["metrics"]["counters"]
        assert "exec.codegen_fallback" not in counters

    def test_planner_programs_never_fall_back(self, observing):
        """Every library kernel x paper machine x fusable depth x SDF
        on/off, on odd shapes, runs on codegen in one sweep and in a
        2-shard thread sweep without one fallback: a generator change
        that emits a refused shape fails here instead of silently
        running on the interpreter."""
        count = 0
        for kernel in library.names():
            spec = library.get(kernel)
            shape = ODD_SHAPES[spec.ndim]
            for machine in PAPER_MACHINES:
                depths = [d for d in range(1, machine.vector_elems + 1)
                          if fusable(spec, d, width=machine.vector_elems)]
                for depth, use_sdf in itertools.product(depths, (True, False)):
                    halo = required_halo(spec, machine, time_fusion=depth)
                    k = compile_kernel(spec, machine, Grid(shape, halo),
                                       time_fusion=depth, use_sdf=use_sdf,
                                       cache=False)
                    grid = k.grid_like(shape, seed=count)
                    k.run(grid, depth, backend="codegen")
                    if spec.ndim > 1:  # the executor splits an outer axis
                        k.run_sharded(grid, depth, shards=2,
                                      executor="thread")
                    count += 1
        assert count > 4 * len(library.names())
        counters = obs.snapshot()["metrics"]["counters"]
        assert "exec.codegen_fallback" not in counters

    def test_cyclic_carries_are_a_recurrence(self, observing):
        prog = _swap_program()
        assert CodegenProgram(prog).recurrence is not None
        arrays = {"a": np.arange(16.0), "out": np.zeros(16)}
        with pytest.raises(CodegenFallback) as ei:
            CodegenProgram(prog).run(arrays)
        assert ei.value.reason == "recurrence"
        assert np.array_equal(arrays["out"], np.zeros(16))
        grid = Grid.random((16,), 0, seed=4)
        expect = run_program(prog, grid, 1, backend="interp")
        got = run_program(prog, grid, 1, backend="auto")
        assert np.array_equal(got.data, expect.data)
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["exec.codegen_fallback.reason.recurrence"] == 1

    def test_chain_built_against_instruction_order(self):
        """w0 <- w1 <- w2 <- fresh load, all three read before any of
        the movs: the schedule must build w2, then w1, then w0."""
        b = ProgramBuilder(4)
        b.in_prologue()
        for k in range(3):
            b.load_to(f"w{k}", b.mem(Affine.var("x", const=4 * k)))
        b.in_body()
        r = b.add(b.add("w0", "w1"), "w2")
        b.store(r, b.mem(Affine.var("x"), array="out"))
        b.mov_to("w0", "w1")
        b.mov_to("w1", "w2")
        b.load_to("w2", b.mem(Affine.var("x", const=12)))
        prog = b.build(name="p", scheme="t", loops=[Loop("x", 0, 24, 4)],
                       vectors_per_iter=1)
        cg = CodegenProgram(prog)
        assert cg.carried == ("w0", "w1", "w2")
        assert cg.recurrence is None

        def factory():
            return {"a": np.linspace(0.0, 1.0, 40) ** 3, "out": np.zeros(24)}
        a1, a2 = _run_both(prog, factory)
        assert np.array_equal(a2["out"], a1["out"])


# ---------------------------------------------------------------------------
# interpreter-parity error paths and store-commit modes
# ---------------------------------------------------------------------------

from repro.errors import IsaError, MachineError  # noqa: E402
from repro.machine.isa import Instr, Op  # noqa: E402


class TestErrorPathParity:
    def test_store_of_undefined_register(self):
        b = ProgramBuilder(4)
        b.store("ghost", b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="sg", scheme="t", loops=[Loop("x", 0, 16, 4)],
                       vectors_per_iter=1)
        with pytest.raises(MachineError):
            CodegenProgram(prog)

    def test_read_of_undefined_register(self):
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        b.emit(Instr(Op.ADD, dst="d", srcs=(v, "ghost")))
        b.store("d", b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="rg", scheme="t", loops=[Loop("x", 0, 16, 4)],
                       vectors_per_iter=1)
        with pytest.raises(IsaError):
            CodegenProgram(prog)

    def test_undefined_carry_is_deferred_to_run(self):
        """A register read before its first body definition with no
        prologue seed is no view, so codegen refuses it (``compile``)
        rather than read zeros, and ``backend="auto"`` surfaces the
        interpreter's fault at run time."""
        b = ProgramBuilder(4)
        b.in_body()
        b.store("w", b.mem(Affine.var("x"), array="out"))
        b.load_to("w", b.mem(Affine.var("x")))
        prog = b.build(name="uc", scheme="t", loops=[Loop("x", 0, 16, 4)],
                       vectors_per_iter=1)
        with pytest.raises(CodegenFallback) as ei:
            CodegenProgram(prog)
        assert ei.value.reason == "compile"
        with pytest.raises(MachineError, match="undefined register"):
            run_program(prog, Grid.random((16,), 0, seed=0), 1,
                        backend="auto")

    def test_unknown_array_in_specialize(self):
        cg = CodegenProgram(_copy_program())
        with pytest.raises(MachineError):
            cg.specialize({"a": np.arange(16.0)})

    def test_unbound_loop_variable(self):
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("z")))
        b.store(v, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="ub", scheme="t", loops=[Loop("x", 0, 16, 4)],
                       vectors_per_iter=1)
        with pytest.raises(IsaError):
            CodegenProgram(prog).specialize(
                {"a": np.arange(16.0), "out": np.zeros(16)})

    def test_rank_mismatch(self):
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("y"), Affine.var("x")))
        b.store(v, b.mem(Affine.var("y"), Affine.var("x"), array="out"))
        prog = b.build(name="rk", scheme="t",
                       loops=[Loop("y", 0, 2, 1), Loop("x", 0, 8, 4)],
                       vectors_per_iter=1)
        with pytest.raises(MachineError):
            CodegenProgram(prog).specialize(
                {"a": np.arange(16.0), "out": np.zeros(16)})

    def test_outer_axis_out_of_bounds(self):
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("y", const=3), Affine.var("x")))
        b.store(v, b.mem(Affine.var("y"), Affine.var("x"), array="out"))
        prog = b.build(name="ob", scheme="t",
                       loops=[Loop("y", 0, 2, 1), Loop("x", 0, 8, 4)],
                       vectors_per_iter=1)
        arrays = {"a": np.zeros((2, 8)), "out": np.zeros((2, 8))}
        with pytest.raises(MachineError) as ei:
            CodegenProgram(prog).specialize(arrays)
        assert "out of bounds" in str(ei.value)

    def test_x_range_out_of_bounds(self):
        arrays = {"a": np.arange(8.0), "out": np.zeros(16)}
        with pytest.raises(MachineError) as ei:
            CodegenProgram(_copy_program()).specialize(arrays)
        assert "out of bounds" in str(ei.value)

    def test_x_dependent_outer_axis_is_compile_fallback(self):
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x"), Affine.var("x")))
        b.store(v, b.mem(Affine.var("y"), Affine.var("x"), array="out"))
        prog = b.build(name="xd", scheme="t",
                       loops=[Loop("y", 0, 2, 1), Loop("x", 0, 8, 4)],
                       vectors_per_iter=1)
        with pytest.raises(CodegenFallback) as ei:
            CodegenProgram(prog)
        assert ei.value.reason == "compile"


class TestLoadResolution:
    """Loads are bounds-checked and placed from their affine form at the
    loop corners; only stores, and loads the corners cannot clear,
    build the index lattice."""

    def test_in_bounds_loads_build_no_lattice(self, monkeypatch):
        prog, grid = _jigsaw_case("box-2d9p")
        cg = CodegenProgram(prog)
        seen = []
        lattice = CodegenProgram._lattice
        monkeypatch.setattr(
            CodegenProgram, "_lattice",
            lambda self, ref, arr: seen.append(ref) or lattice(self, ref, arr))
        cg.specialize({prog.input_array: grid.data,
                       prog.output_array: grid.like().data})
        assert seen and all(ref.is_store for ref in seen)

    def test_out_of_bounds_load_names_its_env(self):
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("y", const=1), Affine.var("x")))
        b.store(v, b.mem(Affine.var("y"), Affine.var("x"), array="out"))
        prog = b.build(name="ob", scheme="t",
                       loops=[Loop("y", 1, 3, 1), Loop("x", 0, 8, 4)],
                       vectors_per_iter=1)
        arrays = {"a": np.zeros((3, 8)), "out": np.zeros((3, 8))}
        with pytest.raises(MachineError,
                           match=r"axis 0 index 3 out of bounds \[0, 3\) "
                                 r"with env \{'y': 2\}"):
            CodegenProgram(prog).specialize(arrays)

    def test_corners_agree_with_the_lattice(self):
        """Over random affine load sites (negative, zero and repeated
        coefficients, empty loops), the corner path gives the lattice's
        view or raises its exact error."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            y0 = int(rng.integers(0, 4))
            ny = int(rng.integers(0, 5))
            ys = int(rng.integers(1, 3))
            nx = int(rng.integers(1, 4))
            x0 = int(rng.integers(0, 4))
            terms0 = tuple((("y", int(c)),) for c in rng.integers(-1, 3, 2))
            outer = Affine(int(rng.integers(-1, 4)),
                           sum(terms0, ()) if rng.random() < 0.3
                           else terms0[0])
            last = Affine(int(rng.integers(-2, 8)),
                          (("x", int(rng.choice([1, 2, -1]))),)
                          + ((("y", int(rng.integers(-1, 2))),)
                             if rng.random() < 0.5 else ()))
            b = ProgramBuilder(4)
            v = b.load(b.mem(outer, last))
            b.store(v, b.mem(Affine.var("y"), Affine.var("x"), array="out"))
            prog = b.build(name="rc", scheme="t",
                           loops=[Loop("y", y0, y0 + ny * ys, ys),
                                  Loop("x", x0, x0 + 4 * nx, 4)],
                           vectors_per_iter=1)
            try:
                cg = CodegenProgram(prog)
            except CodegenFallback:
                continue
            arr = np.zeros((int(rng.integers(2, 16)),
                            int(rng.integers(8, 40))))
            ref = next(r for r in cg.refs if not r.is_store)

            def outcome(fn):
                try:
                    return ("view", fn()["view"])
                except (MachineError, IsaError) as exc:
                    return (type(exc), str(exc))
            assert outcome(lambda: cg._resolve_ref(ref, {"a": arr})) == \
                outcome(lambda: cg._lattice(ref, arr))


class TestStoreCommitModes:
    """Codegen commits only disjoint view stores; every ordered or
    scattered commit the interpreter's write order needs is refused
    (``layout``) before any array is written."""

    def test_overlapping_rows_use_ordered_rowloop(self):
        """x rows two apart with width 4 overlap."""
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        b.store(b.mul(b.broadcast(2.0), v), b.mem(Affine.var("x"),
                                                   array="out"))
        prog = b.build(name="ovr", scheme="t",
                       loops=[Loop("x", 2, 14, 2)], vectors_per_iter=1)
        _refused(prog, "layout", (12,), 2)

    def test_overlapping_envs_use_ordered_elemloop(self):
        """Every env stores the same row, so the env spans interleave."""
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("y"), Affine.var("x")))
        b.store(v, b.mem(Affine.of(0), Affine.var("x"), array="out"))
        prog = b.build(name="ove", scheme="t",
                       loops=[Loop("y", 0, 3, 1), Loop("x", 0, 8, 4)],
                       vectors_per_iter=1)
        _refused(prog, "layout", (3, 8), 0)

    def test_unit_stride_store_lets_later_rows_win(self):
        """Store stride 1 < width 4: every x row overlaps the next, and
        only the interpreter lets later iterations overwrite earlier
        ones."""
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        b.store(v, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="overlap", scheme="t",
                       loops=[Loop("x", 3, 11, 1)], vectors_per_iter=1)
        _refused(prog, "layout", (8,), 3)

    def test_reversed_disjoint_store_scatters_per_lane(self):
        """A reversed x walk on the store side is no view, even with
        disjoint rows."""
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        b.store(v, b.mem(Affine.var("x", coeff=-1, const=12), array="out"))
        prog = b.build(name="rst", scheme="t",
                       loops=[Loop("x", 0, 16, 4)], vectors_per_iter=1)
        _refused(prog, "layout", (16,), 0)

    def test_interleaved_double_store_is_layout_fallback(self):
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        b.store(v, b.mem(Affine.var("x"), array="out"))
        b.store(v, b.mem(Affine.var("x", const=2), array="out"))
        prog = b.build(name="dbl", scheme="t",
                       loops=[Loop("x", 0, 16, 4)], vectors_per_iter=1)
        arrays = {"a": np.arange(24.0), "out": np.zeros(24)}
        with pytest.raises(CodegenFallback) as ei:
            CodegenProgram(prog).specialize(arrays)
        assert ei.value.reason == "layout"


class TestShuffleEmission:
    def test_single_source_shuffle_emits_no_statement(self):
        """A shuffle is a rename: the stored lanes read the loaded lanes
        in the probed order, and no statement computes the shuffle."""
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        s = b.shufpd(v, v, 0b0101)
        b.store(s, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="sh1", scheme="t",
                       loops=[Loop("x", 0, 16, 4)], vectors_per_iter=1)
        arrays = {"a": np.arange(16.0), "out": np.zeros(16)}
        src = emitted_source(prog, arrays)
        body = _section(src, "# body", "# deferred")
        # one view per loaded lane and nothing else
        assert len(body) == 4, src
        assert all(re.fullmatch(r"_v\d+ = np\.ndarray\(.*\)", ln)
                   for ln in body), src
        lanes = [ln.split(" = ")[0] for ln in body]
        stores = _section(src, "# deferred")
        assert [ln.split(" = ")[1] for ln in stores] == \
            [lanes[1], lanes[0], lanes[3], lanes[2]], src

        def factory():
            return {"a": np.arange(16.0) + 0.5, "out": np.zeros(16)}
        a1, a2 = _run_both(prog, factory)
        assert np.array_equal(a2["out"], a1["out"])

    def test_zeroed_lane_reads_hoisted_zero_scalar(self):
        """vperm2f128's zero bit (a ``None`` selector) renames the zeroed
        lanes to one hoisted zero scalar of the program's dtype."""
        b = ProgramBuilder(4)
        v = b.load(b.mem(Affine.var("x")))
        z = b.lane_concat(v, v, (None, 0))
        b.store(z, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="shz", scheme="t",
                       loops=[Loop("x", 0, 16, 4)], vectors_per_iter=1)
        arrays = {"a": np.arange(16.0), "out": np.zeros(16)}
        spec = CodegenProgram(prog).specialize(arrays)
        stores = _section(spec.source, "# deferred")
        zeros = [ln.split(" = ")[1] for ln in stores[:2]]
        assert zeros[0] == zeros[1], spec.source
        k = _hoisted(spec)[zeros[0]]
        assert type(k) is np.float64 and k == 0.0 \
            and not np.signbit(k), spec.source
        # the other two lanes are renamed load lanes, not copies: nothing
        # is computed, so no register is written
        assert all(ln.split(" = ")[1].startswith("_v")
                   for ln in stores[2:]), spec.source
        assert _arith(spec.source) == [], spec.source
        assert "_register_file" not in spec.source, spec.source

        def factory():
            return {"a": np.arange(16.0) + 1.0, "out": np.ones(16)}
        a1, a2 = _run_both(prog, factory)
        assert np.array_equal(a2["out"], a1["out"])

    def test_shuffle_of_broadcast_constant(self):
        b = ProgramBuilder(4)
        c = b.broadcast(2.5)
        v = b.load(b.mem(Affine.var("x")))
        s = b.shufpd(c, c, 0)
        r = b.mul(s, v)
        b.store(r, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="shc", scheme="t",
                       loops=[Loop("x", 0, 16, 4)], vectors_per_iter=1)

        def factory():
            return {"a": np.arange(16.0), "out": np.zeros(16)}
        a1, a2 = _run_both(prog, factory)
        assert np.array_equal(a2["out"], a1["out"])

    def test_sub_op(self):
        b = ProgramBuilder(4)
        v0 = b.load(b.mem(Affine.var("x")))
        v1 = b.load(b.mem(Affine.var("x", const=1)))
        b.emit(Instr(Op.SUB, dst="d", srcs=(v1, v0)))
        b.store("d", b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="sub", scheme="t",
                       loops=[Loop("x", 0, 16, 4)], vectors_per_iter=1)

        def factory():
            return {"a": np.arange(20.0) ** 2, "out": np.zeros(16)}
        a1, a2 = _run_both(prog, factory)
        assert np.array_equal(a2["out"], a1["out"])


# ---------------------------------------------------------------------------
# lane planes: scalar constants, carries, renamed lanes, dtype
# ---------------------------------------------------------------------------

#: both program precisions, at AVX2 width (4 float64 or 8 float32 lanes)
PRECISIONS = [pytest.param(8, np.float64, id="f64"),
              pytest.param(4, np.float32, id="f32")]


def _lane_builder(elem_bytes):
    return ProgramBuilder(32 // elem_bytes, elem_bytes=elem_bytes)


def _typed_run(prog, factory, dtype):
    """``_run_both`` plus: every array keeps the program's dtype, and
    every hoisted scalar is of that dtype (a wider scalar would promote
    float32 lanes and round twice)."""
    a1, a2 = _run_both(prog, factory)
    assert all(v.dtype == dtype for v in (*a1.values(), *a2.values()))
    arrays = factory()
    spec = CodegenProgram(prog).specialize(arrays)
    scalars = [v for v in _hoisted(spec).values()
               if not isinstance(v, np.ndarray)]
    assert scalars and all(type(v) is dtype for v in scalars), scalars
    return a1, a2, spec


class TestLanePlanes:
    @pytest.mark.parametrize("elem_bytes, dtype", PRECISIONS)
    def test_constant_registers_stored_directly(self, elem_bytes, dtype):
        """A BROADCAST and a SETZERO register stored as they are: every
        stored lane is the hoisted scalar itself."""
        b = _lane_builder(elem_bytes)
        w = b.width
        c = b.broadcast(0.1)
        z = b.setzero()
        b.store(c, b.mem(Affine.var("x"), array="out"))
        b.store(z, b.mem(Affine.var("x", const=w), array="out"))
        prog = b.build(name="kst", scheme="t",
                       loops=[Loop("x", 0, 8 * w, 2 * w)], vectors_per_iter=2)

        def factory():
            return {"out": np.full(8 * w, 7.0, dtype=dtype)}
        a1, a2, spec = _typed_run(prog, factory, dtype)
        assert np.array_equal(a2["out"], a1["out"])
        blocks = a2["out"].reshape(-1, 2, w)
        assert (blocks[:, 0] == dtype(0.1)).all()
        assert (blocks[:, 1] == 0).all()
        stores = _section(spec.source, "# deferred")
        assert all(re.fullmatch(r".*\[\.\.\.\] = _K\d+", ln)
                   for ln in stores), spec.source

    @pytest.mark.parametrize("elem_bytes, dtype", PRECISIONS)
    def test_carry_with_constant_head(self, elem_bytes, dtype):
        """A window seeded in the prologue from a broadcast but slid
        through fresh loads is no view of its end-of-body plane: codegen
        refuses the copy it would need (``compile``)."""
        b = _lane_builder(elem_bytes)
        w = b.width
        c = b.broadcast(1.5)
        b.in_prologue()
        b.mov_to("win", c)
        b.in_body()
        v = b.load(b.mem(Affine.var("x")))
        b.store(b.add(v, "win"), b.mem(Affine.var("x"), array="out"))
        b.load_to("win", b.mem(Affine.var("x", const=w)))
        prog = b.build(name="kcarry", scheme="t",
                       loops=[Loop("x", w, 7 * w, w)], vectors_per_iter=1)
        _refused(prog, "compile", (6 * w,), w, dtype)

    @pytest.mark.parametrize("trips", [0, 1, 4])
    @pytest.mark.parametrize("elem_bytes, dtype", PRECISIONS)
    def test_carry_with_constant_final(self, elem_bytes, dtype, trips):
        """A window seeded from a load and refilled from a broadcast is no
        view either, at zero, one and several trips (the scalar epilogue
        covers the x strip the loop leaves)."""
        b = _lane_builder(elem_bytes)
        w = b.width
        c = b.broadcast(-0.7)
        b.in_prologue()
        b.load_to("win", b.mem(Affine.var("x")))
        b.in_body()
        r = b.add(b.load(b.mem(Affine.var("x", const=w))), "win")
        b.store(r, b.mem(Affine.var("x"), array="out"))
        b.mov_to("win", c)
        prog = b.build(name="kfin", scheme="t",
                       loops=[Loop("x", w, (trips + 1) * w, w)],
                       vectors_per_iter=1,
                       tail_spec=star(1, 1, center=-2.0, arm=[1.0]))
        _refused(prog, "compile", (5 * w,), w, dtype)

    @pytest.mark.parametrize("elem_bytes, dtype", PRECISIONS)
    def test_shuffle_reading_one_lane_twice(self, elem_bytes, dtype):
        """A permutation duplicating lane 0 of a single-use sum: that
        lane now has two readers, so the sum is materialized and each
        lane is computed once; the lane nobody reads is not computed."""
        b = _lane_builder(elem_bytes)
        w = b.width
        v0 = b.load(b.mem(Affine.var("x")))
        v1 = b.load(b.mem(Affine.var("x", const=w)))
        s = b.add(v0, v1)
        p = b.permpd(s, (0, 0) + tuple(range(2, w)))
        r = b.mul(p, b.broadcast(0.3))
        b.store(r, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="kdup", scheme="t",
                       loops=[Loop("x", 0, 4 * w, w)], vectors_per_iter=1)

        def factory():
            rng = np.random.default_rng(9)
            return {"a": rng.standard_normal(5 * w).astype(dtype),
                    "out": np.zeros(4 * w, dtype=dtype)}
        a1, a2, spec = _typed_run(prog, factory, dtype)
        assert np.array_equal(a2["out"], a1["out"])
        ops = _arith(spec.source)
        sums = [(tuple(args), r) for f, args, r in ops if f == "add"]
        # lane 1 of the sum is dead, so only w - 1 sums are computed, each
        # once; lane 0's register (the first sum) is read by two products
        assert len(sums) == len(set(sums)) == w - 1, spec.source
        lane0 = sums[0][1]
        assert sum(args[0] == lane0 for f, args, _ in ops
                   if f == "multiply") == 2, spec.source

    @pytest.mark.parametrize("elem_bytes, dtype", PRECISIONS)
    def test_scalar_arithmetic_writes_no_register(self, elem_bytes, dtype):
        """A product and an FMA of broadcast constants are expressions
        over hoisted scalars: only the FMA reading a load writes
        registers (a multiply and an add per lane), bitwise."""
        b = _lane_builder(elem_bytes)
        w = b.width
        c1, c2, c3 = b.broadcast(0.1), b.broadcast(3.0), b.broadcast(-0.7)
        k = b.mul(c1, c2)
        k2 = b.fma(c1, c2, c3)
        r = b.fma(k, b.load(b.mem(Affine.var("x"))), k2)
        b.store(r, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="kscal", scheme="t",
                       loops=[Loop("x", 0, 4 * w, w)], vectors_per_iter=1)

        def factory():
            rng = np.random.default_rng(5)
            return {"a": rng.uniform(-2, 2, 4 * w).astype(dtype),
                    "out": np.zeros(4 * w, dtype=dtype)}
        a1, a2, spec = _typed_run(prog, factory, dtype)
        assert np.array_equal(a2["out"], a1["out"])
        ops = _arith(spec.source)
        assert [f for f, _, _ in ops] == ["multiply", "add"] * w, spec.source
        assert all(re.fullmatch(r"\(_K\d+ \* _K\d+\)", args[0])
                   for f, args, _ in ops if f == "multiply"), spec.source
        assert all(re.fullmatch(r"\(_K\d+ \* _K\d+ \+ _K\d+\)", args[1])
                   for f, args, _ in ops if f == "add"), spec.source

    @pytest.mark.parametrize("elem_bytes, dtype", PRECISIONS)
    def test_outputs_keep_program_dtype(self, elem_bytes, dtype):
        """An FMA chain over constants no float32 holds exactly (0.1,
        1/3): a float64 scalar would promote float32 lanes and round the
        chain twice, so bitwise equality pins the constants' dtype."""
        b = _lane_builder(elem_bytes)
        w = b.width
        loads = [b.load(b.mem(Affine.var("x", const=k))) for k in range(3)]
        c1, c2 = b.broadcast(0.1), b.broadcast(1.0 / 3.0)
        acc = b.mul(c1, loads[2])
        acc = b.fma(c2, loads[1], acc)
        acc = b.fma(c1, loads[0], acc)
        b.store(acc, b.mem(Affine.var("x"), array="out"))
        prog = b.build(name="kdt", scheme="t",
                       loops=[Loop("x", 0, 32 * w, w)], vectors_per_iter=1)

        def factory():
            rng = np.random.default_rng(13)
            return {"a": rng.uniform(-4, 4, 32 * w + 2).astype(dtype),
                    "out": np.zeros(32 * w, dtype=dtype)}
        a1, a2, _ = _typed_run(prog, factory, dtype)
        assert np.array_equal(a2["out"], a1["out"])


# ---------------------------------------------------------------------------
# bounded specialization tables
# ---------------------------------------------------------------------------

def _scaled_copy_2d(rows):
    b = ProgramBuilder(4)
    v = b.load(b.mem(Affine.var("y"), Affine.var("x")))
    r = b.mul(v, b.broadcast(0.7))
    b.store(r, b.mem(Affine.var("y"), Affine.var("x"), array="out"))
    return b.build(name="scale2d", scheme="t",
                   loops=[Loop("y", 0, rows, 1), Loop("x", 0, 8, 4)],
                   vectors_per_iter=1)


class TestSpecializationBounds:
    def test_many_array_shapes_stay_bounded(self, observing):
        """Every distinct array shape is one specialization; past
        SPEC_ENTRIES the least recently used goes, counted, and every
        output stays bitwise."""
        prog = _scaled_copy_2d(3)
        cg = CodegenProgram(prog)
        extra = 4
        for k in range(codegen_mod.SPEC_ENTRIES + extra):
            shape = (3 + k, 8 + k)

            def factory(shape=shape):
                return {"a": np.linspace(-1.0, 1.0, shape[0] * shape[1])
                        .reshape(shape), "out": np.zeros(shape)}
            a1 = factory()
            a2 = factory()
            SimdMachine(prog.width).run(prog, a1)
            cg.run(a2)
            assert np.array_equal(a2["out"], a1["out"])
            assert len(cg._specs) <= codegen_mod.SPEC_ENTRIES
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["exec.codegen.spec_evictions"] == extra
        # the newest shape is still cached: a rerun does not re-emit
        newest = next(reversed(cg._specs.values()))
        assert cg.specialize(a2) is newest

    def test_many_slab_heights_stay_bounded(self, monkeypatch, observing):
        """Every slab height is one narrowed program; the table keeps at
        most SPEC_ENTRIES of them and the strip-mined sweeps stay
        bitwise.  23 rows is prime, so no bound from 3 rows up splits it
        evenly and each bound is the slab height."""
        rows = 23
        prog = _scaled_copy_2d(rows)
        cg = CodegenProgram(prog)
        per_row = cg.trips * prog.block
        for height in range(3, rows):
            monkeypatch.setattr(codegen_mod, "SLAB_POINTS", height * per_row)
            assert cg._slab_rows() == height

            def factory():
                return {"a": np.linspace(0.0, 3.0, rows * 8).reshape(rows, 8),
                        "out": np.zeros((rows, 8))}
            a1, a2 = factory(), factory()
            SimdMachine(prog.width).run(prog, a1)
            cg.run(a2)
            assert np.array_equal(a2["out"], a1["out"])
            assert len(cg._slab_progs) <= codegen_mod.SPEC_ENTRIES
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["exec.codegen.spec_evictions"] > 0


# ---------------------------------------------------------------------------
# strip-mining
# ---------------------------------------------------------------------------

class TestStripMining:
    def _case(self, kernel, shape, scheme="jigsaw", seed=3):
        spec = library.get(kernel)
        halo = scheme_halo(scheme, spec, GENERIC_AVX2)
        grid = Grid.random(shape, halo, seed=seed)
        return generate(scheme, spec, GENERIC_AVX2, grid), grid

    def test_golden_geometries_are_one_slab(self):
        """Grids up to the slab bound run unsliced, so the emitted source
        the goldens pin is the whole sweep."""
        prog, _ = _jigsaw_case("star-2d9p")
        assert get_codegen(prog)._slab_rows() is None

    @pytest.mark.parametrize("rows,bound,height", [
        (20, 7, 5), (20, 3, 2), (96, 14, 12), (1024, 128, 128),
        (7, 3, 3), (23, 2, 1), (23, 22, 22)])
    def test_even_split_takes_the_largest_divisor_in_reach(
            self, monkeypatch, rows, bound, height):
        """The slab height is the largest divisor of the outer trip
        count in [bound/2, bound], else the bound itself."""
        cg = CodegenProgram(_scaled_copy_2d(rows))
        per_row = cg.trips * cg.program.block
        monkeypatch.setattr(codegen_mod, "SLAB_POINTS", bound * per_row)
        assert cg._slab_rows() == height

    def test_even_split_is_one_specialization(self, monkeypatch):
        """20 rows at a bound of 7 run as four slabs of 5 on one
        specialization, bitwise equal to the interpreter."""
        prog = _scaled_copy_2d(20)
        cg = CodegenProgram(prog)
        monkeypatch.setattr(codegen_mod, "SLAB_POINTS",
                            7 * cg.trips * prog.block)
        arrays = {"a": np.linspace(0.0, 3.0, 20 * 8).reshape(20, 8),
                  "out": np.zeros((20, 8))}
        want = {k: v.copy() for k, v in arrays.items()}
        SimdMachine(prog.width).run(prog, want)
        cg.run(arrays)
        assert np.array_equal(arrays["out"], want["out"])
        assert list(cg._slab_progs) == [5]
        assert len(cg._slab_progs[5]._specs) == 1 and cg._specs == {}

    def test_heat_3d_96_cubed_emits_one_specialization(self):
        """At the real slab bound, 96^3 heat-3d splits into 8 slabs of
        12 planes: one slab program, one specialization."""
        prog, grid = self._case("heat-3d", (96, 96, 96))
        cg = CodegenProgram(prog)
        assert cg._slab_rows() == 12
        cg.run({prog.input_array: grid.data,
                prog.output_array: grid.like().data})
        assert list(cg._slab_progs) == [12]
        assert len(cg._slab_progs[12]._specs) == 1 and cg._specs == {}

    def test_slabs_with_remainder_match_interp(self, monkeypatch):
        """Seven outer rows in slabs of three: two full slabs share one
        specialization and the remainder gets the second."""
        prog, grid = self._case("box-2d9p", (7, 40))
        cg = CodegenProgram(prog)
        per_row = cg.trips * prog.block
        monkeypatch.setattr(codegen_mod, "SLAB_POINTS", 3 * per_row)
        assert cg._slab_rows() == 3
        arrays = {prog.input_array: grid.data,
                  prog.output_array: grid.like().data}
        want = {k: v.copy() for k, v in arrays.items()}
        SimdMachine(prog.width).run(prog, want)
        cg.run(arrays)
        assert np.array_equal(arrays[prog.output_array],
                              want[prog.output_array])
        assert sorted(cg._slab_progs) == [1, 3]
        assert cg._specs == {}  # the full program never specialized

    def test_three_d_slabs_through_the_driver(self, monkeypatch, observing):
        monkeypatch.setattr(codegen_mod, "SLAB_POINTS", 1)
        prog, grid = self._case("heat-3d", (5, 4, 24))
        want = run_program(prog, grid, 2, backend="interp")
        got = run_program(prog, grid, 2, backend="codegen")
        assert np.array_equal(got.data, want.data)
        counters = obs.snapshot()["metrics"]["counters"]
        assert "exec.codegen_fallback" not in counters

    def test_address_not_shifting_with_outer_loop_runs_unsliced(
            self, monkeypatch):
        """An axis-0 address that scales the outer variable cannot be
        re-based per slab; the sweep must run whole.  A load that skips
        rows is in no dealt plane (refused, ``layout``); a store that
        does is a view, so that program runs unsliced on codegen."""
        monkeypatch.setattr(codegen_mod, "SLAB_POINTS", 1)

        def program(load_y, store_y, y0):
            b = ProgramBuilder(4)
            v = b.load(b.mem(load_y, Affine.var("x")))
            b.store(v, b.mem(store_y, Affine.var("x"), array="out"))
            return b.build(name="y2", scheme="t",
                           loops=[Loop("y", y0, y0 + 3, 1),
                                  Loop("x", 0, 8, 4)], vectors_per_iter=1)
        _refused(program(Affine.var("y", coeff=2, const=-4), Affine.var("y"),
                         2), "layout", (3, 8), (2, 0))
        prog = program(Affine.var("y"), Affine.var("y", coeff=2), 0)
        assert CodegenProgram(prog)._slab_rows() is None

        def factory():
            return {"a": np.arange(40.0).reshape(5, 8),
                    "out": np.zeros((5, 8))}
        a1, a2 = _run_both(prog, factory)
        assert np.array_equal(a2["out"], a1["out"])

    def test_view_direct_program_far_above_old_guard(self, observing):
        """heat-2d's loads are dealt views and its stores direct view
        stores, so a 64x256 sweep hoists no index constant and every
        sweep stays on codegen."""
        prog, grid = self._case("heat-2d", (64, 256))
        want = run_program(prog, grid, 2, backend="interp")
        got = run_program(prog, grid, 2, backend="codegen")
        assert np.array_equal(got.data, want.data)
        counters = obs.snapshot()["metrics"]["counters"]
        assert "exec.codegen_fallback" not in counters

    def test_slabs_share_the_parents_analysis(self, monkeypatch):
        """A slab program differs from its parent only in the outer loop
        bound: it shares the value graph, schedule, liveness and carry
        views, and a 3-D sweep in slabs of three with a remainder of two
        stays bitwise."""
        prog, grid = self._case("heat-3d", (5, 4, 24))
        cg = CodegenProgram(prog)
        per_row = math.prod(cg.outer_dims[1:]) * cg.trips * prog.block
        monkeypatch.setattr(codegen_mod, "SLAB_POINTS", 3 * per_row)
        arrays = {prog.input_array: grid.data,
                  prog.output_array: grid.like().data}
        want = {k: v.copy() for k, v in arrays.items()}
        SimdMachine(prog.width).run(prog, want)
        cg.run(arrays)
        assert np.array_equal(arrays[prog.output_array],
                              want[prog.output_array])
        assert sorted(cg._slab_progs) == [2, 3]
        for rows, slab in cg._slab_progs.items():
            assert slab.nodes is cg.nodes and slab.refs is cg.refs
            assert slab._order is cg._order and slab._live is cg._live
            assert slab.views is cg.views and slab._ext is cg._ext
            assert slab.outer_dims == (rows,) + cg.outer_dims[1:]
            assert slab.program.loops[1:] == prog.loops[1:]
            assert slab._slab_progs == {} and slab._specs


# ---------------------------------------------------------------------------
# the flat de-interleaved layout
# ---------------------------------------------------------------------------

def _dealt(src):
    """``(block, pitch)`` a specialization deals array ``a`` with."""
    m = re.search(r"_deal\(arrays\['a'\], (\d+), (\d+)\)", src)
    assert m, src
    return int(m.group(1)), int(m.group(2))


def _through_driver(prog, grid, steps):
    """Codegen and the interpreter through ``run_program``, bitwise."""
    want = run_program(prog, grid, steps, backend="interp")
    got = run_program(prog, grid, steps, backend="codegen")
    assert np.array_equal(got.data, want.data)


class TestFlatLayout:
    def test_row_pitch_off_block_with_tail_epilogue(self, observing):
        """A 37-wide interior: the row pitch is no multiple of the block,
        so each dealt row is zero-padded, and the driver's scalar
        epilogue computes the tail strip the x loop leaves."""
        spec = library.get("box-2d9p")
        halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
        grid = Grid.random((6, 37), halo, seed=2)
        prog = generate("jigsaw", spec, GENERIC_AVX2, grid)
        n = grid.data.shape[-1]
        assert n % prog.block and prog.inner_trips * prog.block < 37
        src = emitted_source(prog, {prog.input_array: grid.data,
                                    prog.output_array: grid.like().data})
        block, pitch = _dealt(src)
        assert block == prog.block and pitch == -(-n // block)
        _through_driver(prog, grid, 2)
        counters = obs.snapshot()["metrics"]["counters"]
        assert "exec.codegen_fallback" not in counters

    @pytest.mark.parametrize("machine, dtype", [
        pytest.param(GENERIC_AVX2, np.float64, id="f64"),
        pytest.param(GENERIC_AVX2_F32, np.float32, id="f32")])
    def test_one_d_grid(self, machine, dtype):
        """A 1-D grid is one row: every body plane is a single run over
        the row's pitch, in either precision."""
        spec = star(1, 2, center=-2.5, arm=[1.0, 0.25])
        halo = scheme_halo("jigsaw", spec, machine)
        grid = Grid.random((45,), halo, seed=4, dtype=dtype)
        prog = generate("jigsaw", spec, machine, grid)
        src = emitted_source(prog, {prog.input_array: grid.data,
                                    prog.output_array: grid.like().data})
        _, pitch = _dealt(src)
        runs = re.findall(r"np\.ndarray\(\((\d+),\), _DT, _d0,", src)
        assert runs and {int(r) for r in runs} <= {pitch, pitch + 1}, src
        _through_driver(prog, grid, 2)

    def test_gather_load_read_through_a_view_carry(self):
        """A reversed x walk seeded by the same walk one trip earlier: the
        window it slides through is still a view, but the load itself is
        in no dealt plane, so codegen refuses it (``layout``)."""
        b = ProgramBuilder(4)
        b.in_prologue()
        b.load_to("w", b.mem(Affine.var("y"),
                             Affine.var("x", coeff=-1, const=24)))
        b.in_body()
        v = b.load(b.mem(Affine.var("y"), Affine.var("x")))
        b.store(b.add("w", v),
                b.mem(Affine.var("y"), Affine.var("x"), array="out"))
        b.load_to("w", b.mem(Affine.var("y"),
                             Affine.var("x", coeff=-1, const=20)))
        prog = b.build(name="revwin", scheme="t",
                       loops=[Loop("y", 0, 3, 1), Loop("x", 4, 20, 4)],
                       vectors_per_iter=1)
        assert CodegenProgram(prog).views == {"w"}
        _refused(prog, "layout", (3, 16), (0, 4))

    def test_ordered_commits_of_two_d_planes(self):
        """2-D stores whose rows overlap (x rows two apart) or whose env
        spans interleave (every env stores one row) are refused
        (``layout``)."""
        for name, y, step in (("ovr2", Affine.var("y", const=1), 2),
                              ("ove2", Affine.of(1), 4)):
            b = ProgramBuilder(4)
            v = b.load(b.mem(Affine.var("y"), Affine.var("x")))
            b.store(b.mul(b.broadcast(1.5), v),
                    b.mem(y, Affine.var("x"), array="out"))
            prog = b.build(name=name, scheme="t",
                           loops=[Loop("y", 1, 4, 1), Loop("x", 2, 14, step)],
                           vectors_per_iter=1)
            _refused(prog, "layout", (3, 12), (1, 2))

    def test_carry_head_off_the_shifted_final_is_a_copy(self):
        """A window seeded from another column than the body slides in
        one trip earlier is no view: codegen refuses the shifted copy it
        would need (``compile``)."""
        b = ProgramBuilder(4)
        b.in_prologue()
        b.load_to("p", b.mem(Affine.var("y"), Affine.var("x", const=1)))
        b.mov_to("q", "p")
        b.in_body()
        r = b.add("p", "q")
        b.store(r, b.mem(Affine.var("y"), Affine.var("x"), array="out"))
        b.load_to("p", b.mem(Affine.var("y"), Affine.var("x", const=4)))
        b.mov_to("q", "p")
        prog = b.build(name="seeded", scheme="t",
                       loops=[Loop("y", 0, 3, 1), Loop("x", 4, 20, 4)],
                       vectors_per_iter=1)
        _refused(prog, "compile", (3, 16), (0, 4))

    def test_duplicate_carry_lanes_are_bound_once(self):
        """star-2d13p's carried registers share lanes (a lane of one
        window is a lane of the next): each distinct view is bound once,
        and every carry is a view, so no prologue is computed."""
        prog, grid = _jigsaw_case("star-2d13p")
        cg = get_codegen(prog)
        src = cg.specialize({prog.input_array: grid.data,
                             prog.output_array: grid.like().data}).source
        lanes = [(cg._carry_vid[n], j) for n in cg.carried
                 for j in range(cg.width) if (cg._carry_vid[n], j) in cg._live]
        distinct = {(cg._finals[cg.carried[cg.nodes[v].data]][j],
                     cg._ext.get((v, j), 0)) for v, j in lanes}
        bound = re.findall(r"^\s*_c\d+ = (.*)$", src, re.M)
        assert cg.views == set(cg.carried)
        assert len(bound) == len(set(bound)) == len(distinct) < len(lanes)
        assert "# prologue" not in src, src
        _through_driver(prog, grid, 2)

    def test_prologue_values_spread_over_the_run(self):
        """A per-row prologue load the body reads (directly and through a
        view carry) would be a plane of one value per row widened over
        the run: codegen refuses it (``compile``)."""
        b = ProgramBuilder(4)
        b.in_prologue()
        p = b.load(b.mem(Affine.var("y", coeff=-1, const=2), Affine.of(0)))
        b.mov_to("w", b.add(p, b.load(b.mem(Affine.var("y"),
                                            Affine.var("x")))))
        b.in_body()
        k = b.mul(b.broadcast(0.5), b.broadcast(3.0))
        b.store(b.fma(k, "w", p),
                b.mem(Affine.var("y"), Affine.var("x"), array="out"))
        b.mov_to("w", b.add(p, b.load(b.mem(Affine.var("y"),
                                            Affine.var("x", const=4)))))
        prog = b.build(name="spread", scheme="t",
                       loops=[Loop("y", 0, 3, 1), Loop("x", 4, 20, 4)],
                       vectors_per_iter=1)
        _refused(prog, "compile", (3, 16), (0, 4))

    def test_constant_window_is_a_scalar_view(self):
        """A window seeded with a constant and refilled with the same
        constant is a view of a scalar: no plane is built for it."""
        b = ProgramBuilder(4)
        b.in_prologue()
        b.mov_to("win", b.broadcast(0.25))
        b.in_body()
        b.store(b.add(b.load(b.mem(Affine.var("x"))), "win"),
                b.mem(Affine.var("x"), array="out"))
        b.mov_to("win", b.broadcast(0.25))
        prog = b.build(name="kwin", scheme="t",
                       loops=[Loop("x", 0, 16, 4)], vectors_per_iter=1)
        cg = CodegenProgram(prog)
        assert cg.views == {"win"}
        src = cg.specialize({"a": np.zeros(16), "out": np.zeros(16)}).source
        assert "_c" not in src and "_carry(" not in src, src

        def factory():
            return {"a": np.arange(16.0) / 3.0, "out": np.zeros(16)}
        a1, a2 = _run_both(prog, factory)
        assert np.array_equal(a2["out"], a1["out"])

    def test_window_slid_from_a_copied_window_is_a_copy(self):
        """w0 <- w1 where w1 is no view (constant seed): w0's value one
        trip earlier reads w1, which matches no prologue value, so w0 is
        no view either and codegen refuses both (``compile``)."""
        b = ProgramBuilder(4)
        b.in_prologue()
        b.load_to("w0", b.mem(Affine.var("x")))
        b.mov_to("w1", b.broadcast(-1.5))
        b.in_body()
        b.store(b.add("w0", "w1"), b.mem(Affine.var("x"), array="out"))
        b.mov_to("w0", "w1")
        b.load_to("w1", b.mem(Affine.var("x", const=4)))
        prog = b.build(name="copychain", scheme="t",
                       loops=[Loop("x", 4, 20, 4)], vectors_per_iter=1)
        with pytest.raises(CodegenFallback, match=r"\['w0', 'w1'\]"):
            CodegenProgram(prog)
        _refused(prog, "compile", (16,), 4)


# ---------------------------------------------------------------------------
# the per-thread register file
# ---------------------------------------------------------------------------

def _slabbed_case(monkeypatch, kernel="box-2d9p", shape=(24, 64),
                  machine=GENERIC_AVX2, dtype=np.float64, slab_rows=4):
    """``(program, arrays, interpreter arrays)`` for one jigsaw sweep, with
    SLAB_POINTS lowered so the sweep runs in slabs of ``slab_rows`` rows:
    every slab after the first reuses the registers the first wrote."""
    spec = library.get(kernel)
    halo = scheme_halo("jigsaw", spec, machine)
    grid = Grid.random(shape, halo, seed=3, dtype=dtype)
    prog = generate("jigsaw", spec, machine, grid)
    cg = get_codegen(prog)
    monkeypatch.setattr(codegen_mod, "SLAB_POINTS", slab_rows * math.prod(
        cg.outer_dims[1:]) * cg.trips * prog.block)
    assert cg._slab_rows() == slab_rows < cg.outer_dims[0]
    arrays = {prog.input_array: grid.data,
              prog.output_array: grid.like().data}
    want = {k: v.copy() for k, v in arrays.items()}
    SimdMachine(prog.width, elem_bytes=prog.elem_bytes).run(prog, want)
    return prog, arrays, want


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond, so two threads running emitted
    sweeps interleave between nearly every pair of statements."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


class TestRegisterFile:
    def test_two_threads_run_one_specialization(self, monkeypatch,
                                                fast_switching):
        """Two threads released together by a barrier run the same
        slabbed specialization again and again: each evaluates into its
        own register file, so every output is the interpreter's."""
        prog, arrays, want = _slabbed_case(monkeypatch)
        cg = get_codegen(prog)
        out = prog.output_array
        barrier = threading.Barrier(2, timeout=60)

        def work(_):
            mine = {k: v.copy() for k, v in arrays.items()}
            barrier.wait()
            outputs = []
            for _ in range(12):
                mine[out][...] = 0.0
                cg.run(mine)
                outputs.append(mine[out].copy())
            return outputs

        with ThreadPoolExecutor(2) as pool:
            runs = list(pool.map(work, range(2), timeout=120))
        assert all(np.array_equal(got, want[out])
                   for outputs in runs for got in outputs)
        assert len(cg._slab_progs) == 1
        assert len(next(iter(cg._slab_progs.values()))._specs) == 1

    def test_thread_sharded_kernel_matches_interp(self, monkeypatch,
                                                  fast_switching):
        """``CompiledKernel.run_sharded`` on the thread executor: two
        shards sweep on codegen at once, in slabs, bitwise equal to the
        interpreter."""
        # at most four of a shard's 64-point rows per slab
        monkeypatch.setattr(codegen_mod, "SLAB_POINTS", 4 * 64)
        spec = library.get("box-2d9p")
        k0 = compile_kernel(spec, GENERIC_AVX2, Grid((48, 64), 16))
        grid = k0.grid_like((48, 64), seed=11)
        kernel = compile_kernel(spec, GENERIC_AVX2, grid)
        steps = 2 * kernel.plan.time_fusion
        want = kernel.run(grid, steps, backend="interp")
        for _ in range(3):
            got = kernel.run_sharded(grid, steps, shards=2, workers=2,
                                     executor="thread", backend="codegen")
            assert np.array_equal(got.interior, want.interior)

    def test_register_file_does_not_grow_with_the_grid(self):
        """Slabs cap a lane plane's length, so heat-2d at 2048^2 needs no
        more register file than at 1024^2: a thread that ran 1024^2
        keeps its file's size through 2048^2."""
        spec = library.get("heat-2d")

        def sweep(n):
            k0 = compile_kernel(spec, GENERIC_AVX2, Grid((n, n), 16))
            grid = Grid(k0.grid.shape, k0.halo())
            grid.interior[...] = 1.0
            kernel = compile_kernel(spec, GENERIC_AVX2, grid)
            got = kernel.run(grid, kernel.plan.time_fusion, backend="codegen")
            assert np.allclose(got.interior, 1.0)
            return codegen_mod._FILE.buf.nbytes

        with ThreadPoolExecutor(1) as pool:  # a fresh, empty file
            small = pool.submit(sweep, 1024).result(timeout=120)
            large = pool.submit(sweep, 2048).result(timeout=120)
        assert large == small
        assert small < 1024 * 1024 * 8  # below one float64 1024^2 grid

    def test_float32_and_float64_alternate_on_one_thread(self, monkeypatch):
        """One thread alternates float32 and float64 programs: both view
        the same byte buffer, each as its own dtype, and stay bitwise."""
        cases = []
        for machine, dtype in ((GENERIC_AVX2, np.float64),
                               (GENERIC_AVX2_F32, np.float32)):
            prog, arrays, want = _slabbed_case(monkeypatch, machine=machine,
                                               dtype=dtype)
            cases.append((get_codegen(prog), prog.output_array, arrays,
                          want, codegen_mod.SLAB_POINTS))

        def alternate():
            for _ in range(3):
                for cg, out, arrays, want, slab in cases:
                    monkeypatch.setattr(codegen_mod, "SLAB_POINTS", slab)
                    got = {k: v.copy() for k, v in arrays.items()}
                    cg.run(got)
                    assert got[out].dtype == cg.dtype
                    assert np.array_equal(got[out], want[out])

        with ThreadPoolExecutor(1) as pool:
            pool.submit(alternate).result(timeout=120)
