"""Differential test harness: random stencils, every scheme, one truth.

Hypothesis generates random :class:`~repro.stencils.spec.StencilSpec`s
(1-D/2-D/3-D, star and box, float64 and float32) and random initial
grids; for each, the **jigsaw**, **multiple-loads** (``auto``) and
**multiple-permutations** (``reorg``) lowerings are executed for 1-4 time
steps on the cycle-exact SIMD interpreter and compared against the numpy
reference sweep within a small ulp budget (the schemes reassociate the
same sums, so bitwise equality is only expected up to rounding).  Every
case additionally runs on the emitted-source codegen backend
(:mod:`repro.machine.codegen`), which must match the interpreter
**bitwise** — both backends execute the same instruction stream, so no
rounding slack is allowed between them.  A strip-mining axis shrinks the
codegen slab bound so every sweep runs slab by slab (with remainder
slabs, deep temporal halos and scalar tails) and must stay bitwise, on
scheme programs and on compiled Jigsaw kernels alike.  A separate axis re-runs cases with
observability recording enabled (:mod:`repro.obs`) and asserts that
tracing never perturbs any backend's output bitwise.  Further axes
cover the hardened runtime layers: sharded execution (random shard
counts and temporal blocks must reproduce the serial reference bitwise)
and fault-injection chaos over the executor, codegen and shard recovery
paths.  The new scheme families — temporal
(vertical time fusion) and redundancy elimination (column-sum hoisting)
— run under the same contract on every generated spec plus the
deep-radius star and variable-coefficient library workloads.

The example budget is controlled by ``REPRO_DIFF_EXAMPLES`` (per test
function; each example exercises all three schemes).  The local default
of 40 yields 2 x 40 x 3 = 240 spec/scheme combinations; CI caps it lower
(see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import GENERIC_AVX2, GENERIC_AVX2_F32
from repro.core import compile_kernel
from repro.faults import FaultPlan, FaultRule, inject
from repro.machine import codegen as codegen_mod
from repro.machine.codegen import get_codegen
from repro.parallel import executor
from repro.parallel.executor import run_parallel
from repro.schemes import generate, scheme_halo
from repro.stencils import apply_steps
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec, box, star
from repro.vectorize.driver import run_program

#: examples per test function; every example runs all DIFF_SCHEMES.
EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "40"))

#: the three independently-derived lowerings under differential test.
DIFF_SCHEMES = ("jigsaw", "auto", "reorg")

#: machine-representable coefficients keep the ulp accounting honest
#: (they are still arbitrary enough to break any wrong-tap lowering).
COEFFS = st.sampled_from(
    [-2.0, -1.5, -1.0, -0.5, -0.25, 0.125, 0.25, 0.5, 0.75, 1.0, 2.0]
)

DIFF_SETTINGS = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def star_specs(draw) -> StencilSpec:
    ndim = draw(st.integers(min_value=1, max_value=3))
    radius = draw(st.integers(min_value=1, max_value=2))
    center = draw(COEFFS)
    arm = [draw(COEFFS) for _ in range(radius)]
    return star(ndim, radius, center=center, arm=arm,
                name=f"diff-star-{ndim}d-r{radius}")


@st.composite
def box_specs(draw) -> StencilSpec:
    ndim = draw(st.integers(min_value=1, max_value=3))
    # 3-D boxes stay at radius 1 (125-point kernels only slow the
    # interpreter without adding lowering coverage).
    radius = draw(st.integers(min_value=1, max_value=1 if ndim == 3 else 2))
    side = 2 * radius + 1
    flat = [draw(COEFFS) for _ in range(side**ndim)]
    weights = np.array(flat).reshape((side,) * ndim)
    return box(ndim, radius, weights, name=f"diff-box-{ndim}d-r{radius}")


random_specs = st.one_of(star_specs(), box_specs())


def _assert_ulp_close(got: np.ndarray, want: np.ndarray, *, spec, steps,
                      scheme) -> None:
    """`got` within an ulp budget of `want`, scaled to the result's
    magnitude (reassociation error grows with taps and steps)."""
    dt = want.dtype.type
    scale = max(float(np.max(np.abs(want))), float(np.finfo(dt).tiny))
    ulp = float(np.spacing(dt(scale)))
    budget = 64.0 * spec.npoints * steps
    worst = float(np.max(np.abs(got - want)))
    assert worst <= budget * ulp, (
        f"{scheme}/{spec.tag}: max |diff| {worst:.3e} exceeds "
        f"{budget:.0f} ulp ({budget * ulp:.3e}) after {steps} step(s)"
    )


def _differential_case(machine, dtype, spec, steps, seed):
    """Run every scheme for one random case against the reference, on
    both execution backends.  The interpreter and the codegen engine
    must agree **bitwise** (they execute the same instruction stream);
    only the comparison against the numpy reference carries an ulp
    budget."""
    width = machine.vector_elems
    nx = 6 * width  # divisible by every scheme block (W and 2W)
    shape = (3,) * (spec.ndim - 1) + (nx,)
    reference = None
    for scheme in DIFF_SCHEMES:
        halo = scheme_halo(scheme, spec, machine)
        grid = Grid.random(shape, halo, seed=seed, dtype=dtype)
        if reference is None:
            reference = apply_steps(spec, grid, steps)
        program = generate(scheme, spec, machine, grid)
        got = run_program(program, grid, steps, backend="interp")
        other = run_program(program, grid, steps, backend="codegen")
        assert np.array_equal(other.data, got.data), (
            f"{scheme}/{spec.tag}: codegen backend diverged bitwise "
            f"from the interpreter after {steps} step(s)"
        )
        _assert_ulp_close(got.interior, reference.interior, spec=spec,
                          steps=steps, scheme=scheme)


@DIFF_SETTINGS
@given(spec=random_specs, steps=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**16))
def test_schemes_match_reference_f64(spec, steps, seed):
    _differential_case(GENERIC_AVX2, np.float64, spec, steps, seed)


@DIFF_SETTINGS
@given(spec=random_specs, steps=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**16))
def test_schemes_match_reference_f32(spec, steps, seed):
    _differential_case(GENERIC_AVX2_F32, np.float32, spec, steps, seed)


# -- the new scheme families (temporal fusion + redundancy elimination) -------

#: the related-work scheme families under the same differential contract.
NEW_SCHEMES = ("temporal", "redundancy")


def _new_scheme_case(machine, dtype, spec, sweeps, seed):
    """Temporal fusion and redundancy elimination against the reference,
    bitwise across both execution backends.  Temporal programs fuse
    ``steps_per_iter`` time steps per sweep, so the step count is a
    multiple of the program's depth and the outer extents are sized to
    the fused halo (periodic refills need ``halo <= interior``)."""
    width = machine.vector_elems
    nx = 6 * width
    for scheme in NEW_SCHEMES:
        halo = scheme_halo(scheme, spec, machine)
        shape = tuple(max(3, h) for h in halo[:-1]) + (nx,)
        grid = Grid.random(shape, halo, seed=seed, dtype=dtype)
        program = generate(scheme, spec, machine, grid)
        steps = sweeps * program.steps_per_iter
        got = run_program(program, grid, steps, backend="interp")
        other = run_program(program, grid, steps, backend="codegen")
        assert np.array_equal(other.data, got.data), (
            f"{scheme}/{spec.tag}: codegen backend diverged bitwise "
            f"from the interpreter after {steps} step(s)"
        )
        reference = apply_steps(spec, grid, steps)
        _assert_ulp_close(got.interior, reference.interior, spec=spec,
                          steps=steps, scheme=scheme)


@DIFF_SETTINGS
@given(spec=random_specs, sweeps=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=2**16))
def test_new_scheme_families_match_reference_f64(spec, sweeps, seed):
    _new_scheme_case(GENERIC_AVX2, np.float64, spec, sweeps, seed)


@DIFF_SETTINGS
@given(spec=random_specs, sweeps=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=2**16))
def test_new_scheme_families_match_reference_f32(spec, sweeps, seed):
    _new_scheme_case(GENERIC_AVX2_F32, np.float32, spec, sweeps, seed)


@pytest.mark.parametrize("kernel",
                         ["star-1d5p", "star-2d13p", "varcoef-2d5p"])
def test_new_scheme_families_on_library_workloads(kernel):
    """The deep-radius star and the variable-coefficient kernel are
    reachable from the differential harness: both new schemes must match
    the reference on them, bitwise across backends."""
    from repro.stencils import library
    spec = library.get(kernel)
    for seed in (0, 1, 2):
        _new_scheme_case(GENERIC_AVX2, np.float64, spec, 2, seed)


def test_budget_meets_acceptance_floor():
    """With the default budget the harness exercises >= 200 spec/scheme
    combinations (2 dtype tests x EXAMPLES x 3 schemes); CI may lower it
    explicitly via REPRO_DIFF_EXAMPLES."""
    combos = 2 * EXAMPLES * len(DIFF_SCHEMES)
    if "REPRO_DIFF_EXAMPLES" in os.environ:
        pytest.skip(f"budget overridden ({combos} combinations)")
    assert combos >= 200


def test_backends_agree_with_prologue_carry():
    """Jigsaw's loop-carried butterfly window (Algorithm 1's v0/vp0,
    seeded in the prologue and slid at the end of each body) must survive
    the codegen backend's carried-register peeling bitwise."""
    spec = star(2, 2, center=-3.25, arm=[0.5, 0.125], name="carry-probe")
    halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
    grid = Grid.random((5, 48), halo, seed=11)
    program = generate("jigsaw", spec, GENERIC_AVX2, grid)
    assert program.prologue, "probe must exercise a prologue"
    for steps in (1, 3):
        interp = run_program(program, grid, steps, backend="interp")
        codegen = run_program(program, grid, steps, backend="codegen")
        assert np.array_equal(codegen.data, interp.data)


def test_backends_agree_on_tail_strip():
    """An interior not divisible by the block leaves a scalar tail strip;
    both backends must produce identical tails and identical vector
    regions."""
    width = GENERIC_AVX2.vector_elems
    spec = star(2, 1, center=-4.0, arm=[1.0], name="tail-probe")
    halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
    nx = 6 * width + 3  # 3-wide tail for a 2W block
    grid = Grid.random((4, nx), halo, seed=7)
    program = generate("jigsaw", spec, GENERIC_AVX2, grid)
    assert program.loops[-1].trip_count * program.loops[-1].step < nx
    interp = run_program(program, grid, 2, backend="interp")
    codegen = run_program(program, grid, 2, backend="codegen")
    assert np.array_equal(codegen.data, interp.data)


# -- the strip-mining axis -----------------------------------------------------
#
# Sweeps above codegen's slab bound run slab by slab along the outermost
# loop.  Shrinking the bound to a few outer rows makes every case here
# strip-mined.  The outer extent varies too, so slab heights split it
# evenly in some cases and leave a remainder slab in others.


def _even_slab_height(n: int, rows: int) -> int:
    """The slab height codegen must pick for ``n`` outer trips under a
    ``rows``-trip bound: the largest divisor of ``n`` in
    ``[rows/2, rows]``, else ``rows`` (a remainder slab)."""
    return max((d for d in range(1, rows + 1)
                if n % d == 0 and 2 * d >= rows), default=rows)


SLAB_SETTINGS = settings(
    max_examples=min(EXAMPLES, 20),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


#: each example runs every scheme family through the interpreter, so a
#: failing example is reported as found: shrinking it ran for over five
#: minutes before the suite printed anything
STRIP_SETTINGS = settings(
    SLAB_SETTINGS, phases=[p for p in Phase if p is not Phase.shrink])


@STRIP_SETTINGS
@given(spec=random_specs.filter(lambda s: s.ndim >= 2),
       rows=st.integers(min_value=1, max_value=4),
       outer=st.integers(min_value=5, max_value=9),
       f32=st.booleans(), tail=st.booleans(),
       sweeps=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=2**16))
def test_strip_mined_codegen_matches_interp_bitwise(spec, rows, outer, f32,
                                                    tail, sweeps, seed):
    """Every scheme family — temporal (``s*r``-deep halos) and
    redundancy included — on 2-D/3-D grids, float32 and float64, with
    and without a scalar tail strip: strip-mined codegen must equal the
    interpreter bitwise without ever falling back."""
    machine, dtype = ((GENERIC_AVX2_F32, np.float32) if f32
                      else (GENERIC_AVX2, np.float64))
    nx = 6 * machine.vector_elems + (3 if tail else 0)
    saved = codegen_mod.SLAB_POINTS
    was_enabled = obs.enabled()
    obs.enable(reset=True)
    try:
        for scheme in DIFF_SCHEMES + NEW_SCHEMES:
            halo = scheme_halo(scheme, spec, machine)
            shape = ((max(outer, halo[0]),)
                     + tuple(max(3, h) for h in halo[1:-1]) + (nx,))
            grid = Grid.random(shape, halo, seed=seed, dtype=dtype)
            program = generate(scheme, spec, machine, grid)
            steps = sweeps * program.steps_per_iter
            want = run_program(program, grid, steps, backend="interp")
            cg = get_codegen(program)
            per_row = (int(np.prod(cg.outer_dims[1:])) * cg.trips
                       * program.block)
            codegen_mod.SLAB_POINTS = rows * per_row
            height = _even_slab_height(cg.outer_dims[0], rows)
            assert cg._slab_rows() == height, (scheme, spec.tag)
            got = run_program(program, grid, steps, backend="codegen")
            codegen_mod.SLAB_POINTS = saved
            assert np.array_equal(got.data, want.data), (
                f"{scheme}/{spec.tag}: strip-mined codegen ({height} rows "
                f"per slab) diverged bitwise after {steps} step(s)")
        counters = obs.snapshot()["metrics"]["counters"]
        assert "exec.codegen_fallback" not in counters, counters
    finally:
        codegen_mod.SLAB_POINTS = saved
        if not was_enabled:
            obs.disable()


@SLAB_SETTINGS
@given(spec=random_specs, f32=st.booleans(),
       tail=st.integers(min_value=0, max_value=7),
       seed=st.integers(min_value=0, max_value=2**16))
def test_flat_layout_codegen_matches_interp_bitwise(spec, f32, tail, seed):
    """Codegen's de-interleaved flat layout on 1-D/2-D/3-D grids, float32
    and float64, with row pitches off any block multiple (and a scalar
    tail strip when the interior is too): every scheme family equals the
    interpreter bitwise, without a fallback."""
    machine, dtype = ((GENERIC_AVX2_F32, np.float32) if f32
                      else (GENERIC_AVX2, np.float64))
    nx = 4 * machine.vector_elems + tail
    was_enabled = obs.enabled()
    obs.enable(reset=True)
    try:
        for scheme in DIFF_SCHEMES + NEW_SCHEMES:
            halo = scheme_halo(scheme, spec, machine)
            shape = tuple(max(3, h) for h in halo[:-1]) + (nx,)
            grid = Grid.random(shape, halo, seed=seed, dtype=dtype)
            program = generate(scheme, spec, machine, grid)
            steps = program.steps_per_iter
            want = run_program(program, grid, steps, backend="interp")
            got = run_program(program, grid, steps, backend="codegen")
            assert np.array_equal(got.data, want.data), (
                f"{scheme}/{spec.tag}: flat-layout codegen diverged "
                f"bitwise on {shape} (row pitch {grid.data.shape[-1]})")
        counters = obs.snapshot()["metrics"]["counters"]
        assert "exec.codegen_fallback" not in counters, counters
    finally:
        if not was_enabled:
            obs.disable()


@SLAB_SETTINGS
@given(spec=random_specs, rows=st.integers(min_value=1, max_value=3),
       fused=st.booleans(), dirichlet=st.booleans(),
       sweeps=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=2**16))
def test_row_slabbed_numpy_matches_unsliced_bitwise(spec, rows, fused,
                                                    dirichlet, sweeps, seed):
    """``CompiledKernel.run_numpy``, an alias of codegen, on Jigsaw
    kernels compiled from 1-D/2-D/3-D specs, fused or not, periodic or
    dirichlet: a sweep strip-mined into slabs of ``rows`` outer trips
    must equal the one-slab sweep bitwise (a 1-D grid stays one
    slab)."""
    machine = GENERIC_AVX2
    boundary = "dirichlet" if dirichlet and not fused else "periodic"
    fusion = "auto" if fused else 1
    halo = compile_kernel(spec, machine, Grid((8,) * spec.ndim, 1),
                          time_fusion=fusion, cache=False).halo()
    outer = (max(7, halo[0]),) + tuple(max(3, h) for h in halo[1:-1])
    shape = outer[:spec.ndim - 1] + (max(32, halo[-1]),)
    grid = Grid.random(shape, halo, seed=seed)
    kernel = compile_kernel(spec, machine, grid, time_fusion=fusion,
                            cache=False)
    steps = sweeps * kernel.plan.time_fusion
    cg = get_codegen(kernel.program)
    per_row = (int(np.prod(cg.outer_dims[1:])) * cg.trips
               * kernel.program.block)
    saved = codegen_mod.SLAB_POINTS
    try:
        codegen_mod.SLAB_POINTS = int(np.prod(cg.outer_dims[:1])) * per_row
        whole = kernel.run_numpy(grid, steps, boundary=boundary, value=0.5)
        codegen_mod.SLAB_POINTS = rows * per_row
        sliced = kernel.run_numpy(grid, steps, boundary=boundary, value=0.5)
    finally:
        codegen_mod.SLAB_POINTS = saved
    assert np.array_equal(sliced.data, whole.data), (
        f"{spec.tag}: codegen sweep in {rows}-row slabs diverged bitwise "
        f"after {steps} step(s) ({boundary})")


@DIFF_SETTINGS
@given(spec=random_specs, steps=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2**16))
def test_tracing_never_changes_results(spec, steps, seed):
    """The observability axis: with span + metric recording enabled, both
    execution backends must reproduce their untraced output **bitwise**
    (instrumentation reads clocks and bumps counters; it must never touch
    the numerics)."""
    machine = GENERIC_AVX2
    halo = scheme_halo("jigsaw", spec, machine)
    shape = (3,) * (spec.ndim - 1) + (6 * machine.vector_elems,)
    grid = Grid.random(shape, halo, seed=seed)
    program = generate("jigsaw", spec, machine, grid)
    plain = {b: run_program(program, grid, steps, backend=b)
             for b in ("interp", "codegen")}
    was_enabled = obs.enabled()
    obs.enable(reset=True)
    try:
        for backend, want in plain.items():
            got = run_program(program, grid, steps, backend=backend)
            assert np.array_equal(got.data, want.data), (
                f"{spec.tag}/{backend}: tracing changed the results "
                f"bitwise after {steps} step(s)"
            )
    finally:
        if not was_enabled:
            obs.disable()
    snap = obs.snapshot()
    assert snap["metrics"]["counters"].get("exec.sweeps", 0) >= 2 * steps


# -- the chaos axis ------------------------------------------------------------
#
# Hypothesis-generated fault plans against the hardened layers: any
# faulted-but-recovered run must be bitwise identical to the clean run.
# Chaos examples are capped separately (each one pays for clean+faulted
# runs, and a process pool per example).

CHAOS_SETTINGS = settings(
    max_examples=min(EXAMPLES, 8),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

executor_fault_rules = st.lists(
    st.builds(
        FaultRule,
        site=st.sampled_from(("pool.task_start", "tile.sweep")),
        kind=st.sampled_from(("raise", "delay")),
        after=st.integers(min_value=0, max_value=5),
        times=st.integers(min_value=1, max_value=2),
        delay_s=st.just(0.001),
    ),
    min_size=1, max_size=3)


@CHAOS_SETTINGS
@given(rules=executor_fault_rules,
       seed=st.integers(min_value=0, max_value=2**16))
def test_executor_fault_recovery_never_changes_results(rules, seed):
    """Random fault plans over the parallel executor's sites: both the
    thread and the process backend must recover every injected failure
    and reproduce the clean sweep bitwise."""
    spec = star(2, 1, center=0.5, arm=[0.125], name="chaos-probe")
    grid = Grid.random((24, 32), spec.radius, seed=seed)
    for backend in ("thread", "process"):
        clean = run_parallel(spec, grid, 2, workers=3, parts=3,
                             backend=backend)
        # retry budget covers the worst case of every fault landing on
        # one part (3 rules x times<=2 = 6 faults < 7 attempts)
        with pytest.MonkeyPatch.context() as mp, \
                inject(FaultPlan(rules=tuple(rules), seed=seed)):
            mp.setattr(executor, "TASK_RETRIES", 6)
            faulted = run_parallel(spec, grid, 2, workers=3, parts=3,
                                   backend=backend)
        assert np.array_equal(clean.data, faulted.data), (
            f"{backend}: fault recovery diverged bitwise "
            f"(plan: {[r.to_dict() for r in rules]})"
        )


codegen_fault_rules = st.lists(
    st.builds(
        FaultRule,
        site=st.sampled_from(("compile.kernel", "exec.codegen_kernel")),
        kind=st.sampled_from(("raise", "delay")),
        after=st.integers(min_value=0, max_value=3),
        times=st.integers(min_value=1, max_value=2),
        delay_s=st.just(0.001),
    ),
    min_size=1, max_size=2)


@CHAOS_SETTINGS
@given(spec=random_specs, rules=codegen_fault_rules,
       steps=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2**16))
def test_codegen_fault_degrades_down_ladder_bitwise(spec, rules, steps,
                                                    seed):
    """Random faults over the codegen path — at kernel compilation
    (``compile.kernel``, retried by the service) and at the emitted-source
    sweep (``exec.codegen_kernel``, degraded to the interpreter) — must
    never perturb a bit of the final grid."""
    from repro.service import KernelService
    machine = GENERIC_AVX2
    # non-x extents must fit the fused halo (radius x time_fusion)
    shape = (8,) * (spec.ndim - 1) + (6 * machine.vector_elems,)

    def service():
        # a fresh service per run keeps its kernel cache cold, so the
        # faulted compile actually reaches the compile.kernel site
        return KernelService(machine, exec_backend="codegen",
                             failure_policy="degrade", retries=3,
                             retry_backoff_s=0.0)

    kernel = service().compile(spec, shape)
    grid = kernel.grid_like(shape, seed=seed)
    run_steps = steps * kernel.plan.time_fusion
    clean = kernel.run(grid, run_steps)
    with inject(FaultPlan(rules=tuple(rules), seed=seed)):
        faulted_kernel = service().compile(spec, shape)
        faulted = faulted_kernel.run(grid, run_steps)
    assert np.array_equal(clean.data, faulted.data), (
        f"{spec.tag}: codegen-path fault recovery diverged bitwise "
        f"(plan: {[r.to_dict() for r in rules]})"
    )


@CHAOS_SETTINGS
@given(spec=random_specs,
       shards=st.integers(min_value=1, max_value=3),
       temporal_block=st.integers(min_value=1, max_value=3),
       steps=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**16))
def test_sharded_matches_serial_bitwise(spec, shards, temporal_block,
                                        steps, seed):
    """The sharded axis: random stencils, shard counts and temporal
    blocks against the serial reference — the deep-halo schedule must
    reproduce it **bitwise** on the interior (not ulp-close: the workers
    run the identical tap order on identical windows)."""
    from repro.shard import run_sharded
    shape = (7,) * (spec.ndim - 1) + (12,)
    grid = Grid.random(shape, spec.radius, seed=seed)
    reference = apply_steps(spec, grid, steps)
    got = run_sharded(spec, grid, steps, shards=shards,
                      temporal_block=temporal_block)
    assert np.array_equal(reference.interior, got.interior), (
        f"{spec.tag}: sharded run (shards={shards}, s={temporal_block}) "
        f"diverged bitwise after {steps} step(s)"
    )


shard_fault_rules = st.lists(
    st.builds(
        FaultRule,
        site=st.sampled_from(("tile.sweep", "pool.task_start")),
        kind=st.sampled_from(("raise", "delay")),
        after=st.integers(min_value=0, max_value=5),
        times=st.integers(min_value=1, max_value=2),
        delay_s=st.just(0.001),
    ),
    min_size=1, max_size=3)


@CHAOS_SETTINGS
@given(rules=shard_fault_rules,
       seed=st.integers(min_value=0, max_value=2**16))
def test_shard_fault_recovery_never_changes_results(rules, seed):
    """Random fault plans over the window path's sites — a failed window
    sweep or a failed task start (both recomputed in the parent from the
    gathered window) — must leave the sharded sweep bitwise identical to
    the clean run."""
    from repro.shard import run_sharded
    spec = star(2, 1, center=0.5, arm=[0.125], name="shard-chaos-probe")
    grid = Grid.random((18, 24), spec.radius, seed=seed)
    clean = run_sharded(spec, grid, 4, shards=3, temporal_block=2)
    # 3 rules x times<=2 = 6 faults; TASK_RETRIES=6 bounds the worst case
    # of every fault landing on one shard's task
    with pytest.MonkeyPatch.context() as mp, \
            inject(FaultPlan(rules=tuple(rules), seed=seed)):
        mp.setattr(executor, "TASK_RETRIES", 6)
        faulted = run_sharded(spec, grid, 4, shards=3, temporal_block=2)
    assert np.array_equal(clean.interior, faulted.interior), (
        f"shard fault recovery diverged bitwise "
        f"(plan: {[r.to_dict() for r in rules]})"
    )


def test_known_failure_is_caught():
    """The harness must actually discriminate: a deliberately perturbed
    coefficient fails the ulp budget."""
    spec = star(2, 1, center=-4.0, arm=[1.0], name="canary")
    bad = StencilSpec(name="canary-bad", ndim=2, offsets=spec.offsets,
                      coeffs=tuple(c + (1e-6 if i == 0 else 0.0)
                                   for i, c in enumerate(spec.coeffs)))
    halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
    grid = Grid.random((3, 24), halo, seed=0)
    reference = apply_steps(bad, grid, 1)
    program = generate("jigsaw", spec, GENERIC_AVX2, grid)
    got = run_program(program, grid, 1)
    with pytest.raises(AssertionError):
        _assert_ulp_close(got.interior, reference.interior, spec=spec,
                          steps=1, scheme="jigsaw")
