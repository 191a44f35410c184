"""Execute a vector program over time steps on the SIMD machine.

The driver owns what real stencil codes put around the vector kernel:
halo refills between sweeps and the in/out buffer swap.  A program fusing
``s`` time steps (ITM) advances ``s`` steps per sweep; its halo must be
``s`` times the base radius and, because the fused coefficients assume the
ghost values evolve with the field, exact multi-step fusion requires
periodic boundaries (see DESIGN.md §7).
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from .. import faults, obs
from ..errors import VectorizeError
from ..machine.codegen import CodegenFallback, get_codegen
from ..machine.machine import SimdMachine
from ..machine.trace import TraceCounter, analytic_trace
from ..stencils.boundary import fill_halo
from ..stencils.grid import Grid
from .program import VectorProgram

#: execution backends accepted by :func:`run_program`: ``"auto"`` /
#: ``"codegen"`` (emitted source, degrading to the interpreter — a
#: correctness guarantee, not an option) and ``"interp"``.  ``"batch"``,
#: a retired engine, is an alias of ``"codegen"`` for one release,
#: counted under ``exec.backend_alias.batch``.
EXEC_BACKENDS: Tuple[str, ...] = ("auto", "codegen", "batch", "interp")


def check_program_grid(program: VectorProgram, grid: Grid) -> None:
    """Raise :class:`~repro.errors.VectorizeError` unless ``grid`` can
    drive ``program``: matching rank and element width, outer loops that
    walk exactly this grid's interior, and either a block-aligned x extent
    or a ``tail_spec`` for the scalar epilogue.  Every mismatch message
    names the offending axis (by its loop variable) so rank/halo mix-ups
    on deep-radius specs are diagnosable.

    :func:`run_program` runs it on every program it is given.
    """
    if grid.data.itemsize != program.elem_bytes:
        raise VectorizeError(
            f"grid dtype {grid.data.dtype} ({grid.data.itemsize}B) does not "
            f"match the program's {program.elem_bytes}B elements"
        )
    axes = tuple(l.var for l in program.loops)
    if grid.ndim != len(axes):
        missing = axes[:max(0, len(axes) - grid.ndim)]
        detail = (f"grid is missing the outer {missing} ax"
                  f"{'es' if len(missing) > 1 else 'is'}" if missing
                  else f"grid has {grid.ndim - len(axes)} extra outer "
                       f"ax{'es' if grid.ndim - len(axes) > 1 else 'is'}")
        raise VectorizeError(
            f"grid rank {grid.ndim} does not match the program's "
            f"{len(axes)} loop axes {axes}; {detail}"
        )
    # outer loops walk one point per interior index: [halo, halo + n)
    for axis, loop in enumerate(program.loops[:-1]):
        h, n = grid.halo[axis], grid.shape[axis]
        if loop.start != h or loop.stop != h + n:
            raise VectorizeError(
                f"axis {loop.var!r}: program loop [{loop.start}, {loop.stop}) "
                f"does not walk the grid interior [{h}, {h + n}) "
                f"(halo {h}, extent {n}); the program was lowered for a "
                f"different geometry"
            )
    x = program.x_loop
    nx = grid.shape[-1]
    if x.start != grid.halo[-1]:
        raise VectorizeError(
            f"axis {x.var!r}: program loop starts at {x.start} but the grid "
            f"halo is {grid.halo[-1]}; the program was lowered for a "
            f"different geometry"
        )
    covered = x.trip_count * program.block
    if covered > nx:
        raise VectorizeError(
            f"axis {x.var!r}: program covers {covered} elements but the "
            f"grid has {nx}"
        )
    if nx - covered and program.tail_spec is None:
        raise VectorizeError(
            f"axis {x.var!r}: extent {nx} leaves a {nx - covered}-element "
            f"remainder but the program carries no tail_spec for the "
            f"scalar epilogue"
        )


def run_program(
    program: VectorProgram,
    grid: Grid,
    steps: int,
    *,
    boundary: str = "periodic",
    value: float = 0.0,
    counter: Optional[TraceCounter] = None,
    mem_hook=None,
    backend: str = "auto",
) -> Grid:
    """Run ``steps`` time steps of ``program`` starting from ``grid``.

    Returns a new grid; ``grid`` is unchanged.  ``steps`` must be a
    multiple of the program's fused step count.

    ``backend`` selects the execution engine (:data:`EXEC_BACKENDS`).
    The default emits one specialized straight-line source function per
    program (:mod:`repro.machine.codegen`) and degrades codegen ->
    interp whenever codegen cannot apply: a per-access ``mem_hook`` is
    attached (the cache simulator needs ordered accesses), the program
    or its arrays fall outside the generated shape, or the loop-carried
    registers form a true recurrence.
    Both engines produce bitwise-identical grids; with a ``counter``,
    codegen sweeps are tallied analytically (exactly matching the
    interpreter's executed counts).
    """
    s = program.steps_per_iter
    if steps < 0:
        raise VectorizeError("steps must be non-negative")
    if steps % s:
        raise VectorizeError(
            f"steps={steps} not a multiple of the program's fused steps {s}"
        )
    if s > 1 and boundary != "periodic":
        raise VectorizeError(
            "temporally merged programs are exact only with periodic boundaries"
        )
    if backend not in EXEC_BACKENDS:
        raise VectorizeError(
            f"unknown execution backend {backend!r}; known: {EXEC_BACKENDS}"
        )
    check_program_grid(program, grid)
    if backend == "batch":
        if obs.enabled():
            obs.counter("exec.backend_alias.batch").inc()
        backend = "codegen"
    if steps == 0:
        return grid.copy()
    codegen = None
    if backend != "interp":
        if mem_hook is not None:
            # per-access hooks need ordered accesses; emitted source has none
            _count_fallback("mem_hook")
        else:
            try:
                codegen = get_codegen(program)
            except CodegenFallback as exc:
                _count_fallback(exc.reason)
    machine = SimdMachine(program.width, elem_bytes=program.elem_bytes,
                          mem_hook=mem_hook)
    nx = grid.shape[-1]
    covered = program.x_loop.trip_count * program.block
    tail = nx - covered
    cur = grid.copy()
    nxt = grid.like()
    scratch = (np.empty_like(nxt.interior[..., covered:nx]) if tail
               else None)
    observing = obs.enabled()
    with obs.span("execute", kernel=program.name, backend=backend,
                  steps=steps) as espan:
        for _ in range(steps // s):
            t0 = time.perf_counter() if observing else 0.0
            fill_halo(cur, boundary, value=value)
            arrays = {program.input_array: cur.data,
                      program.output_array: nxt.data}
            if codegen is not None:
                try:
                    faults.fault_point("exec.codegen_kernel")
                    codegen.run(arrays)
                    if counter is not None:
                        analytic_trace(program, counter)
                except (CodegenFallback, faults.FaultInjected) as exc:
                    # rerun this and later sweeps on the interpreter: it
                    # is bitwise identical to codegen and rewrites
                    # whatever a failed attempt committed
                    codegen = None
                    _count_fallback(exc.reason
                                    if isinstance(exc, CodegenFallback)
                                    else "fault")
            if codegen is None:
                machine.run(program, arrays, counter=counter)
            if tail:
                _apply_tail(program.tail_spec, cur, nxt, covered, scratch)
            cur, nxt = nxt, cur
            if observing:
                obs.counter("exec.sweeps").inc()
                obs.histogram("exec.sweep_ms").observe(
                    (time.perf_counter() - t0) * 1e3)
        if observing:
            espan.set(engine="codegen" if codegen is not None else "interp")
    return cur


def _count_fallback(reason: str) -> None:
    """Tally one codegen -> interp degradation under its reason.  The
    taxonomy (``mem_hook`` | ``compile`` | ``layout`` | ``recurrence`` |
    ``fault``) is documented in docs/architecture.md."""
    if obs.enabled():
        obs.counter("exec.codegen_fallback").inc()
        obs.counter(f"exec.codegen_fallback.reason.{reason}").inc()


def _apply_tail(spec, cur: Grid, nxt: Grid, covered: int,
                scratch: Optional[np.ndarray] = None) -> None:
    """Scalar epilogue: complete the non-block-aligned x strip
    ``[covered, nx)`` of one sweep with shifted-view accumulation.

    ``scratch`` is a preallocated strip-shaped buffer for the per-tap
    product (the driver reuses one across the whole sweep loop)."""
    nx = cur.shape[-1]
    strip = slice(covered, nx)
    dst = nxt.interior[..., strip]
    dst.fill(0.0)
    if scratch is None:
        scratch = np.empty_like(dst)
    for off, c in zip(spec.offsets, spec.coeffs):
        src = cur.shifted_interior(off)[..., strip]
        np.multiply(src, c, out=scratch)
        np.add(dst, scratch, out=dst)


def measure_trace(program: VectorProgram, grid: Grid,
                  *, boundary: str = "periodic",
                  backend: str = "auto") -> TraceCounter:
    """One sweep's executed-instruction counts (Table-2 measurements)."""
    counter = TraceCounter()
    run_program(program, grid, program.steps_per_iter,
                boundary=boundary, counter=counter, backend=backend)
    return counter
