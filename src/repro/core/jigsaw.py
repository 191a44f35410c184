"""The Jigsaw code generator and public compile API.

``generate_jigsaw`` lowers any supported stencil through the full pipeline
of the paper (Figure 5's flow):

1. **ITM** (optional): replace the stencil by its ``s``-step convolution
   power (:mod:`repro.core.itm`).
2. **SDF**: decompose the (rows × x-taps) matricization into rank-1 terms
   (:mod:`repro.core.sdf`).  Each term's vertical accumulation is
   conflict-free: aligned row vectors are combined with FMAs only.
3. **LBV**: each term's horizontal taps run in the butterfly domain
   (:mod:`repro.core.lbv`); all terms accumulate in swizzled space and a
   single final re-interleave feeds the two stores.

Row loads are shared across terms through a load cache, so the per-vector
load count equals the row count (amortized over the ``2W`` block and over
fused steps) — reproducing the paper's Table-2 "Jigsaw" row.

Lowering is shape-free: addresses are "loop variable + offset", so
:func:`lower_jigsaw` returns a :class:`JigsawTemplate` whose instruction
stream depends on the stencil, the machine and the fusion depth only, and
:meth:`JigsawTemplate.bind` sets one grid's loop bounds after checking the
grid's rank, halo and x extent.  :func:`generate_jigsaw` is the two in
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..config import MachineConfig
from ..errors import VectorizeError
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from ..vectorize.common import (
    check_geometry,
    loop_nest,
    out_addr,
    point_addr,
    unbound_loops,
)
from ..vectorize.program import ProgramBuilder, VectorProgram
from .itm import merged_spec
from .lbv import ButterflyEmitter
from .sdf import Rank1Term, structured_terms

Outer = Tuple[int, ...]


def fused_halo(fused: StencilSpec, width: int) -> Tuple[int, ...]:
    """Halo for a sweep of the already-fused stencil ``fused`` on
    ``width``-element vectors: its radius on outer axes, a two-vector
    window on x."""
    r = fused.radius
    return r[:-1] + (max(r[-1], 2 * width),)


def required_halo(spec: StencilSpec, machine: MachineConfig,
                  *, time_fusion: int = 1) -> Tuple[int, ...]:
    """Halo for the (possibly fused) kernel.  Runs the ITM merge on every
    call; a plan's :attr:`~repro.core.planner.JigsawPlan.halo` does not."""
    return fused_halo(merged_spec(spec, time_fusion), machine.vector_elems)


@dataclass(frozen=True)
class JigsawTemplate:
    """One lowered Jigsaw sweep without loop bounds (see module
    docstring): a single template serves every grid of the stencil's
    rank."""

    program: VectorProgram  #: the sweep over :func:`unbound_loops`
    spec: StencilSpec       #: the base (unfused) stencil
    halo: Tuple[int, ...]   #: the least halo a bound grid may have

    def bind(self, grid: Grid) -> VectorProgram:
        """The program over ``grid``'s interior.  Raises
        :class:`~repro.errors.VectorizeError` for a wrong rank, a halo
        below :attr:`halo` or an x extent shorter than one block."""
        block = self.program.block
        check_geometry(self.spec, grid, block=block, halo_needed=self.halo)
        return self.program.with_loops(loop_nest(grid, block))


class _RowLoadCache:
    """Shares aligned row loads across SDF terms within one emission
    stream (prologue or body)."""

    def __init__(self, builder: ProgramBuilder, ndim: int) -> None:
        self.b = builder
        self.ndim = ndim
        self._cache: Dict[Tuple[bool, Outer, int], str] = {}

    def get(self, outer: Outer, offset: int, in_prologue: bool) -> str:
        key = (in_prologue, outer, offset)
        if key not in self._cache:
            off0 = outer + (0,)
            self._cache[key] = self.b.load(
                point_addr(self.ndim, off0, array=self.b.input_array,
                           x_extra=offset),
                comment=f"row {outer} load F({offset})",
                unaligned=offset % self.b.width != 0,
            )
        return self._cache[key]


def _term_provider(builder: ProgramBuilder, cache: _RowLoadCache,
                   term: Rank1Term, tag: str):
    """An :data:`~repro.core.lbv.AlignedProvider` computing the flattened
    vector ``G(o) = Σ_outer u[outer] · a[·+outer, x+o]`` (Algorithm 2's
    ``Flattening`` — FMAs only, no shuffles)."""

    def provider(offset: int, in_prologue: bool, dst: str) -> str:
        rows = sorted(term.u)
        if len(rows) == 1 and term.u[rows[0]] == 1.0:
            # single unit row: the load itself is G.
            reg = cache.get(rows[0], offset, in_prologue)
            return builder.mov_to(dst, reg, comment=f"{tag}: pin G({offset})")
        acc: Optional[str] = None
        for i, outer in enumerate(rows):
            reg = cache.get(outer, offset, in_prologue)
            c = builder.broadcast(term.u[outer])
            last = i == len(rows) - 1
            if acc is None:
                acc = builder.mul(c, reg, comment=f"{tag}: flatten G({offset})",
                                  dst=dst if last else None)
            else:
                acc = builder.fma(c, reg, acc,
                                  comment=f"{tag}: flatten G({offset})",
                                  dst=dst if last else None)
        return acc

    return provider


class _DirectWindow:
    """Loop-carried aligned ``G`` registers for a shuffle-free term (all
    taps ``≡ 0 (mod W)``, in practice the residualized ``dx = 0`` column).

    Its contribution lands *after* the interleave with plain FMAs: the
    output vector at ``[x, x+W)`` just adds ``c · G(dx)`` for each aligned
    tap — zero shuffles (the payoff of residualizing the centre column,
    §3.2's "only a few rank-1 matrices" observation taken to the ISA).
    The window extends to ``2W`` so its fresh offsets coincide with the
    butterfly terms' row loads and stay shared through the load cache.
    """

    def __init__(self, builder: ProgramBuilder, provider, taps, width: int,
                 tag: str) -> None:
        self.b = builder
        self.provider = provider
        self.taps = dict(taps)
        self.w = width
        self.tag = tag
        offs = set()
        for dx in self.taps:
            offs.add(dx)
            offs.add(dx + width)
        hi = max(offs)
        offs.update(range(min(offs), hi + width + 1, width))
        self.offsets = sorted(offs)
        self._carried = [o for o in self.offsets
                         if (o + 2 * width) in self.offsets]
        self._g = {o: f"{tag}_G{'m' if o < 0 else ''}{abs(o)}"
                   for o in self.offsets}

    def emit_prologue(self) -> None:
        self.b.in_prologue()
        for o in self.offsets:
            self.provider(o, True, self._g[o])
        self.b.in_body()

    def emit_fresh(self) -> None:
        for o in self.offsets:
            if o not in self._carried:
                self.provider(o, False, self._g[o])

    def contributions(self) -> List[Tuple[float, str, str]]:
        """(coeff, reg_for_out0, reg_for_out1) per tap."""
        return [
            (c, self._g[dx], self._g[dx + self.w])
            for dx, c in sorted(self.taps.items())
        ]

    def emit_slide(self) -> None:
        for o in self._carried:
            self.b.mov_to(self._g[o], self._g[o + 2 * self.w],
                          comment=f"{self.tag}: slide G({o})")


def generate_jigsaw(
    spec: StencilSpec,
    machine: MachineConfig,
    grid: Grid,
    *,
    time_fusion: int = 1,
    terms: Optional[Sequence[Rank1Term]] = None,
    scheme: Optional[str] = None,
) -> VectorProgram:
    """Lower one (possibly ITM-fused) Jigsaw sweep and bind it to
    ``grid`` (see :func:`lower_jigsaw` for the keywords)."""
    return lower_jigsaw(spec, machine, time_fusion=time_fusion, terms=terms,
                        scheme=scheme).bind(grid)


def lower_jigsaw(
    spec: StencilSpec,
    machine: MachineConfig,
    *,
    time_fusion: int = 1,
    terms: Optional[Sequence[Rank1Term]] = None,
    scheme: Optional[str] = None,
) -> JigsawTemplate:
    """Lower one (possibly ITM-fused) Jigsaw sweep for any grid of the
    stencil's rank.

    ``terms`` overrides the SDF decomposition — pass
    :func:`repro.core.sdf.rows_as_terms` of the fused spec for the
    LBV-without-SDF ablation.  ``time_fusion=s`` advances ``s`` time steps
    per sweep.
    """
    with obs.span("codegen", kernel=spec.name, time_fusion=time_fusion):
        return _lower_jigsaw(spec, machine, time_fusion=time_fusion,
                             terms=terms, scheme=scheme)


def _lower_jigsaw(
    spec: StencilSpec,
    machine: MachineConfig,
    *,
    time_fusion: int = 1,
    terms: Optional[Sequence[Rank1Term]] = None,
    scheme: Optional[str] = None,
) -> JigsawTemplate:
    width = machine.vector_elems
    block = 2 * width
    ndim = spec.ndim
    fused = merged_spec(spec, time_fusion)
    if terms is None:
        with obs.span("sdf", kernel=spec.name):
            terms = structured_terms(fused)
    b = ProgramBuilder(width, elem_bytes=machine.element_bytes)
    cache = _RowLoadCache(b, ndim)

    emitters: List[ButterflyEmitter] = []
    directs: List[_DirectWindow] = []
    for i, term in enumerate(terms):
        provider = _term_provider(b, cache, term, tag=f"t{i}")
        if all(dx % width == 0 for dx in term.v):
            directs.append(_DirectWindow(b, provider, term.v, width,
                                         tag=f"t{i}"))
        else:
            emitters.append(ButterflyEmitter(b, term.v, provider, tag=f"t{i}"))

    for em in emitters:
        em.emit_prologue()
    for dw in directs:
        dw.emit_prologue()

    r_e_total: Optional[str] = None
    r_o_total: Optional[str] = None
    for em in emitters:
        em.emit_fresh()
        r_e, r_o = em.emit_butterfly()
        if r_e_total is None:
            r_e_total, r_o_total = r_e, r_o
        else:
            r_e_total = b.add(r_e_total, r_e, comment="accumulate term R_E")
            r_o_total = b.add(r_o_total, r_o, comment="accumulate term R_O")

    out0: Optional[str] = None
    out1: Optional[str] = None
    if emitters:
        out0, out1 = emitters[0].emit_interleave(r_e_total, r_o_total)
    for dw in directs:
        dw.emit_fresh()
        for c, g0, g1 in dw.contributions():
            if out0 is None:
                cr = b.broadcast(c)
                out0 = b.mul(cr, g0, comment="direct term out0")
                out1 = b.mul(cr, g1, comment="direct term out1")
            elif c == 1.0:
                out0 = b.add(out0, g0, comment="direct term out0")
                out1 = b.add(out1, g1, comment="direct term out1")
            else:
                cr = b.broadcast(c)
                out0 = b.fma(cr, g0, out0, comment="direct term out0")
                out1 = b.fma(cr, g1, out1, comment="direct term out1")
    if out0 is None:
        raise VectorizeError(f"{spec.name}: no terms produced any output")
    b.store(out0, out_addr(ndim), comment="store outputs [x, x+W)")
    b.store(out1, out_addr(ndim, x_extra=width),
            comment="store outputs [x+W, x+2W)")
    for em in emitters:
        em.emit_slide()
    for dw in directs:
        dw.emit_slide()

    label = scheme or ("t-jigsaw" if time_fusion > 1 else "jigsaw")
    program = b.build(
        name=f"{label}/{spec.name}",
        scheme=label,
        loops=unbound_loops(ndim, block),
        vectors_per_iter=2,
        steps_per_iter=time_fusion,
        overlapped=True,
        tail_spec=fused,
        notes=(
            f"SDF terms={len(terms)}, fused steps={time_fusion}, "
            f"fused kernel {fused.tag}"
        ),
    )
    return JigsawTemplate(program=program, spec=spec,
                          halo=fused_halo(fused, width))


def compile(
    spec: StencilSpec,
    machine: MachineConfig,
    grid: Grid,
    *,
    time_fusion: int | str = "auto",
    use_sdf: bool = True,
    cache=None,
    backend: str = "auto",
    tuned=None,
):
    """Compile ``spec`` into a ready-to-run :class:`~repro.core.kernel.CompiledKernel`
    (planner-selected fusion depth when ``time_fusion="auto"``).

    Planning, SDF decomposition, and program generation are memoized
    through a :class:`~repro.core.cache.KernelCache`: pass one explicitly
    via ``cache``, or leave it ``None`` to share the process-wide default
    cache.  ``cache=False`` disables memoization entirely.

    ``backend`` selects the SIMD-machine execution engine the kernel's
    :meth:`~repro.core.kernel.CompiledKernel.run` uses (``"auto"`` =
    emitted-source codegen with automatic interpreter fallback).

    ``tuned`` applies an autotuned configuration (e.g. a
    :class:`repro.tune.TuningDB` winner) over the static defaults: its
    ``time_fusion``/``use_sdf``/plan backend replace the corresponding
    keywords, so runs after a ``repro tune`` transparently pick up the
    stored plan.
    """
    # local imports: planner/cache import this module
    from .cache import default_cache
    from .kernel import CompiledKernel
    from .planner import plan
    if tuned is not None:
        time_fusion = getattr(tuned, "time_fusion", time_fusion)
        use_sdf = getattr(tuned, "use_sdf", use_sdf)
        backend = getattr(tuned, "plan_backend", None) or backend
    if cache is None:
        cache = default_cache()
    if cache is False:
        p = plan(spec, machine, time_fusion=time_fusion, use_sdf=use_sdf,
                 backend=backend)
        return CompiledKernel(plan=p, machine=machine, grid=grid)
    return cache.compile(spec, machine, grid, time_fusion=time_fusion,
                         use_sdf=use_sdf, backend=backend)
