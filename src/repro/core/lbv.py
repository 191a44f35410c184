"""Lane-based Butterfly Vectorization (LBV) — §3.1 / Algorithm 1.

LBV computes a 1-D stencil over a block of ``2W`` outputs in a *swizzled
(butterfly) domain* reachable with cheap in-lane shuffles:

* ``E(b) = vshufpd(F(b), F(b+W), 0...0)`` holds the even elements of the
  2W-block starting at ``x+b`` and ``O(b)`` (all-ones mask) the odd ones,
  where ``F(o)`` is the plain vector ``a[x+o .. x+o+W-1]``.  Crucially the
  internal element permutation ``p`` (``p_{2k} = 2k, p_{2k+1} = W + 2k``)
  is *identical for every base b*, so a neighbour at distance δ is simply
  another butterfly register:

  - even-position results: ``V(δ) = E(δ)`` for even δ, ``O(δ-1)`` for odd δ
  - odd-position results:  ``V(δ) = O(δ)`` for even δ, ``E(δ+1)`` for odd δ

* Only the even-offset full vectors ``F(o)`` with ``o % W != 0`` need a
  cross-lane lane-concat; with the sliding register window of Algorithm 1
  that is **2 cross-lane instructions per iteration = 1 per output vector**
  — the theoretical lower bound §3.1 proves.
* The butterfly arithmetic runs directly on the swizzled registers; two
  final ``vshufpd`` re-interleave ``R_E``/``R_O`` into the stored output
  vectors (Algorithm 1 line 16).

The construction reproduces Algorithm 1 exactly for the 1D5P case: the
carried ``F(0)``/``F(-2)`` are its ``v0``/``vp0``, the two fresh loads are
``v1``/``v2``, and the lane concats are its ``vperm2f128`` calls.

:class:`ButterflyEmitter` abstracts where aligned vectors come from (a
plain load for 1-D; an SDF row accumulation for N-D), which is what lets
SDF reuse this machinery unchanged (§3.2).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import MachineConfig
from ..errors import VectorizeError
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from ..vectorize.common import check_geometry, loop_nest, out_addr, point_addr
from ..vectorize.program import ProgramBuilder, VectorProgram

#: provider(offset, in_prologue, dst) -> emits code leaving the aligned
#: vector at ``x + offset`` (offset % W == 0) in register ``dst``.
AlignedProvider = Callable[[int, bool, str], str]


def butterfly_requirements(
    taps: Mapping[int, float], width: int
) -> Tuple[List[int], List[int], List[int]]:
    """The butterfly register working set for tap offsets ``taps``.

    Returns ``(e_bases, o_bases, f_need)``: the even bases whose ``E``/``O``
    deinterleaves are needed, and the closed set of full-vector offsets
    ``F`` they are built from (closure includes lane-concat parents and the
    sliding-window carry analysis).
    """
    if not taps:
        raise VectorizeError("butterfly needs at least one tap")
    radius = max(abs(d) for d in taps)
    if radius > width:
        raise VectorizeError(
            f"LBV butterfly supports x-radius <= W={width}, got {radius}; "
            f"split the kernel or reduce temporal fusion"
        )
    e_bases: set = set()
    o_bases: set = set()
    for d in taps:
        if d % 2 == 0:
            e_bases.add(d)      # even-position results read E(d)
            o_bases.add(d)      # odd-position results read O(d)
        else:
            o_bases.add(d - 1)  # even-position results read O(d-1)
            e_bases.add(d + 1)  # odd-position results read E(d+1)
    bases = e_bases | o_bases

    f_need = set()
    for b in bases:
        f_need.add(b)
        f_need.add(b + width)
    # closure: a fresh non-aligned F needs its aligned lane-concat parents;
    # an F is carried (no parents needed) when F(o + 2W) is in the set.
    changed = True
    while changed:
        changed = False
        for o in sorted(f_need):
            carried = (o + 2 * width) in f_need
            if o % width != 0 and not carried:
                parent = (o // width) * width  # floor for negatives too
                for p in (parent, parent + width):
                    if p not in f_need:
                        f_need.add(p)
                        changed = True
    return sorted(e_bases), sorted(o_bases), sorted(f_need)


def _odd_mask(width: int) -> int:
    return (1 << width) - 1


class ButterflyEmitter:
    """Emits the LBV butterfly for one set of x-taps over aligned vectors
    supplied by ``provider`` (load or SDF row accumulation).

    The emitter owns the loop-carried ``F`` window: stable register names,
    prologue materialization, per-iteration fresh loads/concats, and the
    end-of-body slide moves (call :meth:`emit_slide` once after all stores).
    """

    def __init__(
        self,
        builder: ProgramBuilder,
        taps: Mapping[int, float],
        provider: AlignedProvider,
        *,
        tag: str = "lbv",
    ) -> None:
        self.b = builder
        self.w = builder.width
        self.taps = dict(taps)
        self.provider = provider
        self.tag = tag
        self.e_bases, self.o_bases, self.f_need = butterfly_requirements(
            taps, self.w
        )
        self._f: Dict[int, str] = {}
        self._carried: List[int] = [
            o for o in self.f_need if (o + 2 * self.w) in self.f_need
        ]
        self.epl = getattr(builder, "elems_per_lane", 2)
        # per-(stream, parent) shift caches for sub-lane F materialization
        # (float32 lanes: even offsets are not always lane-aligned)
        self._pair_caches: Dict[tuple, object] = {}

    def _fname(self, o: int) -> str:
        return f"{self.tag}_F{'m' if o < 0 else ''}{abs(o)}"

    def _materialize_f(self, o: int, in_prologue: bool) -> str:
        """Emit the computation of ``F(o)`` into its stable register."""
        name = self._fname(o)
        parent = (o // self.w) * self.w
        have_parents = parent in self._f and (parent + self.w) in self._f
        if o % self.w == 0 or (in_prologue and not have_parents):
            # Aligned vectors come from the provider; in the prologue,
            # carried window entries whose concat parents are outside the
            # working set are prefetched unaligned (Algorithm 1's vp0).
            self.provider(o, in_prologue, name)
        else:
            d = o - parent
            if d % self.epl == 0:
                # lane-aligned: one cross-lane lane concat
                q = d // self.epl
                lanes = self.w // self.epl
                selectors = tuple(range(q, q + lanes))
                self.b.lane_concat(
                    self._f[parent], self._f[parent + self.w], selectors,
                    comment=f"{self.tag}: F({o}) lane concat", dst=name,
                )
            else:
                # float32 lanes: the even offset falls inside a lane;
                # build it through the shared pair-shift cache (lane
                # concats + vshufps), then pin the stable name.
                from ..vectorize.shifts import ShiftCache
                key = (in_prologue, parent)
                cache = self._pair_caches.get(key)
                if cache is None:
                    cache = ShiftCache(self.b, self._f[parent],
                                       self._f[parent + self.w])
                    self._pair_caches[key] = cache
                reg = cache.shift(d)
                self.b.mov_to(name, reg,
                              comment=f"{self.tag}: pin F({o})")
        self._f[o] = name
        return name

    # -- emission phases -------------------------------------------------------
    def emit_prologue(self) -> None:
        """Materialize the whole F window at the x-loop entry (aligned
        offsets first so concat parents exist)."""
        self.b.in_prologue()
        for o in sorted(self.f_need, key=lambda o: (o % self.w != 0, o)):
            self._materialize_f(o, in_prologue=True)
        self.b.in_body()

    def emit_fresh(self) -> None:
        """Per-iteration window refresh: fresh aligned vectors, then fresh
        lane concats (carried entries are refreshed by :meth:`emit_slide`)."""
        fresh = [o for o in self.f_need if o not in self._carried]
        for o in sorted(fresh, key=lambda o: (o % self.w != 0, o)):
            self._materialize_f(o, in_prologue=False)

    def emit_butterfly(self) -> Tuple[str, str]:
        """Deinterleave and accumulate; returns the swizzled result pair
        ``(R_E, R_O)``."""
        b, w = self.b, self.w
        if self.epl == 4:
            e_regs = {
                base: b.shufps(self._f[base], self._f[base + w], 0x88,
                               comment=f"{self.tag}: E({base})")
                for base in self.e_bases
            }
            o_regs = {
                base: b.shufps(self._f[base], self._f[base + w], 0xDD,
                               comment=f"{self.tag}: O({base})")
                for base in self.o_bases
            }
        else:
            e_regs = {
                base: b.shufpd(self._f[base], self._f[base + w], 0,
                               comment=f"{self.tag}: E({base})")
                for base in self.e_bases
            }
            o_regs = {
                base: b.shufpd(self._f[base], self._f[base + w], _odd_mask(w),
                               comment=f"{self.tag}: O({base})")
                for base in self.o_bases
            }
        even_terms: List[Tuple[float, str]] = []
        odd_terms: List[Tuple[float, str]] = []
        for d in sorted(self.taps):
            c = self.taps[d]
            if d % 2 == 0:
                even_terms.append((c, e_regs[d]))
                odd_terms.append((c, o_regs[d]))
            else:
                even_terms.append((c, o_regs[d - 1]))
                odd_terms.append((c, e_regs[d + 1]))
        r_e = b.weighted_sum(even_terms, comment=f"{self.tag}: R_E")
        r_o = b.weighted_sum(odd_terms, comment=f"{self.tag}: R_O")
        return r_e, r_o

    def emit_interleave(self, r_e: str, r_o: str) -> Tuple[str, str]:
        """Re-interleave the swizzled results into the two output vectors
        (Algorithm 1 line 16)."""
        return self.b.interleave(r_e, r_o,
                                 comment=f"{self.tag}: interleave")

    def emit_slide(self) -> None:
        """Slide the carried F window (ascending order keeps sources
        intact: targets are always 2W below their sources)."""
        for o in sorted(self._carried):
            self.b.mov_to(self._f[o], self._f[o + 2 * self.w],
                          comment=f"{self.tag}: slide F({o}) <- F({o + 2 * self.w})")


def required_halo(spec: StencilSpec, machine: MachineConfig) -> Tuple[int, ...]:
    """LBV's window spans aligned vectors up to W beyond the tap radius."""
    r = spec.radius
    w = machine.vector_elems
    return r[:-1] + (max(r[-1], 2 * w),)


def generate_lbv(
    spec: StencilSpec,
    machine: MachineConfig,
    grid: Grid,
    *,
    steps_fused: int = 1,
) -> VectorProgram:
    """Lower a 1-D stencil sweep with pure LBV (Algorithm 1 generalized to
    any radius ``<= W``).

    ``steps_fused`` only annotates the program when the caller already
    merged time steps into ``spec`` via ITM.
    """
    if spec.ndim != 1:
        raise VectorizeError(
            f"generate_lbv handles 1-D kernels; use the Jigsaw planner for "
            f"{spec.tag}"
        )
    width = machine.vector_elems
    block = 2 * width
    check_geometry(spec, grid, block=block,
                   halo_needed=required_halo(spec, machine))
    b = ProgramBuilder(width, elem_bytes=machine.element_bytes)
    taps = spec.axis_taps(0)

    def provider(offset: int, in_prologue: bool, dst: str) -> str:
        return b.load_to(
            dst,
            point_addr(grid.ndim, (0,), array=b.input_array, x_extra=offset),
            comment=f"load F({offset})",
            unaligned=offset % width != 0,
        )

    emitter = ButterflyEmitter(b, taps, provider, tag="lbv")
    emitter.emit_prologue()
    emitter.emit_fresh()
    r_e, r_o = emitter.emit_butterfly()
    out0, out1 = emitter.emit_interleave(r_e, r_o)
    b.store(out0, out_addr(grid.ndim), comment="store outputs [x, x+W)")
    b.store(out1, out_addr(grid.ndim, x_extra=width),
            comment="store outputs [x+W, x+2W)")
    emitter.emit_slide()

    return b.build(
        name=f"lbv/{spec.name}",
        scheme="jigsaw-lbv",
        loops=loop_nest(grid, block=block),
        vectors_per_iter=2,
        steps_per_iter=steps_fused,
        overlapped=True,
        tail_spec=spec,
        notes="butterfly-domain computation; 1 cross-lane per output vector",
    )
