"""The vector-program IR.

A :class:`VectorProgram` is a symbolic loop nest whose innermost body is a
straight-line vector instruction sequence with affine memory operands.  It
is the common artifact all vectorization schemes produce:

* the :class:`~repro.machine.machine.SimdMachine` interprets it (semantic
  validation against the numpy reference),
* :meth:`VectorProgram.body_mix` / :meth:`per_vector_mix` feed the paper's
  Table-2 instruction accounting, and
* :mod:`repro.machine.pipeline` costs it.

Convention: the innermost loop variable is the unit-stride ``x`` axis and
advances by :attr:`VectorProgram.block` elements per body execution; the
body produces :attr:`vectors_per_iter` output vectors covering those
elements, advancing :attr:`steps_per_iter` time steps (>1 under ITM).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import VectorizeError
from ..machine.isa import Affine, Instr, MemRef, Op
from ..machine.trace import TraceCounter, mix_of


@dataclass(frozen=True)
class Loop:
    """One loop level: ``for var in range(start, stop, step)``."""

    var: str
    start: int
    stop: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise VectorizeError(f"loop {self.var}: step must be positive")
        if self.stop < self.start:
            raise VectorizeError(f"loop {self.var}: empty/negative range")

    @property
    def trip_count(self) -> int:
        return max(0, -(-(self.stop - self.start) // self.step))

    def indices(self) -> range:
        return range(self.start, self.stop, self.step)


#: str hashes are salted per process, so a hash memo unpickled in another
#: process is stale; the memo records the salt it was computed under
_HASH_SALT = hash("repro.vectorize.program")

#: the instruction streams, hashed apart from the other fields
_CODE_FIELDS = ("prologue", "body")


@dataclass(frozen=True)
class VectorProgram:
    """A lowered stencil sweep (see module docstring)."""

    name: str
    scheme: str
    width: int                      #: elements per vector register
    loops: Tuple[Loop, ...]         #: outer -> inner; last is the x loop
    prologue: Tuple[Instr, ...]     #: run at each innermost-loop entry
    body: Tuple[Instr, ...]         #: run per innermost iteration
    vectors_per_iter: int           #: output vectors stored per body run
    steps_per_iter: int = 1         #: time steps advanced per sweep (ITM)
    overlapped: bool = False        #: shuffles overlap arithmetic (LBV)
    elem_bytes: int = 8             #: 8 = float64, 4 = float32 lanes
    input_array: str = "a"
    output_array: str = "out"
    #: the (possibly fused) stencil this program computes — used by the
    #: driver's scalar epilogue for non-block-divisible x extents
    tail_spec: object = field(default=None, compare=False)
    notes: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.loops:
            raise VectorizeError("a program needs at least the x loop")
        if self.width < 2 or self.width % 2:
            raise VectorizeError(f"width must be an even number of f64 elements, got {self.width}")
        if self.vectors_per_iter < 1:
            raise VectorizeError("vectors_per_iter must be >= 1")
        if self.steps_per_iter < 1:
            raise VectorizeError("steps_per_iter must be >= 1")

    def __hash__(self) -> int:
        """The hash of the compared fields, computed once per instance:
        lookup tables keyed by program (``get_codegen``) would otherwise
        rehash every instruction on each call.  The instruction streams
        enter through :meth:`_code_hash`, which :meth:`with_loops` hands
        on.  Equality is unchanged."""
        memo = self.__dict__.get("_hash_memo")
        if memo is None or memo[0] != _HASH_SALT:
            memo = (_HASH_SALT, hash((self._code_hash(),) + tuple(
                getattr(self, f.name) for f in fields(self)
                if f.compare and f.name not in _CODE_FIELDS)))
            object.__setattr__(self, "_hash_memo", memo)
        return memo[1]

    def _code_hash(self) -> int:
        """The hash of ``prologue`` and ``body``, memoized like
        :meth:`__hash__`."""
        memo = self.__dict__.get("_code_memo")
        if memo is None or memo[0] != _HASH_SALT:
            memo = (_HASH_SALT, hash((self.prologue, self.body)))
            object.__setattr__(self, "_code_memo", memo)
        return memo[1]

    def with_loops(self, loops: Tuple[Loop, ...]) -> "VectorProgram":
        """This program over ``loops``.  It shares the instruction
        streams, and their hash, so hashing it walks no instruction."""
        bound = replace(self, loops=loops)
        object.__setattr__(bound, "_code_memo", (_HASH_SALT,
                                                 self._code_hash()))
        return bound

    # -- geometry -------------------------------------------------------------
    @property
    def x_loop(self) -> Loop:
        return self.loops[-1]

    @property
    def block(self) -> int:
        """Elements of the x axis covered per body execution."""
        return self.x_loop.step

    @property
    def inner_trips(self) -> int:
        return self.x_loop.trip_count

    def total_body_runs(self) -> int:
        total = 1
        for loop in self.loops:
            total *= loop.trip_count
        return total

    def iter_outer(self) -> Iterable[Dict[str, int]]:
        """Environments for every combination of outer-loop indices."""
        outer = self.loops[:-1]
        if not outer:
            yield {}
            return
        for combo in itertools.product(*(l.indices() for l in outer)):
            yield dict(zip((l.var for l in outer), combo))

    # -- accounting -----------------------------------------------------------
    def body_mix(self) -> TraceCounter:
        tc = mix_of(self.body)
        tc.vectors = self.vectors_per_iter
        tc.steps = self.steps_per_iter
        return tc

    def per_vector_mix(self) -> Dict[str, float]:
        """Instruction counts per output vector per time step (Table 2)."""
        return self.body_mix().per_vector()

    def registers_used(self) -> int:
        """Distinct virtual registers in prologue+body — a register-pressure
        proxy (spilling concerns, §3.1/§4.4)."""
        names = set()
        for instr in self.prologue + self.body:
            if instr.dst:
                names.add(instr.dst)
            names.update(instr.srcs)
        return len(names)

    def constant_registers(self) -> set:
        """Registers holding hoisted broadcast constants.  On x86 these are
        rematerializable (or foldable into FMA memory operands), so the
        spill model excludes them from register pressure."""
        return {
            i.dst for i in self.prologue
            if i.op is Op.BROADCAST and i.dst
        }

    def max_live_registers(self) -> int:
        """Peak simultaneously-live vector registers across one
        steady-state body iteration (backward liveness scan; loop-carried
        registers are live out of the body).  Constants are excluded (see
        :meth:`constant_registers`).  This is the pressure the spill model
        compares against the architectural register count."""
        constants = self.constant_registers()
        written: set = set()
        carried: set = set()
        for instr in self.body:
            for src in instr.srcs:
                if src not in written and src not in constants:
                    carried.add(src)  # read before any write: loop-carried
            if instr.dst:
                written.add(instr.dst)
        live = set(carried)
        peak = len(live)
        for instr in reversed(self.body):
            if instr.dst:
                live.discard(instr.dst)
            for src in instr.srcs:
                if src not in constants:
                    live.add(src)
            peak = max(peak, len(live))
        return peak

    def listing(self) -> str:
        """Human-readable assembly-like listing."""
        lines: List[str] = [f"; {self.name} [{self.scheme}] width={self.width}"]
        indent = ""
        for loop in self.loops:
            lines.append(
                f"{indent}for {loop.var} in [{loop.start}, {loop.stop}) step {loop.step}:"
            )
            indent += "  "
        if self.prologue:
            lines.append(f"{indent}; prologue (per x-loop entry)")
            lines.extend(f"{indent}{i}" for i in self.prologue)
        lines.append(f"{indent}; body")
        lines.extend(f"{indent}{i}" for i in self.body)
        return "\n".join(lines)


class ProgramBuilder:
    """Typed emission helper used by every scheme generator.

    Keeps a fresh-name supply, a broadcast-constant cache (coefficient
    registers are hoisted, as a compiler would), and separate prologue/body
    streams.
    """

    def __init__(self, width: int, *, elem_bytes: int = 8,
                 input_array: str = "a", output_array: str = "out") -> None:
        self.width = width
        self.elem_bytes = elem_bytes
        #: elements per 128-bit lane (2 for f64, 4 for f32)
        self.elems_per_lane = 16 // elem_bytes
        self.input_array = input_array
        self.output_array = output_array
        self._counter = itertools.count()
        self._prologue: List[Instr] = []
        self._body: List[Instr] = []
        self._stream = self._body
        self._const_cache: Dict[float, str] = {}
        self._const_instrs: List[Instr] = []

    # -- stream control --------------------------------------------------------
    def in_prologue(self) -> "ProgramBuilder":
        self._stream = self._prologue
        return self

    def in_body(self) -> "ProgramBuilder":
        self._stream = self._body
        return self

    def fresh(self, hint: str = "v") -> str:
        return f"{hint}{next(self._counter)}"

    def emit(self, instr: Instr) -> Optional[str]:
        self._stream.append(instr)
        return instr.dst

    # -- memory -----------------------------------------------------------------
    def mem(self, *index: Affine | int, array: Optional[str] = None) -> MemRef:
        idx = tuple(ix if isinstance(ix, Affine) else Affine.of(ix) for ix in index)
        return MemRef(array or self.input_array, idx)

    def load(self, mem: MemRef, hint: str = "v", comment: str = "",
             unaligned: bool = False) -> str:
        dst = self.fresh(hint)
        self.emit(Instr(Op.LOAD, dst=dst, mem=mem, unaligned=unaligned,
                        comment=comment))
        return dst

    def load_to(self, dst: str, mem: MemRef, comment: str = "",
                unaligned: bool = False) -> str:
        """Load into a *named* register — for loop-carried windows whose
        names must be stable across iterations."""
        self.emit(Instr(Op.LOAD, dst=dst, mem=mem, unaligned=unaligned,
                        comment=comment))
        return dst

    def store(self, src: str, mem: MemRef, comment: str = "") -> None:
        self.emit(Instr(Op.STORE, srcs=(src,), mem=mem, comment=comment))

    # -- shuffles ----------------------------------------------------------------
    def shufpd(self, a: str, b: str, imm: int, comment: str = "",
               dst: Optional[str] = None) -> str:
        dst = dst or self.fresh("s")
        self.emit(Instr(Op.SHUFPD, dst=dst, srcs=(a, b), imm=imm, comment=comment))
        return dst

    def permilpd(self, a: str, imm: int, comment: str = "") -> str:
        dst = self.fresh("s")
        self.emit(Instr(Op.PERMILPD, dst=dst, srcs=(a,), imm=imm, comment=comment))
        return dst

    def shufps(self, a: str, b: str, imm: int, comment: str = "",
               dst: Optional[str] = None) -> str:
        dst = dst or self.fresh("s")
        self.emit(Instr(Op.SHUFPS, dst=dst, srcs=(a, b), imm=imm,
                        comment=comment))
        return dst

    def unpcklps(self, a: str, b: str, comment: str = "",
                 dst: Optional[str] = None) -> str:
        dst = dst or self.fresh("s")
        self.emit(Instr(Op.UNPCKLPS, dst=dst, srcs=(a, b), comment=comment))
        return dst

    def unpckhps(self, a: str, b: str, comment: str = "",
                 dst: Optional[str] = None) -> str:
        dst = dst or self.fresh("s")
        self.emit(Instr(Op.UNPCKHPS, dst=dst, srcs=(a, b), comment=comment))
        return dst

    def lane_concat(self, a: str, b: str, selectors: Sequence[int],
                    comment: str = "", dst: Optional[str] = None) -> str:
        """Cross-lane concatenation (vperm2f128 / vshufi64x2)."""
        dst = dst or self.fresh("p")
        self.emit(Instr(Op.PERM2F128, dst=dst, srcs=(a, b),
                        imm=tuple(selectors), comment=comment))
        return dst

    def permpd(self, a: str, selectors: Sequence[int], comment: str = "") -> str:
        dst = self.fresh("p")
        self.emit(Instr(Op.PERMPD, dst=dst, srcs=(a,),
                        imm=tuple(int(s) for s in selectors), comment=comment))
        return dst

    def deinterleave(self, a: str, b: str, comment: str = "") -> Tuple[str, str]:
        """The LBV butterfly pair — even and odd elements of the
        concatenated block, with an identical internal permutation at
        every base offset.  In-lane at both element widths:
        ``vshufpd`` masks 0/1s for f64 lanes, ``vshufps`` 0x88/0xDD for
        f32 lanes."""
        if self.elems_per_lane == 4:
            lo = self.shufps(a, b, 0x88, comment=comment or "butterfly evens")
            hi = self.shufps(a, b, 0xDD, comment=comment or "butterfly odds")
            return lo, hi
        lo = self.shufpd(a, b, 0, comment=comment or "butterfly evens")
        hi = self.shufpd(a, b, (1 << self.width) - 1,
                         comment=comment or "butterfly odds")
        return lo, hi

    def interleave(self, e: str, o: str, comment: str = "") -> Tuple[str, str]:
        """Re-interleave the butterfly result pair into the two output
        vectors (the inverse of :meth:`deinterleave`)."""
        if self.elems_per_lane == 4:
            out0 = self.unpcklps(e, o, comment=comment or "interleave lo")
            out1 = self.unpckhps(e, o, comment=comment or "interleave hi")
            return out0, out1
        out0 = self.shufpd(e, o, 0, comment=comment or "interleave lo")
        out1 = self.shufpd(e, o, (1 << self.width) - 1,
                           comment=comment or "interleave hi")
        return out0, out1

    # -- arithmetic ----------------------------------------------------------------
    def broadcast(self, value: float, comment: str = "") -> str:
        """Coefficient broadcast, cached and hoisted before the loop nest
        (constants live in registers across the sweep)."""
        value = float(value)
        if value not in self._const_cache:
            dst = self.fresh("c")
            self._const_instrs.append(
                Instr(Op.BROADCAST, dst=dst, imm=value,
                      comment=comment or f"coeff {value:g}")
            )
            self._const_cache[value] = dst
        return self._const_cache[value]

    def setzero(self, comment: str = "") -> str:
        dst = self.fresh("z")
        self.emit(Instr(Op.SETZERO, dst=dst, comment=comment))
        return dst

    def add(self, a: str, b: str, comment: str = "",
            dst: Optional[str] = None) -> str:
        dst = dst or self.fresh("r")
        self.emit(Instr(Op.ADD, dst=dst, srcs=(a, b), comment=comment))
        return dst

    def mul(self, a: str, b: str, comment: str = "",
            dst: Optional[str] = None) -> str:
        dst = dst or self.fresh("r")
        self.emit(Instr(Op.MUL, dst=dst, srcs=(a, b), comment=comment))
        return dst

    def fma(self, a: str, b: str, c: str, comment: str = "",
            dst: Optional[str] = None) -> str:
        """dst = a*b + c."""
        dst = dst or self.fresh("r")
        self.emit(Instr(Op.FMA, dst=dst, srcs=(a, b, c), comment=comment))
        return dst

    def mov(self, a: str, comment: str = "") -> str:
        dst = self.fresh("m")
        self.emit(Instr(Op.MOV, dst=dst, srcs=(a,), comment=comment))
        return dst

    def mov_to(self, dst: str, a: str, comment: str = "") -> str:
        self.emit(Instr(Op.MOV, dst=dst, srcs=(a,), comment=comment))
        return dst

    def weighted_sum(self, terms: Sequence[Tuple[float, str]],
                     comment: str = "") -> str:
        """``sum(c_i * reg_i)`` as MUL + FMA chain; coefficient 1.0 uses the
        register directly where possible."""
        if not terms:
            raise VectorizeError("weighted_sum needs at least one term")
        acc: Optional[str] = None
        for coeff, reg in terms:
            if acc is None:
                if coeff == 1.0:
                    acc = self.mov(reg, comment=comment)
                else:
                    acc = self.mul(self.broadcast(coeff), reg, comment=comment)
            else:
                acc = self.fma(self.broadcast(coeff), reg, acc, comment=comment)
        return acc

    # -- assembly --------------------------------------------------------------
    def build(
        self,
        *,
        name: str,
        scheme: str,
        loops: Sequence[Loop],
        vectors_per_iter: int,
        steps_per_iter: int = 1,
        overlapped: bool = False,
        tail_spec: object = None,
        notes: str = "",
    ) -> VectorProgram:
        # Hoisted constants execute once per x-loop entry (prologue head);
        # they are excluded from the body mix like real hoisted broadcasts.
        prologue = tuple(self._const_instrs) + tuple(self._prologue)
        return VectorProgram(
            name=name,
            scheme=scheme,
            width=self.width,
            loops=tuple(loops),
            prologue=prologue,
            body=tuple(self._body),
            vectors_per_iter=vectors_per_iter,
            steps_per_iter=steps_per_iter,
            overlapped=overlapped,
            elem_bytes=self.elem_bytes,
            input_array=self.input_array,
            output_array=self.output_array,
            tail_spec=tail_spec,
            notes=notes,
        )
