"""The vector instruction set.

Shuffle semantics follow the Intel AVX/AVX2 definitions exactly for the
256-bit case and generalize lane-wise to 128-bit (SSE, one lane) and
512-bit (AVX-512, four lanes) registers:

* :attr:`Op.SHUFPD` — ``vshufpd``: element ``2k`` of each 128-bit lane comes
  from *src1* (low or high element of that lane, chosen by imm bit ``2k``),
  element ``2k+1`` from *src2* (imm bit ``2k+1``).  **In-lane** (Table 1:
  latency 1, 0.5 CPI).
* :attr:`Op.PERMILPD` — ``vpermilpd``: each element picks low/high of its
  own lane of the single source.  **In-lane** (latency 1, 1 CPI).
* :attr:`Op.PERM2F128` — ``vperm2f128`` generalized to a lane concatenator:
  each destination lane selects any lane of the concatenation
  ``src1.lanes + src2.lanes`` (AVX-512's ``vshufi64x2`` plays this role for
  four lanes).  **Cross-lane** (latency 3, 1 CPI).
* :attr:`Op.PERMPD` — ``vpermpd``: arbitrary element permutation of one
  source across the whole register.  **Cross-lane** (latency 3, 1 CPI).

Memory operands are affine in the loop variables so that one symbolic
program describes a whole loop nest; :class:`repro.machine.machine.SimdMachine`
binds the variables while sweeping the iteration space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..errors import IsaError


# ---------------------------------------------------------------------------
# affine index expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Affine:
    """``const + sum(coeff[v] * v)`` over loop variables ``v``."""

    const: int = 0
    terms: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def of(cls, const: int = 0, **coeffs: int) -> "Affine":
        return cls(const=int(const),
                   terms=tuple(sorted((v, int(c)) for v, c in coeffs.items() if c)))

    @classmethod
    def var(cls, name: str, coeff: int = 1, const: int = 0) -> "Affine":
        coeff = int(coeff)
        return cls(int(const), ((name, coeff),) if coeff else ())

    def shift(self, delta: int) -> "Affine":
        return Affine(self.const + int(delta), self.terms)

    def evaluate(self, env: Mapping[str, int]) -> int:
        total = self.const
        for var, coeff in self.terms:
            try:
                total += coeff * env[var]
            except KeyError:
                raise IsaError(f"unbound loop variable {var!r} in address") from None
        return total

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [str(self.const)] if self.const or not self.terms else []
        parts += [f"{c}*{v}" if c != 1 else v for v, c in self.terms]
        return "+".join(parts) or "0"


@dataclass(frozen=True)
class MemRef:
    """A vector memory operand: ``array[idx_0, ..., idx_{d-2}, idx_{d-1} :
    idx_{d-1} + W]`` — W contiguous elements along the unit-stride axis."""

    array: str
    index: Tuple[Affine, ...]

    def evaluate(self, env: Mapping[str, int]) -> Tuple[int, ...]:
        return tuple(ix.evaluate(env) for ix in self.index)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.array}[{', '.join(map(str, self.index))}]"


# ---------------------------------------------------------------------------
# opcodes
# ---------------------------------------------------------------------------

class Op(enum.Enum):
    LOAD = "vmovupd.load"
    STORE = "vmovupd.store"
    BROADCAST = "vbroadcastsd"
    SHUFPD = "vshufpd"
    PERMILPD = "vpermilpd"
    SHUFPS = "vshufps"
    PERMILPS = "vpermilps"
    UNPCKLPS = "vunpcklps"
    UNPCKHPS = "vunpckhps"
    PERM2F128 = "vperm2f128"
    PERMPD = "vpermpd"
    ADD = "vaddpd"
    SUB = "vsubpd"
    MUL = "vmulpd"
    FMA = "vfmadd231pd"
    MOV = "vmovapd"
    SETZERO = "vxorpd"


class InstrClass(enum.Enum):
    """The cost classes of the paper's Table 1/Table 2 accounting."""

    LOAD = "load"
    STORE = "store"
    CROSS_LANE = "cross-lane"
    IN_LANE = "in-lane"
    ARITH = "arith"
    OTHER = "other"


_CLASS: Dict[Op, InstrClass] = {
    Op.LOAD: InstrClass.LOAD,
    Op.STORE: InstrClass.STORE,
    Op.BROADCAST: InstrClass.OTHER,
    Op.SHUFPD: InstrClass.IN_LANE,
    Op.PERMILPD: InstrClass.IN_LANE,
    Op.SHUFPS: InstrClass.IN_LANE,
    Op.PERMILPS: InstrClass.IN_LANE,
    Op.UNPCKLPS: InstrClass.IN_LANE,
    Op.UNPCKHPS: InstrClass.IN_LANE,
    Op.PERM2F128: InstrClass.CROSS_LANE,
    Op.PERMPD: InstrClass.CROSS_LANE,
    Op.ADD: InstrClass.ARITH,
    Op.SUB: InstrClass.ARITH,
    Op.MUL: InstrClass.ARITH,
    Op.FMA: InstrClass.ARITH,
    Op.MOV: InstrClass.OTHER,
    Op.SETZERO: InstrClass.OTHER,
}


def classify(op: Op) -> InstrClass:
    return _CLASS[op]


# ---------------------------------------------------------------------------
# instructions
# ---------------------------------------------------------------------------

#: register sources each opcode reads (checked on every :class:`Instr`),
#: keyed by opcode name: a str key hashes in C, where an ``Op`` key runs
#: ``Enum.__hash__`` in Python on every instruction built
_N_SRCS: Dict[str, int] = {op._name_: n for op, n in {
    Op.LOAD: 0, Op.STORE: 1, Op.BROADCAST: 0, Op.SETZERO: 0,
    Op.SHUFPD: 2, Op.PERMILPD: 1, Op.PERM2F128: 2, Op.PERMPD: 1,
    Op.SHUFPS: 2, Op.PERMILPS: 1, Op.UNPCKLPS: 2, Op.UNPCKHPS: 2,
    Op.ADD: 2, Op.SUB: 2, Op.MUL: 2, Op.FMA: 3, Op.MOV: 1,
}.items()}


@dataclass(frozen=True)
class Instr:
    """One vector instruction.

    ``dst`` / ``srcs`` are virtual register names.  ``imm`` carries the
    shuffle control (int bitmask for SHUFPD/PERMILPD, tuple of selectors for
    PERM2F128/PERMPD) or the broadcast constant.  ``mem`` is the memory
    operand of LOAD/STORE.
    """

    op: Op
    dst: Optional[str] = None
    srcs: Tuple[str, ...] = ()
    imm: object = None
    mem: Optional[MemRef] = None
    #: memory operand not aligned to the vector width (unaligned vmovupd
    #: pays split-line penalties; the pipeline model charges it extra)
    unaligned: bool = False
    comment: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        op = self.op
        n_src = _N_SRCS[op._name_]
        if len(self.srcs) != n_src:
            raise IsaError(f"{op.value} expects {n_src} sources, got {self.srcs}")
        if op is Op.STORE:
            if self.dst:
                raise IsaError("STORE has no destination register")
        elif not self.dst:
            raise IsaError(f"{op.value} needs a destination register")
        if op is Op.LOAD or op is Op.STORE:
            if self.mem is None:
                raise IsaError(f"{op.value} needs a memory operand")
        elif self.mem is not None:
            raise IsaError(f"{op.value} takes no memory operand")
        if op is Op.BROADCAST and not isinstance(self.imm, (int, float)):
            raise IsaError("BROADCAST imm must be a scalar constant")

    @property
    def klass(self) -> InstrClass:
        return classify(self.op)

    @property
    def reads(self) -> Tuple[str, ...]:
        return self.srcs

    @property
    def writes(self) -> Optional[str]:
        return self.dst

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [self.op.value]
        if self.dst:
            parts.append(self.dst)
        parts.extend(self.srcs)
        if self.mem is not None:
            parts.append(str(self.mem))
        if self.imm is not None:
            parts.append(f"imm={self.imm}")
        text = " ".join(parts)
        return f"{text}  ; {self.comment}" if self.comment else text


# ---------------------------------------------------------------------------
# semantics
# ---------------------------------------------------------------------------

def _check_width(value: np.ndarray, width: int, what: str) -> np.ndarray:
    if value.shape != (width,):
        raise IsaError(f"{what}: expected width {width}, got shape {value.shape}")
    return value


def _shufpd(src1: np.ndarray, src2: np.ndarray, imm: int, width: int) -> np.ndarray:
    """AVX ``vshufpd`` generalized lane-wise.

    For each 128-bit lane ``k`` (elements ``2k, 2k+1``):
    ``dst[2k]   = src1[2k + imm_bit(2k)]``;
    ``dst[2k+1] = src2[2k + imm_bit(2k+1)]``.
    """
    if not isinstance(imm, (int, np.integer)):
        raise IsaError(f"SHUFPD imm must be an int bitmask, got {imm!r}")
    if imm < 0 or imm >= (1 << width):
        raise IsaError(f"SHUFPD imm {imm:#x} out of range for width {width}")
    dst = np.empty(width, dtype=src1.dtype)
    for lane in range(width // 2):
        e0, e1 = 2 * lane, 2 * lane + 1
        dst[e0] = src1[e0 + ((imm >> e0) & 1)]
        dst[e1] = src2[e0 + ((imm >> e1) & 1)]
    return dst


def _permilpd(src: np.ndarray, imm: int, width: int) -> np.ndarray:
    """``vpermilpd``: each element selects low/high of its own lane."""
    if not isinstance(imm, (int, np.integer)):
        raise IsaError(f"PERMILPD imm must be an int bitmask, got {imm!r}")
    if imm < 0 or imm >= (1 << width):
        raise IsaError(f"PERMILPD imm {imm:#x} out of range for width {width}")
    dst = np.empty(width, dtype=src.dtype)
    for i in range(width):
        lane_base = (i // 2) * 2
        dst[i] = src[lane_base + ((imm >> i) & 1)]
    return dst


def _perm2f128(src1: np.ndarray, src2: np.ndarray, imm, width: int,
               epl: int) -> np.ndarray:
    """Lane concatenator (``vperm2f128`` / ``vshufi64x2``).

    ``imm`` is a tuple with one selector per destination lane; selector
    ``s`` picks lane ``s`` of the concatenation ``src1.lanes + src2.lanes``
    (``None`` zeroes the lane, mirroring vperm2f128's zero bit).  ``epl``
    is the elements-per-128-bit-lane (2 for f64, 4 for f32).
    """
    lanes = width // epl
    if not isinstance(imm, tuple) or len(imm) != lanes:
        raise IsaError(
            f"PERM2F128 imm must be a tuple of {lanes} lane selectors, got {imm!r}"
        )
    cat = np.concatenate([src1, src2])
    dst = np.empty(width, dtype=src1.dtype)
    for lane, sel in enumerate(imm):
        if sel is None:
            dst[epl * lane: epl * (lane + 1)] = 0.0
            continue
        if not 0 <= int(sel) < 2 * lanes:
            raise IsaError(f"PERM2F128 lane selector {sel} out of range")
        dst[epl * lane: epl * (lane + 1)] = cat[epl * sel: epl * (sel + 1)]
    return dst


def _shufps(src1: np.ndarray, src2: np.ndarray, imm: int,
            width: int) -> np.ndarray:
    """``vshufps`` (float32 lanes of 4): per lane, elements 0-1 select any
    element of src1's lane (2-bit fields), elements 2-3 of src2's lane.
    The same 8-bit imm applies to every lane."""
    if not isinstance(imm, (int, np.integer)) or not 0 <= imm < 256:
        raise IsaError(f"SHUFPS imm must be an 8-bit int, got {imm!r}")
    if width % 4:
        raise IsaError("SHUFPS needs 4-element lanes (float32 registers)")
    sel = [(imm >> (2 * k)) & 3 for k in range(4)]
    dst = np.empty(width, dtype=src1.dtype)
    for base in range(0, width, 4):
        dst[base + 0] = src1[base + sel[0]]
        dst[base + 1] = src1[base + sel[1]]
        dst[base + 2] = src2[base + sel[2]]
        dst[base + 3] = src2[base + sel[3]]
    return dst


def _permilps(src: np.ndarray, imm: int, width: int) -> np.ndarray:
    """``vpermilps``: each element selects any element of its own lane
    (2-bit fields, same imm every lane)."""
    if not isinstance(imm, (int, np.integer)) or not 0 <= imm < 256:
        raise IsaError(f"PERMILPS imm must be an 8-bit int, got {imm!r}")
    if width % 4:
        raise IsaError("PERMILPS needs 4-element lanes (float32 registers)")
    sel = [(imm >> (2 * k)) & 3 for k in range(4)]
    dst = np.empty(width, dtype=src.dtype)
    for base in range(0, width, 4):
        for k in range(4):
            dst[base + k] = src[base + sel[k]]
    return dst


def _unpckps(src1: np.ndarray, src2: np.ndarray, width: int,
             high: bool) -> np.ndarray:
    """``vunpcklps``/``vunpckhps``: per lane interleave the low (or high)
    halves: ``(a0, b0, a1, b1)`` / ``(a2, b2, a3, b3)``."""
    if width % 4:
        raise IsaError("UNPCK*PS needs 4-element lanes (float32 registers)")
    o = 2 if high else 0
    dst = np.empty(width, dtype=src1.dtype)
    for base in range(0, width, 4):
        dst[base + 0] = src1[base + o]
        dst[base + 1] = src2[base + o]
        dst[base + 2] = src1[base + o + 1]
        dst[base + 3] = src2[base + o + 1]
    return dst


def _permpd(src: np.ndarray, imm, width: int) -> np.ndarray:
    """``vpermpd``: arbitrary full-register element permutation."""
    if not isinstance(imm, tuple) or len(imm) != width:
        raise IsaError(
            f"PERMPD imm must be a tuple of {width} element selectors, got {imm!r}"
        )
    if any(not 0 <= int(s) < width for s in imm):
        raise IsaError(f"PERMPD selectors {imm} out of range for width {width}")
    return src[list(imm)].copy()


def execute_alu(instr: Instr, regs: Dict[str, np.ndarray], width: int,
                epl: int = 2, dtype=np.float64) -> None:
    """Execute a non-memory instruction against a register file in place.

    ``epl`` is the elements-per-128-bit-lane (2 for float64, 4 for
    float32); the pd-family shuffles require ``epl == 2`` and the
    ps-family ``epl == 4``."""
    op = instr.op
    if op in (Op.SHUFPD, Op.PERMILPD) and epl != 2:
        raise IsaError(f"{op.value} operates on float64 lanes (epl=2)")
    if op in (Op.SHUFPS, Op.PERMILPS, Op.UNPCKLPS, Op.UNPCKHPS) and epl != 4:
        raise IsaError(f"{op.value} operates on float32 lanes (epl=4)")
    if op is Op.BROADCAST:
        regs[instr.dst] = np.full(width, instr.imm, dtype=dtype)
        return
    if op is Op.SETZERO:
        regs[instr.dst] = np.zeros(width, dtype=dtype)
        return
    try:
        srcs = [
            _check_width(regs[name], width, f"register {name!r}")
            for name in instr.srcs
        ]
    except KeyError as exc:
        raise IsaError(f"read of undefined register {exc.args[0]!r}") from None
    if op is Op.MOV:
        regs[instr.dst] = srcs[0].copy()
    elif op is Op.SHUFPD:
        regs[instr.dst] = _shufpd(srcs[0], srcs[1], instr.imm, width)
    elif op is Op.PERMILPD:
        regs[instr.dst] = _permilpd(srcs[0], instr.imm, width)
    elif op is Op.PERM2F128:
        regs[instr.dst] = _perm2f128(srcs[0], srcs[1], instr.imm, width, epl)
    elif op is Op.SHUFPS:
        regs[instr.dst] = _shufps(srcs[0], srcs[1], instr.imm, width)
    elif op is Op.PERMILPS:
        regs[instr.dst] = _permilps(srcs[0], instr.imm, width)
    elif op is Op.UNPCKLPS:
        regs[instr.dst] = _unpckps(srcs[0], srcs[1], width, high=False)
    elif op is Op.UNPCKHPS:
        regs[instr.dst] = _unpckps(srcs[0], srcs[1], width, high=True)
    elif op is Op.PERMPD:
        regs[instr.dst] = _permpd(srcs[0], instr.imm, width)
    elif op is Op.ADD:
        regs[instr.dst] = srcs[0] + srcs[1]
    elif op is Op.SUB:
        regs[instr.dst] = srcs[0] - srcs[1]
    elif op is Op.MUL:
        regs[instr.dst] = srcs[0] * srcs[1]
    elif op is Op.FMA:
        # vfmadd231pd dst, a, b computes dst = a*b + dst; we expose the
        # three-source functional form dst = srcs[0]*srcs[1] + srcs[2].
        regs[instr.dst] = srcs[0] * srcs[1] + srcs[2]
    else:  # pragma: no cover - defensive
        raise IsaError(f"execute_alu cannot handle {op}")
