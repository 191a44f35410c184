"""Instruction-trace accounting.

:class:`TraceCounter` tallies executed (or statically listed) instructions
by :class:`~repro.machine.isa.InstrClass` and by opcode — the currency of
the paper's Table 2 ("analytical vector instructions per vector") and of
the Figure-8 hotspot breakdown.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from .isa import Instr, InstrClass, Op


@dataclass
class TraceCounter:
    by_class: Counter = field(default_factory=Counter)
    by_op: Counter = field(default_factory=Counter)
    vectors: int = 0  #: output vectors produced
    steps: int = 0    #: time steps advanced (ITM fuses several per sweep)

    def add(self, instr: Instr, times: int = 1) -> None:
        self.by_class[instr.klass] += times
        self.by_op[instr.op] += times

    def add_many(self, instrs: Iterable[Instr], times: int = 1) -> None:
        for instr in instrs:
            self.add(instr, times)

    def merge(self, other: "TraceCounter") -> "TraceCounter":
        self.by_class.update(other.by_class)
        self.by_op.update(other.by_op)
        self.vectors += other.vectors
        self.steps += other.steps
        return self

    # -- queries -------------------------------------------------------------
    def count(self, klass: InstrClass) -> int:
        return int(self.by_class.get(klass, 0))

    @property
    def loads(self) -> int:
        return self.count(InstrClass.LOAD)

    @property
    def stores(self) -> int:
        return self.count(InstrClass.STORE)

    @property
    def cross_lane(self) -> int:
        return self.count(InstrClass.CROSS_LANE)

    @property
    def in_lane(self) -> int:
        return self.count(InstrClass.IN_LANE)

    @property
    def arith(self) -> int:
        return self.count(InstrClass.ARITH)

    @property
    def shuffles(self) -> int:
        return self.cross_lane + self.in_lane

    @property
    def total(self) -> int:
        return int(sum(self.by_class.values()))

    def per_vector(self) -> Dict[str, float]:
        """Per-output-vector-per-time-step averages — directly comparable to
        the paper's Table 2 rows."""
        denom = max(1, self.vectors) * max(1, self.steps or 1)
        return {
            "L": self.loads / denom,
            "S": self.stores / denom,
            "C": self.cross_lane / denom,
            "I": self.in_lane / denom,
            "A": self.arith / denom,
        }

    def summary(self) -> Dict[str, int]:
        out = {k.value: int(v) for k, v in sorted(self.by_class.items(),
                                                  key=lambda kv: kv[0].value)}
        out["total"] = self.total
        return out

    def op_summary(self) -> Dict[str, int]:
        return {op.value: int(n) for op, n in sorted(self.by_op.items(),
                                                     key=lambda kv: kv[0].value)}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        pv = self.per_vector()
        return ("TraceCounter(" +
                ", ".join(f"{k}={v:.3g}" for k, v in pv.items()) +
                f", vectors={self.vectors}, steps={self.steps})")


def analytic_trace(program, counter: Optional[TraceCounter] = None) -> TraceCounter:
    """Executed-instruction counts of one full sweep, computed statically
    — exactly what :meth:`SimdMachine.run` tallies (prologue once per
    outer-loop entry, body once per x-iteration)."""
    counter = counter if counter is not None else TraceCounter()
    n_outer = math.prod(loop.trip_count for loop in program.loops[:-1])
    body_runs = program.total_body_runs()
    for instr in program.prologue:
        counter.add(instr, times=n_outer)
    for instr in program.body:
        counter.add(instr, times=body_runs)
    counter.vectors += program.vectors_per_iter * body_runs
    counter.steps = program.steps_per_iter
    return counter


def mix_of(instrs: Iterable[Instr]) -> TraceCounter:
    """Static instruction mix of a code sequence."""
    tc = TraceCounter()
    tc.add_many(instrs)
    return tc
