"""Source-level code generation backend for vector programs.

The interpreter dispatches every instruction once per x-iteration in
pure Python, yet a program's body is *static*: the same instruction
sequence runs at every x offset, only the addresses advance by a fixed
stride.  This module exploits that regularity by *emitting source*:

* the whole loop nest is flattened and every register is split into its
  lanes — a register is a tuple of ``width`` **lane planes**, so a
  single numpy op per instruction per lane covers the entire sweep;
* each input array the body loads is **de-interleaved** once per sweep
  into ``block`` lane-major planes, ``D[r, row*P + b] = a[row, b*block +
  r]`` (``P`` the padded row pitch in blocks, see below), in a
  per-thread buffer reused across slabs and calls, so every body LOAD
  lane is a *unit-stride* view of one plane;
* a body lane plane is one flat run over the innermost outer loop's
  ``Y`` rows of ``P`` positions each, the first ``trips`` of which are
  the row's x trips.  When every dealt load steps the other outer loops
  by the same whole rows, the run spans them too (a 3-D slab's z planes
  are one run, the halo rows between planes included), else the plane
  has shape ``(*outer[:-1], Y*P)``.  Numpy runs every op as one long
  contiguous loop; the pad and between-plane positions compute from
  halo, zero pad or slack values and are never stored (stores write
  each row's first ``trips`` positions through a strided view);
* every shuffle is a *rename*: each destination lane becomes the source
  lane the scalar semantics select (:func:`_probe_shuffle`), and a
  zeroed lane the hoisted zero scalar, so shuffles emit no statement;
* BROADCAST and SETZERO are hoisted scalars of the program's dtype
  (``np.float32``/``np.float64``, never a wider type that would
  promote float32 lanes);
* every arithmetic lane is one ufunc call into a **register**,
  ``np.multiply(_K0, _v0, out=_r3)``; an FMA lane multiplies into its
  register and then adds into the same register (the interpreter's
  ``a*b + c``), and lanes no store or carry reaches are never computed
  (see *Register file* below);
* stores are deferred and committed after the body, one strided view
  assignment per lane: the rows each array is stored at are disjoint,
  so the commits are order-free.

That is the one shape every scheme generator emits (dealt-view loads,
view carries, disjoint view stores).  Any other program is refused with
a :class:`CodegenFallback` and runs on the interpreter, the bitwise
reference.

The emitted text is ``compile()``d + ``exec()``d once per (program,
array shapes) pair and cached; each sweep is then a single call into
specialized straight-line code.  Both per-program tables (array-shape
specializations, slab programs) are LRU-bounded by
:data:`SPEC_ENTRIES`.

**Loop-carried registers.**  A carried register (Algorithm 1's
``v0``/``vp0``, the sliding windows of Reorg/Folding/LBV) holds, at trip
``t``, its end-of-body value of trip ``t-1``, and at trip 0 its prologue
value.  Lowering compares, lane by lane, the prologue value's expression
with the end-of-body expression evaluated one trip earlier (hash-consed
keys, body load addresses shifted back by one x step).  When they are
equal the carry is a **view**: ``final[..., :-1]`` of its end-of-body
plane computed from one position earlier, because position ``y*P - 1``
of a flat run *is* trip ``-1`` of row ``y``.  Its prologue lanes are
then dead.  Identical carry lanes are built once.  Each lane plane is
computed over as many extra leading positions (its *extent*) as the
view carries reading it need.  Lowering orders the carried registers so
that each one's end-of-body value reads only carries already built, so
the body runs exactly once.  A cycle among the carries is a true
recurrence (an accumulator) and raises a ``recurrence`` fallback.

**Register file.**  A lane read twice, stored or carried (a carry
view ``_r[..., :-1]`` is a use of its register) keeps its own register
for the slab call; a single-use lane's register is free once its
reader has run, and the next lane takes the most recently freed one.
An op's output register is never one of its inputs, so no ``out=``
partly overlaps an operand.  Registers are views, in the program's
dtype, of one byte buffer per thread (:func:`_register_file`): each
register starts on an :data:`ALIGN` boundary, and the buffer is
replaced by a larger one only when a specialization needs more than
any the thread ran before, so it costs the largest specialization's
registers, not their sum.  It lives across slabs and calls; two threads
running one specialization each write their own.

**Strip-mining.**  A sweep over more than :data:`SLAB_POINTS` output
points runs the same kernel over contiguous row-slab views
``arr[k0 : k0 + b + 2h]`` of every array, with the outermost loop
narrowed to ``b`` rows; a slab program shares its parent's analysis.
The bound caps a slab's de-interleaved input and a register's length,
so the register file does not grow with the grid.  The outer trip count
is split evenly when one of its divisors lies in ``[b/2, b]`` for the
bound's ``b`` rows (the largest such divisor: 96 rows at ``b = 14`` run
as 8 slabs of 12), so every slab shares one specialization; otherwise
slabs of ``b`` rows and one remainder need two.  Outer environments
are independent and loads never alias stores, so the slabs compose to
exactly the full sweep, and every specialization is made before the
first slab runs.

**Bitwise identity.**  Views, the de-interleaving copy and shuffle
renames are exact element copies; ADD/SUB/MUL/FMA are the same IEEE ops
applied to the same operand values lane by lane (an FMA adds its
addend to its rounded product, the interpreter's unfused ``a*b + c``,
constants are scalars of the program's dtype, and the stored positions
of a lane plane hold, per (env, x) coordinate, exactly the values the
interpreter's register lanes hold at that iteration).  The
differential harness asserts interp == codegen bitwise for every
scheme, dtype and random spec.

**Fallback taxonomy.**  :class:`CodegenFallback` carries a ``reason``
the driver feeds into ``exec.codegen_fallback.reason.*`` counters:

* ``compile``    — lowering sees a shape outside the generated one
  (x-dependent non-last-axis address, prologue store, load/store array
  aliasing, a carry that is not a view, a live prologue value that is
  not a scalar);
* ``layout``     — only the concrete arrays show it (wrong dtype,
  non-contiguous, a live body load the de-interleaved planes cannot
  place, a store that is not a view or rows stored twice);
* ``recurrence`` — loop-carried registers depend on each other in a
  cycle (the scan/prefix case).

Every refusal is raised before any array is written.  The driver then
degrades codegen -> interp; correctness never depends on this backend
succeeding.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .. import obs
from ..errors import IsaError, MachineError
from .isa import Affine, Instr, Op, execute_alu

#: output points per strip-mined slab; a sweep over more points runs the
#: kernel slab by slab along the outermost loop (see module docstring).
#: Measured best over 2^15..2^18 on the sweep-large kernels (CHANGES.md
#: has the table): at 2^17 a float64 slab of Jigsaw's AVX2 block of 8 is
#: 128 KiB per lane plane and 1 MiB of de-interleaved input
SLAB_POINTS = 1 << 17

#: entries kept in each per-program table (array-shape specializations,
#: slab programs by height), least recently used evicted first; every
#: eviction counts under ``exec.codegen.spec_evictions``
SPEC_ENTRIES = 8

#: byte alignment of every register in the register file
ALIGN = 64

#: one lane plane of one SSA value: ``(vid, lane index)``
Lane = Tuple[int, int]

#: the numpy ufunc and the infix operator of each two-operand lane op
_BINARY = {Op.ADD: ("add", "+"), Op.SUB: ("subtract", "-"),
           Op.MUL: ("multiply", "*")}

#: per thread, the register file the emitted sweeps evaluate into
#: (``buf``) and the buffers they de-interleave their inputs into
#: (``deal``, by the emitted deal's index)
_FILE = threading.local()


class CodegenFallback(Exception):
    """The program (or these concrete arrays) cannot run on the codegen
    backend; the caller should degrade to the interpreter.  ``reason``
    is one of ``compile | layout | recurrence``."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


def _aligned(nbytes: int) -> np.ndarray:
    """A fresh byte buffer of ``nbytes`` starting on an :data:`ALIGN`
    boundary."""
    raw = np.empty(nbytes + ALIGN - 1, np.uint8)
    start = -raw.ctypes.data % ALIGN
    return raw[start:start + nbytes]


def _deal(arr: np.ndarray, block: int, pitch: int, k: int) -> np.ndarray:
    """``arr`` de-interleaved into ``block`` lane-major planes, flat:
    plane ``r`` holds ``a[row, b*block + r]`` at ``(row + 1)*pitch + b``.
    A zeroed slack row leads and trails each plane; positions past the
    row's last element are zero.  The planes live in this thread's
    ``k``-th deal buffer, kept across calls like :func:`_register_file`
    and grown to the largest deal it held; only the slack and the pad
    are zeroed, and a row of exactly ``pitch`` blocks is one transpose."""
    n = arr.shape[-1]
    rows = arr.size // n
    size = block * (rows + 2) * pitch
    nbytes = size * arr.itemsize
    bufs = _FILE.__dict__.setdefault("deal", {})
    if k not in bufs or bufs[k].size < nbytes:
        bufs[k] = _aligned(nbytes)
    flat = bufs[k][:nbytes].view(arr.dtype)
    planes = flat.reshape(block, rows + 2, pitch)
    planes[:, 0] = 0
    planes[:, -1] = 0
    if pitch * block == n:
        flat.reshape(block, -1)[:, pitch:-pitch] = arr.reshape(-1, block).T
        return flat
    full = n // block
    inner = planes[:, 1:-1]
    inner[:, :, full:] = 0
    src = arr.reshape(rows, n)
    inner[:, :, :full] = src[:, :full * block].reshape(
        rows, full, block).transpose(2, 0, 1)
    if n > full * block:
        inner[:n - full * block, :, full] = src[:, full * block:].T
    return flat


def _register_file(nbytes: int) -> np.ndarray:
    """This thread's register file: a byte buffer of at least ``nbytes``
    starting on an :data:`ALIGN` boundary.  It is replaced by a larger
    one when a specialization needs more, so it holds the largest
    specialization the thread has run, and lives across calls."""
    buf = getattr(_FILE, "buf", None)
    if buf is None or buf.size < nbytes:
        buf = _FILE.buf = _aligned(nbytes)
    return buf


def _lru_get(table: OrderedDict, key):
    """The entry under ``key`` (now most recently used), or None.  Safe
    against a concurrent eviction: each OrderedDict call is atomic."""
    try:
        table.move_to_end(key)
        return table[key]
    except KeyError:
        return None


def _lru_put(table: OrderedDict, key, value) -> None:
    table[key] = value
    if len(table) > SPEC_ENTRIES:
        table.popitem(last=False)
        obs.counter("exec.codegen.spec_evictions").inc()


def _split_affine(aff: Affine, x_var: str
                  ) -> Tuple[int, int, Tuple[Tuple[str, int], ...]]:
    """``(const, x_coefficient, outer_terms)`` of one address expression."""
    coeff = sum(c for var, c in aff.terms if var == x_var)
    return aff.const, coeff, tuple(t for t in aff.terms if t[0] != x_var)


def _probe_shuffle(instr: Instr, width: int, epl: int):
    """Derive a shuffle's lane selection from its scalar semantics.

    The scalar executor is run once on *index-valued* registers (source
    ``k`` holds ``k*width+1 .. (k+1)*width``); the output spells out, per
    destination element, which source element it selects (0 marks a
    zeroed lane, e.g. PERM2F128's zero bit).  The flattened execution is
    then a lane rename — exact by construction, for any opcode and any
    immediate.
    """
    n = len(instr.srcs)
    names = tuple(f"__s{k}" for k in range(n))
    probe = dataclasses.replace(instr, srcs=names)
    regs = {name: np.arange(k * width + 1, (k + 1) * width + 1,
                            dtype=np.float64)
            for k, name in enumerate(names)}
    execute_alu(probe, regs, width, epl=epl, dtype=np.float64)
    codes = regs[instr.dst].astype(np.int64)
    zero_cols = np.nonzero(codes == 0)[0]
    gather = np.clip(codes - 1, 0, n * width - 1)
    src_of = gather // width        # which source each element reads
    col_of = gather % width         # which element of that source
    return src_of, col_of, zero_cols


def _find_carried(program) -> Tuple[str, ...]:
    """Registers read before their first body write *and* written in the
    body — their value crosses x-iterations."""
    written: set = set()
    early: List[str] = []
    for instr in program.body:
        for src in instr.srcs:
            if src not in written and src not in early:
                early.append(src)
        if instr.dst:
            written.add(instr.dst)
    return tuple(r for r in early if r in written)


# ---------------------------------------------------------------------------
# the value graph
# ---------------------------------------------------------------------------

class _Node:
    """One SSA value: a load, a scalar constant, an arithmetic op, or the
    lane planes of a loop-carried register.  Shuffles and MOVs make no
    node: a register is a tuple of :data:`Lane` references."""

    __slots__ = ("vid", "kind", "op", "args", "lanes", "section", "data")

    def __init__(self, vid, kind, op, lanes, section, data):
        self.vid = vid
        self.kind = kind        # load | const | arith | carry
        self.op = op
        self.lanes = lanes      # arith: per lane, the operand Lanes
        self.args = tuple(sorted({v for ops in lanes or ()
                                  for v, _ in ops}))  # operand vids
        self.section = section  # "pro" | "body"
        self.data = data        # const: the scalar; carry: its index


@dataclass
class _MemRef:
    """One LOAD/STORE site, split for lattice addressing."""

    instr: object
    array: str
    outer: Tuple[Tuple[int, Tuple[Tuple[str, int], ...]], ...]
    last: Tuple[int, int, Tuple[Tuple[str, int], ...]]
    rows: int                 # trips for body refs, 1 for prologue refs
    is_store: bool
    vid: int                  # load: produced node (-1 for stores)
    lanes: Tuple[Lane, ...]   # store: the stored register's lanes


@dataclass
class _Specialized:
    """One compiled specialization: the callable, its source text, and
    the array-shape key it was emitted for."""

    key: tuple
    fn: object
    source: str


class CodegenProgram:
    """A :class:`~repro.vectorize.program.VectorProgram` lowered to
    emitted straight-line numpy source (see module docstring).

    Construction performs the shape-independent analysis and raises
    :class:`CodegenFallback` (reason ``compile``) for programs outside
    the generated shape; concrete array layouts are checked by
    :meth:`specialize` (reason ``layout``).  ``recurrence`` is ``None``
    unless the carried registers form a cycle, in which case every run
    raises :class:`CodegenFallback` (reason ``recurrence``).  ``views``
    names the carried registers lowered as shifted views of their
    end-of-body planes: all of them, unless ``recurrence`` is set.
    """

    def __init__(self, program) -> None:
        self.program = program
        self.width = program.width
        self.dtype = np.float32 if program.elem_bytes == 4 else np.float64
        self.epl = 16 // program.elem_bytes
        x_loop = program.x_loop
        self.x_var = x_loop.var
        self.trips = x_loop.trip_count
        self.x_start = x_loop.start
        self.x_step = x_loop.step
        self.outer_loops = program.loops[:-1]
        self.outer_dims = tuple(l.trip_count for l in self.outer_loops)
        self._loop_pos = {l.var: j for j, l in enumerate(self.outer_loops)}
        self._xs = (np.arange(self.trips, dtype=np.int64) * self.x_step
                    + self.x_start)
        self.carried = _find_carried(program)
        self.nodes: List[_Node] = []
        self.refs: List[_MemRef] = []
        self._heads: Dict[str, Tuple[Lane, ...]] = {}   # prologue lanes
        self._finals: Dict[str, Tuple[Lane, ...]] = {}  # end-of-body lanes
        self._carry_vid: Dict[str, int] = {}
        self._pinned: set = set()   # lanes that must be materialized
        self._build()
        self._load_ref = {r.vid: r for r in self.refs if not r.is_store}
        self._order, self.recurrence = self._schedule()
        self.views = (self._view_carries() if self.recurrence is None
                      else frozenset())
        self._live, self._uses = self._liveness()
        self._scalar = self._scalars()
        self._ext = {}
        if self.recurrence is None:
            self._refuse_off_shape()
            self._ext = self._extents()
        self.array_names = sorted({r.array for r in self.refs})
        self._specs: "OrderedDict[tuple, _Specialized]" = OrderedDict()
        self._slab_progs: "OrderedDict[int, CodegenProgram]" = OrderedDict()

    # -- static analysis ---------------------------------------------------

    def _new(self, kind, op, lanes, section, data=None):
        node = _Node(len(self.nodes), kind, op, lanes, section, data)
        self.nodes.append(node)
        return node.vid

    def _register(self, vid) -> Tuple[Lane, ...]:
        return tuple((vid, j) for j in range(self.width))

    def _split_mem(self, instr):
        """Static split of a memory operand; rejects x-dependence off
        the unit-stride axis."""
        mem = instr.mem
        outer = []
        for aff in mem.index[:-1]:
            const, coeff_x, terms = _split_affine(aff, self.x_var)
            if coeff_x:
                raise CodegenFallback(
                    "compile",
                    f"{instr}: non-unit-stride axis depends on the x "
                    f"variable; codegen lowering only handles x on the "
                    f"last axis")
            outer.append((const, terms))
        last = _split_affine(mem.index[-1], self.x_var)
        return mem.array, tuple(outer), last

    def _build(self) -> None:
        program = self.program
        width = self.width
        loaded, stored = set(), set()
        regmap: Dict[str, Tuple[Lane, ...]] = {}

        def const(value, section) -> Tuple[Lane, ...]:
            # the interpreter's own broadcast, so the scalar rounds alike
            scalar = np.full(1, value, dtype=self.dtype)[0]
            return self._register(self._new(
                "const", None, None, section, data=scalar))

        def emit_instr(instr, section):
            op = instr.op
            rows = 1 if section == "pro" else self.trips
            if op is Op.LOAD:
                name, outer, last = self._split_mem(instr)
                loaded.add(name)
                vid = self._new("load", op, None, section)
                self.refs.append(_MemRef(instr, name, outer, last, rows,
                                         False, vid, ()))
                regmap[instr.dst] = self._register(vid)
                return
            if op is Op.STORE:
                if section == "pro":
                    raise CodegenFallback(
                        "compile",
                        f"{instr}: stores in the prologue have ordered "
                        f"side effects codegen does not flatten")
                name, outer, last = self._split_mem(instr)
                stored.add(name)
                src = instr.srcs[0]
                if src not in regmap:
                    # mirror the interpreter: fault at execution time
                    raise MachineError(
                        f"{instr}: store of undefined register")
                self._pinned.update(regmap[src])
                self.refs.append(_MemRef(instr, name, outer, last, rows,
                                         True, -1, regmap[src]))
                return
            if op is Op.BROADCAST:
                regmap[instr.dst] = const(instr.imm, section)
                return
            if op is Op.SETZERO:
                regmap[instr.dst] = const(0.0, section)
                return
            if op is Op.MOV:
                src = instr.srcs[0]
                if src not in regmap:
                    raise IsaError(f"read of undefined register {src!r}")
                regmap[instr.dst] = regmap[src]
                return
            try:
                srcs = tuple(regmap[s] for s in instr.srcs)
            except KeyError as exc:
                raise IsaError(
                    f"read of undefined register {exc.args[0]!r}") from None
            if op in (Op.ADD, Op.SUB, Op.MUL, Op.FMA):
                lanes = tuple(tuple(reg[j] for reg in srcs)
                              for j in range(width))
                regmap[instr.dst] = self._register(
                    self._new("arith", op, lanes, section))
                return
            # every remaining opcode is a pure element shuffle: a rename
            src_of, col_of, zero_cols = _probe_shuffle(
                instr, width, self.epl)
            regmap[instr.dst] = tuple(
                const(0.0, section)[j] if j in zero_cols
                else srcs[src_of[j]][col_of[j]] for j in range(width))

        for instr in program.prologue:
            emit_instr(instr, "pro")

        for name in self.carried:
            if name in regmap:
                self._heads[name] = regmap[name]
            self._carry_vid[name] = self._new(
                "carry", None, None, "body", data=len(self._carry_vid))
            regmap[name] = self._register(self._carry_vid[name])

        for instr in program.body:
            emit_instr(instr, "body")

        for name in self.carried:
            self._finals[name] = regmap[name]
            self._pinned.update(regmap[name])

        if loaded & stored:
            raise CodegenFallback(
                "compile",
                f"arrays {sorted(loaded & stored)} are both loaded and "
                f"stored; flattening would reorder the interpreter's "
                f"read-after-write sequence")

    def _schedule(self) -> Tuple[List[int], Optional[str]]:
        """``(emission order, recurrence)``.  The order is the prologue,
        then each carried register (after the body nodes its end-of-body
        value needs) in dependency order, then the rest of the body.  A
        carry whose final value reads itself, directly or through other
        carries, is a true recurrence: the message is kept for
        :meth:`specialize` to refuse every run with."""
        needs: Dict[str, List[int]] = {}
        deps: Dict[str, set] = {}
        for name in self.carried:
            seen = set()
            stack = [vid for vid, _ in self._finals[name]]
            while stack:
                vid = stack.pop()
                node = self.nodes[vid]
                if vid in seen or node.section != "body":
                    continue
                seen.add(vid)
                stack.extend(node.args)
            needs[name] = sorted(seen)
            deps[name] = {v for v in seen if self.nodes[v].kind == "carry"}
        pending = list(self.carried)
        order = [n.vid for n in self.nodes if n.section == "pro"]
        placed = set(order)
        while pending:
            name = next((n for n in pending if deps[n] <= placed), None)
            if name is None:
                return order, (
                    f"{self.program.name}: loop-carried registers "
                    f"{tuple(pending)} depend on each other in a cycle "
                    f"(true recurrence)")
            for vid in needs[name] + [self._carry_vid[name]]:
                if vid not in placed:
                    order.append(vid)
                    placed.add(vid)
            pending.remove(name)
        order += [n.vid for n in self.nodes if n.vid not in placed]
        return order, None

    def _view_carries(self) -> frozenset:
        """The carried registers whose prologue value equals, lane by
        lane, their end-of-body value one trip earlier.  Expressions are
        compared as hash-consed keys: a body load at trip offset ``k``
        keys on its address with x advanced by ``k`` steps, a prologue
        value keys the same at every offset, and a view carry at offset
        ``k`` is its end-of-body value at ``k - 1``.  Any other carry
        keys uniquely, so a value reading it never matches a prologue
        value.  Carries are decided in dependency order."""
        ids: Dict[tuple, int] = {}
        memo: Dict[Tuple[Lane, int], int] = {}
        views: set = set()

        def key(lane: Lane, k: int) -> int:
            vid, j = lane
            node = self.nodes[vid]
            if node.section == "pro":
                k = 0
            got = memo.get((lane, k))
            if got is not None:
                return got
            if node.kind == "carry" and self.carried[node.data] in views:
                got = key(self._finals[self.carried[node.data]][j], k - 1)
            else:
                if node.kind == "const":
                    item = ("const", node.data.tobytes())
                elif node.kind == "load":
                    ref = self._load_ref[vid]
                    const, coeff, terms = ref.last
                    x = self.x_start + k * self.x_step
                    item = ("load", ref.array, ref.outer, terms,
                            const + coeff * x + j)
                elif node.kind == "arith":
                    item = (node.op,) + tuple(key(op, k)
                                              for op in node.lanes[j])
                else:
                    item = ("carry", node.data, j, k)
                got = ids.setdefault(item, len(ids))
            memo[(lane, k)] = got
            return got

        for vid in self._order:
            node = self.nodes[vid]
            if node.kind != "carry":
                continue
            name = self.carried[node.data]
            if name in self._heads and all(
                    key(head, 0) == key(final, -1) for head, final in
                    zip(self._heads[name], self._finals[name])):
                views.add(name)
        # the recursive closure holds itself and ``self`` in a reference
        # cycle; emptying its cell lets reference counting free a dropped
        # program without waiting for a GC pass
        del key
        return frozenset(views)

    def _liveness(self):
        """``(live lanes, use counts)``: the lanes a store reaches, through
        arithmetic operands and carried registers (a carry reads its
        end-of-body value), and how many live lanes read each one."""
        roots = [lane for ref in self.refs for lane in ref.lanes]
        uses: Dict[Lane, int] = {}
        live = set(roots)
        work = list(live)
        while work:
            vid, j = work.pop()
            node = self.nodes[vid]
            if node.kind == "arith":
                reads = node.lanes[j]
            elif node.kind == "carry":
                reads = (self._finals[self.carried[node.data]][j],)
            else:
                continue
            for lane in reads:
                uses[lane] = uses.get(lane, 0) + 1
                if lane not in live:
                    live.add(lane)
                    work.append(lane)
        return live, uses

    def _scalars(self) -> set:
        """The lanes whose value is one hoisted scalar: constants,
        arithmetic over scalars and view carries of a scalar."""
        scalar: set = set()
        for vid in self._order:
            node = self.nodes[vid]
            for j in range(self.width):
                if node.kind == "arith":
                    ok = all(op in scalar for op in node.lanes[j])
                elif node.kind == "carry":
                    name = self.carried[node.data]
                    ok = name in self.views and self._finals[name][j] in scalar
                else:
                    ok = node.kind == "const"
                if ok:
                    scalar.add((vid, j))
        return scalar

    def _refuse_off_shape(self) -> None:
        """Raise ``compile`` unless every carry is a view and every live
        prologue lane a scalar, so no prologue plane is ever built."""
        copied = [n for n in self.carried if n not in self.views]
        if copied:
            raise CodegenFallback(
                "compile",
                f"{self.program.name}: carried registers {copied} are not "
                f"views of their end-of-body planes")
        pro = sorted({vid for vid, _ in self._live - self._scalar
                      if self.nodes[vid].section == "pro"})
        if pro:
            raise CodegenFallback(
                "compile",
                f"{self.program.name}: the body reads prologue values "
                f"(nodes {pro}) that are not scalars")

    def _extents(self) -> Dict[Lane, int]:
        """Per live body lane, how many positions before each row's first
        trip its plane starts: a carry needs its end-of-body value one
        position earlier than itself, an operand as early as its
        reader.  Walks the emission order backwards, so every reader is
        done before what it reads."""
        ext: Dict[Lane, int] = {}
        for vid in reversed(self._order):
            node = self.nodes[vid]
            if node.section != "body" or node.kind in ("load", "const"):
                continue
            for j in range(self.width):
                if (vid, j) not in self._live:
                    continue
                e = ext.setdefault((vid, j), 0)
                if node.kind == "arith":
                    reads = node.lanes[j]
                else:
                    reads = (self._finals[self.carried[node.data]][j],)
                    e += 1
                for lane in reads:
                    if self.nodes[lane[0]].section == "body":
                        ext[lane] = max(ext.get(lane, 0), e)
        return ext

    # -- specialization ----------------------------------------------------

    def _grid(self, const: int, terms) -> np.ndarray:
        """Evaluate ``const + sum(coeff*var)`` over the whole outer
        iteration lattice; shape ``outer_dims`` (0-d when no outer loops)."""
        n = len(self.outer_dims)
        g = np.full((1,) * n, const, dtype=np.int64) if n else \
            np.int64(const)
        for var, c in terms:
            if var not in self._loop_pos:
                raise IsaError(
                    f"unbound loop variable {var!r} in address")
            j = self._loop_pos[var]
            loop = self.outer_loops[j]
            vals = np.arange(loop.start, loop.stop, loop.step,
                             dtype=np.int64)
            shape = [1] * n
            shape[j] = len(vals)
            g = g + c * vals.reshape(shape)
        return np.broadcast_to(g, self.outer_dims)

    def _env_at(self, flat_index: int) -> dict:
        """Reconstruct the loop environment of one flattened outer index
        (for error messages that mirror the interpreter's)."""
        if not self.outer_dims:
            return {}
        multi = np.unravel_index(flat_index, self.outer_dims)
        return {l.var: l.start + int(i) * l.step
                for l, i in zip(self.outer_loops, multi)}

    def _resolve_ref(self, ref: _MemRef, arrays) -> dict:
        """Bounds-check one memory site against concrete arrays.  Returns
        a dict with the array and the lane-0 view description ``(offset,
        shape, strides)`` in elements (or None); a store's also holds its
        row starts (lane 0's flat index per (env, x) row), which only
        :meth:`_check_stores` reads.  A load takes its bounds and view
        from its affine form at the loop corners; a store, or a load the
        corners cannot clear, builds the index lattice (:meth:`_lattice`),
        which also names the env of an out-of-bounds access."""
        arr = arrays[ref.array]
        if len(ref.outer) + 1 != arr.ndim:
            raise MachineError(
                f"{ref.instr}: address has {len(ref.outer) + 1} axes, "
                f"array has {arr.ndim}")
        if ref.is_store:
            return self._lattice(ref, arr)
        strides = tuple(s // arr.itemsize for s in arr.strides)
        envs = math.prod(self.outer_dims)
        n_x = len(self._xs) if ref.rows != 1 else 1
        off = 0
        for (const, terms), n, stride in zip(ref.outer, arr.shape[:-1],
                                             strides):
            span = self._span(const, terms)
            if span is None or (envs and (span[1] < 0 or span[2] >= n)):
                return self._lattice(ref, arr)
            off += span[0] * stride
        const, coeff_x, terms = ref.last
        span = self._span(const, terms)
        if span is None:
            return self._lattice(ref, arr)
        x0 = coeff_x * self.x_start
        x1 = coeff_x * (self.x_start + (n_x - 1) * self.x_step)
        lo, hi = span[1] + min(x0, x1), span[2] + max(x0, x1)
        if envs * n_x and (lo < 0 or hi + self.width > arr.shape[-1]):
            return self._lattice(ref, arr)
        dim_strides = self._dim_strides(ref, strides)
        view = None
        if envs * n_x and all(s >= 0 for s in dim_strides):
            view = (off + span[0] + x0, self.outer_dims + (n_x,),
                    dim_strides)
        return {"ref": ref, "arr": arr, "view": view}

    def _span(self, const: int, terms):
        """``(first, low, high)`` of ``const + sum(coeff*var)`` over the
        outer iteration lattice: its value at every loop's start and
        bounds no tighter than its extremes, or None when a variable is
        no outer loop's."""
        first = low = high = const
        for var, c in terms:
            j = self._loop_pos.get(var)
            if j is None:
                return None
            loop = self.outer_loops[j]
            a = c * loop.start
            b = c * (loop.start + (self.outer_dims[j] - 1) * loop.step)
            first += a
            low += min(a, b)
            high += max(a, b)
        return first, low, high

    def _dim_strides(self, ref: _MemRef, strides) -> Tuple[int, ...]:
        """Per lattice dimension (outer loops, then x), the flat-index
        step of the site's lane 0."""
        dim_strides = []
        for loop in self.outer_loops:
            per = sum(c * strides[a]
                      for a, (_, ts) in enumerate(ref.outer)
                      for v, c in ts if v == loop.var)
            per += sum(c for v, c in ref.last[2] if v == loop.var)
            dim_strides.append(int(per * loop.step))
        dim_strides.append(int(ref.last[1] * self.x_step))
        return tuple(dim_strides)

    def _lattice(self, ref: _MemRef, arr: np.ndarray) -> dict:
        """:meth:`_resolve_ref` over the full flat-index lattice: the
        bounds check names the first out-of-bounds env, and the result
        holds the row starts."""
        strides = tuple(s // arr.itemsize for s in arr.strides)
        flat_base = np.zeros(self.outer_dims, dtype=np.int64)
        for axis, ((const, terms), n) in enumerate(
                zip(ref.outer, arr.shape[:-1])):
            idx = self._grid(const, terms)
            if idx.size:
                bad = (idx < 0) | (idx >= n)
                if bad.any():
                    e = int(np.argmax(bad.reshape(-1)))
                    raise MachineError(
                        f"{ref.instr}: axis {axis} index "
                        f"{int(idx.reshape(-1)[e])} out of bounds [0, {n}) "
                        f"with env {self._env_at(e)}")
            flat_base = flat_base + idx * strides[axis]
        const, coeff_x, terms = ref.last
        last = self._grid(const, terms)
        xs = self._xs if ref.rows != 1 else \
            np.array([self.x_start], dtype=np.int64)
        last_rows = last[..., None] + coeff_x * xs
        n_last = arr.shape[-1]
        if last_rows.size:
            lo = int(last_rows.min())
            hi = int(last_rows.max())
            if lo < 0 or hi + self.width > n_last:
                bad = (last_rows < 0) | (last_rows + self.width > n_last)
                e = int(np.argmax(bad.any(axis=-1).reshape(-1)))
                raise MachineError(
                    f"{ref.instr}: x range [{lo}, {hi + self.width}) out "
                    f"of bounds [0, {n_last}) with env {self._env_at(e)}")
        starts = flat_base[..., None] + last_rows
        # view eligibility: one uniform non-negative stride per lattice
        # dimension (true by affine construction; the sign check keeps
        # the view's offset at its smallest element)
        dim_strides = self._dim_strides(ref, strides)
        view = None
        if all(s >= 0 for s in dim_strides) and starts.size > 0:
            view = (int(starts.reshape(-1)[0]),
                    self.outer_dims + (len(xs),), dim_strides)
        return {"ref": ref, "arr": arr, "starts": starts, "view": view}

    def _flat_rows(self, site: dict):
        """``(row, column, lead row strides)`` placing a body load in the
        de-interleaved planes of its array, or None when no plane holds
        it: the x walk must advance one block per trip, the innermost
        outer loop one array row per trip, and every other outer loop a
        non-negative whole number of rows."""
        ref, view = site["ref"], site["view"]
        if view is None or ref.last[1] != 1 or ref.last[2]:
            return None
        off, _, strides = view
        n = site["arr"].shape[-1]
        outer = strides[:-1]
        if any(s % n for s in outer) or (outer and outer[-1] != n):
            return None
        return off // n, off % n, tuple(s // n for s in outer[:-1])

    def specialize(self, arrays: Mapping[str, np.ndarray]) -> _Specialized:
        """Emit + compile the specialized sweep function for these
        arrays' shapes (LRU-cached, :data:`SPEC_ENTRIES` shapes)."""
        for name in self.array_names:
            if name not in arrays:
                raise MachineError(f"unknown array {name!r} in program "
                                   f"{self.program.name!r}")
        self._validate_layout(arrays)
        if self.recurrence is not None:
            raise CodegenFallback("recurrence", self.recurrence)
        key = tuple((name, arrays[name].shape) for name in self.array_names)
        spec = _lru_get(self._specs, key)
        if spec is None:
            spec = self._emit(arrays, key)
            _lru_put(self._specs, key, spec)
        return spec

    def _validate_layout(self, arrays) -> None:
        for name in self.array_names:
            arr = arrays[name]
            if arr.dtype != self.dtype:
                raise CodegenFallback(
                    "layout",
                    f"array {name!r} has dtype {arr.dtype}, program "
                    f"expects {np.dtype(self.dtype)}")
            if not arr.flags.c_contiguous:
                raise CodegenFallback(
                    "layout",
                    f"array {name!r} is not C-contiguous; flat-index "
                    f"addressing needs a contiguous buffer")

    def run(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Execute one full sweep, slab by slab above :data:`SLAB_POINTS`.
        Raises :class:`CodegenFallback` when the layout defeats flattening
        or the carried registers form a recurrence; every slab is
        specialized first, so a refusal leaves the arrays untouched."""
        for spec, views in self.slabs(arrays):
            spec.fn(views)

    def slabs(self, arrays: Mapping[str, np.ndarray]
              ) -> List[Tuple[_Specialized, Mapping[str, np.ndarray]]]:
        """The ``(specialization, arrays)`` calls one sweep over
        ``arrays`` makes: the whole arrays, or one row-slab view of them
        per slab (see :meth:`run`), each already specialized."""
        rows = self._slab_rows()
        if rows is None:
            return [(self.specialize(arrays), arrays)]
        trips, step = self.outer_dims[0], self.outer_loops[0].step
        slabs = []
        for k0 in range(0, trips, rows):
            b = min(rows, trips - k0)
            cut = (trips - k0 - b) * step  # array rows after this window
            views = {name: arrays[name][k0 * step:len(arrays[name]) - cut]
                     for name in self.array_names}
            slabs.append((self._slab_program(b).specialize(views), views))
        return slabs

    def _slab_rows(self) -> Optional[int]:
        """Outer-loop trips per slab; ``None`` runs unsliced (the sweep
        fits one slab, or an address is not ``var + const`` on axis 0
        with ``var`` the outermost loop, absent from every other axis).
        At most ``rows = SLAB_POINTS // points per trip``; the largest
        divisor of the outer trip count in ``[rows/2, rows]`` when there
        is one, so every slab has one height and one specialization."""
        if not self.outer_dims:
            return None
        per_row = max(1, math.prod(self.outer_dims[1:]) * self.trips
                      * self.program.block)
        rows = max(1, SLAB_POINTS // per_row)
        n = self.outer_dims[0]
        if rows >= n:
            return None
        var = self.outer_loops[0].var
        for ref in self.refs:
            others = [terms for _, terms in ref.outer[1:]] + [ref.last[2]]
            if (not ref.outer or ref.outer[0][1] != ((var, 1),)
                    or any(v == var for terms in others for v, _ in terms)):
                return None
        # k slabs of n // k rows: n/k <= rows needs k >= ceil(n/rows),
        # n/k >= rows/2 needs k <= 2n/rows
        for k in range(-(-n // rows), 2 * n // rows + 1):
            if n % k == 0:
                return n // k
        return rows

    def _slab_program(self, rows: int) -> "CodegenProgram":
        """This program with its outermost loop narrowed to ``rows``
        trips (LRU-memoized: a grid needs one slab height, or a full
        slab and a remainder).
        Only the loop bound differs, so the slab program shares this
        one's value graph, schedule, liveness and extents."""
        prog = _lru_get(self._slab_progs, rows)
        if prog is None:
            head, *rest = self.program.loops
            head = dataclasses.replace(head,
                                       stop=head.start + rows * head.step)
            prog = copy.copy(self)
            prog.program = dataclasses.replace(self.program,
                                               loops=(head, *rest))
            prog.outer_loops = prog.program.loops[:-1]
            prog.outer_dims = (rows,) + self.outer_dims[1:]
            prog._specs = OrderedDict()
            prog._slab_progs = OrderedDict()
            _lru_put(self._slab_progs, rows, prog)
        return prog

    # -- emission ----------------------------------------------------------

    def _emit(self, arrays, key) -> _Specialized:
        width, block, trips = self.width, self.program.block, self.trips
        sites = [self._resolve_ref(ref, arrays) for ref in self.refs]
        self._check_stores(sites)
        flat = {}
        for s in sites:
            ref = s["ref"]
            if not ref.is_store and self.nodes[ref.vid].section == "body":
                placed = self._flat_rows(s)
                if placed is not None:
                    flat[id(ref)] = placed
        dealt = sorted({s["ref"].array for s in sites if id(s["ref"]) in flat})
        # plane geometry: lead dims, rows per run, positions per row
        lead = self.outer_dims[:-1]
        rows = self.outer_dims[-1] if self.outer_dims else 1
        ext = self._ext
        pitch = max([1, trips + max(ext.values(), default=0)]
                    + [-(-arrays[n].shape[-1] // block) for n in dealt])
        span = rows * pitch
        # every dealt load steps the lead dims by the same whole rows: one
        # flat run then spans them all, the rows between lead planes
        # computed too (never stored), so no op loops over the lead dims
        steps = {placed[2] for placed in flat.values()}
        fold = steps.pop() if lead and len(steps) == 1 else None
        if fold is not None:
            span = (rows + sum((n - 1) * k
                               for n, k in zip(lead, fold))) * pitch
            lead = ()
        ns = {"np": np, "_DT": self.dtype, "_deal": _deal,
              "_register_file": _register_file}
        vars_ = itertools.count()
        scalars: Dict[bytes, str] = {}
        itemsize = np.dtype(self.dtype).itemsize

        def view(buf: str, off: int, shape, strides) -> str:
            return (f"np.ndarray({shape}, _DT, {buf}, {off * itemsize}, "
                    f"{tuple(s * itemsize for s in strides)})")

        arr_var = {name: f"_a{i}" for i, name in enumerate(self.array_names)}
        deal_var = {name: f"_d{i}" for i, name in enumerate(dealt)}
        plane_size = {name: (arrays[name].size // arrays[name].shape[-1]
                             + 2) * pitch for name in dealt}
        live, scalar = self._live, self._scalar
        # per-lane expression text of every emitted lane; a body lane's
        # text covers ext[lane] positions before each row's first trip
        text: Dict[Lane, str] = {}

        for node in self.nodes:
            if node.kind == "const":
                bits = node.data.tobytes()
                if bits not in scalars:
                    scalars[bits] = f"_K{len(scalars)}"
                    ns[scalars[bits]] = node.data
                for j in range(width):
                    text[(node.vid, j)] = scalars[bits]

        lines: List[str] = []
        bound: Dict[str, str] = {}      # view expression -> var
        # the register file: equal slots of the widest plane, each on an
        # ALIGN boundary; a single-use lane's slot is free once read
        widest = math.prod(lead) * (span + max(ext.values(), default=0))
        slot_bytes = -(-widest * itemsize // ALIGN) * ALIGN
        slots = itertools.count()
        free: List[int] = []                # freed slots, reused LIFO
        scratch: Dict[Lane, int] = {}       # single-use lane -> its slot

        def once(expr, prefix="_v") -> str:
            """The variable bound to ``expr``, bound at its first use."""
            if expr not in bound:
                bound[expr] = f"{prefix}{next(vars_)}"
                lines.append(f"{bound[expr]} = {expr}")
            return bound[expr]

        def at(lane: Lane, e: int) -> str:
            """A reader's text of ``lane`` at extent ``e``."""
            if lane in scalar:
                return text[lane]
            d = ext.get(lane, 0) - e
            return text[lane] if d == 0 else f"{text[lane]}[..., {d}:]"

        for vid in self._order:
            node = self.nodes[vid]
            lanes = [(vid, j) for j in range(width)]
            if not any(lane in live for lane in lanes):
                continue
            if node.kind == "load":
                ref = self._load_ref[vid]
                if id(ref) not in flat:
                    raise CodegenFallback(
                        "layout",
                        f"{ref.instr}: the load's walk is not one block per "
                        f"trip over whole array rows, so no de-interleaved "
                        f"plane holds it")
                row0, col0, lead_rows = flat[id(ref)]
                for j, lane in enumerate(lanes):
                    if lane not in live:
                        continue
                    e = ext.get(lane, 0)
                    q, r = divmod(col0 + j, block)
                    text[lane] = once(view(
                        deal_var[ref.array],
                        r * plane_size[ref.array] + (1 + row0) * pitch
                        + q - e, lead + (span + e,),
                        tuple(k * pitch for k in lead_rows[:len(lead)])
                        + (1,)))
            elif node.kind == "carry":
                name = self.carried[node.data]
                for j, lane in enumerate(lanes):
                    if lane in live:
                        final = self._finals[name][j]
                        text[lane] = (text[final] if lane in scalar else once(
                            f"{at(final, ext[lane] + 1)}[..., :-1]", "_c"))
            elif node.kind == "arith":
                for ops, lane in zip(node.lanes, lanes):
                    if lane not in live:
                        continue
                    e = ext.get(lane, 0)
                    a = [at(op, e) for op in ops]
                    if lane in scalar:  # an expression over hoisted scalars
                        text[lane] = (
                            f"({a[0]} * {a[1]} + {a[2]})" if node.op is Op.FMA
                            else f"({a[0]} {_BINARY[node.op][1]} {a[1]})")
                        continue
                    slot = free.pop() if free else next(slots)
                    if (self._uses.get(lane) == 1
                            and lane not in self._pinned):
                        scratch[lane] = slot
                    r = text[lane] = once(
                        f"np.ndarray({lead + (span + e,)}, _DT, _R, "
                        f"{slot * slot_bytes})", "_r")
                    if node.op is Op.FMA:  # the interpreter's a*b + c
                        lines.append(f"np.multiply({a[0]}, {a[1]}, out={r})")
                        lines.append(f"np.add({r}, {a[2]}, out={r})")
                    else:
                        lines.append(f"np.{_BINARY[node.op][0]}({a[0]}, "
                                     f"{a[1]}, out={r})")
                    for op in ops:  # a single-use operand's slot is free
                        if op in scratch:
                            free.append(scratch.pop(op))

        def stored(lane: Lane) -> str:
            """The stored positions of a lane: each row's first trips."""
            if lane in scalar:
                return text[lane]
            if not self.outer_dims:
                return at(lane, 0) + (f"[:{trips}]" if pitch > trips else "")
            if fold is not None:
                return view(at(lane, 0), 0, self.outer_dims[:-1]
                            + (rows, trips), tuple(k * pitch for k in fold)
                            + (pitch, 1))
            return (f"{at(lane, 0)}.reshape({lead + (rows, pitch)})"
                    f"[..., :{trips}]")

        commits = []
        stored_to = set()   # arrays the commits write through a flat view
        for s in sites:
            ref = s["ref"]
            if ref.is_store:
                off, shape, strides = s["view"]
                a = arr_var[ref.array]
                stored_to.add(ref.array)
                commits += [f"{view(a, off + j, shape, strides)}[...] = "
                            f"{stored(lane)}"
                            for j, lane in enumerate(ref.lanes)]
        entry = [f"{var} = arrays[{name!r}].reshape(-1)"
                 for name, var in sorted(arr_var.items())
                 if name in stored_to]
        entry += [f"{deal_var[name]} = _deal(arrays[{name!r}], {block}, "
                  f"{pitch}, {k})" for k, name in enumerate(dealt)]
        nslots = next(slots)
        if nslots:
            entry.append(f"_R = _register_file({nslots * slot_bytes})")
        return self._compile(key, self._assemble(entry, lines, commits, key,
                                                 pitch), ns)

    def _compile(self, key, src: str, ns: dict) -> _Specialized:
        code = compile(src, f"<codegen:{self.program.name}>", "exec")
        exec(code, ns)
        # popped, so its globals do not hold the function in a cycle
        return _Specialized(key=key, fn=ns.pop("_sweep"), source=src)

    def _check_stores(self, sites) -> None:
        """Raise ``layout`` unless every store site is a forward view and
        no element is stored twice: the commits are then order-free."""
        starts: Dict[str, list] = {}
        for s in sites:
            if not s["ref"].is_store:
                continue
            if s["view"] is None:
                raise CodegenFallback(
                    "layout",
                    f"{s['ref'].instr}: the store walk is no forward view")
            starts.setdefault(s["ref"].array, []).append(
                s["starts"].reshape(-1))
        for name, group in starts.items():
            order = np.sort(np.concatenate(group))
            if not (np.diff(order) >= self.width).all():
                raise CodegenFallback(
                    "layout",
                    f"stores to {name!r} overlap; codegen commits only "
                    f"disjoint rows")

    def _assemble(self, entry, body_lines, commit_lines, key, pitch) -> str:
        p = self.program
        lines = [
            f"# codegen: {p.name} [{p.scheme}] width={p.width} "
            f"elem_bytes={p.elem_bytes}",
            f"# outer={self.outer_dims} trips={self.trips} "
            f"carried={self.carried}",
            f"# block={p.block} pitch={pitch} "
            f"views={tuple(n for n in self.carried if n in self.views)}",
        ]
        for name, shape in key:
            lines.append(f"# array {name}: shape={shape}")
        lines.append("def _sweep(arrays):")

        def block(text_lines, indent):
            pad = " " * indent
            for ln in text_lines:
                lines.append(pad + ln if ln else "")

        block(entry, 4)
        if body_lines:
            block(["# body (one flat run per lane over rows x pitch)"], 4)
            block(body_lines, 4)
        if commit_lines:
            block(["# deferred stores (committed in interpreter order)"], 4)
            block(commit_lines, 4)
        if not (entry or body_lines or commit_lines):
            block(["pass"], 4)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# compile cache
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def get_codegen(program) -> CodegenProgram:
    """Lower (memoized) — raises :class:`CodegenFallback` for programs
    the codegen backend cannot flatten."""
    return CodegenProgram(program)


def emitted_source(program, arrays: Mapping[str, np.ndarray]) -> str:
    """The specialized source text for ``program`` on these arrays —
    the artifact the golden-source conformance tests snapshot."""
    return get_codegen(program).specialize(arrays).source


__all__ = ["CodegenFallback", "CodegenProgram", "SLAB_POINTS",
           "SPEC_ENTRIES", "emitted_source", "get_codegen"]
