"""The ``sweep-large`` workload: engine sweeps on large grids, no server.

Four engines per kernel, each a ``repro run``-style call:

* ``codegen`` — ``CompiledKernel.run(backend="codegen")`` (the SIMD
  machine's emitted-source engine);
* ``numpy`` — ``CompiledKernel.run_numpy`` (the plain single-threaded
  baseline);
* ``tiled`` — ``repro.parallel.run_parallel`` on the thread executor
  with ``nproc`` workers;
* ``shard`` — ``repro.shard.run_sharded`` on the thread executor with 2
  shards.

Each engine's time per kernel is the median over its calls; calls are
interleaved round by round.  The single-threaded engines are timed by
the process CPU clock (all threads), the threaded ones by the wall
clock.

Kernels: heat-2d, box-2d9p, star-2d13p and varcoef-2d5p at 1024^2, and
heat-3d at 96^3 (8 MB and 7 MB of float64, under the last-level cache of
the host the benchmark was sized on, so no bandwidth claim is made;
bytes exchanged between shards are computed, not measured).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.config import PAPER_MACHINES
from repro.core import compile_kernel
from repro.core.cache import KernelCache
from repro.machine.isa import Op
from repro.parallel import executor
from repro.shard import runner
from repro.stencils import library
from repro.stencils.grid import Grid

from . import oracle
from .common import Result, geomean, log, median, nproc, peak_rss_mb
from .tracing import Tracer, cache_metrics, fallback_metrics, \
    metric_names, parallel_metrics, self_time_metrics

KERNELS: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("heat-2d", (1024, 1024)),
    ("box-2d9p", (1024, 1024)),
    ("star-2d13p", (1024, 1024)),
    ("varcoef-2d5p", (1024, 1024)),
    ("heat-3d", (96, 96, 96)),
)
SHARDS = 2
ENGINES = ("codegen", "numpy", "tiled", "shard")
#: single-threaded engines, whose per-call cost (``cpu_ms_per_op``) and
#: throughput are timed by the process CPU clock: on a shared VM the
#: hypervisor steals a changing share of wall time, which CPU time
#: excludes.  The process clock counts every thread, so work a change
#: moves onto a pool thread still counts; no other thread of the
#: benchmark runs during these calls.  The threaded engines' wall-clock
#: throughput swings too far with host load to bound, so the traced run
#: reports them from its untraced half.
CPU_TIMED_ENGINES = ("codegen", "numpy")
#: steps per call, a multiple of every kernel's planned fusion depth;
#: the faster engines take more steps per call so that each call is long
#: enough to average out short scheduling stalls
STEPS = {"codegen": 2, "numpy": 8, "tiled": 8, "shard": 8}
#: calls per engine per kernel per round (the threaded engines spread
#: most from call to call, so they get the most repeats)
REPEATS = {"codegen": 1, "numpy": 1, "tiled": 2, "shard": 2}
#: compile + first codegen run passes timed per run (median reported)
SETUP_REPEATS = 3
#: grids on which codegen must equal the interpreter bitwise
SMALL = {"heat-3d": (16, 16, 16)}
SMALL_2D = (32, 32)
#: the base grid for the batch and interpreter engines
BASE = ("heat-2d", (256, 256))


def _cold_codegen() -> None:
    """Drop emitted specializations so a set-up pass emits afresh."""
    from repro.machine import codegen
    clear = getattr(codegen.get_codegen, "cache_clear", None)
    if clear is not None:
        clear()


def _caller(tracer: Optional[Tracer]):
    """``call(span_name, fn, *args)``: traced when a tracer is given."""
    if tracer is not None:
        return tracer.call
    return lambda _name, fn, *args: fn(*args)


#: per (kernel, engine): one duration per call, in seconds
Timings = Dict[Tuple[str, str], List[float]]


class Case:
    """One kernel: its compiled kernel, inputs and output checks.

    An engine's first output is checked against the reference; later
    outputs must equal that checked output bitwise (every engine is
    deterministic), so only its sha256 is kept.  Reference interiors
    are built when first needed and dropped by :meth:`release`, so the
    benchmark holds them for one kernel at a time."""

    def __init__(self, name: str, shape: Tuple[int, ...], seed: int) -> None:
        self.name = name
        self.shape = shape
        self.spec = library.get(name)
        self.seed = seed
        self.points = int(np.prod(shape))
        self.plain = oracle.input_grid(name, shape, seed)
        self._reference: Dict[int, np.ndarray] = {}
        self._checked: Dict[str, str] = {}
        self.kernel = None
        self.grid = None
        self.first_s = 0.0

    def compile(self, machine, cache: KernelCache) -> None:
        template = compile_kernel(self.spec, machine, Grid(self.shape, 16),
                                  cache=cache)
        self.grid = Grid.random(self.shape, template.halo(), seed=self.seed)
        self.kernel = compile_kernel(self.spec, machine, self.grid,
                                     cache=cache)
        self.kernel.program
        for steps in STEPS.values():
            if steps % self.kernel.plan.time_fusion:
                raise RuntimeError(
                    f"{self.name}: steps {steps} not a multiple of the "
                    f"fusion depth {self.kernel.plan.time_fusion}")

    def call(self, engine: str, backend: str = "codegen"):
        steps = STEPS[engine]
        if engine == "codegen":
            return self.kernel.run(self.grid, steps, backend=backend)
        if engine == "numpy":
            return self.kernel.run_numpy(self.grid, steps)
        if engine == "tiled":
            return executor.run_parallel(self.spec, self.plain, steps,
                                         workers=nproc(), backend="thread")
        return runner.run_sharded(self.spec, self.plain, steps,
                                  shards=SHARDS, executor="thread")

    def correct(self, engine: str, out: Grid) -> bool:
        digest = oracle.checksum(out.interior)
        if engine in self._checked:
            return digest == self._checked[engine]
        steps = STEPS[engine]
        if steps not in self._reference:
            self._reference[steps] = oracle.reference_interior(
                self.name, self.plain, steps)
        ref = self._reference[steps]
        ok = (oracle.bitwise_equal(out.interior, ref)
              if engine in ("tiled", "shard")
              else oracle.close(out.interior, ref))
        if ok:
            self._checked[engine] = digest
        return ok

    def release(self) -> None:
        self._reference.clear()


class SweepRun:
    """One run of ``sweep-large`` (see :func:`run`)."""

    def __init__(self, seed: int, seconds: float, trace: bool, res: Result,
                 out_dir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.res = res
        self.out_dir = out_dir
        self.machine = PAPER_MACHINES[0]
        rng = random.Random(seed)
        self.cases = [Case(name, shape, rng.randrange(2 ** 31))
                      for name, shape in KERNELS]
        #: the kernel cache of the latest set-up pass
        self.cache: Optional[KernelCache] = None

    def check(self, what: str, ok: bool) -> None:
        self.res.attempted += 1
        if not ok:
            self.res.fail(what)

    # -- phases --------------------------------------------------------------
    def setup_once(self, tracer: Optional[Tracer] = None
                   ) -> Tuple[float, float]:
        """Compile every kernel and run it once on codegen (emission
        included) from a cold kernel cache and codegen memo; returns the
        process CPU seconds and wall seconds it took.  The first outputs
        are checked after the clocks stop."""
        _cold_codegen()
        cache = self.cache = KernelCache()
        firsts = []
        call = _caller(tracer)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for case in self.cases:
            case.compile(self.machine, cache)
            t1 = time.perf_counter()
            out = call("engine.codegen", case.call, "codegen")
            case.first_s = time.perf_counter() - t1
            firsts.append((case, out))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        for case, out in firsts:
            self.check(f"first codegen {case.name}",
                       case.correct("codegen", out))
            case.release()
        return cpu, wall

    def rounds(self, budget_s: float, tracer: Optional[Tracer] = None
               ) -> Tuple[Timings, Timings]:
        """Interleaved rounds over kernels and engines until the budget
        is spent, each round starting one kernel later.  Returns each
        call's wall seconds and process CPU seconds; every output is
        checked outside the timed call."""
        call = _caller(tracer)
        times: Timings = {}
        cpu_times: Timings = {}
        deadline = time.monotonic() + budget_s
        k = 0
        while time.monotonic() < deadline or k == 0:
            first = k % len(self.cases)
            for case in self.cases[first:] + self.cases[:first]:
                for engine in ENGINES:
                    for _ in range(REPEATS[engine]):
                        c0 = time.process_time()
                        t0 = time.perf_counter()
                        out = call(f"engine.{engine}", case.call, engine)
                        dt = time.perf_counter() - t0
                        key = (case.name, engine)
                        times.setdefault(key, []).append(dt)
                        cpu_times.setdefault(key, []).append(
                            time.process_time() - c0)
                        self.check(f"{engine} {case.name}",
                                   case.correct(engine, out))
                        del out
                case.release()
            k += 1
        log(f"sweep-large: {k} round(s) in {budget_s:.0f} s budget")
        return times, cpu_times

    def mstencil(self, times: Timings, engine: str) -> float:
        return geomean(case.points * STEPS[engine]
                       / median(times[(case.name, engine)]) / 1e6
                       for case in self.cases)

    # -- the run ---------------------------------------------------------------
    def main(self) -> None:
        if self.trace:
            self.traced()
        else:
            self.untraced()
        self.small_checks()
        if not self.trace:
            self.res.put("peak_rss_mb", peak_rss_mb(), "MB")

    def untraced(self) -> None:
        setups = [self.setup_once() for _ in range(SETUP_REPEATS)]
        log("sweep-large: set-up cpu/wall s "
            + ", ".join(f"{c:.3f}/{w:.3f}" for c, w in setups))
        times, cpu_times = self.rounds(self.seconds)
        for engine in ENGINES:
            log(f"sweep-large: {engine} "
                f"{self.mstencil(times, engine):.2f} Mstencil/s wall")
        for engine in CPU_TIMED_ENGINES:
            log(f"sweep-large: {engine} "
                f"{self.mstencil(cpu_times, engine):.2f} Mstencil/s "
                f"process CPU")
        self.res.put("cpu_ms_per_op",
                     geomean(median(cpu_times[(case.name, engine)]) * 1e3
                             for case in self.cases
                             for engine in CPU_TIMED_ENGINES), "ms")
        self.res.put("setup_s", median(c for c, _ in setups), "s")

    def small_checks(self) -> None:
        """Codegen must equal the interpreter bitwise on a small grid of
        every kernel (and both must stay within rtol of the reference)."""
        for case in self.cases:
            shape = SMALL.get(case.name, SMALL_2D)
            template = compile_kernel(case.spec, self.machine,
                                      Grid(shape, 16))
            grid = Grid.random(shape, template.halo(), seed=case.seed)
            kernel = compile_kernel(case.spec, self.machine, grid)
            steps = STEPS["codegen"]
            fast = kernel.run(grid, steps, backend="codegen")
            slow = kernel.run(grid, steps, backend="interp")
            ref = oracle.reference_interior(
                case.name, oracle.input_grid(case.name, shape, case.seed),
                steps)
            self.check(f"codegen == interp {case.name} {shape}",
                       oracle.bitwise_equal(fast.interior, slow.interior)
                       and oracle.close(fast.interior, ref))

    # -- traced mode -----------------------------------------------------------
    def traced(self) -> None:
        """Untraced rounds, then a traced set-up pass and traced rounds of
        the same length; per-layer numbers come from the traced part."""
        _cpu, wall = self.setup_once()
        self.res.put("setup_wall_s", wall, "s")
        half = self.seconds / 2
        plain, plain_cpu = self.rounds(half)
        for engine in ENGINES:
            timed = plain_cpu if engine in CPU_TIMED_ENGINES else plain
            self.res.put(f"{engine}_mstencil_s",
                         self.mstencil(timed, engine), "Mstencil/s")
        self.res.put("model_gstencil_s", geomean(
            case.kernel.estimate(points=case.points,
                                 steps=STEPS["codegen"]).gstencil_s
            for case in self.cases), "Gstencil/s")
        tracer = Tracer()
        obs.enable(reset=True)
        tracer.install()
        try:
            since = time.perf_counter()
            self.setup_once(tracer)
            steady = time.perf_counter()
            times, _cpu_times = self.rounds(half, tracer)
        finally:
            tracer.restore()
            snap = obs.snapshot()["metrics"]
            obs.disable()
        # the traced set-up pass filled a fresh cache: its counts start at 0
        cache_metrics(self.res, dict.fromkeys(
            ("hits", "misses", "evictions"), 0), self.cache.stats_dict())
        self.layer_metrics(tracer, since, steady, plain, times, snap)
        tracer.dump(f"{self.out_dir}/trace-sweep-large-{self.seed}.json",
                    {"obs": snap})

    def layer_metrics(self, tracer: Tracer, since: float, steady: float,
                      plain: Timings, times: Timings, snap: Dict) -> None:
        put = self.res.put
        counters = snap.get("counters", {})
        emit = 0.0
        for case in self.cases:
            for engine in ("codegen", "numpy"):
                put(f"engine.{engine}.sweep_ms.{case.name}",
                    median(times[(case.name, engine)]) * 1e3
                    / STEPS[engine], "ms")
            emit += case.first_s - median(times[(case.name, "codegen")])
            counts = case.kernel.trace(case.grid)
            denom = max(1, counts.vectors) * max(1, counts.steps)
            fma = counts.by_op.get(Op.FMA, 0)
            put(f"trace.loads_per_vec.{case.name}", counts.loads / denom,
                "count")
            put(f"trace.shuffles_per_vec.{case.name}",
                counts.shuffles / denom, "count")
            put(f"trace.fma_per_vec.{case.name}", fma / denom, "count")
        put("engine.codegen.emit_ms", emit * 1e3, "ms")

        name, shape = BASE
        base = Case(name, shape, self.seed)
        base.compile(self.machine, KernelCache())
        base_ms = {}
        for backend in ("codegen", "codegen", "batch", "interp"):
            t0 = time.perf_counter()
            out = base.call("codegen", backend)
            base_ms[backend] = (time.perf_counter() - t0) * 1e3
            self.check(f"{backend} {name} {shape}",
                       base.correct("codegen", out))
        per_step = STEPS["codegen"]
        put("engine.batch.sweep_ms", base_ms["batch"] / per_step, "ms")
        put("engine.interp.sweep_ms", base_ms["interp"] / per_step, "ms")
        put("engine.codegen_over_batch", base_ms["batch"] / base_ms["codegen"],
            "ratio")

        fallback_metrics(self.res, counters)

        put("shard.run_ms",
            median(s.ms for s in tracer.named("shard.run_sharded", steady)),
            "ms")
        put("shard.exchange_ms.sum",
            sum(s.ms for s in tracer.named("shard.gather_window", steady))
            + sum(s.ms for s in tracer.named("shard.scatter_slab", steady)),
            "ms")
        put("shard.exchange_bytes", counters.get("shard.exchange_bytes", 0),
            "B")
        parallel_metrics(self.res, tracer, steady)
        put("cache.plan_ms.sum",
            sum(s.ms for s in tracer.named("cache.plan", since)), "ms")
        put("cache.program_ms.sum",
            sum(s.ms for s in tracer.named("cache.program", since)), "ms")
        self_time_metrics(self.res, tracer, since, {})
        put("obs.metric_names", metric_names(snap), "count")
        put("obs.trace_overhead",
            geomean(median(times[key]) / median(plain[key]) for key in times),
            "ratio")


def run(seed: int, seconds: float, trace: bool, res: Result,
        out_dir: str) -> None:
    SweepRun(seed, seconds, trace, res, out_dir).main()
