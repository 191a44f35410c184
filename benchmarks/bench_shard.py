"""The sharded-execution acceptance gates.

Times ``steps`` codegen sweeps of a 2-D star kernel over a 256x512 grid
once in a single process (the unsharded codegen engine —
:meth:`repro.core.kernel.CompiledKernel.run`) and once per point of a
1/2/4/8-shard curve on both the thread and the process executor
(:meth:`repro.core.kernel.CompiledKernel.run_sharded`, pool start
included, best-of-N timing), and asserts
the subsystem's contracts:

* **bitwise equality, always**: sharded runs — reference engine, program
  engine, temporally blocked, and a chaos-killed-then-restored shard —
  must match the unsharded engines bit for bit on the interior;
* **>= 2x speedup at 4 shards** over the single-process codegen
  baseline, enforced only when the host has >= 4 CPUs
  (``gate_enforced`` records the decision; a 1-core container cannot
  speed anything up, but CI runners can and must).

Appends a timestamped entry (curve + gates) to ``BENCH_shard.json``
(override via ``BENCH_SHARD_JSON``) through
:func:`_bench_utils.append_history` — capped, consecutive-duplicate-
free.  Runs under pytest (``pytest benchmarks/bench_shard.py -s``) or
stand-alone (``python benchmarks/bench_shard.py``).
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from _bench_utils import append_history, emit  # noqa: E402

from repro import faults  # noqa: E402
from repro.config import GENERIC_AVX2  # noqa: E402
from repro.core import compile_kernel  # noqa: E402
from repro.core.jigsaw import required_halo  # noqa: E402
from repro.faults.plan import FaultPlan, FaultRule  # noqa: E402
from repro.shard import run_sharded  # noqa: E402
from repro.stencils import apply_steps, library  # noqa: E402
from repro.stencils.grid import Grid  # noqa: E402

SHAPE = (256, 512)
STEPS = 8
TEMPORAL_BLOCK = 2
SHARD_CURVE = (1, 2, 4, 8)
EXECUTORS = ("thread", "process")
REPEATS = 3

#: 4 shards must beat the single-process codegen baseline by this factor
#: (on hosts with enough cores to make that physically possible).
SPEEDUP_FLOOR = 2.0

#: the speedup gate needs real parallel hardware; below this core count
#: only the curve and the bitwise gates are enforced.
MIN_CORES_FOR_GATE = 4


def _artifact_path() -> str:
    return os.environ.get("BENCH_SHARD_JSON", "BENCH_shard.json")


def _kernel():
    spec = library.get("heat-2d")
    halo = required_halo(spec, GENERIC_AVX2, time_fusion=1)
    return compile_kernel(spec, GENERIC_AVX2, Grid(SHAPE, halo),
                          time_fusion=1)


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure() -> dict:
    kernel = _kernel()
    spec = kernel.plan.spec
    grid = kernel.grid_like(SHAPE, seed=42)
    points = 1
    for n in SHAPE:
        points *= n

    # single-process codegen baseline (one warm run off the clock)
    kernel.run(grid, STEPS, backend="codegen")
    baseline_t = _best_of(lambda: kernel.run(grid, STEPS,
                                             backend="codegen"))

    curve = []
    for executor in EXECUTORS:
        for shards in SHARD_CURVE:
            def run():
                kernel.run_sharded(grid, STEPS, shards=shards,
                                   temporal_block=TEMPORAL_BLOCK,
                                   executor=executor, backend="codegen")

            t = _best_of(run)
            curve.append({
                "executor": executor,
                "shards": shards,
                "seconds": t,
                "mstencil_s": points * STEPS / t / 1e6,
                "speedup": baseline_t / t,
            })

    at4 = [c["speedup"] for c in curve if c["shards"] == 4]
    cores = os.cpu_count() or 1
    return {
        "kernel": spec.name,
        "machine": GENERIC_AVX2.name,
        "grid": list(SHAPE),
        "steps": STEPS,
        "temporal_block": TEMPORAL_BLOCK,
        "baseline_seconds": baseline_t,
        "baseline_mstencil_s": points * STEPS / baseline_t / 1e6,
        "curve": curve,
        "speedup_at_4": max(at4),
        "speedup_floor": SPEEDUP_FLOOR,
        "cpu_count": cores,
        "gate_enforced": cores >= MIN_CORES_FOR_GATE,
    }


def _report(data: dict) -> None:
    path = _artifact_path()
    append_history(path, data)
    lines = [
        f"kernel          {data['kernel']} on "
        f"{'x'.join(map(str, data['grid']))} ({data['machine']}), "
        f"{data['steps']} steps, s={data['temporal_block']}",
        f"baseline        {data['baseline_seconds']:.3f} s "
        f"({data['baseline_mstencil_s']:.2f} MStencil/s, codegen, "
        f"1 process)",
    ]
    for c in data["curve"]:
        lines.append(
            f"{c['executor']:<7} x{c['shards']:<2}     "
            f"{c['seconds']:.3f} s ({c['mstencil_s']:.2f} MStencil/s, "
            f"{c['speedup']:.2f}x)")
    lines.append(
        f"gate            >= {data['speedup_floor']:.0f}x at 4 shards: "
        f"{data['speedup_at_4']:.2f}x "
        + ("(enforced)" if data["gate_enforced"] else
           f"(not enforced: {data['cpu_count']} CPU(s) < "
           f"{MIN_CORES_FOR_GATE})"))
    lines.append(f"artifact        {path}")
    emit("Sharded execution: halo exchange + temporal blocking", lines
         and "\n".join(lines))


_DATA = None


def _measured() -> dict:
    """Measure once per process; every gate shares one artifact entry."""
    global _DATA
    if _DATA is None:
        _DATA = measure()
        _report(_DATA)
    return _DATA


def test_sharded_reference_bitwise():
    """Reference-engine sharding (with temporal blocking and an uneven
    partition) must reproduce the serial reference bitwise."""
    spec = library.get("heat-2d")
    g = Grid.random((67, 48), spec.radius, seed=7)
    ref = apply_steps(spec, g, 5)
    got = run_sharded(spec, g, 5, shards=3, temporal_block=2)
    assert np.array_equal(ref.interior, got.interior)


def test_sharded_program_bitwise_including_temporal_blocking():
    """Program-engine sharding must match the unsharded codegen run
    bitwise, at s=1 and temporally blocked."""
    kernel = _kernel()
    g = kernel.grid_like((64, 128), seed=8)
    small = compile_kernel(kernel.plan.spec, GENERIC_AVX2,
                           Grid((64, 128), kernel.halo()), time_fusion=1)
    ref = small.run(g, 4, backend="codegen")
    for s in (1, 2, 4):
        got = small.run_sharded(g, 4, shards=4, temporal_block=s,
                                executor="thread", backend="codegen")
        assert np.array_equal(ref.interior, got.interior), f"s={s}"


def test_killed_shard_restored_bitwise():
    """A worker killed mid-superstep must be restored from the barrier
    checkpoint with zero bitwise drift."""
    spec = library.get("heat-2d")
    g = Grid.random((48, 32), spec.radius, seed=9)
    ref = apply_steps(spec, g, 4)
    plan = FaultPlan(rules=(FaultRule(site="pool.task_start",
                                      kind="kill"),), seed=0)
    with faults.inject(plan) as inj:
        got = run_sharded(spec, g, 4, shards=2, temporal_block=2,
                          executor="process")
    assert inj.injected_by_site().get("pool.task_start", 0) >= 1, (
        "the kill fault never fired")
    assert np.array_equal(ref.interior, got.interior)


def test_shard_speedup_curve():
    """The perf gate: the artifact always records the full 1/2/4/8
    curve; the >= 2x floor at 4 shards binds only on real multi-core
    hosts."""
    data = _measured()
    recorded = {(c["executor"], c["shards"]) for c in data["curve"]}
    assert recorded == {(e, s) for e in EXECUTORS for s in SHARD_CURVE}
    assert all(c["seconds"] > 0 for c in data["curve"])
    if not data["gate_enforced"]:
        import pytest
        pytest.skip(f"{data['cpu_count']} CPU(s): speedup gate needs "
                    f">= {MIN_CORES_FOR_GATE}")
    assert data["speedup_at_4"] >= data["speedup_floor"], (
        f"best 4-shard speedup {data['speedup_at_4']:.2f}x below the "
        f"{data['speedup_floor']:.0f}x floor "
        f"(baseline {data['baseline_seconds']:.3f}s)"
    )


if __name__ == "__main__":
    import pytest

    test_sharded_reference_bitwise()
    test_sharded_program_bitwise_including_temporal_blocking()
    test_killed_shard_restored_bitwise()
    try:
        test_shard_speedup_curve()
    except pytest.skip.Exception as skip:  # curve still ran + archived
        print(f"speedup gate skipped: {skip}")
    print("ok")
