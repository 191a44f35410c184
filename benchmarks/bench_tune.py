"""The autotuner acceptance gate: tuned never loses, and somewhere wins.

For a few cheap library workloads, runs a full model-guided + empirical
search (:class:`repro.tune.Tuner`, in-memory database) and compares the
stored winner against the planner's static default configuration using
the search's *own* trial measurements — the baseline is force-included in
every search, so both numbers come from the same timing harness and the
comparison cannot flake on a separate re-run.  Asserts:

* per workload, the tuned winner is never more than 5% slower than the
  default planner choice (by construction the winner is the trial
  maximum, so this guards the harness itself), and
* at least one workload shows a measurable win (>= 1.2x) — on these
  small grids the search should discover that an executor configuration
  beats the cold SIMD-machine default by an order of magnitude.

The second gate covers the *online* tuner: a cold service driven by
:class:`repro.tune.OnlineTuner` must converge to within 5% of the best
offline-measured throughput over the same space (the tiled and shard
executors the server runs) — without ever blocking a request (a live
load against ``online_tune=True`` finishes with zero failures and zero
rejections, bitwise-verified).  Its record
(``mode: "online"``) is appended to the same artifact.
``BENCH_TUNE_ONLINE_REQUESTS`` shrinks the live phase for CI.

Emits ``BENCH_tune.json`` (override via ``BENCH_TUNE_JSON``).  Runs under
pytest (``pytest benchmarks/bench_tune.py -s``) or stand-alone.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(__file__))

from _bench_utils import attach_stages, emit, observed  # noqa: E402

from repro.config import GENERIC_AVX2  # noqa: E402
from repro.stencils import library  # noqa: E402
from repro.tune import TuneBudget, Tuner, TuningDB, default_config  # noqa: E402

#: (kernel, interior shape) — small enough that the simulated-machine
#: baseline trials stay in the tens of milliseconds
WORKLOADS = (
    ("heat-1d", (1024,)),
    ("heat-2d", (64, 64)),
    ("star-2d9p", (64, 64)),
)
SLOWDOWN_FLOOR = 0.95   #: tuned must keep >= 95% of the default's rate
WIN_RATIO = 1.2         #: at least one workload must beat default by this


def _artifact_path() -> str:
    return os.environ.get("BENCH_TUNE_JSON", "BENCH_tune.json")


def measure() -> list:
    machine = GENERIC_AVX2
    budget = TuneBudget(max_trials=5, warmup=0, repeats=2,
                        trial_timeout_s=60.0, patience=5)
    tuner = Tuner(machine, db=TuningDB(None), budget=budget)
    results = []
    for name, shape in WORKLOADS:
        spec = library.get(name)
        with observed():
            report = tuner.tune(spec, shape, steps=2)
            stages = {}
            attach_stages(stages)
        default_key = default_config(spec, machine).as_dict()
        baseline = next(t for t in report.trials
                        if t.config.as_dict() == default_key)
        assert baseline.ok, f"{name}: default-config trial failed"
        results.append({
            "kernel": name,
            "shape": list(shape),
            "machine": machine.name,
            "default_config": baseline.config.label(),
            "default_mstencil_s": baseline.mstencil_s,
            "tuned_config": report.best.config.label(),
            "tuned_mstencil_s": report.best.mstencil_s,
            "ratio": report.best.mstencil_s / baseline.mstencil_s,
            "trials": len(report.trials),
            "candidates": report.candidates,
            **stages,  # per-stage span/metric breakdown of the search
        })
    return results


def _report(results: list) -> None:
    path = _artifact_path()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    lines = []
    for r in results:
        lines.append(
            f"{r['kernel']:<12} default {r['default_mstencil_s']:8.2f} "
            f"-> tuned {r['tuned_mstencil_s']:8.2f} MStencil/s "
            f"({r['ratio']:.1f}x, {r['tuned_config']})")
    lines.append(f"artifact        {path}")
    emit("Autotuner: tuned vs planner default", "\n".join(lines))


def test_tuned_never_loses_and_somewhere_wins():
    results = measure()
    _report(results)
    for r in results:
        assert r["ratio"] >= SLOWDOWN_FLOOR, (
            f"{r['kernel']}: tuned config {r['tuned_config']} is "
            f"{r['ratio']:.2f}x the default — more than 5% slower")
    best = max(r["ratio"] for r in results)
    assert best >= WIN_RATIO, (
        f"no workload improved on the planner default "
        f"(best ratio {best:.2f}x < {WIN_RATIO}x)")


# ---------------------------------------------------------------------------
# the online-tuning convergence gate: a cold service reaches the offline
# winner's throughput through idle-slot exploration alone, and a live
# load served meanwhile never sees a blocked request
# ---------------------------------------------------------------------------

from repro.core.cache import KernelCache  # noqa: E402
from repro.server import (  # noqa: E402
    LoadConfig,
    StencilServer,
    reference_results,
    run_load_sync,
)
from repro.service import KernelService  # noqa: E402
from repro.tune import OnlineTuneConfig  # noqa: E402
from repro.tune.engine import measure as measure_trial  # noqa: E402
from repro.tune.online import ONLINE_ENGINES  # noqa: E402

ONLINE_KERNEL, ONLINE_SHAPE = "heat-1d", (1024,)
CONVERGENCE_FLOOR = 0.95  #: online incumbent keeps >= 95% of offline rate
REMEASURE_ROUNDS = 31     #: alternating re-measure rounds per side


def _online_requests() -> int:
    return int(os.environ.get("BENCH_TUNE_ONLINE_REQUESTS", "64"))


def measure_online() -> dict:
    machine = GENERIC_AVX2
    spec = library.get(ONLINE_KERNEL)

    # the offline reference: a full blocking search over the same space.
    # The search always times the planner's machine-engine default too,
    # which the server never runs, so the reference is its best trial
    # inside the online space.
    budget = TuneBudget(max_trials=6, warmup=0, repeats=2,
                        trial_timeout_s=60.0, patience=6)
    offline = Tuner(machine, db=TuningDB(None), budget=budget).tune(
        spec, ONLINE_SHAPE, steps=2, engines=ONLINE_ENGINES)
    offline_best = max((t for t in offline.trials
                        if t.ok and t.config.engine in ONLINE_ENGINES),
                       key=lambda t: t.mstencil_s)

    # a cold service converges through idle-slot exploration alone
    svc = KernelService(machine)
    tuner = svc.online_tuner(config=OnlineTuneConfig(
        trial_steps=2, repeats=2))
    tuner.observe(spec, ONLINE_SHAPE, steps=2)
    with observed():
        steps_taken = 0
        while not tuner.converged() and steps_taken < 500:
            tuner.step()
            steps_taken += 1
    stats = tuner.stats()
    incumbent = tuner.incumbent(spec, ONLINE_SHAPE)

    # re-measure both on one fresh harness, in alternating rounds of
    # 64-sweep runs so host drift hits both sides alike: one-part sweeps
    # of 1024 points take well under a millisecond, and a back-to-back
    # pair flaked.  Identical configs trivially tie, so a shared config
    # is measured once per round; the search's own trial of it is cold
    # (no warmup, two sweeps) and would under-report it several-fold.
    same = incumbent.as_dict() == offline_best.config.as_dict()
    sides = {"offline": offline_best.config}
    if not same:
        sides["online"] = incumbent
    harness = TuneBudget(max_trials=1, warmup=1, repeats=1,
                         trial_timeout_s=60.0)
    cache = KernelCache()
    rates: dict = {side: [] for side in sides}
    for r in range(REMEASURE_ROUNDS):
        for side in (sorted(sides) if r % 2 else sorted(sides)[::-1]):
            t = measure_trial(spec, machine, sides[side], ONLINE_SHAPE,
                              steps=64, budget=harness, cache=cache)
            assert t.ok, t.error
            rates[side].append(t.mstencil_s)
    offline_rate = statistics.median(rates["offline"])
    online_rate = offline_rate if same else statistics.median(
        rates["online"])

    # the live phase: tuning on, a full load, nothing ever blocked
    requests = _online_requests()
    lcfg = LoadConfig(requests=requests, kernels=(ONLINE_KERNEL,),
                      shape=ONLINE_SHAPE, steps=2, seeds=2)
    server = StencilServer(machine=machine, online_tune=True,
                           online_tune_config=OnlineTuneConfig(
                               trial_steps=2))
    report = run_load_sync(lcfg, server=server,
                           references=reference_results(lcfg, machine))
    live = server.online_tuner.stats()

    return {
        "mode": "online",
        "kernel": ONLINE_KERNEL,
        "shape": list(ONLINE_SHAPE),
        "machine": machine.name,
        "offline_config": offline_best.config.label(),
        "offline_mstencil_s": offline_rate,
        "online_config": incumbent.label(),
        "online_mstencil_s": online_rate,
        "ratio": online_rate / offline_rate,
        "steps": steps_taken,
        "trials": stats["trials"],
        "promotions": stats["promotions"],
        "verified": stats["verified"],
        "verify_failures": stats["verify_failures"],
        "live_requests": requests,
        "live_completed": report.completed,
        "live_rejected": report.rejected,
        "live_failed": report.failed,
        "live_bitwise_ok": report.bitwise_ok,
        "live_trials": live["trials"],
        "live_gated": live["gated"],
        "live_promotions": live["promotions"],
    }


def _append_online(record: dict) -> None:
    path = _artifact_path()
    results: list = []
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if isinstance(loaded, list):
                results = [r for r in loaded
                           if not (isinstance(r, dict)
                                   and r.get("mode") == "online")]
        except (OSError, ValueError):
            results = []
    results.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    emit("Online tuning: cold convergence vs the offline search",
         f"offline {record['offline_mstencil_s']:8.2f} "
         f"({record['offline_config']})\n"
         f"online  {record['online_mstencil_s']:8.2f} "
         f"({record['online_config']}) "
         f"= {record['ratio']:.2f}x after {record['trials']} trial(s)\n"
         f"live    {record['live_completed']}/{record['live_requests']} "
         f"served, {record['live_rejected']} rejected, "
         f"{record['live_failed']} failed, "
         f"{record['live_trials']} trial(s) in idle slots "
         f"({record['live_gated']} gated)\n"
         f"artifact        {_artifact_path()}")


def test_online_tuning_converges_without_blocking():
    record = measure_online()
    _append_online(record)
    assert record["ratio"] >= CONVERGENCE_FLOOR, (
        f"online incumbent {record['online_config']} reaches only "
        f"{record['ratio']:.2f}x of the offline winner "
        f"{record['offline_config']}")
    assert record["live_completed"] == record["live_requests"]
    assert record["live_rejected"] == 0 and record["live_failed"] == 0, (
        "online tuning must never block or fail a request")
    assert record["live_bitwise_ok"], "served results must stay bitwise"
    assert record["verify_failures"] == 0
    assert record["promotions"] <= record["verified"], (
        "every promotion must have passed the bitwise gate")


# ---------------------------------------------------------------------------
# the model-driven tuner's Table-3 rederivation (merged from the former
# benchmarks/bench_tuning.py): the analytic search must recover blockings
# at least as good as the paper's published rows under the same model
# ---------------------------------------------------------------------------

from repro.analysis.report import render_table  # noqa: E402
from repro.config import AMD_EPYC_7V13  # noqa: E402
from repro.parallel.simulator import MulticoreModel, ParallelSetup  # noqa: E402
from repro.schemes import model_cost  # noqa: E402
from repro.stencils.library import table3_config  # noqa: E402
from repro.tuning import autotune  # noqa: E402

MODEL_KERNELS = ("heat-1d", "heat-2d", "box-2d9p", "heat-3d")


def _tune_all():
    rows = []
    model = MulticoreModel(AMD_EPYC_7V13)
    for kernel in MODEL_KERNELS:
        cfg = table3_config(kernel)
        steps = min(cfg.time_steps, 200)
        result = autotune(cfg.spec, AMD_EPYC_7V13,
                          problem_size=cfg.problem_size, steps=steps)
        # the paper's blocking, evaluated under the same model
        paper = model.estimate(
            model_cost(result.best.scheme, cfg.spec, AMD_EPYC_7V13),
            cfg.spec, points=cfg.grid_points(), steps=steps,
            cores=AMD_EPYC_7V13.total_cores,
            setup=ParallelSetup(tile_shape=cfg.tile_shape,
                                time_depth=cfg.time_depth),
        )
        rows.append([
            kernel,
            "x".join(map(str, cfg.tile_shape)) + f"/Tb{cfg.time_depth}",
            paper.gstencil_s,
            "x".join(map(str, result.best.tile_shape))
            + f"/Tb{result.best.time_depth}",
            result.best.gstencil_s,
            result.evaluated,
        ])
    return rows


def test_autotuner_rederives_table3():
    rows = _tune_all()
    emit("Autotuning vs the paper's Table-3 blocking (AMD model)",
         render_table(["kernel", "paper blocking", "GS/s",
                       "tuned blocking", "GS/s", "candidates"], rows))
    for kernel, _pb, paper_gs, _tb, tuned_gs, _n in rows:
        assert tuned_gs >= paper_gs * 0.999, kernel


if __name__ == "__main__":
    test_tuned_never_loses_and_somewhere_wins()
    test_online_tuning_converges_without_blocking()
    test_autotuner_rederives_table3()
    print("ok")
