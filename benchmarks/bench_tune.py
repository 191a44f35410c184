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
* at least one workload shows a measurable win (>= 1.2x).  Every trial
  runs one untimed warmup first, so the default's codegen emission stays
  out of its timed runs and both sides compare warm: on these small
  grids the executor configurations the search finds run about 2x the
  SIMD-machine default.

The second gate checks Table 3's blocking search
(:mod:`repro.experiments.table3`): on every row, the model's best
blocking reaches at least 0.999x the paper's published blocking under the
same model.

Emits ``BENCH_tune.json`` (override via ``BENCH_TUNE_JSON``).  Runs under
pytest (``pytest benchmarks/bench_tune.py -s``) or stand-alone.
"""

from __future__ import annotations

import json
import os
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
    budget = TuneBudget(max_trials=5, warmup=1, repeats=2,
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
# Table 3's blocking search (repro.experiments.table3): the model's best
# blocking must be at least as good as the paper's published rows under
# the same model
# ---------------------------------------------------------------------------

from repro.experiments import table3  # noqa: E402


def test_autotuner_rederives_table3():
    emit("Table 3: the paper's blocking vs the model's best", table3.run())
    for d in table3.data():
        assert d["best"]["gstencil_s"] >= d["paper_gstencil_s"] * 0.999, (
            d["kernel"])


if __name__ == "__main__":
    test_tuned_never_loses_and_somewhere_wins()
    test_autotuner_rederives_table3()
    print("ok")
