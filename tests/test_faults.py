"""Tests for the fault-injection framework (:mod:`repro.faults`) and the
hardening it drove into the service/parallel layers: every
injected failure must be recovered bitwise-identically or surfaced
loudly, never silently corrupted."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import faults, obs
from repro.config import GENERIC_AVX2
from repro.errors import ReproError
from repro.faults import (
    SITES,
    FaultAction,
    FaultInjected,
    FaultInjector,
    FaultPlan,
    FaultRule,
    TaskTimeout,
    call_with_timeout,
    failure_reason,
    fault_point,
    inject,
)
from repro.parallel import executor
from repro.parallel.executor import run_parallel
from repro.service import KernelService, SweepJob
from repro.stencils import library
from repro.stencils.grid import Grid


@pytest.fixture()
def observing():
    was = obs.enabled()
    obs.enable(reset=True)
    try:
        yield
    finally:
        if not was:
            obs.disable()


def _plan(*rules, seed=0):
    return FaultPlan(rules=tuple(rules), seed=seed)


SPEC = library.get("heat-2d")


# -- the framework itself ------------------------------------------------------

class TestRuleMatching:
    def test_site_glob_matches_families(self):
        inj = FaultInjector(_plan(FaultRule("server.*", times=2)))
        assert inj.decide("server.enqueue") is not None
        assert inj.decide("server.batch_flush") is not None
        assert inj.decide("compile.kernel") is None

    @pytest.mark.parametrize("site", ["cache.disk_read", "cache.*",
                                      "tile", "exec.codegen"])
    def test_site_matching_no_catalogue_entry_rejected(self, site):
        # a rule that can never fire is a typo or a retired site
        with pytest.raises(ReproError, match="matches no site"):
            FaultRule(site)
        with pytest.raises(ReproError, match="matches no site"):
            FaultPlan.from_dict({"rules": [{"site": site}]})

    @pytest.mark.parametrize("site", ["compile.kernel", "server.*", "*",
                                      "tile.sweep", "*.task_start"])
    def test_site_matching_the_catalogue_accepted(self, site):
        assert FaultRule(site).site == site

    def test_exact_site_only(self):
        inj = FaultInjector(_plan(FaultRule("tile.sweep")))
        assert inj.decide("pool.task_start") is None
        assert inj.decide("tile.sweep") is not None

    def test_nth_hit_window(self):
        # after=2, every=3, times=2: hits 2 and 5 trigger, nothing else
        inj = FaultInjector(
            _plan(FaultRule("tile.sweep", after=2, every=3, times=2)))
        fired = [i for i in range(10)
                 if inj.decide("tile.sweep") is not None]
        assert fired == [2, 5]

    def test_times_burnout(self):
        inj = FaultInjector(_plan(FaultRule("tile.sweep", times=3)))
        fired = sum(inj.decide("tile.sweep") is not None for _ in range(10))
        assert fired == 3
        assert inj.hits("tile.sweep") == 10

    def test_hit_counter_is_per_site(self):
        inj = FaultInjector(_plan(FaultRule("pool.task_start", after=1)))
        inj.decide("tile.sweep")  # unrelated site: does not advance
        assert inj.decide("pool.task_start") is None       # hit 0
        assert inj.decide("pool.task_start") is not None   # hit 1

    def test_first_matching_rule_wins(self):
        inj = FaultInjector(_plan(
            FaultRule("tile.sweep", kind="delay", delay_s=0.0),
            FaultRule("tile.*", kind="raise"),
        ))
        action = inj.decide("tile.sweep")
        assert action.kind == "delay"

    def test_plan_seed_is_provenance_only(self):
        """Two plans that differ only in ``seed`` decide every hit alike:
        the seed is recorded and round-tripped, never drawn from."""
        rules = (FaultRule("tile.sweep", kind="delay", after=1, every=2,
                           times=3),
                 FaultRule("pool.*", kind="raise", after=2))
        a, b = _plan(*rules, seed=1), _plan(*rules, seed=99)
        assert FaultPlan.from_json(b.to_json()).seed == 99

        def decisions(plan):
            inj = FaultInjector(plan)
            return [(site, getattr(inj.decide(site), "kind", None))
                    for _ in range(8)
                    for site in ("tile.sweep", "pool.task_start")]

        assert decisions(a) == decisions(b)
        assert any(kind for _, kind in decisions(a))


class TestInjectScoping:
    def test_no_active_injector_is_noop(self):
        assert faults.active() is None
        assert fault_point("tile.sweep") is None

    def test_raises_inside_scope_only(self):
        with inject(_plan(FaultRule("tile.sweep"))) as inj:
            with pytest.raises(FaultInjected) as err:
                fault_point("tile.sweep")
            assert err.value.site == "tile.sweep"
            assert inj.injected_by_site() == {"tile.sweep": 1}
        fault_point("tile.sweep")  # scope exited: no-op again

    def test_nesting_innermost_wins(self):
        outer = _plan(FaultRule("compile.kernel"))
        inner = _plan(FaultRule("tile.sweep"))
        with inject(outer) as o:
            with inject(inner) as i:
                # the inner injector absorbs hits, even for sites only
                # the outer plan watches
                fault_point("compile.kernel")
                assert i.hits("compile.kernel") == 1
                assert o.hits("compile.kernel") == 0
            with pytest.raises(FaultInjected):
                fault_point("compile.kernel")

    def test_injected_counters(self, observing):
        with inject(_plan(FaultRule("tile.sweep", kind="delay"))):
            fault_point("tile.sweep")
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["faults.injected"] == 1
        assert counters["faults.injected.site.tile.sweep"] == 1
        assert counters["faults.injected.kind.delay"] == 1


class TestPlanSerialization:
    def test_round_trip(self, tmp_path):
        plan = _plan(
            FaultRule("server.*", kind="delay", after=1, times=2, every=3),
            FaultRule("pool.task_start", kind="kill"),
            seed=42)
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_from_json_round_trip(self):
        plan = _plan(FaultRule("tile.sweep", kind="delay", delay_s=0.5))
        assert FaultPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("bad", [
        {"site": "tile.sweep", "kind": "explode"},
        {"site": ""},
        {"site": "tile.sweep", "after": -1},
        {"site": "tile.sweep", "times": 0},
        {"site": "tile.sweep", "every": 0},
        {"site": "tile.sweep", "delay_s": -1.0},
        {"site": "tile.sweep", "unknown_field": 1},
        {"site": "tile.sweep", "kind": "corrupt"},  # retired kind
        "not-an-object",
    ])
    def test_malformed_rules_rejected(self, bad):
        with pytest.raises(ReproError):
            FaultRule.from_dict(bad)

    def test_malformed_plan_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan.from_json("{nope")
        with pytest.raises(ReproError):
            FaultPlan.from_dict({"rules": "nope"})
        with pytest.raises(ReproError):
            FaultPlan.from_dict({"seed": "abc"})

    def test_missing_plan_file(self, tmp_path):
        with pytest.raises(ReproError):
            FaultPlan.load(str(tmp_path / "absent.json"))


class TestPolicyHelpers:
    def test_failure_reason_taxonomy(self):
        from concurrent.futures.process import BrokenProcessPool
        assert failure_reason(FaultInjected()) == "fault"
        assert failure_reason(TaskTimeout("t")) == "timeout"
        assert failure_reason(BrokenProcessPool("b")) == "worker_lost"
        assert failure_reason(ReproError("e")) == "error"

    def test_call_with_timeout_passthrough(self):
        assert call_with_timeout(lambda: 5, None) == 5
        assert call_with_timeout(lambda: 5, 10.0) == 5

    def test_call_with_timeout_times_out(self):
        import time
        with pytest.raises(TaskTimeout):
            call_with_timeout(lambda: time.sleep(2.0), 0.05)

    def test_perform_shipped_delay_and_raise(self):
        # worker-side replay, exercised here in-process (only "kill"
        # would exit, and it is deliberately not used)
        done = FaultAction(site="pool.task_start", kind="delay", hit=0,
                           rule=0, delay_s=0.0)
        faults.perform_shipped(done)
        with pytest.raises(FaultInjected):
            faults.perform_shipped(FaultAction(
                site="pool.task_start", kind="raise", hit=0, rule=0))

    def test_kill_degrades_to_raise_outside_workers(self):
        # a kill fault in the parent (or a thread worker) must never
        # take the process down — it degrades to a raise
        with inject(_plan(FaultRule("tile.sweep", kind="kill"))):
            with pytest.raises(FaultInjected) as err:
                fault_point("tile.sweep")
        assert err.value.kind == "kill"

    def test_fault_injected_pickles_with_attrs(self):
        exc = FaultInjected("boom", site="tile.sweep", kind="kill", hit=3)
        back = pickle.loads(pickle.dumps(exc))
        assert (back.site, back.kind, back.hit) == ("tile.sweep", "kill", 3)
        assert isinstance(back, ReproError)


# -- hardening regressions -----------------------------------------------------

def _run_grids(backend: str, **kw):
    grid = Grid.random((40, 40), SPEC.radius, seed=5)
    return run_parallel(SPEC, grid, 3, workers=4, parts=4,
                        backend=backend, **kw)


class TestExecutorHardening:
    def test_thread_tile_fault_retried_bitwise(self):
        clean = _run_grids("thread")
        with inject(_plan(FaultRule("tile.sweep", after=2, times=2))) as inj:
            faulted = _run_grids("thread")
        assert inj.injected_by_site()["tile.sweep"] == 2
        assert np.array_equal(clean.data, faulted.data)

    def test_thread_pool_task_fault_retried_bitwise(self):
        clean = _run_grids("thread")
        with inject(_plan(FaultRule("pool.task_start"))):
            faulted = _run_grids("thread")
        assert np.array_equal(clean.data, faulted.data)

    def test_process_worker_raise_recovered_bitwise(self):
        clean = _run_grids("process")
        with inject(_plan(FaultRule("pool.task_start", after=1))) as inj:
            faulted = _run_grids("process")
        assert inj.injected_by_site()["pool.task_start"] == 1
        assert np.array_equal(clean.data, faulted.data)

    def test_process_worker_kill_restarts_pool(self, observing):
        # a killed worker breaks the pool: the executor must restart it,
        # resubmit the unfinished tiles, and still match bitwise
        clean = _run_grids("process")
        with inject(_plan(FaultRule("pool.task_start", kind="kill",
                                    after=1))) as inj:
            faulted = _run_grids("process")
        assert inj.injected_by_site()["pool.task_start"] == 1
        assert np.array_equal(clean.data, faulted.data)
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["parallel.pool_restarts"] >= 1
        assert counters["parallel.fallback.reason.worker_lost"] >= 1

    def test_restart_budget_exhausted_degrades_to_parent(self, observing,
                                                         monkeypatch):
        # more kills than the restart budget: the parent finishes the
        # phase serially instead of looping on resurrection
        clean = _run_grids("process")
        monkeypatch.setattr(executor, "POOL_RESTARTS", 1)
        with inject(_plan(FaultRule("pool.task_start", kind="kill",
                                    times=8))):
            faulted = _run_grids("process")
        assert np.array_equal(clean.data, faulted.data)
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["parallel.pool_restarts"] >= 1

    def test_retry_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(executor, "TASK_RETRIES", 1)
        with inject(_plan(FaultRule("tile.sweep", times=1000))):
            with pytest.raises(FaultInjected):
                _run_grids("thread")


class TestServiceHardening:
    def test_compile_fault_retried(self):
        svc = KernelService(GENERIC_AVX2, failure_policy="retry", retries=2)
        with inject(_plan(FaultRule("compile.kernel"))):
            k = svc.compile(SPEC, (32, 32))
        assert k.exec_backend() == "auto"  # primary succeeded on retry

    def test_compile_fault_raise_policy_propagates(self):
        svc = KernelService(GENERIC_AVX2, failure_policy="raise")
        with inject(_plan(FaultRule("compile.kernel"))):
            with pytest.raises(FaultInjected):
                svc.compile(SPEC, (32, 32))

    def test_compile_timeout_degrades_to_interp(self, observing):
        # a compile stuck past its timeout degrades to an interp-stamped
        # kernel — bitwise-safe because codegen and interp agree exactly
        svc = KernelService(GENERIC_AVX2, failure_policy="degrade",
                            retries=0, task_timeout_s=0.2,
                            retry_backoff_s=0.0)
        with inject(_plan(FaultRule("compile.kernel", kind="delay",
                                    delay_s=1.5))):
            k = svc.compile(SPEC, (32, 32))
        assert k.exec_backend() == "interp"
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["service.failures.reason.timeout"] >= 1
        assert counters["service.fallback.to.interp"] == 1

    def test_run_fault_recovered_bitwise(self):
        svc = KernelService(GENERIC_AVX2, failure_policy="degrade",
                            retries=2, retry_backoff_s=0.0)
        job = SweepJob(SPEC, Grid.random((40, 40), SPEC.radius, seed=4),
                       steps=3)
        clean = svc.run(job)
        with inject(_plan(FaultRule("tile.sweep", times=2))):
            faulted = svc.run(job)
        assert np.array_equal(clean.data, faulted.data)

    def test_run_many_faulted_matches_clean(self):
        svc = KernelService(GENERIC_AVX2, failure_policy="degrade",
                            retries=3, retry_backoff_s=0.0)
        jobs = [SweepJob(SPEC, Grid.random((32, 32), SPEC.radius, seed=s),
                         steps=2) for s in (1, 2)]
        clean = svc.run_many(jobs)
        with inject(_plan(FaultRule("pool.task_start", times=3))):
            faulted = svc.run_many(jobs)
        for c, f in zip(clean, faulted):
            assert np.array_equal(c.data, f.data)


class TestDriverHardening:
    def test_codegen_fault_degrades_to_interp_bitwise(self, observing):
        """A fault at the codegen site must degrade to the interpreter
        (the next ladder rung) without changing a bit."""
        svc = KernelService(GENERIC_AVX2)
        k = svc.compile(SPEC, (32, 32))
        g = k.grid_like((32, 32), seed=9)
        steps = 2 * k.plan.time_fusion
        clean = k.run(g, steps)
        with inject(_plan(FaultRule("exec.codegen_kernel"))) as inj:
            faulted = k.run(g, steps)
        assert inj.injected_by_site()["exec.codegen_kernel"] == 1
        assert np.array_equal(clean.data, faulted.data)
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["exec.codegen_fallback"] == 1
        assert counters["exec.codegen_fallback.reason.fault"] == 1


class TestTunerHardening:
    def test_faulted_trial_recorded_as_failure(self, observing):
        from repro.core.cache import KernelCache as KC
        from repro.tune.engine import TuneBudget, measure
        from repro.tune.space import TuneConfig
        budget = TuneBudget(max_trials=1, warmup=0, repeats=1,
                            trial_timeout_s=30.0)
        config = TuneConfig(engine="machine")
        with inject(_plan(FaultRule("compile.kernel", times=100))):
            trial = measure(SPEC, GENERIC_AVX2, config, (32, 32),
                            steps=2, budget=budget, cache=KC())
        assert not trial.ok
        assert "injected" in trial.error
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["tune.trial_failures"] == 1
        assert counters["tune.trial_failures.reason.fault"] == 1


# -- chaos ---------------------------------------------------------------------

class TestChaos:
    def test_chaos_plan_covers_every_site(self):
        from repro.faults.chaos import CHAOS_SITE_KINDS, chaos_plan
        for seed in range(5):
            plan = chaos_plan(seed)
            assert sorted(r.site for r in plan.rules) == sorted(SITES)
            for r in plan.rules:
                assert r.kind in CHAOS_SITE_KINDS[r.site]
        assert chaos_plan(3) == chaos_plan(3)  # seeded: reproducible

    def test_chaos_run_bitwise_identical(self):
        from repro.faults.chaos import run_chaos
        try:
            report = run_chaos(size=(32, 32), steps=2, seed=0,
                               backends=("thread",))
        finally:
            obs.disable()  # run_chaos enables recording process-wide
        assert report.ok, report.summary()
        assert report.total_injected >= len(SITES)
        assert not report.sites_missing and not report.mismatches
        # every injected fault shows up in the taxonomy slice
        assert report.taxonomy["faults.injected"] == report.total_injected
        d = report.to_dict()
        assert d["ok"] and d["injected"] == report.injected
        assert "result: OK" in report.summary()

    def test_chaos_report_failure_rendering(self):
        from repro.faults.chaos import ChaosReport, chaos_plan
        rep = ChaosReport(kernel="heat-2d", size=(8, 8), steps=1, seed=0,
                          backends=("thread",), plan=chaos_plan(0),
                          injected={"tile.sweep": 1},
                          sites_missing=["server.enqueue"],
                          mismatches=["machine"])
        assert not rep.ok and not rep.to_dict()["ok"]
        text = rep.summary()
        assert "MISSING" in text and "MISMATCH" in text and "FAILED" in text

    def test_taxonomy_slice_filters_prefixes(self):
        from repro.faults.chaos import taxonomy_slice
        counters = {"faults.injected": 3, "faults.injected.kind.raise": 3,
                    "service.failures.reason.fault": 1, "exec.sweeps": 9,
                    "parallel.pool_restarts": 1, "cache.program.misses": 4}
        out = taxonomy_slice(counters)
        assert "exec.sweeps" not in out and "cache.program.misses" not in out
        assert out["faults.injected"] == 3
        assert out["parallel.pool_restarts"] == 1
