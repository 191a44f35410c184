"""Tests for sharded execution: plan geometry, bitwise equality against
the serial engines, temporal blocking, fault recovery, and the
service/tune/kernel integration layers.

The whole subsystem's contract is *bitwise* reproduction of the
unsharded engines on the interior (result-grid halos are scratch), so
every equality here is ``np.array_equal`` on ``.interior``, never
``allclose``.
"""

import numpy as np
import pytest

from repro import faults, obs
from repro.config import GENERIC_AVX2
from repro.core import compile_kernel
from repro.core.jigsaw import required_halo
from repro.errors import ReproError, TilingError
from repro.faults.plan import FaultPlan, FaultRule
from repro.parallel import executor
from repro.parallel.executor import run_parallel
from repro.service import KernelService, SweepJob
from repro.shard import KernelRecipe, make_shard_plan, run_sharded
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid

HEAT2D = library.get("heat-2d")


def _recipe(spec, *, time_fusion=1):
    return KernelRecipe(spec=spec, machine=GENERIC_AVX2,
                        time_fusion=time_fusion, use_sdf=True,
                        exec_backend="auto")


class TestShardPlan:
    def test_pad_is_radius_times_block(self):
        plan = make_shard_plan(HEAT2D, (24, 24), shards=3, temporal_block=4)
        assert plan.pad == HEAT2D.radius[0] * 4

    def test_periodic_bounds_never_clip(self):
        plan = make_shard_plan(HEAT2D, (24, 24), shards=3, temporal_block=2)
        for i in range(3):
            b = plan.bounds(i, 2)
            assert (b.lo_pad, b.hi_pad) == (2, 2)
            assert not b.lo_edge and not b.hi_edge

    def test_dirichlet_bounds_clip_at_domain_edges(self):
        plan = make_shard_plan(HEAT2D, (24, 24), shards=3,
                               temporal_block=2, boundary="dirichlet")
        first, mid, last = (plan.bounds(i, 2) for i in range(3))
        assert first.lo_pad == 0 and first.lo_edge
        assert first.hi_pad == 2 and not first.hi_edge
        assert mid.lo_pad == mid.hi_pad == 2
        assert not mid.lo_edge and not mid.hi_edge
        assert last.hi_pad == 0 and last.hi_edge

    def test_supersteps_cover_steps_exactly(self):
        plan = make_shard_plan(HEAT2D, (24, 24), shards=2, temporal_block=3)
        assert plan.supersteps(9) == (3, 3, 3)
        assert plan.supersteps(7) == (3, 3, 1)
        assert plan.supersteps(2) == (2,)

    def test_remainder_superstep_uses_shallower_pad(self):
        plan = make_shard_plan(HEAT2D, (24, 24), shards=2, temporal_block=3)
        assert plan.bounds(0, 3).lo_pad == 3
        assert plan.bounds(0, 1).lo_pad == 1

    def test_validation(self):
        with pytest.raises(TilingError):
            make_shard_plan(HEAT2D, (24, 24), shards=0)
        with pytest.raises(TilingError):
            make_shard_plan(HEAT2D, (24, 24), shards=2, temporal_block=0)
        with pytest.raises(TilingError):
            make_shard_plan(HEAT2D, (24,), shards=2)  # rank mismatch
        with pytest.raises(TilingError):
            make_shard_plan(HEAT2D, (24, 24), shards=2, boundary="nope")
        with pytest.raises(TilingError):
            make_shard_plan(HEAT2D, (3, 24), shards=4)  # extent < shards


class TestReferenceEngineBitwise:
    """Sharded reference sweeps against the serial reference."""

    @pytest.mark.parametrize("kernel", ["heat-1d", "heat-2d", "box-2d9p",
                                        "heat-3d"])
    def test_matches_reference_bitwise(self, kernel):
        spec = library.get(kernel)
        shape = (17,) * (spec.ndim - 1) + (16,)
        g = Grid.random(shape, spec.radius, seed=1)
        ref = apply_steps(spec, g, 4)
        got = run_sharded(spec, g, 4, shards=3)
        assert np.array_equal(ref.interior, got.interior)

    @pytest.mark.parametrize("boundary,value", [("periodic", 0.0),
                                                ("dirichlet", 1.5)])
    @pytest.mark.parametrize("temporal_block", [1, 2, 3])
    def test_temporal_blocking_bitwise(self, boundary, value, temporal_block):
        g = Grid.random((17, 16), HEAT2D.radius, seed=2)
        ref = apply_steps(HEAT2D, g, 5, boundary=boundary, value=value)
        got = run_sharded(HEAT2D, g, 5, shards=3,
                          temporal_block=temporal_block,
                          boundary=boundary, value=value)
        assert np.array_equal(ref.interior, got.interior)

    def test_shard_count_bitwise_invariant(self):
        g = Grid.random((19, 16), HEAT2D.radius, seed=3)
        base = run_sharded(HEAT2D, g, 4, shards=1)
        for shards in (2, 3, 4):
            got = run_sharded(HEAT2D, g, 4, shards=shards, temporal_block=2)
            assert np.array_equal(base.interior, got.interior)

    def test_worker_count_bitwise_invariant(self):
        g = Grid.random((16, 16), HEAT2D.radius, seed=4)
        a = run_sharded(HEAT2D, g, 4, shards=4, workers=1)
        b = run_sharded(HEAT2D, g, 4, shards=4, workers=4)
        assert np.array_equal(a.interior, b.interior)

    def test_pad_wider_than_slab(self):
        # 8 shards of 2 rows each with a 3-deep pad: windows overlap most
        # of the domain, periodic gathers wrap — must still be exact
        g = Grid.random((16, 12), HEAT2D.radius, seed=5)
        ref = apply_steps(HEAT2D, g, 3)
        got = run_sharded(HEAT2D, g, 3, shards=8, temporal_block=3)
        assert np.array_equal(ref.interior, got.interior)

    def test_zero_steps_copies(self):
        g = Grid.random((16, 16), HEAT2D.radius, seed=6)
        out = run_sharded(HEAT2D, g, 0, shards=2)
        assert np.array_equal(g.data, out.data)
        assert out.data is not g.data

    def test_input_untouched(self):
        g = Grid.random((16, 16), HEAT2D.radius, seed=7)
        before = g.data.copy()
        run_sharded(HEAT2D, g, 3, shards=3, temporal_block=2)
        assert np.array_equal(g.data, before)

    def test_thread_vs_process_bitwise(self):
        g = Grid.random((16, 16), HEAT2D.radius, seed=8)
        a = run_sharded(HEAT2D, g, 2, shards=2, executor="thread")
        b = run_sharded(HEAT2D, g, 2, shards=2, executor="process")
        assert np.array_equal(a.interior, b.interior)


class TestProgramEngineBitwise:
    """Sharded compiled-pipeline sweeps against the unsharded kernel."""

    def _kernel(self, spec, shape, *, time_fusion=1):
        halo = required_halo(spec, GENERIC_AVX2, time_fusion=time_fusion)
        return compile_kernel(spec, GENERIC_AVX2, Grid(shape, halo),
                              time_fusion=time_fusion)

    def test_matches_kernel_run_bitwise(self):
        k = self._kernel(HEAT2D, (19, 64))
        g = k.grid_like((19, 64), seed=10)
        ref = k.run(g, 4)
        got = k.run_sharded(g, 4, shards=3, temporal_block=2,
                            executor="thread")
        assert np.array_equal(ref.interior, got.interior)

    def test_windows_of_every_shape_lower_once(self, monkeypatch):
        # 19 rows in 3 parts make windows of two heights; each worker
        # binds the recipe's one template to both
        import repro.core.planner as planner
        from repro.shard import worker
        k = self._kernel(HEAT2D, (19, 64))
        g = k.grid_like((19, 64), seed=10)
        ref = k.run(g, 4)
        calls = []
        real_lower = planner.lower_jigsaw

        def counting_lower(*args, **kwargs):
            calls.append(args[0].name)
            return real_lower(*args, **kwargs)

        monkeypatch.setattr(planner, "lower_jigsaw", counting_lower)
        worker._local_template.cache_clear()
        try:
            got = run_sharded(HEAT2D, g, 4, shards=3, temporal_block=2,
                              executor="thread", recipe=_recipe(HEAT2D))
        finally:
            worker._local_template.cache_clear()
        assert calls == ["heat-2d"]
        assert np.array_equal(ref.interior, got.interior)

    def test_fused_plan_temporal_block_defaults_to_depth(self):
        k = self._kernel(HEAT2D, (20, 64), time_fusion=2)
        g = k.grid_like((20, 64), seed=11)
        ref = k.run(g, 4)
        got = k.run_sharded(g, 4, shards=2, executor="thread")
        assert np.array_equal(ref.interior, got.interior)

    def test_dirichlet_program_mode(self):
        k = self._kernel(HEAT2D, (18, 64))
        g = k.grid_like((18, 64), seed=12)
        ref = k.run(g, 4, boundary="dirichlet", value=0.75)
        got = k.run_sharded(g, 4, shards=3, temporal_block=2,
                            executor="thread", boundary="dirichlet",
                            value=0.75)
        assert np.array_equal(ref.interior, got.interior)

    def test_shape_mismatch_rejected(self):
        k = self._kernel(HEAT2D, (18, 64))
        g = Grid.random((20, 64), k.halo(), seed=13)
        with pytest.raises(ReproError):
            k.run_sharded(g, 2, shards=2, executor="thread")

    def test_block_must_be_multiple_of_fused_depth(self):
        g = Grid.random((16, 64), HEAT2D.radius, seed=15)
        with pytest.raises(TilingError):
            run_sharded(HEAT2D, g, 6, shards=2, temporal_block=3,
                        recipe=_recipe(HEAT2D, time_fusion=2))

    def test_program_engine_rejects_1d(self):
        spec = library.get("heat-1d")
        g = Grid.random((64,), spec.radius, seed=16)
        with pytest.raises(TilingError):
            run_sharded(spec, g, 2, shards=2, recipe=_recipe(spec))

    def test_fused_dirichlet_rejected(self):
        k = self._kernel(HEAT2D, (20, 64), time_fusion=2)
        g = k.grid_like((20, 64), seed=14)
        with pytest.raises(TilingError):
            k.run_sharded(g, 4, shards=2, executor="thread",
                          boundary="dirichlet")


class TestRunnerValidation:
    def test_constructor_validation(self):
        g = Grid.random((16, 16), HEAT2D.radius, seed=0)
        with pytest.raises(TilingError):
            run_sharded(HEAT2D, g, 2, shards=0)
        with pytest.raises(TilingError):
            run_sharded(HEAT2D, g, 2, shards=2, temporal_block=0)
        with pytest.raises(TilingError):
            run_sharded(HEAT2D, g, 2, shards=2, executor="mpi")
        with pytest.raises(TilingError):
            run_sharded(HEAT2D, g, 2, shards=2, workers=0)

    def test_run_validation(self):
        g = Grid.random((16, 16), HEAT2D.radius, seed=0)
        with pytest.raises(TilingError):
            run_sharded(HEAT2D, g, -1, shards=2)

    def test_runner_reusable_across_runs(self):
        # every call owns its pool and shuts it down: repeated runs stay
        # bitwise and leave no worker thread behind
        import threading
        g = Grid.random((16, 16), HEAT2D.radius, seed=1)
        ref = apply_steps(HEAT2D, g, 2)
        before = threading.active_count()
        for _ in range(3):
            out = run_sharded(HEAT2D, g, 2, shards=3, temporal_block=2)
            assert np.array_equal(ref.interior, out.interior)
        assert threading.active_count() == before


class TestRunParallelDelegation:
    """``run_sharded`` is ``run_parallel`` with ``parts=shards``: the
    window path (temporal blocking) and the in-place path agree."""

    def test_shards_kwarg_matches_reference(self):
        g = Grid.random((18, 16), HEAT2D.radius, seed=2)
        ref = apply_steps(HEAT2D, g, 4)
        got = run_parallel(HEAT2D, g, 4, parts=3, temporal_block=2)
        assert np.array_equal(ref.interior, got.interior)

    def test_sharded_matches_tiled_bitwise(self):
        # windows and in-place parts both reproduce the serial reference
        # bit-for-bit, so they must match each other too
        g = Grid.random((16, 16), HEAT2D.radius, seed=3)
        a = run_sharded(HEAT2D, g, 3, shards=2, temporal_block=2)
        b = run_parallel(HEAT2D, g, 3, parts=4, workers=2)
        assert np.array_equal(a.interior, b.interior)


class TestServiceIntegration:
    def test_sweepjob_sharded_bitwise(self):
        svc = KernelService(GENERIC_AVX2)
        g = Grid.random((18, 18), HEAT2D.radius, seed=4)
        ref = apply_steps(HEAT2D, g, 4)
        out = svc.run(SweepJob(HEAT2D, g, 4, parts=3, temporal_block=2))
        assert np.array_equal(ref.interior, out.interior)

    def test_sweepjob_validation(self):
        g = Grid.random((16, 16), HEAT2D.radius, seed=5)
        with pytest.raises(ReproError):
            SweepJob(HEAT2D, g, 2, parts=0)
        with pytest.raises(ReproError):
            SweepJob(HEAT2D, g, 2, parts=2, temporal_block=0)
        with pytest.raises(ReproError):
            SweepJob(HEAT2D, g, 2, workers=0)


class TestObservability:
    def test_exchange_and_redundancy_counters(self):
        g = Grid.random((16, 16), HEAT2D.radius, seed=6)
        obs.enable(reset=True)
        try:
            run_sharded(HEAT2D, g, 4, shards=2, temporal_block=2)
            counters = obs.snapshot()["metrics"]["counters"]
        finally:
            obs.disable()
        assert counters["shard.supersteps"] == 2
        assert counters["shard.exchange_bytes"] > 0
        # temporal blocking recomputes ghost rows: the redundancy meter
        # must show it
        assert counters["shard.redundant_points"] > 0

    def test_no_redundancy_without_temporal_blocking(self):
        g = Grid.random((16, 16), HEAT2D.radius, seed=7)
        obs.enable(reset=True)
        try:
            run_sharded(HEAT2D, g, 2, shards=2, temporal_block=1)
            counters = obs.snapshot()["metrics"]["counters"]
        finally:
            obs.disable()
        assert counters.get("shard.redundant_points", 0) == 0

    def test_superstep_spans_recorded(self):
        g = Grid.random((16, 16), HEAT2D.radius, seed=8)
        obs.enable(reset=True)
        try:
            run_sharded(HEAT2D, g, 2, shards=2, temporal_block=2)
            spans = obs.snapshot()["spans"]
        finally:
            obs.disable()
        def walk(nodes):
            for n in nodes:
                yield n["name"]
                yield from walk(n.get("children", ()))

        names = list(walk(spans))
        assert "shard.superstep" in names
        assert "shard.exchange" in names


class TestFaultRecovery:
    def test_window_sweep_fault_recomputed_bitwise(self):
        # a fault inside one window's sub-step sweep: the task is
        # recomputed in the parent from the same gathered window
        g = Grid.random((17, 12), HEAT2D.radius, seed=9)
        ref = apply_steps(HEAT2D, g, 4)
        plan = FaultPlan(rules=(FaultRule(site="tile.sweep",
                                          kind="raise", after=1),), seed=0)
        with faults.inject(plan) as inj:
            out = run_sharded(HEAT2D, g, 4, shards=3, temporal_block=2)
        assert inj.injected_by_site().get("tile.sweep", 0) >= 1
        assert np.array_equal(ref.interior, out.interior)

    def test_window_retry_budget_exhausted_raises(self, monkeypatch):
        g = Grid.random((16, 12), HEAT2D.radius, seed=10)
        plan = FaultPlan(rules=(FaultRule(site="tile.sweep",
                                          kind="raise", times=99),), seed=0)
        monkeypatch.setattr(executor, "TASK_RETRIES", 1)
        with faults.inject(plan):
            with pytest.raises(faults.FaultInjected):
                run_sharded(HEAT2D, g, 2, shards=2, temporal_block=2)

    def test_thread_task_fault_recomputed_bitwise(self):
        g = Grid.random((17, 12), HEAT2D.radius, seed=11)
        ref = apply_steps(HEAT2D, g, 4)
        plan = FaultPlan(rules=(FaultRule(site="pool.task_start",
                                          kind="raise", after=2),), seed=0)
        with faults.inject(plan) as inj:
            out = run_sharded(HEAT2D, g, 4, shards=3, temporal_block=2)
        assert inj.injected_by_site().get("pool.task_start", 0) >= 1
        assert np.array_equal(ref.interior, out.interior)

    def test_killed_process_shard_restored_bitwise(self):
        g = Grid.random((16, 12), HEAT2D.radius, seed=12)
        ref = apply_steps(HEAT2D, g, 4)
        plan = FaultPlan(rules=(FaultRule(site="pool.task_start",
                                          kind="kill"),), seed=0)
        with faults.inject(plan) as inj:
            out = run_sharded(HEAT2D, g, 4, shards=2, temporal_block=2,
                              executor="process")
        assert inj.injected_by_site().get("pool.task_start", 0) >= 1
        assert np.array_equal(ref.interior, out.interior)

    def test_restart_budget_exhaustion_degrades_to_parent(self, monkeypatch):
        g = Grid.random((16, 12), HEAT2D.radius, seed=13)
        ref = apply_steps(HEAT2D, g, 4)
        # kill every task start: the pool breaks repeatedly, the budget
        # runs out, and the parent must finish the run itself
        plan = FaultPlan(rules=(FaultRule(site="pool.task_start",
                                          kind="kill", times=99),), seed=0)
        monkeypatch.setattr(executor, "POOL_RESTARTS", 1)
        obs.enable(reset=True)
        try:
            with faults.inject(plan):
                out = run_sharded(HEAT2D, g, 4, shards=2, temporal_block=2,
                                  executor="process")
            counters = obs.snapshot()["metrics"]["counters"]
        finally:
            obs.disable()
        assert np.array_equal(ref.interior, out.interior)
        assert counters["parallel.pool_restarts"] >= 1
        assert counters["parallel.task_retries"] >= 1

    def test_reused_runner_repairs_pool_after_degraded_run(self,
                                                           monkeypatch):
        # a run that spends its restart budget gives its pool up; the
        # next runs start fresh pools without counting a loss (no
        # phantom restart, no worker_lost, no parent recomputes)
        g = Grid.random((16, 12), HEAT2D.radius, seed=14)
        ref = apply_steps(HEAT2D, g, 4)
        plan = FaultPlan(rules=(FaultRule(site="pool.task_start",
                                          kind="kill"),), seed=0)
        monkeypatch.setattr(executor, "POOL_RESTARTS", 0)
        names = ("parallel.pool_restarts", "parallel.task_retries",
                 "parallel.fallback.reason.worker_lost")

        def run():
            return run_sharded(HEAT2D, g, 4, shards=2, temporal_block=2,
                               executor="process")

        obs.enable(reset=True)
        try:
            with faults.inject(plan):
                out = run()
            assert np.array_equal(ref.interior, out.interior)
            counters = obs.snapshot()["metrics"]["counters"]
            degraded = {n: counters.get(n, 0) for n in names}
            assert degraded["parallel.pool_restarts"] == 1
            for _ in range(2):
                out = run()
                assert np.array_equal(ref.interior, out.interior)
            counters = obs.snapshot()["metrics"]["counters"]
        finally:
            obs.disable()
        assert {n: counters.get(n, 0) for n in names} == degraded
