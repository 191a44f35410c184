"""Tests for topology, the multicore model, and the real executor."""

import multiprocessing

import numpy as np
import pytest

from repro import obs
from repro.config import AMD_EPYC_7V13, GENERIC_AVX2, INTEL_XEON_6230R
from repro.errors import ModelError, TilingError
from repro.faults import FaultPlan, FaultRule, inject
from repro.parallel import executor
from repro.parallel.executor import (MIN_PART_POINTS, default_parts,
                                     pool_context, run_parallel)
from repro.parallel.simulator import MulticoreModel, ParallelSetup
from repro.parallel.topology import allocate_cores, partition_axis
from repro.schemes import model_cost
from repro.shard import run_sharded
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid
from repro.stencils.library import table3_config


class TestTopology:
    def test_alternate_round_robin(self):
        alloc = allocate_cores(INTEL_XEON_6230R, 5, policy="alternate")
        assert alloc.per_socket == (3, 2)
        assert alloc.sockets_used == 2

    def test_compact_fills_first_socket(self):
        alloc = allocate_cores(INTEL_XEON_6230R, 20, policy="compact")
        assert alloc.per_socket == (20, 0)
        assert alloc.remote_fraction == 0.0

    def test_remote_fraction_two_sockets(self):
        alloc = allocate_cores(INTEL_XEON_6230R, 4, policy="alternate")
        assert alloc.remote_fraction == pytest.approx(0.5)

    def test_single_socket_no_remote(self):
        alloc = allocate_cores(AMD_EPYC_7V13, 8)
        assert alloc.remote_fraction == 0.0

    def test_bounds_checked(self):
        with pytest.raises(ModelError):
            allocate_cores(AMD_EPYC_7V13, 0)
        with pytest.raises(ModelError):
            allocate_cores(AMD_EPYC_7V13, 25)

    def test_unknown_policy(self):
        with pytest.raises(ModelError):
            allocate_cores(AMD_EPYC_7V13, 2, policy="nope")


class TestShardTopology:
    def test_even_partition(self):
        slabs = partition_axis(16, 4)
        assert [s.rows for s in slabs] == [4, 4, 4, 4]
        assert [(s.start, s.stop) for s in slabs] == [
            (0, 4), (4, 8), (8, 12), (12, 16)]
        assert [s.index for s in slabs] == [0, 1, 2, 3]

    def test_remainder_spread_over_leading_slabs(self):
        slabs = partition_axis(17, 5)
        assert [s.rows for s in slabs] == [4, 4, 3, 3, 3]
        # contiguous, gap-free cover of [0, extent)
        assert slabs[0].start == 0 and slabs[-1].stop == 17
        for a, b in zip(slabs, slabs[1:]):
            assert a.stop == b.start

    def test_degenerate_single_shard(self):
        (slab,) = partition_axis(9, 1)
        assert (slab.start, slab.stop, slab.rows) == (0, 9, 9)

    def test_one_row_per_shard(self):
        slabs = partition_axis(3, 3)
        assert [s.rows for s in slabs] == [1, 1, 1]

    def test_partition_validation(self):
        with pytest.raises(TilingError):
            partition_axis(8, 0)
        with pytest.raises(TilingError):
            partition_axis(3, 4)  # more shards than rows


class TestPoolContext:
    """The process pool must be pinned to a spawn-safe start method:
    fork copies the parent's locks/injector stack mid-state and is not
    deterministic under threads, so the executor never relies on the
    platform default."""

    def test_default_is_spawn_safe(self, monkeypatch):
        monkeypatch.delenv("REPRO_MP_START", raising=False)
        ctx = pool_context()
        assert ctx.get_start_method() in ("forkserver", "spawn")
        assert ctx.get_start_method() != "fork"

    def test_env_override_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        assert pool_context().get_start_method() == "spawn"

    def test_unsupported_method_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "mpi")
        with pytest.raises(TilingError):
            pool_context()

    def test_fork_allowed_as_explicit_override(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork")
        monkeypatch.setenv("REPRO_MP_START", "fork")
        assert pool_context().get_start_method() == "fork"


class TestMulticoreModel:
    @pytest.fixture
    def setup(self):
        cfg = table3_config("box-2d9p")
        return cfg, model_cost("jigsaw", cfg.spec, AMD_EPYC_7V13)

    def test_scaling_is_monotone(self, setup):
        cfg, cost = setup
        model = MulticoreModel(AMD_EPYC_7V13)
        curve = model.scaling_curve(
            cost, cfg.spec, points=cfg.grid_points(), steps=100,
            core_counts=[1, 2, 4, 8, 16, 24],
            setup=ParallelSetup(tile_shape=cfg.tile_shape,
                                time_depth=cfg.time_depth),
        )
        gs = [r.gstencil_s for r in curve]
        assert all(b >= a for a, b in zip(gs, gs[1:]))

    def test_scaling_at_most_linear(self, setup):
        cfg, cost = setup
        model = MulticoreModel(AMD_EPYC_7V13)
        r1 = model.estimate(cost, cfg.spec, points=cfg.grid_points(),
                            steps=100, cores=1)
        r24 = model.estimate(cost, cfg.spec, points=cfg.grid_points(),
                             steps=100, cores=24)
        assert r24.gstencil_s <= 24 * r1.gstencil_s * 1.001

    def test_3d_saturates_earlier_than_1d(self):
        model = MulticoreModel(AMD_EPYC_7V13)
        effs = {}
        for kernel in ("heat-1d", "heat-3d"):
            cfg = table3_config(kernel)
            cost = model_cost("jigsaw", cfg.spec, AMD_EPYC_7V13)
            setup = ParallelSetup(tile_shape=cfg.tile_shape,
                                  time_depth=cfg.time_depth)
            r1 = model.estimate(cost, cfg.spec, points=cfg.grid_points(),
                                steps=cfg.time_steps, cores=1, setup=setup)
            r24 = model.estimate(cost, cfg.spec, points=cfg.grid_points(),
                                 steps=cfg.time_steps, cores=24, setup=setup)
            effs[kernel] = r24.gstencil_s / (24 * r1.gstencil_s)
        assert effs["heat-3d"] < effs["heat-1d"]

    def test_numa_hurts_intel_dram_runs(self):
        cfg = table3_config("heat-3d")
        cost = model_cost("jigsaw", cfg.spec, INTEL_XEON_6230R)
        model = MulticoreModel(INTEL_XEON_6230R)
        # untiled, memory-bound: alternate placement pays the NUMA penalty
        alt = model.estimate(cost, cfg.spec, points=cfg.grid_points(),
                             steps=10, cores=8,
                             setup=ParallelSetup(placement="alternate"))
        compact = model.estimate(cost, cfg.spec, points=cfg.grid_points(),
                                 steps=10, cores=8,
                                 setup=ParallelSetup(placement="compact"))
        assert alt.gstencil_s <= compact.gstencil_s

    def test_time_depth_amortizes_dram(self, setup):
        cfg, cost = setup
        model = MulticoreModel(AMD_EPYC_7V13)
        shallow = model.estimate(
            cost, cfg.spec, points=cfg.grid_points(), steps=100, cores=24,
            setup=ParallelSetup(tile_shape=cfg.tile_shape, time_depth=1))
        deep = model.estimate(
            cost, cfg.spec, points=cfg.grid_points(), steps=100, cores=24,
            setup=ParallelSetup(tile_shape=cfg.tile_shape, time_depth=50))
        assert deep.gstencil_s >= shallow.gstencil_s

    def test_bad_setup_rejected(self):
        with pytest.raises(ModelError):
            ParallelSetup(time_depth=0)


class TestExecutor:
    @pytest.mark.parametrize("kernel", ["heat-1d", "heat-2d", "box-2d9p",
                                        "heat-3d"])
    def test_matches_reference(self, kernel):
        spec = library.get(kernel)
        shape = (16,) * spec.ndim
        g = Grid.random(shape, spec.radius, seed=1)
        got = run_parallel(spec, g, 3, workers=4, parts=4)
        ref = apply_steps(spec, g, 3)
        assert np.allclose(got.interior, ref.interior, rtol=1e-12, atol=1e-14)

    def test_dirichlet(self):
        spec = library.get("heat-2d")
        g = Grid.random((16, 16), 1, seed=2)
        got = run_parallel(spec, g, 2, workers=2, parts=2,
                           boundary="dirichlet", value=0.5)
        ref = apply_steps(spec, g, 2, boundary="dirichlet", value=0.5)
        assert np.allclose(got.interior, ref.interior, rtol=1e-12)

    def test_default_tiling_splits_outer_axis(self):
        spec = library.get("heat-2d")
        g = Grid.random((16, 16), 1, seed=3)
        got = run_parallel(spec, g, 2, workers=4)
        ref = apply_steps(spec, g, 2)
        assert np.allclose(got.interior, ref.interior, rtol=1e-12)

    def test_input_untouched(self):
        spec = library.get("heat-1d")
        g = Grid.random((32,), 1, seed=5)
        before = g.data.copy()
        run_parallel(spec, g, 2, workers=2)
        assert np.array_equal(g.data, before)

    def test_validation(self):
        spec = library.get("heat-1d")
        g = Grid.random((32,), 1, seed=6)
        with pytest.raises(TilingError):
            run_parallel(spec, g, -1)
        with pytest.raises(TilingError):
            run_parallel(spec, g, 1, workers=0)
        with pytest.raises(TilingError):
            run_parallel(spec, g, 1, parts=0)
        with pytest.raises(TilingError):
            run_parallel(spec, g, 1, parts=33)  # more parts than rows
        with pytest.raises(TilingError):
            run_parallel(spec, g, 1, temporal_block=0)


class TestDefaultTiling:
    """The default part count follows grid points: a small grid is one
    part, swept inline without a pool, and a large one still splits
    across the workers."""

    SPEC = library.get("heat-2d")

    @pytest.fixture()
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-part run built a thread pool")

        monkeypatch.setattr(executor, "ThreadPoolExecutor", refuse)

    def test_tile_count_follows_grid_points(self):
        assert default_parts((32, 32), 4) == 1
        # one part below 2 * MIN_PART_POINTS = 2^18 points
        assert default_parts((256, 256), 4) == 1
        assert default_parts((384, 384), 4) == 1
        assert default_parts((512, 512), 4) == 2
        assert default_parts((64, 64, 64), 4) == 2
        assert default_parts((1024, 1024), 2) == 2
        assert default_parts((2 * MIN_PART_POINTS,), 8) == 2
        assert default_parts((3,), 4) == 1
        assert default_parts((3, 2 * MIN_PART_POINTS), 8) == 3  # one a row

    def test_small_grid_runs_inline_bitwise(self, no_pool):
        g = Grid.random((32, 32), 1, seed=13)
        got = run_parallel(self.SPEC, g, 3, workers=4)
        ref = apply_steps(self.SPEC, g, 3)
        assert np.array_equal(got.interior, ref.interior)

    def test_inline_task_fault_is_recomputed(self, no_pool):
        g = Grid.random((32, 32), 1, seed=14)
        clean = run_parallel(self.SPEC, g, 2, workers=4)
        was = obs.enabled()
        obs.enable(reset=True)
        try:
            with inject(FaultPlan(rules=(FaultRule("pool.task_start"),),
                                  seed=0)) as inj:
                got = run_parallel(self.SPEC, g, 2, workers=4)
            counters = obs.snapshot()["metrics"]["counters"]
        finally:
            if not was:
                obs.disable()
            obs.reset()
        assert inj.injected_by_site() == {"pool.task_start": 1}
        assert counters.get("parallel.task_retries") == 1
        assert np.array_equal(got.data, clean.data)

    def test_large_grid_still_splits_across_workers(self, monkeypatch):
        tiles = []
        real = executor.apply_tile

        def counting(spec, grid, out, tile):
            tiles.append(tile)
            real(spec, grid, out, tile)

        monkeypatch.setattr(executor, "apply_tile", counting)
        g = Grid.random((1024, 1024), 1, seed=15)
        run_parallel(self.SPEC, g, 1, workers=2)
        assert len(tiles) == 2


class TestExecutorDeterminism:
    """run_parallel must be bitwise deterministic: parts are independent
    and land in disjoint output slabs, so part count, worker count and
    backend can never change a single bit of the result."""

    SPEC = library.get("heat-2d")

    def _grid(self, seed=7):
        return Grid.random((48, 48), 1, seed=seed)

    def test_worker_count_bitwise_identical(self):
        g = self._grid()
        a = run_parallel(self.SPEC, g, 3, workers=1)
        b = run_parallel(self.SPEC, g, 3, workers=8, parts=8)
        assert np.array_equal(a.data, b.data)

    def test_thread_vs_process_backend_bitwise_identical(self):
        g = self._grid(seed=8)
        a = run_parallel(self.SPEC, g, 2, workers=4, backend="thread",
                         parts=4)
        b = run_parallel(self.SPEC, g, 2, workers=4, backend="process",
                         parts=4)
        assert np.array_equal(a.data, b.data)

    def test_process_backend_worker_count_bitwise_identical(self):
        g = self._grid(seed=9)
        a = run_parallel(self.SPEC, g, 2, workers=1, backend="process")
        b = run_parallel(self.SPEC, g, 2, workers=4, backend="process",
                         parts=4)
        assert np.array_equal(a.data, b.data)

    def test_process_backend_matches_reference(self):
        spec = library.get("box-2d9p")
        g = Grid.random((32, 32), 1, seed=10)
        got = run_parallel(spec, g, 2, workers=3, backend="process",
                           parts=3)
        ref = apply_steps(spec, g, 2)
        assert np.allclose(got.interior, ref.interior, rtol=1e-12)

    def test_process_backend_input_untouched(self):
        g = self._grid(seed=11)
        before = g.data.copy()
        run_parallel(self.SPEC, g, 2, workers=2, backend="process")
        assert np.array_equal(g.data, before)

    def test_unknown_backend_rejected(self):
        with pytest.raises(TilingError):
            run_parallel(self.SPEC, self._grid(), 1, backend="mpi")

    def test_3d_process_backend(self):
        spec = library.get("heat-3d")
        g = Grid.random((12, 12, 12), 1, seed=12)
        a = run_parallel(spec, g, 2, workers=4, backend="thread",
                         parts=3)
        b = run_parallel(spec, g, 2, workers=4, backend="process",
                         parts=3)
        assert np.array_equal(a.data, b.data)


POOL_SPEC = library.get("heat-2d")
POOL_GRID = Grid.random((12, 16), 1, seed=21)


def _pool_parts() -> Grid:
    """3 parts x 2 steps = 6 process-pool tasks at temporal block 1."""
    return run_parallel(POOL_SPEC, POOL_GRID, 2, workers=2, parts=3,
                        backend="process")


def _pool_shards() -> Grid:
    """2 shards x 2 supersteps = 4 process-pool tasks at temporal
    block 2."""
    return run_sharded(POOL_SPEC, POOL_GRID, 4, shards=2, temporal_block=2,
                       executor="process")


#: each pool entry point -> (run, task count)
POOL_CALLERS = {"parallel": (_pool_parts, 6), "shard": (_pool_shards, 4)}
EVERY_TASK = [(caller, k) for caller, (_, n) in POOL_CALLERS.items()
              for k in range(n)]


class TestSupervisedPool:
    """Both entry points recover a fault at every task index of a small
    process-backend run: a killed worker costs exactly one pool restart,
    a raising task exactly one in-parent recompute, and neither changes
    a bit of the result."""

    @pytest.fixture(scope="class")
    def clean(self):
        return {caller: run().interior.copy()
                for caller, (run, _) in POOL_CALLERS.items()}

    @staticmethod
    def _faulted(caller, kind, k):
        rule = FaultRule("pool.task_start", kind=kind, after=k, times=1)
        was = obs.enabled()
        obs.enable(reset=True)
        try:
            with inject(FaultPlan(rules=(rule,), seed=0)) as inj:
                out = POOL_CALLERS[caller][0]()
            counters = obs.snapshot()["metrics"]["counters"]
        finally:
            if not was:
                obs.disable()
            obs.reset()
        assert inj.injected_by_site() == {"pool.task_start": 1}
        return out, counters

    @pytest.mark.parametrize("caller,k", EVERY_TASK)
    def test_kill_at_every_task_index(self, clean, caller, k):
        out, counters = self._faulted(caller, "kill", k)
        assert np.array_equal(out.interior, clean[caller])
        assert counters.get("parallel.pool_restarts") == 1
        assert counters.get("parallel.fallback.reason.worker_lost") == 1
        # the lost tasks went to the restarted pool, not to the parent
        assert "parallel.task_retries" not in counters

    @pytest.mark.parametrize("caller,k", EVERY_TASK)
    def test_raise_at_every_task_index(self, clean, caller, k):
        out, counters = self._faulted(caller, "raise", k)
        assert np.array_equal(out.interior, clean[caller])
        assert counters.get("parallel.task_retries") == 1
        assert "parallel.pool_restarts" not in counters
        assert "parallel.fallback.reason.worker_lost" not in counters
