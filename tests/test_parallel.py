"""Tests for topology, the multicore model, and the real executor."""

import multiprocessing

import numpy as np
import pytest

from repro import obs
from repro.config import AMD_EPYC_7V13, GENERIC_AVX2, INTEL_XEON_6230R
from repro.errors import ModelError, TilingError
from repro.faults import FaultPlan, FaultRule, inject
from repro.parallel import executor
from repro.parallel.executor import (MIN_TILE_POINTS, default_tile,
                                     pool_context, run_parallel)
from repro.parallel.simulator import MulticoreModel, ParallelSetup
from repro.parallel.topology import (allocate_cores, partition_axis,
                                     shard_neighbors)
from repro.schemes import model_cost
from repro.shard import run_sharded
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid
from repro.stencils.library import table3_config
from repro.tiling.schedule import build_schedule


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
        assert shard_neighbors(0, 1) == (0, 0)  # its own ring neighbor
        assert shard_neighbors(0, 1, periodic=False) == (None, None)

    def test_one_row_per_shard(self):
        slabs = partition_axis(3, 3)
        assert [s.rows for s in slabs] == [1, 1, 1]

    def test_partition_validation(self):
        with pytest.raises(TilingError):
            partition_axis(8, 0)
        with pytest.raises(TilingError):
            partition_axis(3, 4)  # more shards than rows

    def test_ring_neighbors(self):
        assert shard_neighbors(0, 4) == (3, 1)
        assert shard_neighbors(2, 4) == (1, 3)
        assert shard_neighbors(3, 4) == (2, 0)

    def test_chain_neighbors(self):
        assert shard_neighbors(0, 4, periodic=False) == (None, 1)
        assert shard_neighbors(2, 4, periodic=False) == (1, 3)
        assert shard_neighbors(3, 4, periodic=False) == (2, None)

    def test_neighbor_validation(self):
        with pytest.raises(TilingError):
            shard_neighbors(4, 4)
        with pytest.raises(TilingError):
            shard_neighbors(-1, 4)
        with pytest.raises(TilingError):
            shard_neighbors(0, 0)


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
        got = run_parallel(spec, g, 3, workers=4,
                           tile_shape=(8,) * spec.ndim)
        ref = apply_steps(spec, g, 3)
        assert np.allclose(got.interior, ref.interior, rtol=1e-12, atol=1e-14)

    def test_dirichlet(self):
        spec = library.get("heat-2d")
        g = Grid.random((16, 16), 1, seed=2)
        got = run_parallel(spec, g, 2, workers=2, tile_shape=(8, 8),
                           boundary="dirichlet", value=0.5)
        ref = apply_steps(spec, g, 2, boundary="dirichlet", value=0.5)
        assert np.allclose(got.interior, ref.interior, rtol=1e-12)

    def test_default_tiling_splits_outer_axis(self):
        spec = library.get("heat-2d")
        g = Grid.random((16, 16), 1, seed=3)
        got = run_parallel(spec, g, 2, workers=4)
        ref = apply_steps(spec, g, 2)
        assert np.allclose(got.interior, ref.interior, rtol=1e-12)

    def test_custom_schedule(self):
        spec = library.get("heat-2d")
        g = Grid.random((16, 16), 1, seed=4)
        sched = build_schedule((16, 16), (8, 8), time_depth=2)
        got = run_parallel(spec, g, 2, workers=2, schedule=sched)
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


class TestDefaultTiling:
    """The default tile count follows grid points: a small grid is one
    tile, swept inline without a pool, and a large one still splits
    across the workers."""

    SPEC = library.get("heat-2d")

    @pytest.fixture()
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-tile run built a thread pool")

        monkeypatch.setattr(executor, "ThreadPoolExecutor", refuse)

    def test_tile_count_follows_grid_points(self):
        assert default_tile((32, 32), 4) == (32, 32)
        assert default_tile((1024, 1024), 2) == (512, 1024)
        assert default_tile((2 * MIN_TILE_POINTS,), 8) == (MIN_TILE_POINTS,)
        assert default_tile((3,), 4) == (3,)

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
    """run_parallel must be bitwise deterministic: tiles are independent
    and land in disjoint output slices, so worker count and backend can
    never change a single bit of the result."""

    SPEC = library.get("heat-2d")

    def _grid(self, seed=7):
        return Grid.random((48, 48), 1, seed=seed)

    def test_worker_count_bitwise_identical(self):
        g = self._grid()
        a = run_parallel(self.SPEC, g, 3, workers=1)
        b = run_parallel(self.SPEC, g, 3, workers=8, tile_shape=(6, 48))
        assert np.array_equal(a.data, b.data)

    def test_thread_vs_process_backend_bitwise_identical(self):
        g = self._grid(seed=8)
        a = run_parallel(self.SPEC, g, 2, workers=4, backend="thread",
                         tile_shape=(12, 48))
        b = run_parallel(self.SPEC, g, 2, workers=4, backend="process",
                         tile_shape=(12, 48))
        assert np.array_equal(a.data, b.data)

    def test_process_backend_worker_count_bitwise_identical(self):
        g = self._grid(seed=9)
        a = run_parallel(self.SPEC, g, 2, workers=1, backend="process")
        b = run_parallel(self.SPEC, g, 2, workers=4, backend="process",
                         tile_shape=(12, 48))
        assert np.array_equal(a.data, b.data)

    def test_process_backend_matches_reference(self):
        spec = library.get("box-2d9p")
        g = Grid.random((32, 32), 1, seed=10)
        got = run_parallel(spec, g, 2, workers=3, backend="process",
                           tile_shape=(11, 32))
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
                         tile_shape=(4, 12, 12))
        b = run_parallel(spec, g, 2, workers=4, backend="process",
                         tile_shape=(4, 12, 12))
        assert np.array_equal(a.data, b.data)


POOL_SPEC = library.get("heat-2d")
POOL_GRID = Grid.random((12, 16), 1, seed=21)


def _pool_tiles() -> Grid:
    """3 tiles x 2 steps = 6 process-pool tasks."""
    return run_parallel(POOL_SPEC, POOL_GRID, 2, workers=2,
                        tile_shape=(4, 16), backend="process")


def _pool_shards() -> Grid:
    """2 shards x 2 supersteps = 4 process-pool tasks."""
    return run_sharded(POOL_SPEC, POOL_GRID, 4, shards=2, temporal_block=2,
                       executor="process")


#: each pool caller's counter prefix -> (run, task count)
POOL_CALLERS = {"parallel": (_pool_tiles, 6), "shard": (_pool_shards, 4)}
EVERY_TASK = [(prefix, k) for prefix, (_, n) in POOL_CALLERS.items()
              for k in range(n)]


class TestSupervisedPool:
    """Both pool callers recover a fault at every task index of a small
    process-backend run: a killed worker costs exactly one pool restart,
    a raising task exactly one in-parent recompute, and neither changes
    a bit of the result."""

    @pytest.fixture(scope="class")
    def clean(self):
        return {prefix: run().interior.copy()
                for prefix, (run, _) in POOL_CALLERS.items()}

    @staticmethod
    def _faulted(prefix, kind, k):
        rule = FaultRule("pool.task_start", kind=kind, after=k, times=1)
        was = obs.enabled()
        obs.enable(reset=True)
        try:
            with inject(FaultPlan(rules=(rule,), seed=0)) as inj:
                out = POOL_CALLERS[prefix][0]()
            counters = obs.snapshot()["metrics"]["counters"]
        finally:
            if not was:
                obs.disable()
            obs.reset()
        assert inj.injected_by_site() == {"pool.task_start": 1}
        return out, counters

    @pytest.mark.parametrize("prefix,k", EVERY_TASK)
    def test_kill_at_every_task_index(self, clean, prefix, k):
        out, counters = self._faulted(prefix, "kill", k)
        assert np.array_equal(out.interior, clean[prefix])
        assert counters.get(f"{prefix}.pool_restarts") == 1
        assert counters.get("parallel.fallback.reason.worker_lost") == 1
        # the lost tasks went to the restarted pool, not to the parent
        assert f"{prefix}.task_retries" not in counters

    @pytest.mark.parametrize("prefix,k", EVERY_TASK)
    def test_raise_at_every_task_index(self, clean, prefix, k):
        out, counters = self._faulted(prefix, "raise", k)
        assert np.array_equal(out.interior, clean[prefix])
        assert counters.get(f"{prefix}.task_retries") == 1
        assert f"{prefix}.pool_restarts" not in counters
        assert "parallel.fallback.reason.worker_lost" not in counters
