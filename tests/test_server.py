"""Tests for the async serving layer (:mod:`repro.server`)."""

from __future__ import annotations

import asyncio
import collections
import json
import math
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.config import GENERIC_AVX2
from repro.errors import ReproError, VectorizeError
from repro.server import (AdmissionController, LoadConfig, LocalClient,
                          ServerOverloaded, StencilJob, StencilServer,
                          TokenBucket, reference_results, request_schedule,
                          run_load_sync)
from repro.server import admission as admission_mod
from repro.server import core as server_core
from repro.server.core import INLINE_WORK, WORK_CAP
from repro.server.net import (LINE_LIMIT, interior_checksum, request_tcp,
                              serve_tcp)
from repro.service import KernelService, SweepJob
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid

SHAPE = (16, 16)
STEPS = 2


@pytest.fixture()
def observing():
    was = obs.enabled()
    obs.enable(reset=True)
    try:
        yield
    finally:
        if not was:
            obs.disable()


def _job(kernel="heat-2d", seed=0, shape=SHAPE, steps=STEPS):
    return StencilJob(library.get(kernel), shape, steps, seed=seed)


def _expected(kernel="heat-2d", seed=0, shape=SHAPE, steps=STEPS):
    """The uncontended single-request answer every server response must
    match bitwise (the sweep engine is deterministic across backends)."""
    spec = library.get(kernel)
    grid = Grid.random(shape, spec.radius, seed=seed)
    return KernelService(GENERIC_AVX2).run(
        SweepJob(spec, grid, steps)).interior.copy()


def _serve(coro_fn, **server_kwargs):
    """Run ``await coro_fn(server)`` against a started server on a fresh
    event loop."""
    server_kwargs.setdefault("machine", GENERIC_AVX2)

    async def main():
        async with StencilServer(**server_kwargs) as server:
            return await coro_fn(server)

    return asyncio.run(main())


class TestStencilJob:
    def test_validates_shape_rank(self):
        with pytest.raises(ReproError):
            StencilJob(library.get("heat-2d"), (16,), 1, seed=0)

    def test_validates_extents_and_steps(self):
        spec = library.get("heat-2d")
        with pytest.raises(ReproError):
            StencilJob(spec, (16, 0), 1, seed=0)
        with pytest.raises(ReproError):
            StencilJob(spec, (16, 16), -1, seed=0)

    def test_requires_exactly_one_input_source(self):
        spec = library.get("heat-2d")
        grid = Grid.random((16, 16), spec.radius, seed=0)
        with pytest.raises(ReproError):
            StencilJob(spec, (16, 16), 1)  # neither seed nor grid
        with pytest.raises(ReproError):
            StencilJob(spec, (16, 16), 1, seed=0, grid=grid)
        with pytest.raises(ReproError, match="grid shape"):
            StencilJob(spec, (8, 8), 1, grid=grid)  # the cap reads shape

    def test_rejects_grid_halo_below_radius(self):
        spec = library.get("heat-2d")
        for halo in (0, (1, 0), (0, 1)):
            with pytest.raises(ReproError, match="halo"):
                StencilJob(spec, (32, 32), 1,
                           grid=Grid.random((32, 32), halo, seed=1))
        StencilJob(spec, (32, 32), 1,
                   grid=Grid.random((32, 32), spec.radius, seed=1))

    def test_rejects_non_floating_grid_dtype(self):
        spec = library.get("heat-2d")
        for dtype in (np.int64, np.bool_):
            with pytest.raises(ReproError, match="not floating point"):
                StencilJob(spec, (32, 32), 2,
                           grid=Grid((32, 32), 1, dtype=dtype))
        StencilJob(spec, (32, 32), 2,
                   grid=Grid((32, 32), 1, dtype=np.float32))

    def test_work_cap_bounds_points_times_steps(self):
        spec = library.get("heat-2d")
        full = WORK_CAP // 1024 ** 2
        StencilJob(spec, (1024, 1024), full, seed=0)
        StencilJob(spec, (1024, 1024), 0, seed=0)  # one grid's worth
        for shape, steps in (((1024, 1024), full + 1),
                             ((3_000_000, 3_000_000), 1), ((32, 32), 10 ** 9)):
            with pytest.raises(ReproError, match="point-steps"):
                StencilJob(spec, shape, steps, seed=0)

    @pytest.mark.parametrize("kwargs,match", [
        ({"boundary": "nope"}, "boundary"), ({"boundary": None}, "boundary"),
        ({"value": float("nan")}, "value"), ({"value": float("inf")}, "value"),
        ({"value": -float("inf")}, "value"), ({"value": "1.0"}, "value")])
    def test_rejects_unknown_boundary_and_non_finite_value(self, kwargs,
                                                           match):
        with pytest.raises(ReproError, match=match):
            StencilJob(library.get("heat-2d"), (32, 32), 2, seed=0, **kwargs)

    def test_batch_key_coalesces_across_seeds_not_shapes(self):
        a = _job(seed=0)
        b = _job(seed=1)
        c = _job(seed=0, shape=(16, 32))
        assert a.batch_key() == b.batch_key()
        assert a.batch_key() != c.batch_key()

    def test_materialize_is_deterministic(self):
        a, b = _job(seed=3), _job(seed=3)
        assert np.array_equal(a.materialize().data, b.materialize().data)


class TestServerValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"max_batch": 2.0},
        {"batch_window_s": -0.1},
        {"executor_workers": 0},
        {"batch_window_s": float("nan")},
        {"max_queue_depth": 0},
        {"quota_rate": 0.0},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ReproError):
            StencilServer(machine=GENERIC_AVX2, **kwargs)

    def test_rejects_service_plus_construction_keywords(self):
        svc = KernelService(GENERIC_AVX2)
        with pytest.raises(ReproError):
            StencilServer(svc, machine=GENERIC_AVX2)
        with pytest.raises(ReproError):
            StencilServer(svc, run_workers=2)

    def test_submit_requires_running_server(self):
        server = StencilServer(machine=GENERIC_AVX2)
        with pytest.raises(ServerOverloaded) as err:
            asyncio.run(server.submit(_job()))
        assert err.value.reason == "closed"


class TestServing:
    def test_single_request_is_bitwise_correct(self):
        async def go(server):
            return await server.submit(_job(seed=5))

        res = _serve(go)
        assert np.array_equal(res.grid.interior, _expected(seed=5))
        assert res.batch_size == 1 and res.latency_s > 0
        assert res.deadline_met

    def test_concurrent_same_key_requests_share_one_batch(self):
        async def go(server):
            return await asyncio.gather(
                *(server.submit(_job(seed=s % 3)) for s in range(6)))

        results = _serve(go, batch_window_s=0.05, max_batch=16)
        assert all(r.batch_size == 6 for r in results)
        for s, r in enumerate(results):
            assert np.array_equal(r.grid.interior, _expected(seed=s % 3))

    def test_full_batch_flushes_before_window(self):
        async def go(server):
            return await asyncio.gather(
                *(server.submit(_job(seed=0)) for _ in range(4)))

        # a 10 s window would time the test out if filling didn't flush
        results = _serve(go, batch_window_s=10.0, max_batch=2)
        assert {r.batch_size for r in results} == {2}

    def test_per_tenant_metrics_and_latency_histograms(self, observing):
        async def go(server):
            await asyncio.gather(
                server.submit(_job(seed=0), tenant="acme"),
                server.submit(_job(seed=1), tenant="acme"),
                server.submit(_job(seed=2), tenant="zeta"))

        _serve(go)
        metrics = obs.snapshot()["metrics"]
        counters = metrics["counters"]
        assert counters["server.requests"] == 3
        assert counters["server.requests.tenant.acme"] == 2
        assert counters["server.requests.tenant.zeta"] == 1
        assert counters["server.completed"] == 3
        assert counters["server.admission.accepted"] == 3
        hists = metrics["histograms"]
        assert hists["server.latency_ms.tenant.acme"]["count"] == 2
        assert hists["server.latency_ms.tenant.zeta"]["count"] == 1
        assert metrics["gauges"]["server.queue_depth"] == 0

    def test_high_occupancy_is_bitwise_identical(self, monkeypatch):
        async def go(server):
            return await asyncio.gather(
                *(server.submit(_job(seed=s)) for s in range(3)))

        # a shed rung so low every flush runs under overload
        monkeypatch.setattr(server_core, "SHED_OCCUPANCY", 0.01)
        results = _serve(go, max_queue_depth=64)
        for s, r in enumerate(results):
            assert np.array_equal(r.grid.interior, _expected(seed=s))

    def test_a_failing_job_fails_alone(self, monkeypatch):
        """A batch member whose sweep raises a deterministic error fails
        only its own future after one attempt; the others run once and
        equal apply_steps bitwise."""
        _fail_one_job(monkeypatch, ReproError, attempts=lambda svc: 1)

    def test_a_faulted_job_walks_its_ladder_and_fails_alone(
            self, monkeypatch):
        """A sweep that keeps raising an injected fault is retried, then
        walks the run ladder (1 + retries + serial), and still fails only
        its own future."""
        _fail_one_job(monkeypatch, faults.FaultInjected,
                      attempts=lambda svc: 1 + svc.retries + 1)

    def test_overload_ladder_sheds_batch_size(self):
        server = StencilServer(machine=GENERIC_AVX2, max_queue_depth=10,
                               max_batch=8)
        assert server._effective_max_batch() == 8
        server._inflight = 5  # occupancy 0.5: rung 1
        assert server._effective_max_batch() == 2


def _fail_one_job(monkeypatch, error, attempts):
    """Serve four same-key jobs in one batch, the third of whose sweeps
    always raises ``error``: assert one ``run_many`` pass, the failing
    job's attempt count (``attempts(service)``), and bitwise results
    for the rest."""
    import repro.service as service_mod
    spec = library.get("heat-2d")
    bad = Grid.random((32, 32), spec.radius, seed=9)
    real_sweep = service_mod.run_parallel
    real_once = KernelService._run_once
    real_many = KernelService.run_many
    runs, batches = [], []

    def run_parallel(spec, grid, steps, **kwargs):
        if grid is bad:
            raise error("this job's sweep fails")
        return real_sweep(spec, grid, steps, **kwargs)

    def run_once(self, job, **kwargs):
        runs.append(job.grid)
        return real_once(self, job, **kwargs)

    def run_many(self, jobs):
        batches.append(len(jobs))
        return real_many(self, jobs)

    monkeypatch.setattr(service_mod, "run_parallel", run_parallel)
    monkeypatch.setattr(KernelService, "_run_once", run_once)
    monkeypatch.setattr(KernelService, "run_many", run_many)
    jobs = [StencilJob(spec, (32, 32), STEPS, seed=s) for s in range(3)]
    jobs.insert(2, StencilJob(spec, (32, 32), STEPS, grid=bad))
    expected = []

    async def go(server):
        expected.append(attempts(server.service))
        return await asyncio.gather(
            *(server.submit(job) for job in jobs), return_exceptions=True)

    results = _serve(go, batch_window_s=0.05, max_batch=16)
    assert batches == [4]
    assert isinstance(results[2], error)
    assert sum(g is bad for g in runs) == expected[0]
    assert len(runs) == expected[0] + 3
    for job, res in zip(jobs[:2] + jobs[3:], results[:2] + results[3:]):
        assert res.batch_size == 4
        want = apply_steps(spec, job.materialize(), STEPS)
        assert np.array_equal(res.grid.interior, want.interior)


def _record_threads(monkeypatch, method="run_many"):
    """Wrap a :class:`KernelService` batch method to record the name of
    the thread each batch called it on."""
    threads = []
    wrapped = getattr(KernelService, method)

    def recording(self, *args, **kwargs):
        threads.append(threading.current_thread().name)
        return wrapped(self, *args, **kwargs)

    monkeypatch.setattr(KernelService, method, recording)
    return threads


#: one 2-step job inside the inline bound, and one above it
SMALL = (16, 16)
LARGE = (64, 64)


class TestDispatch:
    """The timer flush and the inline / pooled split."""

    def test_bounds_straddle_the_test_shapes(self):
        assert _job(shape=SMALL).work <= INLINE_WORK < _job(shape=LARGE).work

    def test_idle_server_runs_no_flush_callback(self, monkeypatch):
        calls = []
        flush = StencilServer._flush
        monkeypatch.setattr(StencilServer, "_flush",
                            lambda self: calls.append(1) or flush(self))

        async def go(server):
            await asyncio.sleep(0.05)
            idle = len(calls)
            await server.submit(_job())
            served = len(calls)
            await asyncio.sleep(0.05)
            return idle, served, len(calls)

        idle, served, after = _serve(go, batch_window_s=0.001)
        assert idle == 0
        assert served == after == 1  # one wakeup for the batch, then none

    def test_proven_chunk_in_bound_runs_inline_others_pooled(
            self, monkeypatch):
        threads = _record_threads(monkeypatch)

        async def go(server):
            out = []
            for shape in (SMALL, SMALL, LARGE, LARGE):
                out.append(await server.submit(_job(shape=shape)))
            return threading.current_thread().name, out

        loop_thread, results = _serve(go)
        # a key's first chunk takes the pool; once it ran clean, a chunk
        # inside the bound runs on the loop thread and one above never does
        assert threads[0].startswith("repro-serve")
        assert threads[1] == loop_thread
        assert all(t.startswith("repro-serve") for t in threads[2:])
        for shape, r in zip((SMALL, SMALL, LARGE, LARGE), results):
            assert np.array_equal(r.grid.interior, _expected(shape=shape))

    def test_chunk_in_bound_takes_the_pool_under_a_fault_plan(
            self, monkeypatch):
        threads = _record_threads(monkeypatch)

        async def go(server):
            await server.submit(_job())
            with faults.inject(faults.FaultPlan()):
                result = await server.submit(_job(seed=1))
            return threading.current_thread().name, result

        loop_thread, result = _serve(go)
        assert len(threads) == 2 and loop_thread not in threads
        assert np.array_equal(result.grid.interior, _expected(seed=1))

    @pytest.mark.parametrize("service_kwargs", [{"run_backend": "process"}])
    def test_blocking_service_never_runs_inline(self, monkeypatch,
                                                service_kwargs):
        threads = _record_threads(monkeypatch)

        async def go(server):
            for seed in range(3):
                await server.submit(_job(seed=seed))
            return threading.current_thread().name

        loop_thread = _serve(go, **service_kwargs)
        assert len(threads) == 3 and loop_thread not in threads

    def test_failing_key_is_never_retried_on_the_loop(self, monkeypatch):
        # an x extent under one vector block fails inside the batch; a
        # key that never ran clean never runs inline
        threads = _record_threads(monkeypatch, "compile_many")
        bad = _job(shape=(16, 4))

        async def go(server):
            for _ in range(2):
                with pytest.raises(ReproError):
                    await server.submit(bad)
            return threading.current_thread().name

        loop_thread = _serve(go)
        assert len(threads) == 2 and loop_thread not in threads

    def test_batch_spans_are_roots_on_both_paths(self, observing,
                                                 monkeypatch):
        threads = _record_threads(monkeypatch)

        async def go(server):
            for seed in range(2):
                with obs.span("client.request"):
                    await server.submit(_job(seed=seed))
            return threading.current_thread().name

        loop_thread = _serve(go)
        assert threads[0] != loop_thread and threads[1] == loop_thread
        roots = obs.tracer().roots()
        assert [r.name for r in roots].count("server.batch") == 2
        for r in roots:
            if r.name == "client.request":
                assert not r.children

#: a 5x5 heat-2d request: a valid envelope whose x extent is under one
#: scheme block, so the engine refuses it (deterministically) in bind
REFUSED = (5, 5)


class TestRefusedGeometry:
    """A deterministic engine error is answered after one attempt: no
    retry, no ladder, no backoff sleep."""

    def test_answered_with_its_vectorize_error_at_once(self, observing):
        async def go(server):
            t0 = time.perf_counter()
            with pytest.raises(VectorizeError):
                await server.submit(_job(shape=REFUSED))
            return time.perf_counter() - t0

        assert _serve(go) < 0.05
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["service.failures"] == 1
        assert "service.fallback" not in counters

    def test_answered_at_once_over_tcp(self, observing):
        line = json.dumps({"id": 1, "kernel": "heat-2d",
                           "shape": list(REFUSED), "steps": STEPS,
                           "seed": 0}).encode()

        async def main():
            async with StencilServer(machine=GENERIC_AVX2) as server:
                tcp = await serve_tcp(server, port=0)
                try:
                    t0 = time.perf_counter()
                    responses = await asyncio.wait_for(_raw_exchange(
                        tcp.sockets[0].getsockname()[1], [line]), 30)
                    return responses, time.perf_counter() - t0
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        (resp,), elapsed = asyncio.run(main())
        assert elapsed < 0.05
        assert resp["id"] == 1 and not resp["ok"]
        assert "block" in resp["error"], resp
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["service.failures"] == 1
        assert "service.fallback" not in counters


class TestTokenBucket:
    def test_exhaustion_and_refill(self):
        t = [0.0]
        bucket = TokenBucket(2.0, 3.0, clock=lambda: t[0])
        assert [bucket.try_take() for _ in range(4)] == [
            True, True, True, False]
        t[0] = 1.0  # 2 tokens/s refill
        assert bucket.available() == pytest.approx(2.0)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()

    def test_burst_caps_refill(self):
        t = [0.0]
        bucket = TokenBucket(5.0, 2.0, clock=lambda: t[0])
        t[0] = 100.0
        assert bucket.available() == pytest.approx(2.0)

    def test_unlimited_rate(self):
        bucket = TokenBucket(math.inf, 1.0)
        assert all(bucket.try_take() for _ in range(100))

    def test_validation(self):
        with pytest.raises(ReproError):
            TokenBucket(0.0, 1.0)
        with pytest.raises(ReproError):
            TokenBucket(1.0, 0.5)


class TestAdmission:
    def test_check_order_deadline_queue_quota(self):
        t = [0.0]
        adm = AdmissionController(max_queue_depth=2, quota_rate=1.0,
                                  quota_burst=1.0, clock=lambda: t[0])
        # an expired deadline is rejected before any token is consumed
        assert adm.check("a", 0, 0.0) == "deadline"
        assert adm.check("a", 0, -1.0) == "deadline"
        assert adm.bucket("a").tokens == 1.0
        # a full queue is rejected before any token is consumed
        assert adm.check("a", 2, None) == "queue"
        assert adm.bucket("a").tokens == 1.0
        # only an actual admission pays a token
        assert adm.check("a", 0, None) is None
        assert adm.check("a", 0, None) == "quota"
        t[0] = 1.0  # refill restores admission
        assert adm.check("a", 0, None) is None

    def test_quota_is_per_tenant(self):
        adm = AdmissionController(max_queue_depth=10, quota_rate=1e-6,
                                  quota_burst=1.0)
        assert adm.check("a", 0, None) is None
        assert adm.check("a", 0, None) == "quota"
        assert adm.check("b", 0, None) is None  # b has its own bucket
        assert adm.tenants() == ("a", "b")

    def test_unlimited_quota_keeps_no_buckets(self):
        adm = AdmissionController(max_queue_depth=10,
                                  quota_rate=float("inf"))
        for i in range(100):
            assert adm.check(f"t{i}", 0, None) is None
        assert adm.tenants() == ()

    def test_bucket_table_stays_bounded(self, observing):
        # 10^4 distinct tenants, one request each, 10 ms apart: a bucket
        # refills in 1 s, so at most ~100 are ever short of the burst
        t = [0.0]
        adm = AdmissionController(max_queue_depth=10, quota_rate=1.0,
                                  quota_burst=1.0, clock=lambda: t[0])
        peak = 0
        for i in range(10_000):
            t[0] = i * 0.01
            assert adm.check(f"t{i}", 0, None) is None
            peak = max(peak, len(adm.tenants()))
        assert peak <= admission_mod.TENANT_BUCKETS
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["server.admission.buckets_dropped"] >= (
            10_000 - admission_mod.TENANT_BUCKETS)

    def test_just_charged_tenant_survives_a_sweep(self, monkeypatch):
        monkeypatch.setattr(admission_mod, "TENANT_BUCKETS", 8)
        t = [0.0]
        adm = AdmissionController(max_queue_depth=10, quota_rate=1.0,
                                  quota_burst=1.0, clock=lambda: t[0])
        assert adm.check("hot", 0, None) is None
        for i in range(8):
            adm.check(f"idle{i}", 0, None)
        t[0] = 2.0  # every bucket so far has refilled
        assert adm.check("hot", 0, None) is None  # charged again
        t[0] = 2.5  # ... and still short of its burst
        for i in range(20):
            assert adm.check(f"new{i}", 0, None) is None  # sweeps run
        assert "idle0" not in adm.tenants()
        assert adm.check("hot", 0, None) == "quota"

    def test_validation(self):
        with pytest.raises(ReproError):
            AdmissionController(max_queue_depth=0, quota_rate=1.0)
        with pytest.raises(ReproError):
            AdmissionController(max_queue_depth=1, quota_rate=-1.0)
        with pytest.raises(ReproError):
            AdmissionController(max_queue_depth=1, quota_rate=1.0,
                                quota_burst=0.0)


class TestAdmissionEdgeCases:
    """The server-level admission contract (satellite: edge cases)."""

    def test_expired_deadline_rejected_at_enqueue(self, observing):
        async def go(server):
            with pytest.raises(ServerOverloaded) as err:
                await server.submit(_job(), tenant="late", deadline_s=0.0)
            return err.value

        exc = _serve(go)
        assert exc.reason == "deadline" and exc.tenant == "late"
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["server.admission.rejected"] == 1
        assert counters["server.admission.rejected.reason.deadline"] == 1
        assert counters["server.admission.rejected.tenant.late"] == 1
        assert "server.admission.accepted" not in counters

    def test_nan_deadline_is_an_error_not_a_rejection(self):
        async def go(server):
            with pytest.raises(ReproError):
                await server.submit(_job(), deadline_s=float("nan"))

        _serve(go)

    def test_queue_full_rejections_match_counters(self, observing):
        async def go(server):
            return await asyncio.gather(
                *(server.submit(_job(seed=s)) for s in range(6)),
                return_exceptions=True)

        # all six admission checks run before any batch completes, so
        # exactly depth-many are admitted and the rest bounce
        outcomes = _serve(go, max_queue_depth=2, batch_window_s=0.01)
        rejected = [o for o in outcomes if isinstance(o, ServerOverloaded)]
        completed = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(rejected) == 4 and len(completed) == 2
        assert all(o.reason == "queue" for o in rejected)
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["server.admission.rejected"] == 4
        assert counters["server.admission.rejected.reason.queue"] == 4
        assert counters["server.admission.accepted"] == 2
        assert counters["server.completed"] == 2

    def test_quota_exhaustion_and_refill(self):
        async def go(server):
            outcomes = []
            for _ in range(4):
                try:
                    outcomes.append(await server.submit(_job(),
                                                        tenant="metered"))
                except ServerOverloaded as exc:
                    outcomes.append(exc)
            # manual refill (the rate is ~0): admission recovers
            server.admission.bucket("metered").tokens = 1.0
            outcomes.append(await server.submit(_job(), tenant="metered"))
            return outcomes

        outcomes = _serve(go, quota_rate=1e-9, quota_burst=2.0)
        kinds = ["ok" if not isinstance(o, Exception) else o.reason
                 for o in outcomes]
        assert kinds == ["ok", "ok", "quota", "quota", "ok"]

    def test_flush_order_follows_deadlines_not_arrival(self):
        async def go(server):
            lazy = server.submit(_job("heat-2d"), deadline_s=0.8)
            urgent = server.submit(_job("box-2d9p"), deadline_s=0.3)
            await asyncio.gather(lazy, urgent)
            return list(server.flush_log)

        # the window alone would flush heat-2d (opened first) first; the
        # deadline-ordering contract dispatches the urgent batch first
        log = _serve(go, batch_window_s=5.0)
        assert log == [_job("box-2d9p").batch_key(),
                       _job("heat-2d").batch_key()]

    def test_stop_drains_open_batches(self):
        async def go(server):
            # window far beyond the test: only stop() can flush this
            task = asyncio.ensure_future(server.submit(_job(seed=9)))
            await asyncio.sleep(0.01)
            return task

        async def main():
            server = StencilServer(machine=GENERIC_AVX2,
                                   batch_window_s=60.0)
            await server.start()
            task = await go(server)
            assert not task.done()
            t0 = time.monotonic()
            await server.stop()  # dispatches at once, not at the window
            return await task, time.monotonic() - t0

        res, stop_s = asyncio.run(main())
        assert stop_s < 30.0
        assert np.array_equal(res.grid.interior, _expected(seed=9))


class TestLocalClient:
    def test_blocking_submit(self):
        with LocalClient(machine=GENERIC_AVX2) as client:
            res = client.submit(_job(seed=2), tenant="sync")
        assert np.array_equal(res.grid.interior, _expected(seed=2))
        assert res.tenant == "sync"

    def test_submit_all_collects_results_and_rejections(self):
        jobs = [
            _job(seed=0),
            (_job(seed=1), "acme"),
            (_job(seed=0), "late", 0.0),  # expired: collected, not raised
        ]
        with LocalClient(machine=GENERIC_AVX2) as client:
            out = client.submit_all(jobs)
        assert np.array_equal(out[0].grid.interior, _expected(seed=0))
        assert np.array_equal(out[1].grid.interior, _expected(seed=1))
        assert isinstance(out[2], ServerOverloaded)
        assert out[2].reason == "deadline"

    def test_rejects_server_plus_keywords(self):
        with pytest.raises(ReproError):
            LocalClient(StencilServer(machine=GENERIC_AVX2), run_workers=2)


class TestLoadGenerator:
    def test_schedule_is_deterministic_and_mixed(self):
        cfg = LoadConfig(requests=8, tenants=2, kernels=("heat-2d",),
                         shape=SHAPE, steps=STEPS, seeds=2)
        a, b = request_schedule(cfg), request_schedule(cfg)
        assert [x[0] for x in a] == [x[0] for x in b]
        assert {tenant for _, _, tenant in a} == {"t0", "t1"}
        assert {job.seed for _, job, _ in a} == {0, 1}

    def test_run_load_sync_verifies_bitwise(self):
        cfg = LoadConfig(requests=12, tenants=3, kernels=("heat-2d",),
                         shape=SHAPE, steps=STEPS, seeds=2)
        report = run_load_sync(cfg, references=reference_results(cfg),
                               machine=GENERIC_AVX2, max_batch=4,
                               batch_window_s=0.002)
        assert report.completed == 12 and report.ok
        assert report.bitwise_ok and report.goodput_rps > 0
        assert report.p99_ms >= report.p50_ms

    def test_config_validation(self):
        with pytest.raises(ReproError):
            LoadConfig(requests=0)
        with pytest.raises(ReproError):
            LoadConfig(kernels=())


class TestPercentile:
    """Nearest-rank percentile edge cases — including the binary
    float-rounding regression (``ceil(28 / 100 * 25)`` is 8, not 7)."""

    def test_single_sample_is_every_percentile(self):
        from repro.server.loadgen import percentile
        for pct in (0.0, 50.0, 99.0, 100.0):
            assert percentile([7.0], pct) == 7.0

    def test_empty_is_nan(self):
        from repro.server.loadgen import percentile
        assert math.isnan(percentile([], 99.0))

    def test_p28_of_25_regression(self):
        # 0.28 * 25 == 7.000000000000001 in binary; the old formula
        # ceil'd that to rank 8 — nearest-rank says the 7th smallest
        from repro.server.loadgen import percentile
        values = [float(v) for v in range(1, 26)]
        assert percentile(values, 28.0) == 7.0

    def test_matches_exact_nearest_rank(self):
        from fractions import Fraction

        from repro.server.loadgen import percentile
        values = [float(v) for v in range(1, 101)]
        for tenth in range(1, 1001):
            pct = tenth / 10.0
            exact = max(1, math.ceil(Fraction(tenth, 10) * 100 / 100))
            assert percentile(values, pct) == float(exact), pct

    def test_extremes_and_unsorted_input(self):
        from repro.server.loadgen import percentile
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 3.0
        assert percentile(values, 50.0) == 2.0

    def test_out_of_range_pct_raises(self):
        from repro.server.loadgen import percentile
        for pct in (-0.1, 100.1, float("nan")):
            with pytest.raises(ReproError):
                percentile([1.0], pct)


async def _raw_exchange(port, lines):
    """Write raw request ``lines`` (bytes, newline added) on one
    connection, close its write side, and return every response line
    the server sends before it closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for line in lines:
            writer.write(line + b"\n")
        writer.write_eof()
        out = []
        while True:
            raw = await reader.readline()
            if not raw:
                return out
            out.append(json.loads(raw))
    finally:
        writer.close()
        await writer.wait_closed()


def _over_tcp(lines, **server_kwargs):
    """Serve ``lines`` through :func:`_raw_exchange` on a fresh server."""
    server_kwargs.setdefault("machine", GENERIC_AVX2)

    async def main():
        async with StencilServer(**server_kwargs) as server:
            tcp = await serve_tcp(server, port=0)
            try:
                return await asyncio.wait_for(_raw_exchange(
                    tcp.sockets[0].getsockname()[1], lines), 30)
            finally:
                tcp.close()
                await tcp.wait_closed()

    return asyncio.run(main())


def _wire_job(rid, seed=0, **extra):
    return json.dumps({"id": rid, "kernel": "heat-2d", "shape": list(SHAPE),
                       "steps": STEPS, "seed": seed, **extra}).encode()


class TestTcpFrontEnd:
    def test_nested_brackets_line_is_a_bad_request(self):
        # json.loads raises RecursionError, not ValueError, on this line
        responses = _over_tcp([b"[" * 5000 + b"]" * 5000, _wire_job(1)])
        assert len(responses) == 2
        bad, ok = sorted(responses, key=lambda r: r["ok"])
        assert bad["id"] is None and bad["reason"] == "bad_request"
        assert ok["id"] == 1 and ok["ok"]

    def test_overlong_line_is_answered_and_the_connection_reads_on(self):
        lines = [_wire_job(0), b'{"id": 99, "pad": "' + b"x" * LINE_LIMIT
                 + b'"}'] + [_wire_job(i, seed=i) for i in range(1, 9)]
        responses = _over_tcp(lines)
        assert len(responses) == 10
        (long,) = [r for r in responses if not r["ok"]]
        assert long["id"] is None and long["reason"] == "bad_request"
        assert str(LINE_LIMIT) in long["error"]
        ok = {r["id"]: r for r in responses if r["ok"]}
        assert sorted(ok) == list(range(9))
        for i in range(9):
            assert ok[i]["checksum"] == interior_checksum(
                _expected(seed=0 if i == 0 else i))

    def test_non_utf8_line_is_a_bad_request(self):
        responses = _over_tcp([b'{"id": 1, "tenant": "\xff"}', _wire_job(2)])
        assert sorted((r["id"] is None, r["ok"]) for r in responses) == [
            (False, True), (True, False)]

    @pytest.mark.parametrize("extra", [
        {"boundary": "nope"}, {"boundary": ["periodic"]},
        {"value": "NaN-marker"}, {"value": True}])
    def test_bad_boundary_or_value_is_refused_before_queueing(
            self, monkeypatch, extra):
        # a 60 s window: anything enqueued would wait for stop(); the
        # refusal comes back at once and its neighbour still runs
        enqueued = []
        enqueue = StencilServer._enqueue
        monkeypatch.setattr(StencilServer, "_enqueue",
                            lambda self, p: enqueued.append(p.job)
                            or enqueue(self, p))
        line = _wire_job(1, **extra)
        if extra.get("value") == "NaN-marker":
            line = line.replace(b'"NaN-marker"', b"NaN")
        t0 = time.monotonic()
        responses = _over_tcp([line], batch_window_s=60.0)
        assert time.monotonic() - t0 < 30.0
        (bad,) = responses
        assert bad["id"] == 1 and bad["reason"] == "bad_request", bad
        assert enqueued == []

    def test_pipelined_requests_checksums_and_bad_request(self):
        async def main():
            async with StencilServer(machine=GENERIC_AVX2) as server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                responses = await request_tcp("127.0.0.1", port, [
                    {"kernel": "heat-2d", "shape": list(SHAPE),
                     "steps": STEPS, "seed": 0},
                    {"kernel": "heat-2d", "shape": list(SHAPE),
                     "steps": STEPS, "seed": 1, "tenant": "acme"},
                    {"kernel": "no-such-kernel", "shape": [8, 8],
                     "steps": 1, "seed": 0},
                    {"kernel": "heat-2d", "shape": [8],  # rank mismatch
                     "steps": 1, "seed": 0},
                ])
                tcp.close()
                await tcp.wait_closed()
                return responses

        ok0, ok1, bad_kernel, bad_shape = asyncio.run(main())
        assert ok0["ok"] and ok1["ok"]
        assert ok0["checksum"] == interior_checksum(_expected(seed=0))
        assert ok1["checksum"] == interior_checksum(_expected(seed=1))
        assert ok0["shape"] == list(SHAPE) and ok0["batch_size"] >= 1
        for bad in (bad_kernel, bad_shape):
            assert not bad["ok"] and bad["reason"] == "bad_request"

    @pytest.mark.parametrize("field,value", [
        ("steps", 2.7), ("steps", True), ("steps", "2"),
        ("seed", -1), ("seed", 2 ** 63), ("seed", 1.0), ("seed", False),
        ("shape", [32.0, 32]), ("shape", [True, 32]), ("shape", "32x32"),
        ("tenant", ["x"]), ("tenant", 7),
    ])
    def test_non_integer_wire_fields_are_bad_requests(self, field, value):
        # floats, bools and out-of-range seeds are refused, never
        # truncated or coerced; a valid request still runs bitwise
        good = {"kernel": "heat-2d", "shape": list(SHAPE), "steps": STEPS,
                "seed": 0}

        async def main():
            async with StencilServer(machine=GENERIC_AVX2) as server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                responses = await request_tcp("127.0.0.1", port, [
                    {**good, field: value}, good])
                tcp.close()
                await tcp.wait_closed()
                return responses

        bad, ok = asyncio.run(main())
        assert not bad["ok"] and bad["reason"] == "bad_request", bad
        assert field in bad["error"]
        assert ok["ok"]
        assert ok["checksum"] == interior_checksum(_expected(seed=0))

    @pytest.mark.parametrize("field,value", [
        ("shape", [3_000_000, 3_000_000]), ("steps", 10 ** 9)])
    def test_work_above_the_cap_is_a_bad_request(self, field, value,
                                                 monkeypatch):
        # refused in the envelope check: no grid is ever made for it,
        # and its neighbour still runs
        made = []
        materialize = StencilJob.materialize
        monkeypatch.setattr(StencilJob, "materialize",
                            lambda job: made.append(job) or materialize(job))
        good = {"kernel": "heat-2d", "shape": list(SHAPE), "steps": STEPS,
                "seed": 0}

        async def main():
            async with StencilServer(machine=GENERIC_AVX2) as server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                try:
                    return await asyncio.wait_for(request_tcp(
                        "127.0.0.1", port, [{**good, field: value}, good]),
                        30)
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        bad, ok = asyncio.run(main())
        assert not bad["ok"] and bad["reason"] == "bad_request", bad
        assert "point-steps" in bad["error"]
        assert ok["ok"]
        assert ok["checksum"] == interior_checksum(_expected(seed=0))
        assert [(j.shape, j.steps) for j in made] == [(SHAPE, STEPS)]

    @pytest.mark.parametrize("deadline", [
        "soon", True, float("nan"), float("inf"), [500]])
    def test_bad_deadline_is_a_bad_request(self, deadline):
        # converted inside the envelope check: the line gets a
        # bad_request answer and its neighbour still runs
        good = {"kernel": "heat-2d", "shape": list(SHAPE), "steps": STEPS,
                "seed": 0}

        async def main():
            async with StencilServer(machine=GENERIC_AVX2) as server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                try:
                    return await asyncio.wait_for(request_tcp(
                        "127.0.0.1", port,
                        [{**good, "deadline_ms": deadline}, good]), 30)
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        bad, ok = asyncio.run(main())
        assert not bad["ok"] and bad["reason"] == "bad_request", bad
        assert "deadline_ms" in bad["error"]
        assert ok["ok"]
        assert ok["checksum"] == interior_checksum(_expected(seed=0))

    def test_unexpected_exception_gets_an_error_envelope(self):
        # a fault past the envelope check still answers its line, and
        # the connection keeps serving the next one
        good = {"kernel": "heat-2d", "shape": list(SHAPE), "steps": STEPS}

        async def main():
            async with StencilServer(machine=GENERIC_AVX2) as server:
                submit = server.submit

                async def faulty(job, **kwargs):
                    if job.seed == 1:
                        raise RuntimeError("engine blew up")
                    return await submit(job, **kwargs)

                server.submit = faulty
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                try:
                    return await asyncio.wait_for(request_tcp(
                        "127.0.0.1", port, [{**good, "seed": 1, "id": "x"},
                                            {**good, "seed": 0}]), 30)
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        err, ok = asyncio.run(main())
        assert err == {"id": "x", "ok": False, "reason": "error",
                       "error": "RuntimeError: engine blew up"}
        assert ok["ok"]
        assert ok["checksum"] == interior_checksum(_expected(seed=0))

    def test_rejection_carries_reason_on_the_wire(self):
        async def main():
            async with StencilServer(machine=GENERIC_AVX2) as server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                (resp,) = await request_tcp("127.0.0.1", port, [
                    {"kernel": "heat-2d", "shape": list(SHAPE),
                     "steps": STEPS, "seed": 0, "deadline_ms": 0}])
                tcp.close()
                await tcp.wait_closed()
                return resp

        resp = asyncio.run(main())
        assert not resp["ok"] and resp["reason"] == "deadline"


#: JSON scalars a request id may be (echoed back verbatim)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.text(max_size=8))
#: wire field values: wrong types and bools, NaN and ±inf, negative and
#: huge integers, containers and boundary names, known or not.  The
#: integers stay in [-5, 5] or far outside any accepted range, so no
#: accepted request asks for much work.
_JUNK = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-5, 5),
        st.sampled_from([-2 ** 70, -2 ** 63, 2 ** 31, 2 ** 63, 10 ** 30]),
        st.floats(), st.text(max_size=6),
        st.sampled_from(["heat-2d", "box-2d9p", "periodic", "dirichlet",
                         "nope"])),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6)
_FIELDS = ("kernel", "shape", "steps", "seed", "tenant", "deadline_ms",
           "boundary", "value", "id", "unknown")


@st.composite
def _envelopes(draw):
    """One request line: a valid 16x16 request with fuzzed fields, or
    any JSON value at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_JUNK)
    payload = {"kernel": "heat-2d", "shape": [16, 16], "steps": 1,
               "seed": 0, "id": draw(_SCALARS)}
    for key in draw(st.lists(st.sampled_from(_FIELDS), max_size=3)):
        payload[key] = draw(_JUNK)
    return payload


@pytest.fixture(scope="module")
def tcp_port():
    """A TCP front end on a background loop, shared by the fuzz
    examples."""
    client = LocalClient(machine=GENERIC_AVX2).start()
    try:
        tcp = asyncio.run_coroutine_threadsafe(
            serve_tcp(client.server, port=0), client._loop).result(30)
        yield tcp.sockets[0].getsockname()[1]
        client._loop.call_soon_threadsafe(tcp.close)
    finally:
        client.close()


class TestWireFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lines=st.lists(_envelopes(), min_size=1, max_size=3))
    def test_every_line_gets_one_answer_echoing_its_id(self, tcp_port,
                                                       lines):
        sent = [json.dumps(p).encode() for p in lines]
        with socket.create_connection(("127.0.0.1", tcp_port),
                                      timeout=30) as sock:
            sock.sendall(b"".join(line + b"\n" for line in sent))
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while chunk := sock.recv(1 << 16):
                data += chunk
        responses = [json.loads(r) for r in data.splitlines()]
        assert len(responses) == len(lines)
        assert all(isinstance(r["ok"], bool) for r in responses)

        def ids(values):
            return collections.Counter(json.dumps(v, sort_keys=True)
                                       for v in values)

        assert ids(r["id"] for r in responses) == ids(
            p.get("id") if isinstance(p, dict) else None for p in lines)


class TestChaosServerStage:
    def test_server_stage_bitwise_identical_under_faults(self, tmp_path):
        from repro.faults.chaos import required_sites, run_chaos
        report = run_chaos(kernel="heat-2d", size=(16, 16), steps=2,
                           seed=1, backends=("thread",),
                           stages=("server",))
        assert report.ok, report.summary()
        assert not report.mismatches
        assert set(required_sites(("server",))) <= {
            site for site, n in report.injected.items() if n >= 1}


class TestObsSnapshotIsolation:
    """Regression (satellite 6): exporting metrics must never mutate or
    alias the live registry — a `repro serve --metrics-json` snapshot is
    a point-in-time copy."""

    def test_histogram_export_is_a_copy(self, observing):
        hist = obs.histogram("server.latency_ms.tenant.t0")
        hist.observe(5.0)
        exported = obs.snapshot()["metrics"]["histograms"][
            "server.latency_ms.tenant.t0"]
        exported["count"] = 999
        exported["buckets"]["<=2^3"] = 999
        hist.observe(6.0)
        fresh = obs.snapshot()["metrics"]["histograms"][
            "server.latency_ms.tenant.t0"]
        assert fresh["count"] == 2
        assert fresh["buckets"] == {"<=2^3": 2}

    def test_snapshot_is_stable_across_calls(self, observing):
        obs.counter("server.completed").inc(3)
        obs.histogram("server.latency_ms").observe(1.5)
        first = obs.snapshot()["metrics"]
        second = obs.snapshot()["metrics"]
        assert first == second
