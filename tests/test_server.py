"""Tests for the async serving layer (:mod:`repro.server`)."""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro import obs
from repro.config import GENERIC_AVX2
from repro.errors import ReproError
from repro.server import (AdmissionController, LoadConfig, LocalClient,
                          ServerOverloaded, StencilJob, StencilServer,
                          TokenBucket, reference_results, request_schedule,
                          run_load_sync)
from repro.server.net import interior_checksum, request_tcp, serve_tcp
from repro.service import KernelService, SweepJob
from repro.stencils import library
from repro.stencils.grid import Grid
from repro.tune.space import TuneConfig

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
        {"deadline_margin_s": -1.0},
        {"executor_workers": 0},
        {"fault_retries": -1},
        {"shed_occupancy": 0.0},
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

    def test_high_occupancy_is_bitwise_identical(self):
        async def go(server):
            return await asyncio.gather(
                *(server.submit(_job(seed=s)) for s in range(3)))

        # a shed rung so low every flush runs under overload
        results = _serve(go, max_queue_depth=64, shed_occupancy=0.01)
        for s, r in enumerate(results):
            assert np.array_equal(r.grid.interior, _expected(seed=s))

    def test_overload_ladder_sheds_batch_size(self):
        server = StencilServer(machine=GENERIC_AVX2, max_queue_depth=10,
                               max_batch=8, shed_occupancy=0.5)
        assert server._effective_max_batch() == 8
        server._inflight = 5  # occupancy 0.5: rung 1
        assert server._effective_max_batch() == 2


class TestServedWinner:
    """With online tuning on, a batch runs on the stored winner only
    when the server can execute it as it was measured — and then whole:
    its parts, worker count and temporal block reach run_parallel."""

    def _serve_on(self, monkeypatch, config):
        import repro.service as service_mod
        from repro.tune import OnlineTuneConfig, TuningRecord, workload_key
        svc = KernelService(GENERIC_AVX2, failure_policy="degrade",
                            retries=2)
        job = _job(seed=4)
        # an unbeatable stored rate: no online trial can displace it
        svc.tuning_db.put(TuningRecord(
            key=workload_key(job.spec, GENERIC_AVX2, job.shape),
            config=config, mstencil_s=1e12, seconds=1e-6, steps=2))
        calls = []
        real = service_mod.run_parallel

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "run_parallel", spy)

        async def main():
            async with StencilServer(
                    svc, online_tune=True,
                    online_tune_config=OnlineTuneConfig(max_trials=1)
            ) as server:
                return await server.submit(job)

        res = asyncio.run(main())
        assert len(calls) == 1
        assert np.array_equal(res.grid.interior, _expected(seed=4))
        applied = obs.snapshot()["metrics"]["counters"].get(
            "tune.online.applied", 0)
        return svc, applied, calls[0]

    @pytest.mark.parametrize("config", [
        TuneConfig(engine="machine", time_fusion=1),
        TuneConfig(engine="parallel", parts=4, workers=1,
                   run_backend="process"),
    ], ids=["machine-engine", "other-run-backend"])
    def test_winner_the_server_cannot_run_is_ignored(self, observing,
                                                     monkeypatch, config):
        svc, applied, call = self._serve_on(monkeypatch, config)
        assert applied == 0
        assert call["workers"] == svc.run_workers
        assert call["parts"] is None and call["temporal_block"] == 1

    def test_tiled_winner_applies_tile_and_workers(self, observing,
                                                   monkeypatch):
        # an in-place layout: more parts than workers, no temporal block
        _, applied, call = self._serve_on(monkeypatch, TuneConfig(
            engine="parallel", parts=4, workers=1))
        assert applied == 1
        assert call["parts"] == 4 and call["workers"] == 1
        assert call["temporal_block"] == 1

    def test_shard_winner_applies_layout_and_workers(self, observing,
                                                     monkeypatch):
        # a window layout: a temporal block ships deep-halo windows
        _, applied, call = self._serve_on(monkeypatch, TuneConfig(
            engine="parallel", parts=2, workers=2, temporal_block=2))
        assert applied == 1
        assert call["parts"] == 2 and call["temporal_block"] == 2
        assert call["workers"] == 2


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
            await server.stop()
            return await task

        res = asyncio.run(main())
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


class TestTcpFrontEnd:
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
