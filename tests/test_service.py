"""Tests for the batched kernel service (:mod:`repro.service`)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import faults, obs
from repro.config import GENERIC_AVX2
from repro.errors import ReproError
from repro.service import CompileRequest, KernelService, SweepJob
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid


def _svc(**kw):
    return KernelService(GENERIC_AVX2, **kw)


@pytest.fixture()
def observing():
    was = obs.enabled()
    obs.enable(reset=True)
    try:
        yield
    finally:
        if not was:
            obs.disable()


class TestCompile:
    def test_compile_is_ready_to_run(self):
        svc = _svc()
        k = svc.compile(library.get("heat-2d"), (64, 96))
        g = k.grid_like((64, 96), seed=0)
        out = k.run(g, k.plan.time_fusion)
        ref = apply_steps(library.get("heat-2d"), g, k.plan.time_fusion)
        assert np.allclose(out.interior, ref.interior, rtol=1e-12)

    def test_compile_many_dedupes(self):
        svc = _svc()
        reqs = [
            CompileRequest(library.get("heat-2d"), (64, 96)),
            CompileRequest(library.get("box-2d9p"), (64, 96)),
            CompileRequest(library.get("heat-2d"), (64, 96)),  # duplicate
        ]
        kernels = svc.compile_many(reqs)
        assert len(kernels) == 3
        assert kernels[0] is kernels[2]  # duplicates share one kernel
        assert kernels[0] is not kernels[1]
        # only the distinct requests hit the compilation pipeline
        assert svc.stats()["misses"] == 2

    def test_compile_many_distinguishes_options(self):
        svc = _svc()
        spec = library.get("heat-2d")
        a, b, c = svc.compile_many([
            CompileRequest(spec, (64, 96)),
            CompileRequest(spec, (64, 96), time_fusion=1),
            CompileRequest(spec, (64, 192)),
        ])
        assert a is not b and a is not c
        assert b.plan.time_fusion == 1
        assert c.grid.shape == (64, 192)

    def test_compile_many_accepts_tuples(self):
        svc = _svc()
        (k,) = svc.compile_many([(library.get("heat-1d"), (96,))])
        assert k.grid.shape == (96,)

    def test_single_distinct_request_compiles_inline(self, monkeypatch):
        # every distinct request goes through compile() once, in the
        # caller's thread (perfbench times compile() by name)
        calls = []
        compile_ = KernelService.compile

        def recording(self, spec, shape, **kwargs):
            calls.append((spec.name, threading.current_thread()))
            return compile_(self, spec, shape, **kwargs)

        monkeypatch.setattr(KernelService, "compile", recording)
        svc = _svc()
        req = CompileRequest(library.get("heat-2d"), (64, 96))
        a, b = svc.compile_many([req, req])
        assert a is b and svc.stats()["misses"] == 1
        assert calls == [("heat-2d", threading.current_thread())]

    def test_concurrent_compiles_share_cache(self):
        svc = _svc()
        names = ["heat-1d", "heat-2d", "box-2d9p", "star-1d5p"]
        kernels = svc.compile_many(
            [CompileRequest(library.get(n), (64, 96)[-library.get(n).ndim:])
             for n in names] * 2
        )
        assert len(kernels) == 8
        assert svc.stats()["misses"] == len(names)


class TestRun:
    def test_run_many_matches_reference(self):
        svc = _svc(run_workers=3)
        spec = library.get("heat-2d")
        k = svc.compile(spec, (48, 48))
        jobs = [SweepJob(spec, k.grid_like((48, 48), seed=s), steps=2)
                for s in (0, 1)]
        outs = svc.run_many(jobs)
        for job, out in zip(jobs, outs):
            ref = apply_steps(spec, job.grid, job.steps)
            assert np.allclose(out.interior, ref.interior, rtol=1e-12)

    def test_run_many_returns_each_jobs_exception_in_place(
            self, monkeypatch):
        import repro.service as service_mod
        spec = library.get("heat-2d")
        grids = [Grid.random((24, 24), 1, seed=s) for s in range(3)]
        real = service_mod.run_parallel
        swept = []

        def run_parallel(spec, grid, steps, **kwargs):
            swept.append(grid)
            if grid is grids[1]:
                raise ReproError("this job fails")
            return real(spec, grid, steps, **kwargs)

        monkeypatch.setattr(service_mod, "run_parallel", run_parallel)
        outs = _svc().run_many([SweepJob(spec, g, steps=2) for g in grids])
        assert swept == grids  # every job ran once
        assert isinstance(outs[1], ReproError)
        for g, out in zip(grids[::2], outs[::2]):
            assert np.array_equal(out.interior,
                                  apply_steps(spec, g, 2).interior)

    def test_process_backend_identical_to_thread(self):
        spec = library.get("heat-2d")
        k = _svc().compile(spec, (48, 48))
        job = SweepJob(spec, k.grid_like((48, 48), seed=2), steps=2)
        a = _svc(run_backend="thread").run(job)
        b = _svc(run_backend="process").run(job)
        assert np.array_equal(a.data, b.data)


class TestFailureRule:
    """Transient failures are retried, then walk the ladder; any other
    error propagates after one attempt, with no sleep in between."""

    @pytest.mark.parametrize("run_backend,ladder", [
        ("thread", ["serial"]), ("process", ["thread", "serial"])])
    def test_transient_run_fault_walks_retries_then_ladder(
            self, observing, monkeypatch, run_backend, ladder):
        import repro.service as service_mod
        calls = []

        def run_parallel(spec, grid, steps, *, backend, workers, **kwargs):
            calls.append((backend, workers))
            raise faults.FaultInjected("always", site="tile.sweep")

        monkeypatch.setattr(service_mod, "run_parallel", run_parallel)
        svc = _svc(run_backend=run_backend, retries=2)
        spec = library.get("heat-2d")
        with pytest.raises(faults.FaultInjected):
            svc.run(SweepJob(spec, Grid.random((16, 16), 1, seed=0), 2))
        rungs = {"thread": ("thread", 4), "serial": ("thread", 1)}
        assert calls == ([(run_backend, 4)] * 3
                         + [rungs[label] for label in ladder])
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["service.failures.reason.fault"] == len(calls)
        assert counters["service.fallback"] == len(ladder)
        for label in ladder:
            assert counters[f"service.fallback.to.{label}"] == 1

    def test_broken_pool_is_transient(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        import repro.service as service_mod
        real = service_mod.run_parallel
        calls = []

        def run_parallel(spec, grid, steps, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise BrokenProcessPool("a worker died")
            return real(spec, grid, steps, **kwargs)

        monkeypatch.setattr(service_mod, "run_parallel", run_parallel)
        spec = library.get("heat-2d")
        job = SweepJob(spec, Grid.random((16, 16), 1, seed=0), 2)
        out = _svc().run(job)
        assert len(calls) == 2
        assert np.array_equal(out.interior, apply_steps(spec, job.grid,
                                                        2).interior)


class TestValidation:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ReproError):
            KernelService(GENERIC_AVX2, run_backend="mpi")

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ReproError):
            KernelService(GENERIC_AVX2, run_workers=0)
        with pytest.raises(ReproError):
            KernelService(GENERIC_AVX2, run_workers=-1)

    @pytest.mark.parametrize("kwargs", [
        {"retries": -1},
        # ladder rungs and SIMD-machine backends are not run backends
        {"run_backend": "serial"},
        {"run_backend": "interp"},
        {"run_backend": "codegen"},
        {"run_backend": ""},
        {"run_backend": None},
        {"run_backend": "THREAD"},
    ])
    def test_rejects_bad_failure_config(self, kwargs):
        with pytest.raises(ReproError):
            KernelService(GENERIC_AVX2, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"run_workers": 1.0},
        {"run_workers": False},
        {"retries": 1.5},
        {"retries": True},
        {"run_workers": "4"},
        {"run_workers": None},
        {"run_workers": 2.5},
        {"run_workers": float("nan")},
        {"run_workers": float("inf")},
        {"run_workers": [4]},
        {"run_workers": True},
        {"retries": "2"},
        {"retries": None},
        {"retries": 2.0},
        {"retries": float("nan")},
        {"retries": False},
    ])
    def test_rejects_non_numeric_config(self, kwargs):
        """Every numeric knob is validated at construction — floats where
        ints are required, bools masquerading as numbers, strings, None,
        NaN and inf all fail fast with a message naming the parameter."""
        with pytest.raises(ReproError) as err:
            KernelService(GENERIC_AVX2, **kwargs)
        (name,) = kwargs
        assert name in str(err.value)

    @pytest.mark.parametrize("kwargs", [
        {"retries": 0},
        {"retries": 3},
        {"retries": 2},
        {"run_backend": "thread"},
        {"run_backend": "process"},
        {"run_workers": 1},
        {"run_workers": 1, "run_backend": "process", "retries": 0},
    ])
    def test_accepts_valid_failure_config(self, kwargs):
        svc = KernelService(GENERIC_AVX2, **kwargs)
        for k, v in kwargs.items():
            assert getattr(svc, k) == v

    def test_stats_exposes_cache_counters(self):
        svc = _svc()
        svc.compile(library.get("heat-1d"), (96,))
        d = svc.stats()
        assert d["misses"] == 1 and d["memory_programs"] == 1
        assert d["tuning_entries"] == 0


class TestCacheDir:
    def test_cache_dir_holds_only_the_tuning_db(self, tmp_path):
        """``cache_dir`` places the tuning database and nothing else:
        compiled kernels stay in memory."""
        spec = library.get("heat-1d")
        reqs = [CompileRequest(spec, (96,))]
        svc = _svc(cache_dir=str(tmp_path))
        (k,) = svc.compile_many(reqs, tune=True)
        g = k.grid_like((96,), seed=3)
        out = k.run(g, k.plan.time_fusion)
        ref = apply_steps(spec, g, k.plan.time_fusion)
        assert np.allclose(out.interior, ref.interior, rtol=1e-12)
        job = SweepJob(spec, Grid.random((96,), spec.radius, seed=3), 2)
        assert np.allclose(svc.run(job).interior,
                           apply_steps(spec, job.grid, 2).interior,
                           rtol=1e-12)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tuning"]
        assert svc.tuning_db.stats_dict()["entries"] == 1
        # a second service (with its own cache) finds the stored winner
        again = _svc(cache_dir=str(tmp_path))
        again.compile_many(reqs, tune=True)
        assert again.tuning_db.hits == 1 and again.tuning_db.misses == 0
