"""Tests for the batched kernel service (:mod:`repro.service`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GENERIC_AVX2
from repro.errors import ReproError
from repro.service import CompileRequest, KernelService, SweepJob
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid


def _svc(**kw):
    return KernelService(GENERIC_AVX2, **kw)


class TestCompile:
    def test_compile_is_ready_to_run(self):
        svc = _svc()
        k = svc.compile(library.get("heat-2d"), (64, 96))
        g = k.grid_like((64, 96), seed=0)
        out = k.run_numpy(g, k.plan.time_fusion)
        ref = apply_steps(library.get("heat-2d"), g, k.plan.time_fusion)
        assert np.allclose(out.interior, ref.interior, rtol=1e-12)

    def test_compile_many_dedupes(self):
        svc = _svc(compile_workers=2)
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
        import repro.service as service_mod

        def refuse(*args, **kwargs):
            raise AssertionError("one distinct compile built a pool")

        monkeypatch.setattr(service_mod, "ThreadPoolExecutor", refuse)
        svc = _svc()
        req = CompileRequest(library.get("heat-2d"), (64, 96))
        a, b = svc.compile_many([req, req])
        assert a is b and svc.stats()["misses"] == 1

    def test_concurrent_compiles_share_cache(self):
        svc = _svc(compile_workers=4)
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


class TestValidation:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ReproError):
            KernelService(GENERIC_AVX2, run_backend="mpi")

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ReproError):
            KernelService(GENERIC_AVX2, compile_workers=0)
        with pytest.raises(ReproError):
            KernelService(GENERIC_AVX2, run_workers=0)

    @pytest.mark.parametrize("kwargs", [
        {"task_timeout_s": 0},
        {"task_timeout_s": -1.0},
        {"task_timeout_s": float("nan")},
        {"retries": -1},
        {"retry_backoff_s": -0.1},
        {"failure_policy": "explode"},
        {"failure_policy": ""},
    ])
    def test_rejects_bad_failure_config(self, kwargs):
        with pytest.raises(ReproError):
            KernelService(GENERIC_AVX2, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"compile_workers": 2.5},
        {"compile_workers": True},
        {"compile_workers": "4"},
        {"run_workers": 1.0},
        {"run_workers": False},
        {"retries": 1.5},
        {"retries": True},
        {"retry_backoff_s": float("nan")},
        {"retry_backoff_s": float("inf")},
        {"retry_backoff_s": "0.1"},
        {"retry_backoff_s": True},
        {"task_timeout_s": float("inf")},
        {"task_timeout_s": True},
        {"task_timeout_s": "30"},
        {"tune_budget": 8},
        {"tune_budget": "fast"},
    ])
    def test_rejects_non_numeric_config(self, kwargs):
        """Every numeric knob is validated at construction — floats where
        ints are required, bools masquerading as numbers, strings, NaN
        and inf all fail fast with a message naming the parameter."""
        with pytest.raises(ReproError) as err:
            KernelService(GENERIC_AVX2, **kwargs)
        (name,) = kwargs
        assert name in str(err.value)

    @pytest.mark.parametrize("kwargs", [
        {"task_timeout_s": None},
        {"task_timeout_s": 30.0},
        {"retries": 0},
        {"retries": 3, "retry_backoff_s": 0.0},
        {"failure_policy": "raise"},
        {"failure_policy": "retry"},
        {"failure_policy": "degrade"},
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
        from repro.core.cache import KernelCache
        from repro.tune.engine import TuneBudget
        budget = TuneBudget(max_trials=2, warmup=0, repeats=1,
                            trial_timeout_s=30.0)
        spec = library.get("heat-1d")
        reqs = [CompileRequest(spec, (96,))]
        svc = _svc(cache_dir=str(tmp_path), tune_budget=budget)
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
        again = _svc(cache=KernelCache(), cache_dir=str(tmp_path))
        again.compile_many(reqs, tune=True)
        assert again.tuning_db.hits == 1 and again.tuning_db.misses == 0
