"""Exploration-safety tests for the online autotuner
(:mod:`repro.tune.online`).

The three contracts the serving stack depends on:

* **Occupancy gating** — a trial never runs (and so can never delay a
  request) while the server has admitted work in flight or a batch open;
* **Bitwise-safe promotion** — a contender only lands in the shared
  :class:`~repro.tune.TuningDB` after its served results are verified
  bitwise-identical to the incumbent's, and a broken contender is
  rejected forever;
* **Determinism** — the epsilon-greedy choice stream is a pure function
  of the seed, so an online-tuned run replays exactly.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.config import GENERIC_AVX2
from repro.errors import ReproError, TuneError
from repro.server import LoadConfig, StencilServer, reference_results, \
    run_load_sync
from repro.server.core import StencilJob
from repro.service import KernelService
from repro.stencils import library
from repro.tune import OnlineTuneConfig, OnlineTuner
from repro.tune.engine import Trial
from repro.tune.online import _config_key
from repro.tune.space import TuneConfig

SPEC = library.get("heat-1d")
SHAPE = (64,)

#: the online space over a 64-point grid is small (a few tiled and
#: shard executor configurations), so every test converges in a
#: handful of cheap trials
FAST = dict(trial_steps=2, repeats=1)


def _drive(tuner: OnlineTuner, cap: int = 300):
    """Step until convergence; returns every productive OnlineTrial."""
    out = []
    for _ in range(cap):
        if tuner.converged():
            break
        r = tuner.step()
        if r is not None:
            out.append(r)
    assert tuner.converged(), "tuner failed to converge under the cap"
    return out


def _fake_measure(spec, machine, config, shape, *, steps, budget, cache,
                  boundary="periodic", model_score=0.0, **kw):
    """Deterministic synthetic throughput per configuration."""
    score = 50.0 + (sum(ord(c) for c in config.label()) % 97)
    return Trial(config=config, seconds=1e-3, mstencil_s=score,
                 steps=steps, repeats=1, model_score=model_score)


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        for kw in ({"epsilon": 1.5}, {"epsilon": -0.1},
                   {"trial_steps": 0}, {"repeats": 0},
                   {"trial_timeout_s": 0.0}, {"max_trials": 0},
                   {"min_interval_s": -1.0}, {"promote_margin": 0.9},
                   {"confirm_trials": -1}, {"poll_interval_s": 0.0}):
            with pytest.raises(TuneError):
                OnlineTuneConfig(**kw)

    def test_tuner_rejects_non_config(self):
        svc = KernelService(GENERIC_AVX2)
        with pytest.raises(TuneError):
            OnlineTuner(svc, config={"epsilon": 0.5})

    def test_server_validates_online_flags(self):
        with pytest.raises(ReproError):
            StencilServer(machine=GENERIC_AVX2, online_tune="yes")
        with pytest.raises(ReproError):
            StencilServer(machine=GENERIC_AVX2,
                          online_tune_config=OnlineTuneConfig())
        with pytest.raises(ReproError):
            StencilServer(machine=GENERIC_AVX2, online_tune=True,
                          online_tune_config={"epsilon": 1.0})


class TestOccupancyGate:
    def test_never_trials_while_requests_are_in_flight(self):
        """The exploration-safety contract: with admitted work in
        flight (or batches open), step() declines and counts the gate —
        once drained, the same step runs a trial."""

        async def scenario():
            async with StencilServer(machine=GENERIC_AVX2,
                                     batch_window_s=0.1,
                                     max_batch=64) as server:
                tuner = server.service.online_tuner(
                    config=OnlineTuneConfig(**FAST),
                    idle=server._tuner_idle)
                tuner.observe(SPEC, SHAPE, steps=2)
                tasks = [asyncio.create_task(server.submit(
                    StencilJob(SPEC, SHAPE, 2, seed=i)))
                    for i in range(8)]
                await asyncio.sleep(0)  # let every submit reach its await
                assert server.inflight == 8
                for _ in range(5):
                    assert tuner.step() is None
                stats = tuner.stats()
                assert stats["trials"] == 0
                assert stats["gated"] == 5
                await asyncio.gather(*tasks)
                assert server.inflight == 0 and not server._batches
                return tuner

        tuner = asyncio.run(scenario())
        # drained and stopped: the gate is open again (the idle lambda
        # closed over a now-closing server stays shut — build a fresh
        # one to show the gate was the only thing blocking)
        assert tuner.stats()["trials"] == 0

    def test_idle_gate_controls_trials_directly(self):
        svc = KernelService(GENERIC_AVX2)
        busy = {"flag": True}
        tuner = svc.online_tuner(config=OnlineTuneConfig(**FAST),
                                 idle=lambda: not busy["flag"])
        tuner.observe(SPEC, SHAPE, steps=2)
        assert tuner.step() is None
        assert tuner.stats() ["gated"] == 1
        busy["flag"] = False
        assert tuner.step() is not None
        assert tuner.stats()["trials"] == 1

    def test_saturating_load_with_online_tuning_blocks_nothing(self):
        """End to end: a server with online tuning on serves a full
        load with zero failures, zero rejections and bitwise-correct
        responses; any promotion that happened was verified."""
        cfg = LoadConfig(requests=48, shape=(16, 16), steps=2)
        refs = reference_results(cfg, GENERIC_AVX2)
        server = StencilServer(
            machine=GENERIC_AVX2, online_tune=True,
            online_tune_config=OnlineTuneConfig(max_trials=6, **FAST))
        report = run_load_sync(cfg, server=server, references=refs)
        assert report.bitwise_ok, report.mismatches
        assert not report.errors, report.errors
        assert report.completed == cfg.requests
        assert report.rejected == 0 and report.failed == 0
        stats = server.online_tuner.stats()
        assert stats["workloads"] >= 1
        assert stats["promotions"] <= stats["verified"]
        # the tuner's counters fold into the server stats surface
        assert server.stats()["online_workloads"] == stats["workloads"]


class TestBitwisePromotion:
    def test_promoted_config_serves_identical_results(self, monkeypatch):
        svc = KernelService(GENERIC_AVX2)
        tuner = svc.online_tuner(config=OnlineTuneConfig(seed=3, **FAST))
        monkeypatch.setattr("repro.tune.online.measure", _fake_measure)
        tuner.observe(SPEC, SHAPE, steps=2)
        _drive(tuner)
        stats = tuner.stats()
        assert stats["promotions"] >= 1  # a synthetic rate beats the default
        assert stats["verified"] >= stats["promotions"]
        assert stats["verify_failures"] == 0
        rec = svc.tuning_db.lookup(SPEC, GENERIC_AVX2, SHAPE)
        assert rec is not None
        assert rec.trials[0]["online"] is True
        assert rec.trials[0]["verified"] is True
        # what the winner serves is bitwise what the default served
        state = next(iter(tuner._states.values()))
        want = tuner._run_config(state, tuner.served_default(SHAPE))
        got = tuner._run_config(state, rec.config)
        assert want.dtype == got.dtype
        assert np.array_equal(want, got)

    def test_broken_contender_is_never_promoted(self, monkeypatch):
        svc = KernelService(GENERIC_AVX2)
        tuner = svc.online_tuner(config=OnlineTuneConfig(seed=3, **FAST))
        tuner.observe(SPEC, SHAPE, steps=2)
        real = OnlineTuner._run_config

        def crooked(self, state, config):
            out = real(self, state, config)
            if _config_key(config) != _config_key(state.incumbent):
                out = out + np.finfo(out.dtype).eps  # one-ulp corruption
            return out

        monkeypatch.setattr(OnlineTuner, "_run_config", crooked)
        monkeypatch.setattr("repro.tune.online.measure", _fake_measure)
        _drive(tuner)
        stats = tuner.stats()
        assert stats["promotions"] == 0
        assert stats["verify_failures"] >= 1
        assert svc.tuning_db.lookup(SPEC, GENERIC_AVX2, SHAPE) is None
        assert svc.tuning_db.stats_dict()["promotions"] == 0


class TestDeterminism:
    def _sequence(self, seed, monkeypatch):
        svc = KernelService(GENERIC_AVX2)
        tuner = svc.online_tuner(
            config=OnlineTuneConfig(seed=seed, epsilon=0.5, **FAST))
        monkeypatch.setattr("repro.tune.online.measure", _fake_measure)
        monkeypatch.setattr(
            OnlineTuner, "_run_config",
            lambda self, state, config: np.zeros(4))
        tuner.observe(SPEC, SHAPE, steps=2)
        return [(t.kind, t.trial.config.label(), t.promoted, t.verified)
                for t in _drive(tuner)]

    def test_fixed_seed_replays_exactly(self, monkeypatch):
        a = self._sequence(11, monkeypatch)
        b = self._sequence(11, monkeypatch)
        assert a == b
        assert any(kind == "explore" for kind, *_ in a)

    def test_epsilon_zero_is_pure_greedy(self, monkeypatch):
        svc = KernelService(GENERIC_AVX2)
        fast = dict(FAST)
        tuner = svc.online_tuner(
            config=OnlineTuneConfig(seed=0, epsilon=0.0, **fast))
        monkeypatch.setattr("repro.tune.online.measure", _fake_measure)
        monkeypatch.setattr(
            OnlineTuner, "_run_config",
            lambda self, state, config: np.zeros(4))
        tuner.observe(SPEC, SHAPE, steps=2)
        _drive(tuner)
        stats = tuner.stats()
        assert stats["explore"] == 0 and stats["greedy"] > 0

    def test_epsilon_one_is_pure_exploration(self, monkeypatch):
        svc = KernelService(GENERIC_AVX2)
        tuner = svc.online_tuner(
            config=OnlineTuneConfig(seed=0, epsilon=1.0, **FAST))
        monkeypatch.setattr("repro.tune.online.measure", _fake_measure)
        monkeypatch.setattr(
            OnlineTuner, "_run_config",
            lambda self, state, config: np.zeros(4))
        tuner.observe(SPEC, SHAPE, steps=2)
        _drive(tuner)
        stats = tuner.stats()
        assert stats["greedy"] == 0 and stats["explore"] > 0


class TestLifecycle:
    def test_incumbent_is_default_until_promotion(self):
        svc = KernelService(GENERIC_AVX2)
        tuner = svc.online_tuner(config=OnlineTuneConfig(**FAST))
        # the served default: one tile on the service's run workers
        assert tuner.incumbent(SPEC, SHAPE) == TuneConfig(
            engine="tiled", tile_shape=SHAPE, workers=svc.run_workers,
            run_backend=svc.run_backend)
        tuner.observe(SPEC, SHAPE, steps=2)
        _drive(tuner)
        rec = svc.tuning_db.lookup(SPEC, GENERIC_AVX2, SHAPE)
        if rec is not None:
            assert tuner.incumbent(SPEC, SHAPE) == rec.config

    def test_observe_is_idempotent(self):
        svc = KernelService(GENERIC_AVX2)
        tuner = svc.online_tuner(config=OnlineTuneConfig(**FAST))
        for _ in range(5):
            tuner.observe(SPEC, SHAPE, steps=2)
        assert tuner.stats()["workloads"] == 1

    def test_lifetime_budget_stops_exploration(self, monkeypatch):
        svc = KernelService(GENERIC_AVX2)
        tuner = svc.online_tuner(
            config=OnlineTuneConfig(max_trials=3, **FAST))
        monkeypatch.setattr("repro.tune.online.measure", _fake_measure)
        monkeypatch.setattr(
            OnlineTuner, "_run_config",
            lambda self, state, config: np.zeros(4))
        tuner.observe(SPEC, SHAPE, steps=2)
        _drive(tuner)
        assert tuner.stats()["trials"] == 3

    def test_background_thread_start_stop(self):
        svc = KernelService(GENERIC_AVX2)
        tuner = svc.online_tuner(
            config=OnlineTuneConfig(max_trials=2,
                                    poll_interval_s=0.001, **FAST))
        tuner.observe(SPEC, SHAPE, steps=2)
        tuner.start()
        with pytest.raises(TuneError):
            tuner.start()
        deadline = 5.0
        t = 0.0
        import time
        while tuner.stats()["trials"] < 2 and t < deadline:
            time.sleep(0.01)
            t += 0.01
        tuner.stop()
        assert tuner.stats()["trials"] == 2

    def test_converged_is_false_with_no_workloads(self):
        svc = KernelService(GENERIC_AVX2)
        tuner = svc.online_tuner(config=OnlineTuneConfig(**FAST))
        assert not tuner.converged()
        assert tuner.step() is None
