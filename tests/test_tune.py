"""Tests for the autotuning subsystem (:mod:`repro.tune`): search-space
legality, budget validation, database robustness, the analytic ranking
alone, end-to-end search with persistent winners, and the
planner/compile/service integration."""

import json
import os

import pytest

from repro.config import GENERIC_AVX2
from repro.core.cache import KernelCache
from repro.core.itm import fusable
from repro.core.planner import auto_fusion, plan
from repro.errors import TuneError
from repro.stencils import library
from repro.tune import (
    ENGINES,
    TuneBudget,
    TuneConfig,
    Tuner,
    TuningDB,
    TuningRecord,
    default_config,
    enumerate_space,
    workload_key,
)
from repro.tune.engine import rank_candidates, select_top, trial_steps
from repro.schemes import SCHEMES
from repro.vectorize.redundancy import has_sharing
from repro.vectorize.temporal import legal_fusion

MACHINE = GENERIC_AVX2
HEAT1D = library.get("heat-1d")
HEAT2D = library.get("heat-2d")

#: a tiny budget every empirical test shares: at most a handful of
#: sub-millisecond trials
FAST = TuneBudget(max_trials=2, warmup=0, repeats=1, trial_timeout_s=30.0)


def fast_tuner(db=None):
    return Tuner(MACHINE, cache=KernelCache(),
                 db=db if db is not None else TuningDB(None), budget=FAST)


class TestTuneConfig:
    def test_default_is_machine_engine(self):
        cfg = TuneConfig()
        assert cfg.engine == "machine" and cfg.is_plan_aware

    def test_rejects_unknown_engine(self):
        with pytest.raises(TuneError):
            TuneConfig(engine="gpu")

    def test_rejects_bad_fields(self):
        with pytest.raises(TuneError):
            TuneConfig(time_fusion=0)
        with pytest.raises(TuneError):
            TuneConfig(exec_backend="cuda")
        with pytest.raises(TuneError):
            TuneConfig(engine="tiled")  # the retired tile family
        with pytest.raises(TuneError):
            TuneConfig(engine="parallel", parts=0)
        with pytest.raises(TuneError):
            TuneConfig(engine="machine", temporal_block=2)  # parallel field

    def test_as_dict_drops_irrelevant_fields(self):
        assert "exec_backend" not in TuneConfig(engine="parallel").as_dict()
        assert "parts" not in TuneConfig(engine="machine").as_dict()
        par = TuneConfig(engine="parallel", parts=8).as_dict()
        assert "time_fusion" not in par and "use_sdf" not in par

    def test_round_trips_through_dict(self):
        for cfg in (TuneConfig(engine="machine", time_fusion=2,
                               exec_backend="interp"),
                    TuneConfig(engine="machine", use_sdf=False),
                    TuneConfig(engine="parallel", parts=4, workers=2,
                               temporal_block=2)):
            assert TuneConfig.from_dict(cfg.as_dict()) == cfg

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(TuneError):
            TuneConfig.from_dict({"engine": "machine", "gpu": True})
        with pytest.raises(TuneError):
            TuneConfig.from_dict("machine")

    def test_plan_kwargs_pin_defaults_for_non_plan_engines(self):
        cfg = TuneConfig(engine="parallel", parts=2)
        assert cfg.plan_kwargs() == {"time_fusion": 1, "use_sdf": True,
                                     "backend": "auto"}
        assert cfg.plan_backend == "auto"

    def test_default_config_matches_planner_policy(self):
        for name in ("heat-1d", "heat-2d", "box-3d27p"):
            spec = library.get(name)
            cfg = default_config(spec, MACHINE)
            assert cfg.engine == "machine"
            assert cfg.time_fusion == auto_fusion(spec, MACHINE)


class TestTuneBudget:
    def test_validation(self):
        with pytest.raises(TuneError):
            TuneBudget(max_trials=0)
        with pytest.raises(TuneError):
            TuneBudget(max_seconds=0.0)
        with pytest.raises(TuneError):
            TuneBudget(repeats=0)
        with pytest.raises(TuneError):
            TuneBudget(warmup=-1)
        with pytest.raises(TuneError):
            TuneBudget(trial_timeout_s=0.0)
        with pytest.raises(TuneError):
            TuneBudget(patience=0)

    def test_trial_steps_round_up_to_fused_depth(self):
        cfg = TuneConfig(engine="machine", time_fusion=4)
        assert trial_steps(cfg, 3) == 4
        assert trial_steps(cfg, 4) == 4
        assert trial_steps(TuneConfig(engine="parallel", parts=2), 3) == 3


class TestSearchSpace:
    def test_every_point_is_legal(self):
        width = MACHINE.vector_elems
        for cfg in enumerate_space(HEAT2D, MACHINE, (64, 64)):
            if cfg.is_plan_aware:
                assert fusable(HEAT2D, cfg.time_fusion, width=width)
            elif cfg.engine == "parallel":
                assert 1 <= cfg.parts <= 64  # partition fits the outer axis
                assert 1 <= cfg.workers <= cfg.parts
                assert cfg.temporal_block == 1 or cfg.parts > 1
            elif cfg.engine == "scheme":
                assert cfg.scheme in SCHEMES
                if cfg.scheme == "temporal":
                    assert legal_fusion(HEAT2D, MACHINE, cfg.scheme_fusion)
                else:
                    assert cfg.scheme_fusion == 1
            else:
                raise AssertionError(f"unexpected engine {cfg.engine}")

    def test_space_covers_all_engines(self):
        fams = {c.engine for c in enumerate_space(HEAT2D, MACHINE, (64, 64))}
        assert fams == set(ENGINES)

    def test_default_space_times_no_interpreter(self):
        # the pinned interpreter cannot win a trial; it is searched only
        # when exec_backends names it
        space = enumerate_space(HEAT2D, MACHINE, (64, 64))
        assert {c.exec_backend for c in space
                if c.engine in ("machine", "scheme")} == {"auto"}
        pinned = enumerate_space(HEAT2D, MACHINE, (64, 64),
                                 exec_backends=("interp",))
        assert {c.exec_backend for c in pinned
                if c.engine in ("machine", "scheme")} == {"interp"}

    def test_narrow_x_drops_the_machine_engine(self):
        # below one 2W block the SIMD machine cannot run a sweep
        narrow = enumerate_space(HEAT2D, MACHINE,
                                 (64, 2 * MACHINE.vector_elems - 1))
        assert all(c.engine != "machine" for c in narrow)

    def test_infeasible_fusion_depths_are_rejected(self):
        star = library.get("star-1d7p")  # radius 3: 4-step ITM overflows W
        depths = {c.time_fusion
                  for c in enumerate_space(star, MACHINE, (4096,))
                  if c.is_plan_aware}
        assert 4 not in depths

    def test_engine_filter_and_validation(self):
        only = enumerate_space(HEAT2D, MACHINE, (64, 64),
                               engines=("machine",))
        assert {c.engine for c in only} == {"machine"}
        for retired in ("gpu", "numpy"):
            with pytest.raises(TuneError):
                enumerate_space(HEAT2D, MACHINE, (64, 64),
                                engines=(retired,))
        with pytest.raises(TuneError):
            enumerate_space(HEAT2D, MACHINE, (64, 64),
                            exec_backends=("cuda",))
        with pytest.raises(TuneError):
            enumerate_space(HEAT2D, MACHINE, (64,))  # rank mismatch

    def test_no_duplicate_configurations(self):
        space = enumerate_space(HEAT2D, MACHINE, (64, 64))
        keys = [repr(sorted(c.as_dict().items())) for c in space]
        assert len(keys) == len(set(keys))

    def test_select_top_stratifies_and_forces_baseline(self):
        space = enumerate_space(HEAT2D, MACHINE, (64, 64))
        ranked = [(c, float(len(space) - i)) for i, c in enumerate(space)]
        baseline = default_config(HEAT2D, MACHINE)
        picked = select_top(ranked, 4, always=[baseline])
        assert picked[0][0].as_dict() == baseline.as_dict()
        # stratified: more than one engine family among the top picks
        assert len({c.engine for c, _ in picked}) > 1


class TestSchemeSpace:
    """Regressions for the scheme-engine slice of the search space."""

    def scheme_configs(self, spec, shape, **kw):
        return [c for c in enumerate_space(spec, MACHINE, shape,
                                           engines=("scheme",), **kw)]

    def test_temporal_depths_bounded_by_radius(self):
        # star-1d7p has radius 3: at W=4 only depth 1 keeps the fused
        # footprint inside one unaligned-load window
        star = library.get("star-1d7p")
        depths = {c.scheme_fusion for c in self.scheme_configs(star, (4096,))
                  if c.scheme == "temporal"}
        assert depths == {1}
        # heat-1d (radius 1) admits the whole ladder
        depths = {c.scheme_fusion
                  for c in self.scheme_configs(HEAT1D, (4096,))
                  if c.scheme == "temporal"}
        assert depths == {1, 2, 4}

    def test_redundancy_skipped_without_sharing(self):
        # heat-2d is a star: no shifted column is shared by two rows, so
        # redundancy elimination cannot beat Reorg and is not enumerated
        assert not has_sharing(HEAT2D)
        assert all(c.scheme != "redundancy"
                   for c in self.scheme_configs(HEAT2D, (64, 64)))
        # a box shares every shifted column across all rows
        box = library.get("box-2d9p")
        assert has_sharing(box)
        assert any(c.scheme == "redundancy"
                   for c in self.scheme_configs(box, (64, 64)))

    def test_temporal_halo_must_fit_the_interior(self):
        # depth 4 needs a halo of 4 on the x axis; an interior of 3 rows
        # cannot source a periodic refill for it
        depths = {c.scheme_fusion
                  for c in self.scheme_configs(HEAT2D, (3, 64))
                  if c.scheme == "temporal"}
        assert 4 not in depths and 1 in depths

    def test_unknown_scheme_name_raises(self):
        with pytest.raises(TuneError, match="schemes"):
            enumerate_space(HEAT2D, MACHINE, (64, 64), schemes=("bogus",))

    def test_config_field_validation(self):
        with pytest.raises(TuneError, match="scheme"):
            TuneConfig(engine="scheme")  # name required
        with pytest.raises(TuneError, match="scheme"):
            TuneConfig(engine="scheme", scheme="warp")
        with pytest.raises(TuneError, match="scheme"):
            TuneConfig(engine="machine", scheme="temporal")
        with pytest.raises(TuneError, match="scheme_fusion"):
            TuneConfig(engine="machine", scheme_fusion=2)

    def test_round_trip_and_label(self):
        cfg = TuneConfig(engine="scheme", scheme="temporal",
                         scheme_fusion=2, exec_backend="interp")
        assert TuneConfig.from_dict(cfg.as_dict()) == cfg
        assert "temporal" in cfg.label() and "s=2" in cfg.label()

    def test_tune_runs_scheme_trials(self):
        report = fast_tuner().tune(HEAT1D, (256,), steps=2,
                                   engines=("scheme",),
                                   exec_backends=("interp",))
        scheme_trials = [t for t in report.trials
                         if t.config.engine == "scheme"]
        assert scheme_trials and any(t.ok for t in scheme_trials)


class TestWorkloadKey:
    def test_any_input_change_changes_the_key(self):
        base = workload_key(HEAT2D, MACHINE, (64, 64))
        assert workload_key(HEAT2D, MACHINE, (64, 64)) == base
        assert workload_key(HEAT1D, MACHINE, (64,)) != base
        assert workload_key(HEAT2D, MACHINE, (64, 128)) != base
        assert workload_key(HEAT2D, MACHINE, (64, 64),
                            boundary="constant") != base


def make_record(key, **over):
    fields = dict(key=key, config=TuneConfig(engine="machine"),
                  mstencil_s=10.0, seconds=0.5, steps=2)
    fields.update(over)
    return TuningRecord(**fields)


class TestTuningDB:
    """Disk-trust tests: entries are never trusted on read — anything
    corrupted or stale is discarded, deleted, and re-tuned."""

    def test_memory_roundtrip(self):
        db = TuningDB(None)
        rec = make_record("k1")
        db.put(rec)
        assert db.get("k1") == rec
        assert db.get("nope") is None
        assert db.stats_dict()["entries"] == 1

    def test_disk_roundtrip_across_instances(self, tmp_path):
        db = TuningDB(str(tmp_path))
        db.put(make_record("k1"))
        assert db.writes == 1
        fresh = TuningDB(str(tmp_path))
        rec = fresh.get("k1")
        assert rec is not None and rec.config.engine == "machine"
        assert fresh.hits == 1

    def _entry_path(self, tmp_path, key):
        return os.path.join(str(tmp_path), f"{key}.json")

    def test_corrupted_json_discarded_and_deleted(self, tmp_path):
        db = TuningDB(str(tmp_path))
        path = self._entry_path(tmp_path, "k1")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert db.get("k1") is None
        assert db.discards == 1
        assert not os.path.exists(path)

    @pytest.mark.parametrize("mutate", [
        lambda d: {**d, "format": 999},          # stale format version
        lambda d: {**d, "key": "someone-else"},  # key does not echo address
        lambda d: {**d, "config": {"engine": "gpu"}},  # malformed config
        lambda d: {**d, "mstencil_s": -1.0},     # non-positive measurement
        lambda d: {**d, "seconds": "fast"},      # wrong type
        lambda d: [d],                           # not an object
        # winners of the retired tile/shard executor families
        lambda d: {**d, "config": {"engine": "tiled", "tile_shape": [64],
                                   "workers": 1, "run_backend": "thread"}},
        lambda d: {**d, "config": {"engine": "shard", "shards": 2,
                                   "temporal_block": 2,
                                   "run_backend": "thread"}},
        lambda d: {**d, "config": {"engine": "parallel", "shards": 2,
                                   "workers": 2, "temporal_block": 1,
                                   "run_backend": "thread"}},
    ])
    def test_stale_entries_discarded(self, tmp_path, mutate):
        db = TuningDB(str(tmp_path))
        db.put(make_record("k1"))
        path = self._entry_path(tmp_path, "k1")
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(mutate(payload), fh)
        fresh = TuningDB(str(tmp_path))  # bypass the in-memory copy
        assert fresh.get("k1") is None
        assert fresh.discards == 1
        assert not os.path.exists(path)

    def test_clear_removes_disk_entries(self, tmp_path):
        db = TuningDB(str(tmp_path))
        db.put(make_record("k1"))
        db.put(make_record("k2"))
        assert db.clear() == 2
        assert db.get("k1") is None

    def test_old_promotion_delta_is_ignored_and_cleared(self, tmp_path):
        # tuning dirs written before the entry file became the only
        # record may hold per-writer ``<key>.p-<pid>-<uuid>.json`` files
        db = TuningDB(str(tmp_path))
        db.put(make_record("k1", mstencil_s=10.0))
        with open(os.path.join(str(tmp_path), "k1.p-999-deadbeef.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(make_record("k1", mstencil_s=99.0).to_dict(), fh)
        with open(os.path.join(str(tmp_path), "k2.p-999-deadbeef.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(make_record("k2", mstencil_s=99.0).to_dict(), fh)
        fresh = TuningDB(str(tmp_path))
        assert fresh.get("k1").mstencil_s == 10.0
        assert fresh.get("k2") is None
        assert fresh.entries() == ["k1"]
        assert fresh.clear() == 3
        assert os.listdir(str(tmp_path)) == []


class TestTunerBudgetOverrun:
    """One slow trial must not blow through ``max_seconds``: the tuner
    caps every trial at the *remaining* budget and records the overrun
    as a failed trial instead of hanging."""

    def test_slow_trial_is_cut_at_the_remaining_budget(self, monkeypatch):
        import time

        import repro.tune.tuner as tuner_mod
        from repro.tune.engine import Trial

        calls = {"n": 0}

        def slow_measure(spec, machine, config, shape, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                return Trial(config=config, seconds=0.01, mstencil_s=5.0,
                             steps=2, repeats=1)
            time.sleep(2.0)  # would overrun the whole budget
            return Trial(config=config, seconds=2.0, mstencil_s=99.0,
                         steps=2, repeats=1)

        monkeypatch.setattr(tuner_mod, "measure", slow_measure)
        tuner = Tuner(MACHINE, cache=KernelCache(), db=TuningDB(None),
                      budget=TuneBudget(max_trials=4, max_seconds=0.4,
                                        warmup=0, repeats=1))
        t0 = time.perf_counter()
        report = tuner.tune(HEAT1D, (256,), steps=2)
        wall = time.perf_counter() - t0
        assert wall < 1.5  # the 2 s sleeper was abandoned, not awaited
        assert report.stopped == "budget"
        overruns = [t for t in report.trials
                    if t.timed_out and "overran" in (t.error or "")]
        assert overruns, "the overrun trial must be recorded as failed"
        assert not overruns[0].ok
        assert report.best.mstencil_s == 5.0  # sleeper never won


class TestTunerEndToEnd:
    def test_search_then_db_hit_with_zero_trials(self):
        tuner = fast_tuner()
        first = tuner.tune(HEAT1D, (256,), steps=2)
        assert not first.from_db
        assert len(first.trials) >= 1
        assert first.best.ok and first.best.mstencil_s > 0
        assert first.record is not None
        # the acceptance criterion: an identical workload is a database
        # hit and runs zero empirical trials
        second = tuner.tune(HEAT1D, (256,), steps=2)
        assert second.from_db
        assert len(second.trials) == 0
        assert second.best.config == first.best.config
        assert tuner.db.stats_dict()["hits"] == 1

    def test_baseline_always_gets_a_trial(self):
        report = fast_tuner().tune(HEAT1D, (256,), steps=2)
        base = default_config(HEAT1D, MACHINE).as_dict()
        assert any(t.config.as_dict() == base for t in report.trials)

    def test_force_retunes_over_a_stored_winner(self):
        tuner = fast_tuner()
        tuner.tune(HEAT1D, (256,), steps=2)
        again = tuner.tune(HEAT1D, (256,), steps=2, force=True)
        assert not again.from_db and len(again.trials) >= 1

    def test_corrupted_db_entry_triggers_retune(self, tmp_path):
        db = TuningDB(str(tmp_path))
        tuner = fast_tuner(db=db)
        report = tuner.tune(HEAT1D, (256,), steps=2)
        path = os.path.join(str(tmp_path), f"{report.key}.json")
        assert os.path.exists(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("garbage")
        fresh = fast_tuner(db=TuningDB(str(tmp_path)))
        redo = fresh.tune(HEAT1D, (256,), steps=2)
        assert not redo.from_db and len(redo.trials) >= 1
        assert fresh.db.discards == 1
        # and the re-tuned winner is stored again, valid on disk
        assert TuningDB(str(tmp_path)).get(report.key) is not None

    def test_retired_numpy_engine_record_is_a_miss_and_retunes(self,
                                                                tmp_path):
        """A stored winner from before the numpy engine was retired
        names ``"engine": "numpy"``: reading it raises TuneError inside
        the database, so it is discarded as a miss and the workload is
        tuned again, not a crash."""
        db = TuningDB(str(tmp_path))
        report = fast_tuner(db=db).tune(HEAT1D, (256,), steps=2)
        path = os.path.join(str(tmp_path), f"{report.key}.json")
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["config"] = {"engine": "numpy", "time_fusion": 1,
                             "use_sdf": True}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with pytest.raises(TuneError):
            TuneConfig.from_dict(payload["config"])
        fresh = fast_tuner(db=TuningDB(str(tmp_path)))
        assert fresh.tuned_config(HEAT1D, (256,)) is None
        assert fresh.db.discards == 1 and not os.path.exists(path)
        redo = fresh.tune(HEAT1D, (256,), steps=2)
        assert not redo.from_db and len(redo.trials) >= 1
        assert redo.best.config.engine != "numpy"
        assert TuningDB(str(tmp_path)).get(report.key) is not None

    def test_tuned_config_lookup_without_search(self):
        tuner = fast_tuner()
        assert tuner.tuned_config(HEAT1D, (256,)) is None
        report = tuner.tune(HEAT1D, (256,), steps=2)
        assert tuner.tuned_config(HEAT1D, (256,)) == report.best.config

    def test_boundary_is_part_of_the_workload(self):
        tuner = fast_tuner()
        tuner.tune(HEAT1D, (256,), steps=2)
        assert tuner.tuned_config(HEAT1D, (256,),
                                  boundary="constant") is None

    def test_rejects_bad_requests(self):
        tuner = fast_tuner()
        with pytest.raises(TuneError):
            tuner.tune(HEAT1D, (256,), steps=0)
        with pytest.raises(TuneError):
            tuner.tune(HEAT2D, (64,), steps=2)  # rank mismatch


class TestTunerRank:
    """Stage 1 alone (``repro tune --model-only``): the search's own
    ranking, with no trial and no database access."""

    def test_matches_the_search_ranking(self):
        tuner = fast_tuner()
        legal, ranked = tuner.rank(HEAT1D, (256,), steps=2)
        space = enumerate_space(HEAT1D, MACHINE, (256,))
        assert legal == len(space)
        assert ranked == rank_candidates(HEAT1D, MACHINE, space, (256,),
                                         steps=2, cache=KernelCache())
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        report = tuner.tune(HEAT1D, (256,), steps=2)
        assert report.candidates == legal
        score_of = {c.label(): sc for c, sc in ranked}
        assert all(t.model_score == score_of[t.config.label()]
                   for t in report.trials)

    def test_touches_no_database(self, tmp_path):
        tuner = fast_tuner(db=TuningDB(str(tmp_path)))
        tuner.rank(HEAT1D, (256,), steps=2)
        assert os.listdir(str(tmp_path)) == []
        stats = tuner.db.stats_dict()
        assert stats["hits"] == stats["misses"] == stats["writes"] == 0

    def test_filters_restrict_the_ranking(self):
        tuner = fast_tuner()
        _, ranked = tuner.rank(HEAT1D, (256,), engines=("parallel",))
        assert {c.engine for c, _ in ranked} == {"parallel"}
        _, ranked = tuner.rank(HEAT1D, (256,), engines=("machine",),
                               exec_backends=("interp",))
        assert {c.exec_backend for c, _ in ranked} == {"interp"}
        _, ranked = tuner.rank(HEAT2D, (64, 64), engines=("scheme",),
                               schemes=("temporal",))
        assert {c.scheme for c, _ in ranked} == {"temporal"}

    def test_temporal_block_does_not_move_a_score(self):
        # the model sees no tile for an axis-0 part, so s ties; trials
        # decide it
        _, ranked = fast_tuner().rank(HEAT2D, (256, 256),
                                      engines=("parallel",))
        by_layout = {}
        for cfg, score in ranked:
            by_layout.setdefault((cfg.parts, cfg.workers), set()).add(score)
        assert all(len(scores) == 1 for scores in by_layout.values())

    def test_rejects_bad_requests(self):
        tuner = fast_tuner()
        with pytest.raises(TuneError):
            tuner.rank(HEAT1D, (256,), steps=0)
        with pytest.raises(TuneError):
            tuner.rank(HEAT2D, (64,))  # rank mismatch
        with pytest.raises(TuneError):  # x extent below one 2W block
            tuner.rank(HEAT1D, (4,), engines=("machine",))


class TestIntegration:
    def test_planner_applies_tuned_override(self):
        cfg = TuneConfig(engine="machine", time_fusion=2, use_sdf=False,
                         exec_backend="interp")
        p = plan(HEAT1D, MACHINE, tuned=cfg)
        assert p.time_fusion == 2
        assert p.use_sdf is False
        assert p.backend == "interp"

    def test_compile_kernel_applies_tuned_override(self):
        from repro.core import compile_kernel
        from repro.stencils.grid import Grid
        cfg = TuneConfig(engine="machine", time_fusion=1, use_sdf=False)
        grid = Grid((256,), 16)
        kernel = compile_kernel(HEAT1D, MACHINE, grid, cache=False,
                                tuned=cfg)
        assert kernel.plan.time_fusion == 1
        assert kernel.plan.use_sdf is False

    def test_service_compile_many_tunes_and_reuses(self):
        from repro.service import CompileRequest, KernelService
        svc = KernelService(MACHINE)
        reqs = [CompileRequest(HEAT1D, (256,))]
        kernels = svc.compile_many(reqs, tune=True)
        assert len(kernels) == 1
        stats = svc.stats()
        assert stats["tuning_entries"] == 1
        assert stats["tuning_misses"] >= 1
        # the second batch is a pure database hit: no new trials, and the
        # tuned plan matches the stored winner
        svc.compile_many(reqs, tune=True)
        stats2 = svc.stats()
        assert stats2["tuning_hits"] >= 1
        assert stats2["tuning_entries"] == 1
        winner = svc.tuning_db.lookup(HEAT1D, MACHINE, (256,))
        assert winner is not None
        if winner.config.is_plan_aware:
            k = kernels[0]
            assert k.plan.time_fusion == winner.config.time_fusion
            assert k.plan.use_sdf == winner.config.use_sdf

    def test_stored_batch_winner_still_applies(self, tmp_path):
        """A winner recorded while ``batch`` was an engine still loads
        from disk and applies; the run resolves it to codegen."""
        import numpy as np
        from repro import obs
        from repro.service import CompileRequest, KernelService
        from repro.tune import workload_key
        cfg = TuneConfig(engine="machine", time_fusion=1, use_sdf=False,
                         exec_backend="batch")
        key = workload_key(HEAT1D, MACHINE, (256,))
        TuningDB(str(tmp_path / "tuning")).put(make_record(key, config=cfg))
        svc = KernelService(MACHINE, cache_dir=str(tmp_path))
        k, = svc.compile_many([CompileRequest(HEAT1D, (256,))], tune=True)
        assert k.plan.time_fusion == 1 and k.plan.use_sdf is False
        assert k.exec_backend() == "batch"
        grid = k.grid_like((256,), seed=2)
        want = k.run(grid, 2, backend="interp")
        was = obs.enabled()
        obs.enable(reset=True)
        try:
            got = k.run(grid, 2)
            counters = obs.snapshot()["metrics"]["counters"]
        finally:
            if not was:
                obs.disable()
        assert np.array_equal(got.data, want.data)
        assert counters["exec.backend_alias.batch"] == 1
        assert "exec.codegen_fallback" not in counters

    def test_service_untuned_compile_unchanged(self):
        from repro.service import CompileRequest, KernelService
        svc = KernelService(MACHINE)
        k, = svc.compile_many([CompileRequest(HEAT1D, (256,))])
        assert k.plan.time_fusion == auto_fusion(HEAT1D, MACHINE)
        assert svc.stats()["tuning_entries"] == 0
