"""Tests for the observability subsystem (:mod:`repro.obs`).

Covers the tracer (nesting, thread roots, context propagation, bounded
retention), the metrics registry (counters/gauges/histograms, bucket
export), the disabled-state no-op contract, the instrumented stack
(``--profile`` span tree covering plan/SDF/codegen/sweep, cache hit/miss
latency metrics, the batch-fallback reason taxonomy), and the
``repro stats`` surface.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.__main__ import main
from repro.config import GENERIC_AVX2
from repro.obs.metrics import MetricsRegistry, _bucket_exponent
from repro.obs.tracer import Tracer, propagate
from repro.schemes import generate, scheme_halo
from repro.stencils import library
from repro.stencils.grid import Grid
from repro.vectorize.driver import run_program


@pytest.fixture()
def observing():
    """Enable recording for one test, restoring the prior state."""
    was = obs.enabled()
    obs.enable(reset=True)
    yield
    if not was:
        obs.disable()
    obs.reset()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- tracer --------------------------------------------------------------------

class TestTracer:
    def test_nesting_follows_with_scope(self):
        t = Tracer()
        with t.span("outer", k=1) as outer:
            with t.span("inner") as inner:
                assert t.current() is inner
            with t.span("inner2"):
                pass
            assert t.current() is outer
        assert t.current() is None
        roots = t.roots()
        assert [s.name for s in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner", "inner2"]
        assert roots[0].attrs == {"k": 1}
        assert roots[0].duration_s is not None
        assert all(c.duration_s <= roots[0].duration_s + 1e-9
                   for c in roots[0].children)

    def test_set_attrs_chainable(self):
        t = Tracer()
        with t.span("s") as s:
            assert s.set(a=1).set(b=2) is s
        d = t.to_list()[0]
        assert d["attrs"] == {"a": 1, "b": 2}
        assert d["duration_ms"] >= 0.0

    def test_worker_threads_open_own_roots(self):
        t = Tracer()
        def work():
            with t.span("worker"):
                pass
        with t.span("main-root"):
            th = threading.Thread(target=work, name="obs-worker")
            th.start()
            th.join()
        names = {s.name: s for s in t.roots()}
        # the worker starts from an empty context -> its span is a root,
        # stamped with the worker's thread name
        assert set(names) == {"worker", "main-root"}
        assert names["worker"].thread == "obs-worker"
        assert names["main-root"].children == []

    def test_propagate_nests_pool_spans_under_caller(self):
        t = Tracer()
        def work():
            with t.span("pooled"):
                pass
        with ThreadPoolExecutor(max_workers=1) as pool:
            with t.span("submit-root"):
                pool.submit(propagate(work)).result()
        (root,) = t.roots()
        assert root.name == "submit-root"
        assert [c.name for c in root.children] == ["pooled"]

    def test_root_retention_is_bounded(self):
        t = Tracer(max_roots=4)
        for i in range(10):
            with t.span(f"r{i}"):
                pass
        assert [s.name for s in t.roots()] == ["r6", "r7", "r8", "r9"]

    def test_render_tree(self):
        t = Tracer()
        with t.span("top", kernel="k"):
            with t.span("child"):
                pass
        text = t.render()
        assert "top" in text and "[kernel=k]" in text
        assert "`- child" in text and "ms" in text


# -- metrics -------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        for v in (1.0, 3.0, 100.0):
            reg.histogram("h").observe(v)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 2.5}
        h = snap["histograms"]["h"]
        assert h["count"] == 3 and h["sum"] == 104.0
        assert h["min"] == 1.0 and h["max"] == 100.0
        assert h["mean"] == pytest.approx(104.0 / 3)
        # power-of-two upper bounds: 1 -> 2^0, 3 -> 2^2, 100 -> 2^7
        assert h["buckets"] == {"<=2^0": 1, "<=2^2": 1, "<=2^7": 1}

    def test_bucket_exponent_clamps(self):
        assert _bucket_exponent(0.0) == -40
        assert _bucket_exponent(-3.0) == -40
        assert _bucket_exponent(float("inf")) == -40
        assert _bucket_exponent(2.0**60) == 40
        assert _bucket_exponent(1.0) == 0

    def test_same_instrument_returned(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}

    def test_thread_safe_counting(self):
        reg = MetricsRegistry()
        def bump():
            for _ in range(1000):
                reg.counter("n").inc()
        threads = [threading.Thread(target=bump) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert reg.snapshot()["counters"]["n"] == 8000


# -- the process-wide switch ---------------------------------------------------

class TestSwitch:
    def test_disabled_is_inert(self):
        obs.disable()
        obs.reset()  # other tests may have left recorded data behind
        with obs.span("never", k=1) as s:
            s.set(more=2)  # chainable no-op
        obs.counter("never").inc()
        obs.gauge("never").set(1.0)
        obs.histogram("never").observe(1.0)
        snap = obs.snapshot()
        assert snap["spans"] == []
        assert snap["metrics"]["counters"] == {}

    def test_disabled_returns_shared_singletons(self):
        assert obs.span("a") is obs.span("b")
        assert obs.counter("a") is obs.histogram("b")

    def test_enable_reset_disable(self, observing):
        with obs.span("live"):
            obs.counter("c").inc()
        assert obs.snapshot()["metrics"]["counters"] == {"c": 1}
        assert [s["name"] for s in obs.snapshot()["spans"]] == ["live"]
        obs.disable()
        with obs.span("dead"):
            pass
        assert [s["name"] for s in obs.snapshot()["spans"]] == ["live"]


# -- the instrumented stack ----------------------------------------------------

def _span_names(spans):
    out = set()
    for s in spans:
        out.add(s["name"])
        out |= _span_names(s.get("children", ()))
    return out


class TestInstrumentedStack:
    def test_fallback_reason_mem_hook(self, observing):
        spec = library.get("heat-1d")
        halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
        grid = Grid.random((64,), halo, seed=3)
        program = generate("jigsaw", spec, GENERIC_AVX2, grid)
        run_program(program, grid, program.steps_per_iter, backend="codegen",
                    mem_hook=lambda *a, **k: None)
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["exec.codegen_fallback"] == 1
        assert counters["exec.codegen_fallback.reason.mem_hook"] == 1
        assert counters["exec.sweeps"] >= 1

    def test_fallback_reason_compile(self, observing, monkeypatch):
        from repro.machine.codegen import CodegenFallback
        from repro.vectorize import driver

        def boom(program):
            raise CodegenFallback("compile", "forced")

        monkeypatch.setattr(driver, "get_codegen", boom)
        spec = library.get("heat-1d")
        halo = scheme_halo("jigsaw", spec, GENERIC_AVX2)
        grid = Grid.random((64,), halo, seed=3)
        program = generate("jigsaw", spec, GENERIC_AVX2, grid)
        run_program(program, grid, program.steps_per_iter, backend="codegen")
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters["exec.codegen_fallback.reason.compile"] == 1

    def test_profile_cli_covers_all_stages(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        code, out, _ = run_cli(
            capsys, "run", "heat-2d", "--size", "32x32", "--steps", "2",
            "--backend", "auto", "--profile",
            "--metrics-json", str(metrics_path),
        )
        assert code == 0
        # the span tree reaches every pipeline stage
        for stage in ("repro.run", "cache.program", "plan", "sdf",
                      "codegen", "execute"):
            assert stage in out, f"--profile output missing {stage!r}"
        snap = json.loads(metrics_path.read_text())
        names = _span_names(snap["spans"])
        assert {"repro.run", "cache.plan", "cache.program", "plan", "sdf",
                "codegen", "execute"} <= names
        counters = snap["metrics"]["counters"]
        assert counters["cache.plan.misses"] >= 1
        assert counters["cache.program.misses"] >= 1
        hists = snap["metrics"]["histograms"]
        assert hists["cache.program.miss_ms"]["count"] >= 1
        # one sweep per *fused* step block, so 2 steps may be 1 sweep
        assert hists["exec.sweep_ms"]["count"] >= 1
        # recording is torn back down after the profiled run
        assert not obs.enabled()

    def test_profile_cache_hit_latencies_on_second_run(self, tmp_path,
                                                       capsys):
        # both runs lower through the process-wide kernel cache
        args = ("run", "heat-1d", "--size", "64", "--steps", "2",
                "--backend", "auto", "--metrics-json")
        code, _, _ = run_cli(capsys, *args, str(tmp_path / "m1.json"))
        assert code == 0
        code, _, _ = run_cli(capsys, *args, str(tmp_path / "m2.json"))
        assert code == 0
        snap = json.loads((tmp_path / "m2.json").read_text())
        counters = snap["metrics"]["counters"]
        assert counters.get("cache.program.hits", 0) >= 1
        assert snap["metrics"]["histograms"]["cache.program.hit_ms"][
            "count"] >= 1

    def test_stats_cli_json(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "run", "heat-1d", "--size", "64",
                             "--steps", "2")
        assert code == 0
        db_dir = str(tmp_path / "db")
        code, out, _ = run_cli(capsys, "stats", "--json", "--db-dir", db_dir)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"tuning_dir", "tuning", "obs"}
        assert payload["tuning_dir"] == db_dir
        assert payload["tuning"]["entries"] == 0
