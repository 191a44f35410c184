"""Property tests for the kernel compilation cache
(:mod:`repro.core.cache`).

Three invariants matter:

1. a cache hit returns a program identical to a cold compile;
2. the key is content-addressed — *any* change to the spec, the machine
   or the plan options changes it, and the keys of a fixed workload
   never drift (stored tuning records depend on them);
3. the key covers no grid geometry: one shape-free lowering serves every
   grid, and binding it to a grid is where rank, halo and extent are
   checked.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    GENERIC_AVX2,
    GENERIC_AVX2_F32,
    GENERIC_AVX512,
    PAPER_MACHINES,
)
from repro.core import compile_kernel, generate_jigsaw
from repro.core.cache import (
    PLAN_KEY_MEMO,
    KernelCache,
    default_cache,
    digest,
    plan_key,
    program_key,
    spec_digest,
)
from repro.errors import VectorizeError
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec, star
from repro.tune.db import workload_key, write_json_atomic
from repro.vectorize.driver import check_program_grid
from repro.vectorize.program import Loop, VectorProgram

SPEC = library.get("box-2d9p")
SHAPE = (8, 96)


def _grid(machine=GENERIC_AVX2, shape=SHAPE):
    return Grid(shape, (16,) * len(shape))


def _cold_program(spec=SPEC, machine=GENERIC_AVX2, grid=None) -> VectorProgram:
    grid = grid if grid is not None else _grid(machine)
    return KernelCache().compile(spec, machine, grid).program


def _all_fields(program: VectorProgram) -> dict:
    return {f.name: getattr(program, f.name)
            for f in dataclasses.fields(program)}


def _count_lowerings(monkeypatch, delay: float = 0.0) -> list:
    """Patch the plan lowering to record each call's thread."""
    import threading
    import time

    import repro.core.planner as planner_mod

    calls = []
    real_lower = planner_mod.lower_jigsaw

    def counting_lower(*args, **kwargs):
        calls.append(threading.get_ident())
        time.sleep(delay)  # widen a race window
        return real_lower(*args, **kwargs)

    monkeypatch.setattr(planner_mod, "lower_jigsaw", counting_lower)
    return calls


class TestHitIdentity:
    def test_memory_hit_identical_to_cold(self):
        cache = KernelCache()
        grid = _grid()
        cold = _cold_program()
        first = cache.compile(SPEC, GENERIC_AVX2, grid).program
        second = cache.compile(SPEC, GENERIC_AVX2, grid).program
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert first == cold and second == cold
        assert _all_fields(second) == _all_fields(cold)

    def test_cached_program_executes_identically(self):
        spec = library.get("heat-2d")
        shape = (32, 96)
        cache = KernelCache()
        k1 = cache.compile(spec, GENERIC_AVX2, _grid(shape=shape))
        g = Grid.random(shape, k1.grid.halo, seed=5)
        a = k1.run(g, k1.plan.time_fusion)
        k2 = cache.compile(spec, GENERIC_AVX2, _grid(shape=shape))
        b = k2.run(g, k2.plan.time_fusion)
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert np.array_equal(a.data, b.data)
        ref = apply_steps(spec, g, k1.plan.time_fusion)
        assert np.allclose(a.interior, ref.interior, rtol=1e-12)


class TestKeySensitivity:
    def test_coefficient_change_changes_key(self):
        other = SPEC.scaled(1.0 + 1e-9)
        assert plan_key(SPEC, GENERIC_AVX2) != plan_key(other, GENERIC_AVX2)

    def test_offset_change_changes_key(self):
        spec = star(2, 1, center=-4.0, arm=[1.0], name="k")
        moved = StencilSpec(
            name="k", ndim=2,
            offsets=tuple((o[0], o[1] + (1 if o == (0, 1) else 0))
                          for o in spec.offsets),
            coeffs=spec.coeffs,
        )
        assert plan_key(spec, GENERIC_AVX2) != plan_key(moved, GENERIC_AVX2)

    def test_name_change_changes_key(self):
        assert (plan_key(SPEC, GENERIC_AVX2)
                != plan_key(SPEC.renamed("other"), GENERIC_AVX2))

    @pytest.mark.parametrize("mutation", [
        {"vector_bits": 512},
        {"element_bytes": 4},
        {"freq_ghz": 3.0},
        {"vector_registers": 32},
        {"name": "other-machine"},
    ])
    def test_machine_change_changes_key(self, mutation):
        other = dataclasses.replace(GENERIC_AVX2, **mutation)
        assert plan_key(SPEC, GENERIC_AVX2) != plan_key(SPEC, other)

    def test_plan_options_change_key(self):
        base = plan_key(SPEC, GENERIC_AVX2)
        assert base != plan_key(SPEC, GENERIC_AVX2, time_fusion=1)
        assert base != plan_key(SPEC, GENERIC_AVX2, use_sdf=False)

    def test_grid_geometry_leaves_program_key_and_bind_checks_it(self):
        cache = KernelCache()
        plan = cache.plan(SPEC, GENERIC_AVX2)
        # extent and halo take no part in the key: one lowering serves
        # every grid, each bound to its own loop bounds
        grids = [_grid(shape=(8, 96)), _grid(shape=(8, 192)),
                 Grid((8, 96), 18)]
        for grid in grids:
            prog = cache.program(plan, grid)
            assert prog.loops[0] == Loop("y", grid.halo[0],
                                         grid.halo[0] + 8, 1)
            assert prog.x_loop.stop == grid.halo[1] + grid.shape[1]
        assert cache.stats.misses == 1 and cache.stats.hits == 2
        # a bind still rejects every grid the plan cannot run on
        hy, hx = plan.halo
        with pytest.raises(VectorizeError, match="halo"):
            cache.program(plan, Grid((8, 96), (hy - 1, hx)))
        with pytest.raises(VectorizeError, match="halo"):
            cache.program(plan, Grid((8, 96), (hy, hx - 1)))
        with pytest.raises(VectorizeError, match="shorter than one"):
            cache.program(plan, Grid((8, 2 * GENERIC_AVX2.vector_elems - 1),
                                     16))
        with pytest.raises(VectorizeError, match="ndim"):
            cache.program(plan, Grid((96,), 16))
        with pytest.raises(VectorizeError, match="ndim"):
            cache.program(plan, Grid((4, 8, 96), 16))
        assert cache.stats.misses == 1

    def test_zero_coefficient_sign_changes_key(self):
        # 0.0 == -0.0 with equal hashes, so the two specs compare equal;
        # their fingerprints differ, and so must every key built on them
        base = star(2, 1, center=-4.0, arm=[1.0], name="k")
        pos, neg = (StencilSpec(name="k", ndim=2,
                                offsets=base.offsets + ((1, 1),),
                                coeffs=base.coeffs + (zero,))
                    for zero in (0.0, -0.0))
        assert pos == neg and hash(pos) == hash(neg)
        assert plan_key(pos, GENERIC_AVX2) != plan_key(neg, GENERIC_AVX2)
        # the digest memo keeps them apart once both were fingerprinted
        assert plan_key(pos, GENERIC_AVX2) != plan_key(neg, GENERIC_AVX2)
        cache = KernelCache()
        p_pos = cache.plan(pos, GENERIC_AVX2)
        p_neg = cache.plan(neg, GENERIC_AVX2)
        assert p_pos is not p_neg
        assert program_key(p_pos) != program_key(p_neg)

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=1e-6, max_value=10.0,
                           allow_nan=False, allow_infinity=False),
           machine=st.sampled_from([GENERIC_AVX2, GENERIC_AVX512,
                                    GENERIC_AVX2_F32]))
    def test_any_scaling_perturbs_key(self, scale, machine):
        base = plan_key(SPEC, machine)
        scaled = SPEC.scaled(scale)
        same_content = scaled.coeffs == SPEC.coeffs and scaled.name == SPEC.name
        assert (plan_key(scaled, machine) == base) == same_content

    def test_distinct_machines_cache_separately(self):
        cache = KernelCache()
        p1 = cache.compile(SPEC, GENERIC_AVX2, _grid()).program
        p2 = cache.compile(SPEC, GENERIC_AVX512, _grid(GENERIC_AVX512)).program
        assert cache.stats.misses == 2
        assert p1.width != p2.width

    def test_memoized_keys_equal_fresh_digests(self):
        # memo hits, in any order, return the key a fresh digest gives;
        # option types key the memo (1 and True serialize differently)
        spec = library.get("heat-2d").renamed("memo")
        options = [{}, {"time_fusion": 1}, {"time_fusion": True},
                   {"use_sdf": False}, {"use_sdf": 0}, {"backend": "interp"},
                   {"time_fusion": 2, "use_sdf": False, "backend": "codegen"}]

        def fresh(machine, time_fusion="auto", use_sdf=True,
                  backend="auto"):
            payload = {"kind": "plan", "spec": spec_digest(spec),
                       "machine": digest(dataclasses.asdict(machine)),
                       "time_fusion": time_fusion, "use_sdf": use_sdf}
            if backend != "auto":
                payload["backend"] = backend
            return digest(payload)

        for _ in range(2):
            for machine in (GENERIC_AVX2, GENERIC_AVX512):
                for kw in reversed(options):
                    assert plan_key(spec, machine, **kw) == fresh(machine,
                                                                  **kw)
        assert len({plan_key(spec, GENERIC_AVX2, **kw)
                    for kw in options}) == len(options)
        for time_fusion in range(PLAN_KEY_MEMO + 5):
            plan_key(spec, GENERIC_AVX2, time_fusion=time_fusion)
        assert len(spec._plan_key_memo) <= PLAN_KEY_MEMO
        plan = KernelCache().plan(spec, GENERIC_AVX2)
        assert program_key(plan) == digest({
            "kind": "program", "spec": spec_digest(spec),
            "machine": digest(dataclasses.asdict(GENERIC_AVX2)),
            "options": plan.cache_token()})
        assert program_key(plan) is program_key(plan)

    def test_pinned_keys_for_heat_2d(self):
        # hex digests computed before the fingerprint helpers moved into
        # this module; a drift here orphans every stored tuning record
        spec = library.get("heat-2d")
        plan = KernelCache().plan(spec, GENERIC_AVX2)
        assert plan_key(spec, GENERIC_AVX2) == (
            "9662d8f849eb2dc63185a2c3b04cd84a3005cd18dbe68b88aa9c22a427dfade1")
        assert program_key(plan) == (
            "9698c25970961af3a3039ac8742da82b4698355e27caa13f60a7ffa13b11e07b")
        assert workload_key(spec, GENERIC_AVX2, (64, 64)) == (
            "3281e2d03a8f97481ff016d55c473255fec592ff1734ad98ccd0a8e6437b7dc0")
        assert workload_key(spec, GENERIC_AVX2, (64, 64),
                            boundary="dirichlet") == (
            "adeabbe5088f630bf5c1c0651d1750442a70e370f12dbb65a82f141de2b12e5b")


#: one cache for every hypothesis example, so each plan lowers once and
#: later examples bind a template lowered for another shape
_SHARED = KernelCache()


class TestShapeFreePrograms:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           name=st.sampled_from(library.names()),
           machine=st.sampled_from(PAPER_MACHINES + (GENERIC_AVX512,
                                                     GENERIC_AVX2_F32)),
           fusion=st.sampled_from(["auto", 1]))
    def test_bound_template_equals_per_grid_lowering(self, data, name,
                                                     machine, fusion):
        spec = library.get(name)
        plan = _SHARED.plan(spec, machine, time_fusion=fusion)
        block = 2 * machine.vector_elems
        outer = data.draw(st.lists(st.integers(1, 5), min_size=spec.ndim - 1,
                                   max_size=spec.ndim - 1))
        nx = data.draw(st.integers(block, 3 * block + block - 1))
        extra = data.draw(st.lists(st.integers(0, 3), min_size=spec.ndim,
                                   max_size=spec.ndim))
        halo = tuple(h + e for h, e in zip(plan.halo, extra))
        dtype = np.float32 if machine.element_bytes == 4 else np.float64
        grid = Grid(tuple(outer) + (nx,), halo, dtype=dtype)
        bound = _SHARED.program(plan, grid)
        direct = generate_jigsaw(spec, machine, grid,
                                 time_fusion=plan.time_fusion,
                                 terms=plan.terms, scheme=plan.scheme)
        assert _all_fields(bound) == _all_fields(direct)
        # the loops walk exactly this grid's interior
        walk = tuple(Loop(v, h, h + n, 1)
                     for v, h, n in zip(("z", "y")[-len(outer):], halo,
                                        outer))
        walk += (Loop("x", halo[-1], halo[-1] + nx // block * block, block),)
        assert bound.loops == walk
        check_program_grid(bound, grid)

    def test_bound_program_reuses_the_template_hash(self, monkeypatch):
        """A bound program hashes and compares equal to a fresh lowering
        for its grid, and hashing it hashes no instruction: the
        template's instruction-stream hash rides along."""
        from repro.machine.isa import Instr
        cache = KernelCache()
        plan = cache.plan(SPEC, GENERIC_AVX2)
        grid = Grid((24, 40), plan.halo)
        hash(cache.template(plan).program)
        calls = []
        real = Instr.__hash__
        monkeypatch.setattr(Instr, "__hash__",
                            lambda self: calls.append(self) or real(self))
        bound = cache.program(plan, grid)
        hash(bound)
        assert calls == []
        monkeypatch.setattr(Instr, "__hash__", real)
        direct = generate_jigsaw(SPEC, GENERIC_AVX2, grid,
                                 time_fusion=plan.time_fusion,
                                 terms=plan.terms, scheme=plan.scheme)
        assert bound == direct and hash(bound) == hash(direct)

    def test_shape_churn_lowers_once(self, monkeypatch):
        calls = _count_lowerings(monkeypatch)
        cache = KernelCache(max_entries=4)
        halo = cache.plan(SPEC, GENERIC_AVX2).halo
        shapes = [(ny, nx) for ny in (1, 3, 8, 17) for nx in
                  (8, 13, 32, 96, 101)]
        for shape in shapes:
            kernel = cache.compile(SPEC, GENERIC_AVX2, Grid(shape, halo))
            assert kernel.program.loops[0].trip_count == shape[0]
        assert len(calls) == 1
        d = cache.stats_dict()
        assert d["misses"] == 1 and d["hits"] == len(shapes) - 1
        assert d["evictions"] == 0 and d["memory_programs"] == 1
        assert d["plan_misses"] == 1


class TestStatsAndEviction:
    def test_lru_eviction_counted(self):
        cache = KernelCache(max_entries=2)
        specs = [library.get(n) for n in ("heat-1d", "star-1d5p", "star-1d7p")]
        for s in specs:
            cache.compile(s, GENERIC_AVX2, Grid((96,), 16)).program
        assert cache.stats.evictions == 1
        assert cache.stats_dict()["memory_programs"] == 2

    def test_stats_dict_shape(self):
        cache = KernelCache()
        cache.compile(SPEC, GENERIC_AVX2, _grid()).program
        d = cache.stats_dict()
        assert set(d) == {"hits", "misses", "evictions", "plan_hits",
                          "plan_misses", "memory_programs", "memory_plans"}
        assert d["misses"] == 1 and d["memory_programs"] == 1

    def test_clear_drops_entries_and_counters(self):
        cache = KernelCache()
        cache.compile(SPEC, GENERIC_AVX2, _grid()).program
        cache.clear()
        assert cache.stats_dict() == dict.fromkeys(cache.stats_dict(), 0)
        # post-clear compiles still work, and lower again
        assert cache.compile(SPEC, GENERIC_AVX2, _grid()).program.body
        assert cache.stats.misses == 1 and cache.stats.plan_misses == 1

    def test_default_cache_is_shared(self):
        shared = default_cache()
        assert default_cache() is shared
        k1 = compile_kernel(SPEC, GENERIC_AVX2, _grid())
        k2 = compile_kernel(SPEC, GENERIC_AVX2, _grid())
        before = shared.stats.hits
        k1.program, k2.program
        assert shared.stats.hits >= before + 1
        # cache=False bypasses memoization entirely
        before = shared.stats.as_dict()
        compile_kernel(SPEC, GENERIC_AVX2, _grid(), cache=False).program
        assert shared.stats.as_dict() == before


class TestConcurrency:
    def test_atomic_write_survives_thread_hammer(self, tmp_path):
        # The tuning database's writer (repro.tune.db).  Historically the
        # temp suffix was the pid only, so two threads of one process
        # writing the same entry interleaved into one temp file before
        # os.replace.  Hammer one path from many threads: the file must
        # be valid JSON (one of the payloads, never a mix) at every
        # point, and no temp droppings may remain.
        import threading

        path = os.path.join(str(tmp_path), "entry.json")
        errors = []
        barrier = threading.Barrier(8)

        def writer(tid: int) -> None:
            payload = {"writer": tid, "fill": "x" * 4096}
            barrier.wait()
            try:
                for _ in range(40):
                    write_json_atomic(path, payload)
                    with open(path, "r", encoding="utf-8") as fh:
                        seen = json.load(fh)
                    assert set(seen) == {"writer", "fill"}
                    assert seen["fill"] == "x" * 4096
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        leftovers = [n for n in os.listdir(tmp_path) if ".tmp." in n]
        assert leftovers == []

    def test_concurrent_misses_compile_once(self, monkeypatch):
        # Two services (or a service plus a tuner) sharing one cache used
        # to both run the full compile on a simultaneous miss; the
        # per-key in-flight lock collapses them to one.  Callers binding
        # different grid shapes share the key too.
        import threading

        calls = _count_lowerings(monkeypatch, delay=0.05)
        cache = KernelCache()
        plan = cache.plan(SPEC, GENERIC_AVX2)
        templates, programs = [], []
        barrier = threading.Barrier(6)

        def compete(i: int) -> None:
            barrier.wait()
            templates.append(cache.template(plan))
            programs.append(cache.program(plan, _grid(shape=(8 + i, 96))))

        threads = [threading.Thread(target=compete, args=(i,))
                   for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1, f"compiled {len(calls)} times"
        assert all(t is templates[0] for t in templates)
        assert all(p.body is templates[0].program.body for p in programs)
        assert sorted(p.loops[0].trip_count for p in programs) == list(
            range(8, 14))
        assert cache.stats.misses == 1
        assert cache.stats.hits == 11
        # stats_dict snapshots under the lock stay internally consistent
        d = cache.stats_dict()
        assert d["hits"] + d["misses"] == 12
