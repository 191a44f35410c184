"""Additional property-based tests: random 3-D stencils, float32
butterflies, window invariants, cache-sim invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import GENERIC_AVX2, GENERIC_AVX2_F32
from repro.core.jigsaw import generate_jigsaw, required_halo
from repro.machine.cachesim import CacheHierarchySim, CacheLevelSim
from repro.stencils import apply_steps
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec
from repro.vectorize.driver import run_program
from repro.vectorize.shifts import window_offsets

coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                  allow_infinity=False).filter(lambda c: abs(c) > 1e-6)


@st.composite
def stencil_3d(draw):
    cells = [(dz, dy, dx)
             for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    picked = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=10,
                           unique=True))
    assume(any(dx != 0 for *_, dx in picked))
    coeffs = draw(st.lists(coeff, min_size=len(picked),
                           max_size=len(picked)))
    return StencilSpec("h3", 3, tuple(sorted(picked)), tuple(coeffs))


@st.composite
def stencil_1d_any(draw):
    r = draw(st.integers(1, 4))
    offsets = list(range(-r, r + 1))
    picked = draw(st.lists(st.sampled_from(offsets), min_size=1,
                           max_size=len(offsets), unique=True))
    assume(max(abs(o) for o in picked) == r)
    coeffs = draw(st.lists(coeff, min_size=len(picked),
                           max_size=len(picked)))
    return StencilSpec("h1", 1, tuple((o,) for o in sorted(picked)),
                       tuple(coeffs))


@settings(max_examples=10, deadline=None)
@given(stencil_3d(), st.integers(0, 100))
def test_jigsaw_3d_random_stencils(spec, seed):
    g = Grid.random((3, 3, 32), required_halo(spec, GENERIC_AVX2), seed=seed)
    prog = generate_jigsaw(spec, GENERIC_AVX2, g)
    got = run_program(prog, g, 1)
    ref = apply_steps(spec, g, 1)
    assert np.allclose(got.interior, ref.interior, rtol=1e-9, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(stencil_1d_any(), st.integers(0, 100))
def test_jigsaw_f32_random_stencils(spec, seed):
    assume(spec.radius[0] <= GENERIC_AVX2_F32.vector_elems)
    g = Grid.random((64,), required_halo(spec, GENERIC_AVX2_F32),
                    seed=seed, dtype=np.float32)
    prog = generate_jigsaw(spec, GENERIC_AVX2_F32, g)
    got = run_program(prog, g, 1)
    ref = apply_steps(spec, g, 1)
    scale = max(1.0, float(np.max(np.abs(ref.interior))))
    assert np.max(np.abs(got.interior - ref.interior)) < 5e-4 * scale


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=9),
       st.sampled_from([2, 4, 8]))
def test_window_offsets_invariants(deltas, width):
    offs = window_offsets(deltas, width)
    # aligned, consecutive, and the floor pair of every delta is present
    assert all(o % width == 0 for o in offs)
    assert all(b - a == width for a, b in zip(offs, offs[1:]))
    for d in deltas:
        if d % width == 0:
            # exact multiples resolve to the window register directly
            assert d in offs
        else:
            base = (d // width) * width
            assert base in offs and base + width in offs


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4096), st.booleans()),
                min_size=1, max_size=120))
def test_cache_sim_invariants(accesses):
    """hits + misses == accesses; DRAM lines <= total accesses; unique
    lines <= accesses; replaying the same trace twice only adds hits."""
    h = CacheHierarchySim([CacheLevelSim(1024, name="L1"),
                           CacheLevelSim(8192, name="L2")])
    for off, st_ in accesses:
        h.access("a", off, 8, st_)
    s1 = h.stats()
    assert s1.accesses == sum(hi + mi for _, hi, mi in s1.levels[:1])
    assert s1.dram_lines <= s1.accesses
    assert s1.unique_lines <= s1.accesses
    for off, st_ in accesses:
        h.access("a", off, 8, st_)
    s2 = h.stats()
    assert s2.dram_lines == s1.dram_lines or s2.dram_lines <= 2 * s1.dram_lines


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 1000))
def test_parallel_executor_arbitrary_tiles(parts, workers, seed):
    from repro.parallel.executor import run_parallel
    from repro.stencils import library
    spec = library.get("heat-2d")
    g = Grid.random((12, 18), 1, seed=seed)
    got = run_parallel(spec, g, 2, workers=workers, parts=parts)
    ref = apply_steps(spec, g, 2)
    assert np.allclose(got.interior, ref.interior, rtol=1e-12)
