"""Real-execution micro-benchmarks (wall-clock, not the analytic model).

These time the repository's actual Python code paths: the numpy fast path
of compiled Jigsaw kernels vs the dense reference sweep, the SIMD-machine
interpreter, and the threaded parallel executor.  They demonstrate that the
SDF low-rank structure is a genuine algorithmic saving even at the numpy
level (separable kernels run fewer array passes than dense taps)."""

import time

import numpy as np
import pytest

from repro.config import GENERIC_AVX2
from repro.core import compile_kernel
from repro.core.cache import KernelCache
from repro.parallel.executor import run_parallel
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid
from repro.tiling.tessellate import tessellate_nd
from repro.vectorize.driver import run_program
from repro.schemes import generate, model_grid


def _kernel_and_grid(name, shape, fusion=1):
    spec = library.get(name)
    k0 = compile_kernel(spec, GENERIC_AVX2, Grid(shape, 16),
                        time_fusion=fusion)
    g = k0.grid_like(shape, seed=1)
    return compile_kernel(spec, GENERIC_AVX2, g, time_fusion=fusion), g


def test_dense_reference_box3d(benchmark):
    spec = library.get("box-3d27p")
    g = Grid.random((48, 48, 48), spec.radius, seed=1)
    out = benchmark(apply_steps, spec, g, 2)
    assert np.isfinite(out.interior).all()


def test_jigsaw_numpy_path_box3d(benchmark):
    """The separable Box-3D27P: SDF turns 27 dense taps into one
    flatten + 3-tap pass — fewer numpy array traversals."""
    k, g = _kernel_and_grid("box-3d27p", (48, 48, 48))
    out = benchmark(k.run_numpy, g, 2)
    ref = apply_steps(library.get("box-3d27p"), g, 2)
    assert np.allclose(out.interior, ref.interior, rtol=1e-12)


def test_jigsaw_numpy_path_box2d(benchmark):
    k, g = _kernel_and_grid("box-2d9p", (512, 512))
    out = benchmark(k.run_numpy, g, 2)
    assert np.isfinite(out.interior).all()


def test_parallel_executor_heat2d(benchmark):
    spec = library.get("heat-2d")
    g = Grid.random((256, 256), spec.radius, seed=2)
    out = benchmark(run_parallel, spec, g, 2, workers=4, parts=4)
    ref = apply_steps(spec, g, 2)
    assert np.allclose(out.interior, ref.interior, rtol=1e-12)


def test_tessellated_1d_time_blocking(benchmark):
    spec = library.get("heat-1d")
    rng = np.random.default_rng(0)
    v = rng.uniform(size=1 << 14)
    out = benchmark(tessellate_nd, spec, v, 32, tile=(1024,))
    assert np.isfinite(out).all()


def _cold_compile(spec, grid):
    """One uncached compile: plan + SDF + full program generation."""
    cache = KernelCache()  # fresh -> every stage misses
    return cache.compile(spec, GENERIC_AVX2, grid).program


def test_compile_cold(benchmark):
    spec = library.get("box-2d9p")
    grid = Grid((64, 96), (16, 16))
    prog = benchmark(_cold_compile, spec, grid)
    assert prog.body  # a real program came out


def test_compile_cache_warm(benchmark):
    spec = library.get("box-2d9p")
    grid = Grid((64, 96), (16, 16))
    cache = KernelCache()
    cold = _cold_compile(spec, grid)
    cache.compile(spec, GENERIC_AVX2, grid).program  # prime
    warm = benchmark(lambda: cache.compile(spec, GENERIC_AVX2, grid).program)
    assert warm == cold
    assert cache.stats.hits >= 1 and cache.stats.misses == 1


def test_compile_cache_speedup():
    """Acceptance: a cache hit is >= 5x faster than a cold compile."""
    spec = library.get("box-3d27p")
    grid = Grid((8, 8, 96), (16, 16, 16))
    reps = 5

    t0 = time.perf_counter()
    for _ in range(reps):
        _cold_compile(spec, grid)
    cold = (time.perf_counter() - t0) / reps

    cache = KernelCache()
    cache.compile(spec, GENERIC_AVX2, grid).program  # prime
    t0 = time.perf_counter()
    for _ in range(reps):
        cache.compile(spec, GENERIC_AVX2, grid).program
    warm = (time.perf_counter() - t0) / reps

    assert cache.stats.hits >= reps
    assert cold / warm >= 5.0, (
        f"cache hit only {cold / warm:.1f}x faster "
        f"(cold {cold * 1e3:.2f}ms, warm {warm * 1e3:.2f}ms)"
    )


@pytest.mark.parametrize("scheme", ["auto", "reorg", "jigsaw"])
def test_simulator_interpreter_throughput(benchmark, scheme):
    """Cycle-exact interpretation speed per scheme (small grid)."""
    spec = library.get("heat-1d")
    grid = model_grid(scheme, spec, GENERIC_AVX2, seed=3)
    prog = generate(scheme, spec, GENERIC_AVX2, grid)
    out = benchmark(run_program, prog, grid, prog.steps_per_iter)
    ref = apply_steps(spec, grid, prog.steps_per_iter)
    assert np.allclose(out.interior, ref.interior, rtol=1e-12)
