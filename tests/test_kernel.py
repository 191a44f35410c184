"""Tests for the CompiledKernel public API."""

import numpy as np
import pytest

from repro.config import GENERIC_AVX2
from repro.errors import VectorizeError
from repro.core import compile_kernel
from repro.core import kernel as kernel_mod
from repro.stencils import apply_steps, library
from repro.stencils.boundary import fill_halo
from repro.stencils.grid import Grid

from _helpers import KERNELS, SIM_KERNELS


def make_kernel(kernel, nx=32, fusion="auto", rows=6):
    """A kernel and a matching random grid; ``rows`` is the extent of
    axis 0 on 2-D and 3-D grids (the other outer axes get 6)."""
    spec = library.get(kernel)
    shape = ((rows,) + (6,) * (spec.ndim - 2) if spec.ndim > 1 else ()) + (nx,)
    k0 = compile_kernel(spec, GENERIC_AVX2, Grid(shape, 16),
                        time_fusion=fusion)
    g = k0.grid_like(shape, seed=7)
    return compile_kernel(spec, GENERIC_AVX2, g, time_fusion=fusion), g


@pytest.mark.parametrize("kernel", SIM_KERNELS)
def test_sim_and_numpy_paths_agree_with_reference(kernel):
    k, g = make_kernel(kernel)
    steps = 2 * k.plan.time_fusion
    ref = apply_steps(k.plan.spec, g, steps)
    sim = k.run(g, steps)
    fast = k.run_numpy(g, steps)
    assert np.allclose(sim.interior, ref.interior, rtol=1e-12, atol=1e-14)
    assert np.allclose(fast.interior, ref.interior, rtol=1e-12, atol=1e-14)


def test_numpy_path_large_grid():
    spec = library.get("box-2d9p")
    k0 = compile_kernel(spec, GENERIC_AVX2, Grid((128, 128), 8))
    g = k0.grid_like((128, 128), seed=3)
    k = compile_kernel(spec, GENERIC_AVX2, g)
    steps = 2 * k.plan.time_fusion
    fast = k.run_numpy(g, steps)
    ref = apply_steps(spec, g, steps)
    assert np.allclose(fast.interior, ref.interior, rtol=1e-12)


def test_numpy_rejects_unaligned_steps():
    k, g = make_kernel("heat-1d", fusion=2)
    with pytest.raises(VectorizeError):
        k.run_numpy(g, 3)


def test_numpy_rejects_fused_dirichlet():
    k, g = make_kernel("heat-1d", fusion=2)
    with pytest.raises(VectorizeError):
        k.run_numpy(g, 2, boundary="dirichlet")


def test_numpy_dirichlet_unfused():
    k, g = make_kernel("heat-2d", fusion=1)
    got = k.run_numpy(g, 2, boundary="dirichlet", value=0.25)
    ref = apply_steps(k.plan.spec, g, 2, boundary="dirichlet", value=0.25)
    assert np.allclose(got.interior, ref.interior, rtol=1e-12)


def test_geometry_mismatch_rejected():
    k, g = make_kernel("heat-1d")
    other = Grid.random((64,), g.halo, seed=0)
    with pytest.raises(VectorizeError):
        k.run(other, 2)


def test_program_cached():
    k, _ = make_kernel("heat-1d")
    assert k.program is k.program


def test_trace_and_mix():
    k, g = make_kernel("heat-1d")
    tc = k.trace(g)
    assert tc.vectors > 0
    pv = k.per_vector_mix()
    assert set(pv) == {"L", "S", "C", "I", "A"}


def test_kernel_cost_and_estimate():
    k, _ = make_kernel("heat-2d")
    cost = k.kernel_cost()
    assert cost.scheme.startswith("t-jigsaw") or cost.scheme == "jigsaw"
    res = k.estimate(points=10**6, steps=10)
    assert res.gstencil_s > 0
    assert res.bottleneck in ("compute", "memory")


def test_grid_like_has_kernel_halo():
    k, g = make_kernel("heat-3d")
    assert g.halo == k.halo()


# -- row slabs -----------------------------------------------------------------
#
# run_numpy sweeps interior rows of axis 0 in blocks of at most
# kernel.NUMPY_SLAB_POINTS output points.  The grids here have 7 rows, so a
# 3-row bound leaves a 1-row remainder block.

SLAB_CASES = [
    ("heat-1d", 1, "periodic"), ("heat-1d", 2, "periodic"),
    ("heat-1d", 1, "dirichlet"),
    ("heat-2d", 1, "periodic"), ("heat-2d", 2, "periodic"),
    ("box-2d9p", 1, "dirichlet"),
    ("heat-3d", 1, "periodic"), ("heat-3d", 2, "periodic"),
    ("heat-3d", 1, "dirichlet"),
]


def spy_blocks(monkeypatch, k):
    """Record the ``(k0, k1)`` row block of every flatten call."""
    blocks = []
    flatten = k._flatten_numpy

    def spy(grid, term, rx, k0, k1):
        blocks.append((k0, k1))
        return flatten(grid, term, rx, k0, k1)

    monkeypatch.setattr(k, "_flatten_numpy", spy)
    return blocks


def expected_blocks(k, g, rows, steps):
    """Blocks per flatten call: every term of every fused sweep visits
    the row blocks in order; a 1-D grid is always one block."""
    n0 = g.shape[0]
    step = n0 if g.ndim == 1 else rows
    per_sweep = [(k0, min(n0, k0 + step)) for k0 in range(0, n0, step)]
    return [b for _ in range(steps // k.plan.time_fusion)
            for b in per_sweep for _ in k.plan.terms]


@pytest.mark.parametrize("kernel,fusion,boundary", SLAB_CASES)
@pytest.mark.parametrize("slab_rows", [1, 3])
def test_numpy_row_slabs_match_unsliced_bitwise(monkeypatch, kernel, fusion,
                                                boundary, slab_rows):
    k, g = make_kernel(kernel, fusion=fusion, rows=7)
    assert k.plan.time_fusion == fusion
    steps = 2 * fusion
    per_row = int(np.prod(g.shape[1:]))
    monkeypatch.setattr(kernel_mod, "NUMPY_SLAB_POINTS",
                        int(np.prod(g.shape)))
    whole = k.run_numpy(g, steps, boundary=boundary, value=0.25)
    monkeypatch.setattr(kernel_mod, "NUMPY_SLAB_POINTS", slab_rows * per_row)
    blocks = spy_blocks(monkeypatch, k)
    sliced = k.run_numpy(g, steps, boundary=boundary, value=0.25)
    assert blocks == expected_blocks(k, g, slab_rows, steps)
    assert np.array_equal(sliced.interior, whole.interior)


@pytest.mark.parametrize("kernel", ["heat-1d", "heat-2d", "heat-3d"])
def test_numpy_grid_within_bound_is_one_slab(monkeypatch, kernel):
    k, g = make_kernel(kernel, rows=7)
    steps = 2 * k.plan.time_fusion
    points = int(np.prod(g.shape))
    blocks = spy_blocks(monkeypatch, k)
    for bound in (kernel_mod.NUMPY_SLAB_POINTS, points):
        monkeypatch.setattr(kernel_mod, "NUMPY_SLAB_POINTS", bound)
        blocks.clear()
        k.run_numpy(g, steps)
        assert blocks == expected_blocks(k, g, g.shape[0], steps)
    # one point fewer splits off the last row (the x axis of a 1-D grid
    # is never split)
    monkeypatch.setattr(kernel_mod, "NUMPY_SLAB_POINTS", points - 1)
    blocks.clear()
    k.run_numpy(g, steps)
    assert blocks == expected_blocks(k, g, g.shape[0] - 1, steps)


# -- first-product seeding ----------------------------------------------------

def zero_seeded_numpy(k, grid, steps, boundary, value):
    """``run_numpy`` as it was before seeding: every flattened sum and
    every output block starts from zeros and adds each product in turn."""
    s = k.plan.time_fusion
    rx = max(max(abs(d) for d in t.v) for t in k.plan.terms)
    cur, nxt = grid.copy(), grid.like()
    nx, n0 = grid.shape[-1], grid.shape[0]
    per_row = int(np.prod(grid.shape[1:]))
    rows = (n0 if grid.ndim == 1
            else max(1, kernel_mod.NUMPY_SLAB_POINTS // per_row))
    hx = grid.halo[-1]
    for _ in range(steps // s):
        fill_halo(cur, boundary, value=value)
        for k0 in range(0, n0, rows):
            k1 = min(n0, k0 + rows)
            out = nxt.interior[k0:k1]
            out.fill(0.0)
            for term in k.plan.terms:
                spans = [(0, n) for n in grid.shape[:-1]]
                if spans:
                    spans[0] = (k0, k1)
                g = np.zeros(tuple(b - a for a, b in spans) + (nx + 2 * rx,))
                for outer, c in term.u.items():
                    sl = [slice(h + o + a, h + o + b)
                          for (a, b), h, o in zip(spans, grid.halo, outer)]
                    sl.append(slice(hx - rx, hx - rx + nx + 2 * rx))
                    np.add(g, c * cur.data[tuple(sl)], out=g)
                for dx, c in term.v.items():
                    lo = rx + dx
                    np.add(out, c * g[..., lo:lo + nx], out=out)
        cur, nxt = nxt, cur
    return cur


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("fusion", [1, "auto"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_numpy_first_product_seeding_matches_zero_seeded(kernel, fusion,
                                                         boundary):
    """Seeding each sum with its first product instead of a zero fill
    changes at most the sign of a zero, so the values are equal."""
    k, g = make_kernel(kernel, fusion=fusion, rows=7)
    steps = 2 * k.plan.time_fusion
    if boundary == "dirichlet" and k.plan.time_fusion > 1:
        with pytest.raises(VectorizeError):
            k.run_numpy(g, steps, boundary=boundary)
        return
    got = k.run_numpy(g, steps, boundary=boundary, value=0.25)
    want = zero_seeded_numpy(k, g, steps, boundary, 0.25)
    assert np.array_equal(got.interior, want.interior)


@pytest.mark.parametrize("kernel", ["heat-1d", "box-2d9p", "heat-3d"])
def test_numpy_seeding_keeps_float32_grids_equal(kernel):
    """A float32 grid: the flattened sums stay float64 (the first float32
    product is widened, not summed in float32)."""
    k, g = make_kernel(kernel, rows=7)
    g32 = Grid.random(g.shape, g.halo, seed=5, dtype=np.float32)
    steps = 2 * k.plan.time_fusion
    got = k.run_numpy(g32, steps)
    assert got.data.dtype == np.float32
    want = zero_seeded_numpy(k, g32, steps, "periodic", 0.0)
    assert np.array_equal(got.interior, want.interior)
