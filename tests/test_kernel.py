"""Tests for the CompiledKernel public API."""

import numpy as np
import pytest

from repro.config import GENERIC_AVX2, GENERIC_AVX2_F32
from repro.errors import VectorizeError
from repro.core import compile_kernel
from repro.machine import codegen as codegen_mod
from repro.stencils import apply_steps, library
from repro.stencils.boundary import fill_halo
from repro.stencils.grid import Grid

from _helpers import KERNELS, SIM_KERNELS


def make_kernel(kernel, nx=32, fusion="auto", rows=6, machine=GENERIC_AVX2):
    """A kernel and a matching random grid; ``rows`` is the extent of
    axis 0 on 2-D and 3-D grids (the other outer axes get 6)."""
    spec = library.get(kernel)
    shape = ((rows,) + (6,) * (spec.ndim - 2) if spec.ndim > 1 else ()) + (nx,)
    dtype = np.float32 if machine.element_bytes == 4 else np.float64
    k0 = compile_kernel(spec, machine, Grid(shape, 16, dtype=dtype),
                        time_fusion=fusion)
    g = Grid.random(shape, k0.halo(), seed=7, dtype=dtype)
    return compile_kernel(spec, machine, g, time_fusion=fusion), g


@pytest.mark.parametrize("kernel", SIM_KERNELS)
def test_sim_and_numpy_paths_agree_with_reference(kernel):
    """Both SIMD-machine engines, the interpreter and codegen, against
    the dense reference."""
    k, g = make_kernel(kernel)
    steps = 2 * k.plan.time_fusion
    ref = apply_steps(k.plan.spec, g, steps)
    sim = k.run(g, steps, backend="interp")
    fast = k.run(g, steps)
    assert np.allclose(sim.interior, ref.interior, rtol=1e-12, atol=1e-14)
    assert np.allclose(fast.interior, ref.interior, rtol=1e-12, atol=1e-14)


def test_numpy_path_large_grid():
    spec = library.get("box-2d9p")
    k0 = compile_kernel(spec, GENERIC_AVX2, Grid((128, 128), 8))
    g = k0.grid_like((128, 128), seed=3)
    k = compile_kernel(spec, GENERIC_AVX2, g)
    steps = 2 * k.plan.time_fusion
    fast = k.run(g, steps)
    ref = apply_steps(spec, g, steps)
    assert np.allclose(fast.interior, ref.interior, rtol=1e-12)


def test_numpy_rejects_unaligned_steps():
    k, g = make_kernel("heat-1d", fusion=2)
    with pytest.raises(VectorizeError):
        k.run(g, 3)


def test_numpy_rejects_fused_dirichlet():
    k, g = make_kernel("heat-1d", fusion=2)
    with pytest.raises(VectorizeError):
        k.run(g, 2, boundary="dirichlet")


def test_numpy_dirichlet_unfused():
    k, g = make_kernel("heat-2d", fusion=1)
    got = k.run(g, 2, boundary="dirichlet", value=0.25)
    ref = apply_steps(k.plan.spec, g, 2, boundary="dirichlet", value=0.25)
    assert np.allclose(got.interior, ref.interior, rtol=1e-12)


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("kernel", ["heat-1d", "box-2d9p", "heat-3d"])
def test_run_numpy_is_the_codegen_run(kernel, boundary):
    """``run_numpy`` is an alias: bitwise ``run(..., backend="codegen")``."""
    k, g = make_kernel(kernel, fusion=1, rows=7)
    got = k.run_numpy(g, 2, boundary=boundary, value=0.25)
    want = k.run(g, 2, boundary=boundary, value=0.25, backend="codegen")
    assert np.array_equal(got.data, want.data)


def test_x_extent_under_one_block_is_rejected():
    """A grid whose x extent is under one vector block has no program to
    run (the retired numpy engine accepted it)."""
    k, g = make_kernel("heat-2d", nx=3, fusion=1)
    with pytest.raises(VectorizeError):
        k.run_numpy(g, 2, boundary="dirichlet")


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
# run_numpy runs codegen, which strip-mines a sweep into row slabs of at
# most codegen.SLAB_POINTS block-covered output points.  The grids here
# have 7 rows, so a 3-row bound leaves a 1-row remainder slab.

SLAB_CASES = [
    ("heat-1d", 1, "periodic"), ("heat-1d", 2, "periodic"),
    ("heat-1d", 1, "dirichlet"),
    ("heat-2d", 1, "periodic"), ("heat-2d", 2, "periodic"),
    ("box-2d9p", 1, "dirichlet"),
    ("heat-3d", 1, "periodic"), ("heat-3d", 2, "periodic"),
    ("heat-3d", 1, "dirichlet"),
]


def spy_slabs(monkeypatch):
    """Record the slab count of every codegen sweep."""
    counts = []
    slabs = codegen_mod.CodegenProgram.slabs

    def spy(self, arrays):
        calls = slabs(self, arrays)
        counts.append(len(calls))
        return calls

    monkeypatch.setattr(codegen_mod.CodegenProgram, "slabs", spy)
    return counts


def points_per_row(k):
    """Block-covered output points per outer trip of ``k``'s program."""
    cg = codegen_mod.get_codegen(k.program)
    return int(np.prod(cg.outer_dims[1:])) * cg.trips * k.program.block


@pytest.mark.parametrize("kernel,fusion,boundary", SLAB_CASES)
@pytest.mark.parametrize("slab_rows", [1, 3])
def test_numpy_row_slabs_match_unsliced_bitwise(monkeypatch, kernel, fusion,
                                                boundary, slab_rows):
    k, g = make_kernel(kernel, fusion=fusion, rows=7)
    assert k.plan.time_fusion == fusion
    steps = 2 * fusion
    per_row = points_per_row(k)
    monkeypatch.setattr(codegen_mod, "SLAB_POINTS", 7 * per_row)
    whole = k.run_numpy(g, steps, boundary=boundary, value=0.25)
    monkeypatch.setattr(codegen_mod, "SLAB_POINTS", slab_rows * per_row)
    counts = spy_slabs(monkeypatch)
    sliced = k.run_numpy(g, steps, boundary=boundary, value=0.25)
    # a 1-D grid (axis 0 is x) is one slab
    slabs = 1 if g.ndim == 1 else -(-7 // slab_rows)
    assert counts == [slabs] * (steps // fusion)
    assert np.array_equal(sliced.data, whole.data)


@pytest.mark.parametrize("kernel", ["heat-1d", "heat-2d", "heat-3d"])
def test_numpy_grid_within_bound_is_one_slab(monkeypatch, kernel):
    k, g = make_kernel(kernel, rows=7)
    steps = 2 * k.plan.time_fusion
    points = 7 * points_per_row(k)
    counts = spy_slabs(monkeypatch)
    for bound in (codegen_mod.SLAB_POINTS, points):
        monkeypatch.setattr(codegen_mod, "SLAB_POINTS", bound)
        counts.clear()
        k.run_numpy(g, steps)
        assert counts == [1] * (steps // k.plan.time_fusion)
    # one point fewer splits 7 rows into 6 and a remainder of 1 (the x
    # axis of a 1-D grid is never split)
    monkeypatch.setattr(codegen_mod, "SLAB_POINTS", points - 1)
    counts.clear()
    k.run_numpy(g, steps)
    assert counts == [1 if g.ndim == 1 else 2] * (steps // k.plan.time_fusion)


# -- the flattened numpy oracle -----------------------------------------------

def zero_seeded_numpy(k, grid, steps, boundary, value):
    """The plan's fused, flattened algorithm in plain numpy (Algorithm 2's
    Flattening, then 1-D passes): every flattened sum and the output
    start from zeros and add each product in turn, in float64."""
    s = k.plan.time_fusion
    rx = max(max(abs(d) for d in t.v) for t in k.plan.terms)
    cur, nxt = grid.copy(), grid.like()
    nx = grid.shape[-1]
    hx = grid.halo[-1]
    for _ in range(steps // s):
        fill_halo(cur, boundary, value=value)
        out = nxt.interior
        out.fill(0.0)
        for term in k.plan.terms:
            g = np.zeros(grid.shape[:-1] + (nx + 2 * rx,))
            for outer, c in term.u.items():
                sl = [slice(h + o, h + o + n)
                      for n, h, o in zip(grid.shape, grid.halo, outer)]
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
    """Codegen, whose registers start from their first product, agrees
    with the zero-seeded flattened oracle on every library kernel, fused
    or not; a fused dirichlet run is refused."""
    k, g = make_kernel(kernel, fusion=fusion, rows=7)
    steps = 2 * k.plan.time_fusion
    if boundary == "dirichlet" and k.plan.time_fusion > 1:
        with pytest.raises(VectorizeError):
            k.run_numpy(g, steps, boundary=boundary)
        return
    got = k.run_numpy(g, steps, boundary=boundary, value=0.25)
    want = zero_seeded_numpy(k, g, steps, boundary, 0.25)
    assert np.allclose(got.interior, want.interior, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kernel", ["heat-1d", "box-2d9p", "heat-3d"])
def test_numpy_seeding_keeps_float32_grids_equal(kernel):
    """A float32 kernel runs float32 grids in float32, within float32
    rounding of the float64-summed oracle; a float32 grid on a float64
    kernel (which the retired numpy engine widened) is refused."""
    k, g = make_kernel(kernel, rows=7, machine=GENERIC_AVX2_F32)
    steps = 2 * k.plan.time_fusion
    got = k.run_numpy(g, steps)
    assert got.data.dtype == np.float32
    want = zero_seeded_numpy(k, g, steps, "periodic", 0.0)
    assert np.allclose(got.interior, want.interior, rtol=1e-5, atol=1e-6)
    k64, g64 = make_kernel(kernel, rows=7)
    g32 = Grid.random(g64.shape, g64.halo, seed=5, dtype=np.float32)
    with pytest.raises(VectorizeError):
        k64.run_numpy(g32, steps)
