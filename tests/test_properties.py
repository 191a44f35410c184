"""Property-based tests (hypothesis) on the core invariants."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import GENERIC_AVX2
from repro.core.itm import merged_spec
from repro.core.jigsaw import generate_jigsaw, required_halo
from repro.core.lbv import butterfly_requirements
from repro.core.sdf import (
    flatten_terms,
    reconstruction_error,
    structured_terms,
)
from repro.machine.isa import Instr, Op, execute_alu
from repro.stencils import apply_steps, library
from repro.stencils.boundary import fill_halo
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec
from repro.tiling.tessellate import tessellate_nd
from repro.vectorize.driver import run_program

# -- strategies ---------------------------------------------------------------

coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                  allow_infinity=False).filter(lambda c: abs(c) > 1e-6)


@st.composite
def stencil_1d(draw, max_radius=4):
    r = draw(st.integers(1, max_radius))
    offsets = list(range(-r, r + 1))
    picked = draw(st.lists(st.sampled_from(offsets), min_size=1,
                           max_size=len(offsets), unique=True))
    assume(max(abs(o) for o in picked) == r)  # keep the drawn radius
    coeffs = draw(st.lists(coeff, min_size=len(picked),
                           max_size=len(picked)))
    return StencilSpec("h1", 1, tuple((o,) for o in sorted(picked)),
                       tuple(coeffs))


@st.composite
def stencil_2d(draw):
    ry = draw(st.integers(1, 2))
    rx = draw(st.integers(1, 2))
    cells = [(dy, dx) for dy in range(-ry, ry + 1)
             for dx in range(-rx, rx + 1)]
    picked = draw(st.lists(st.sampled_from(cells), min_size=2,
                           max_size=len(cells), unique=True))
    assume(any(dx != 0 for _, dx in picked))
    coeffs = draw(st.lists(coeff, min_size=len(picked),
                           max_size=len(picked)))
    return StencilSpec("h2", 2, tuple(sorted(picked)), tuple(coeffs))


# -- shuffle round-trips --------------------------------------------------------

@given(st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8))
def test_butterfly_roundtrip(vals):
    """deinterleave (E/O) then interleave is the identity — the LBV
    swizzle/unswizzle pair."""
    regs = {"a": np.array(vals[:4]), "b": np.array(vals[4:])}
    execute_alu(Instr(Op.SHUFPD, dst="e", srcs=("a", "b"), imm=0), regs, 4)
    execute_alu(Instr(Op.SHUFPD, dst="o", srcs=("a", "b"), imm=0b1111),
                regs, 4)
    execute_alu(Instr(Op.SHUFPD, dst="a2", srcs=("e", "o"), imm=0), regs, 4)
    execute_alu(Instr(Op.SHUFPD, dst="b2", srcs=("e", "o"), imm=0b1111),
                regs, 4)
    assert np.array_equal(regs["a2"], regs["a"])
    assert np.array_equal(regs["b2"], regs["b"])


@given(st.permutations(list(range(4))),
       st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
def test_permpd_inverse(perm, vals):
    regs = {"a": np.array(vals)}
    execute_alu(Instr(Op.PERMPD, dst="p", srcs=("a",), imm=tuple(perm)),
                regs, 4)
    inv = tuple(np.argsort(perm))
    execute_alu(Instr(Op.PERMPD, dst="back", srcs=("p",), imm=inv), regs, 4)
    assert np.array_equal(regs["back"], regs["a"])


# -- scheme correctness on random stencils ---------------------------------------

@settings(max_examples=25, deadline=None)
@given(stencil_1d(), st.integers(0, 1000))
def test_jigsaw_1d_matches_reference(spec, seed):
    g = Grid.random((32,), required_halo(spec, GENERIC_AVX2), seed=seed)
    prog = generate_jigsaw(spec, GENERIC_AVX2, g)
    got = run_program(prog, g, 2)
    ref = apply_steps(spec, g, 2)
    assert np.allclose(got.interior, ref.interior, rtol=1e-10, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(stencil_2d(), st.integers(0, 1000))
def test_jigsaw_2d_matches_reference(spec, seed):
    g = Grid.random((5, 32), required_halo(spec, GENERIC_AVX2), seed=seed)
    prog = generate_jigsaw(spec, GENERIC_AVX2, g)
    got = run_program(prog, g, 1)
    ref = apply_steps(spec, g, 1)
    assert np.allclose(got.interior, ref.interior, rtol=1e-10, atol=1e-10)


# -- decomposition invariants ------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(stencil_2d())
def test_sdf_reconstruction_exact(spec):
    assert reconstruction_error(spec, flatten_terms(spec)) < 1e-10
    assert reconstruction_error(spec, structured_terms(spec)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(stencil_2d())
def test_structured_butterfly_terms_exclude_center_column(spec):
    terms = structured_terms(spec)
    for t in terms[:-1]:
        if any(d != 0 for d in t.v):
            assert 0 not in t.v


# -- ITM fusion law -----------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(stencil_1d(max_radius=2), st.integers(2, 3), st.integers(0, 100))
def test_itm_fusion_law(spec, s, seed):
    fused = merged_spec(spec, s)
    g = Grid.random((16,), fused.radius, seed=seed)
    one = apply_steps(fused, g, 1)
    many = apply_steps(spec, g, s)
    assert np.allclose(one.interior, many.interior, rtol=1e-9, atol=1e-9)


# -- butterfly working-set invariants --------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(stencil_1d())
def test_butterfly_requirements_invariants(spec):
    taps = spec.axis_taps(0)
    e, o, f = butterfly_requirements(taps, 4)
    fset = set(f)
    assert all(b % 2 == 0 for b in e + o + f)
    # every base's deinterleave pair is materializable
    for b in set(e) | set(o):
        assert b in fset and b + 4 in fset
    # every non-aligned fresh F has aligned parents in the set
    for x in f:
        if x % 4 != 0 and (x + 8) not in fset:
            parent = (x // 4) * 4
            assert parent in fset and parent + 4 in fset


# -- tiling invariants ---------------------------------------------------------------

TESSELLATED = ("heat-1d", "star-1d5p", "star-1d7p", "heat-2d", "box-2d9p",
               "star-2d9p", "heat-3d", "box-3d27p")


@st.composite
def tessellations(draw):
    """(spec, shape, tile, time_depth, steps): 1-3 tiles per axis, each
    at least ``2r`` wide (narrower bounds in more dimensions keep 3-D
    cases small).  Seam bands at the origin wrap; cores and the other
    seams stay inside the grid."""
    spec = library.get(draw(st.sampled_from(TESSELLATED)))
    tile = tuple(draw(st.integers(2 * r, 2 * r * (4 - spec.ndim) + 2))
                 for r in spec.radius)
    shape = tuple(b * draw(st.integers(1, 3)) for b in tile)
    cap = min(b // (2 * r) for b, r in zip(tile, spec.radius))
    depth = draw(st.none() | st.integers(1, cap))
    return spec, shape, tile, depth, draw(st.integers(1, 7))


@settings(max_examples=40, deadline=None)
@given(tessellations(), st.integers(0, 10**6))
def test_tessellate_nd_is_bitwise(case, seed):
    spec, shape, tile, depth, steps = case
    v = np.random.default_rng(seed).uniform(size=shape)
    ref = apply_steps(spec, Grid.from_array(v, spec.radius), steps).interior
    got = tessellate_nd(spec, v, steps, tile=tile, time_depth=depth)
    assert np.array_equal(got, ref)
    with ThreadPoolExecutor(2) as pool:
        pooled = tessellate_nd(spec, v, steps, tile=tile, time_depth=depth,
                               pool=pool)
    assert np.array_equal(pooled, ref)


# -- boundary invariants ----------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(1, 2), st.integers(0, 10**6))
def test_periodic_fill_idempotent(n, halo, seed):
    assume(halo <= n)
    g = Grid.random((n, n), halo, seed=seed)
    fill_halo(g, "periodic")
    snap = g.data.copy()
    fill_halo(g, "periodic")
    assert np.array_equal(g.data, snap)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_periodic_sweep_translation_invariance(seed):
    """Periodic Jacobi commutes with cyclic shifts of the grid."""
    from repro.stencils import library
    spec = library.get("heat-1d")
    rng = np.random.default_rng(seed)
    v = rng.uniform(size=16)
    out = apply_steps(spec, Grid.from_array(v, 1), 1).interior
    shifted = apply_steps(spec, Grid.from_array(np.roll(v, 3), 1),
                          1).interior
    assert np.allclose(np.roll(out, 3), shifted, rtol=1e-12)
