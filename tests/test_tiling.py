"""Tests for spatial blocking and tessellating tiling."""

import numpy as np
import pytest

from repro.errors import TilingError
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid
from repro.tiling.blocks import Tile, tile_working_set
from repro.tiling.tessellate import (
    TessellationPlan,
    tessellate_grid,
    tessellate_nd,
    tessellation_plan,
)


def _reference(spec, values, steps):
    return apply_steps(spec, Grid.from_array(values, spec.radius),
                       steps).interior


class TestPartition:
    """:class:`Tile`, the box one partitioned-executor task sweeps."""

    def test_tile_slices_with_halo(self):
        t = Tile(start=(2,), stop=(5,))
        assert t.slices((3,)) == (slice(5, 8),)
        assert t.points == 3


class TestWorkingSet:
    def test_includes_stencil_halo(self):
        spec = library.get("heat-2d")  # radius 1
        ws = tile_working_set((10, 10), spec)
        assert ws == 12 * 12 * 8 * 2

    def test_time_depth_widens_halo(self):
        spec = library.get("heat-2d")
        shallow = tile_working_set((10, 10), spec, time_depth=1)
        deep = tile_working_set((10, 10), spec, time_depth=3)
        assert deep > shallow

    def test_rank_checked(self):
        with pytest.raises(TilingError):
            tile_working_set((10,), library.get("heat-2d"))

    def test_bad_depth(self):
        with pytest.raises(TilingError):
            tile_working_set((10,), library.get("heat-1d"), time_depth=0)


class TestTessellationPlan:
    def test_phase_count_is_2_to_the_d(self):
        assert tessellation_plan(library.get("heat-1d"), (32,), 4).phases == 2
        assert tessellation_plan(library.get("heat-2d"), (32, 32), 4).phases == 4
        assert tessellation_plan(library.get("heat-3d"),
                                 (32, 32, 32), 4).phases == 8

    def test_traffic_factor(self):
        plan = tessellation_plan(library.get("heat-1d"), (32,), 8)
        assert plan.traffic_factor == pytest.approx(1 / 8)

    def test_constraint_enforced(self):
        with pytest.raises(TilingError):
            tessellation_plan(library.get("star-1d5p"), (16,), 5)  # 2*2*5 > 16

    def test_bad_inputs(self):
        with pytest.raises(TilingError):
            tessellation_plan(library.get("heat-1d"), (16,), 0)
        with pytest.raises(TilingError):
            tessellation_plan(library.get("heat-2d"), (16,), 2)


class TestTessellate1D:
    """The N-D engine on 1-D kernels: two phases (triangles, inverted
    triangles), bitwise equal to the Jacobi reference."""

    @pytest.mark.parametrize("kernel", ["heat-1d", "star-1d5p", "star-1d7p"])
    @pytest.mark.parametrize("steps", [1, 5, 12])
    def test_matches_reference(self, kernel, steps):
        spec = library.get(kernel)
        v = np.random.default_rng(steps).uniform(size=128)
        got = tessellate_nd(spec, v, steps, tile=(32,))
        assert np.array_equal(got, _reference(spec, v, steps))

    def test_explicit_depth(self):
        spec = library.get("heat-1d")
        v = np.random.default_rng(0).uniform(size=64)
        got = tessellate_nd(spec, v, 10, tile=(16,), time_depth=4)
        assert np.array_equal(got, _reference(spec, v, 10))

    def test_phase_geometry_reported(self):
        spec = library.get("heat-1d")
        phases = []
        tessellate_nd(spec, np.zeros(64), 4, tile=(16,), time_depth=4,
                      on_phase=lambda blk, ph, n: phases.append((blk, ph, n)))
        # one block of depth 4: phase 0 (4 tiles) then phase 1 (4 seams),
        # each computed on 4 levels
        assert phases == [(0, 0, 16), (0, 1, 16)]

    def test_grid_wrapper(self):
        spec = library.get("heat-1d")
        g = Grid.random((64,), 1, seed=2)
        out = tessellate_grid(spec, g, 6, tile=(16,))
        assert np.array_equal(out.interior, apply_steps(spec, g, 6).interior)

    def test_rejects_non_dividing_tile(self):
        with pytest.raises(TilingError):
            tessellate_nd(library.get("heat-1d"), np.zeros(60), 2,
                          tile=(32,))

    def test_rejects_2d_spec(self):
        with pytest.raises(TilingError):
            tessellate_nd(library.get("heat-2d"), np.zeros(32), 1,
                          tile=(8,))

    def test_rejects_narrow_tile(self):
        with pytest.raises(TilingError):
            tessellate_nd(library.get("star-1d7p"), np.zeros(32), 2,
                          tile=(4,))


class TestTessellate2D:
    """The N-D engine on 2-D kernels: four phases (cores, two seam
    wedges, corners), bitwise equal to the Jacobi reference."""

    @pytest.mark.parametrize("kernel", ["heat-2d", "box-2d9p", "star-2d9p"])
    @pytest.mark.parametrize("steps", [1, 4, 11])
    def test_matches_reference(self, kernel, steps):
        spec = library.get(kernel)
        v = np.random.default_rng(steps).uniform(size=(48, 48))
        got = tessellate_nd(spec, v, steps, tile=(16, 16))
        assert np.array_equal(got, _reference(spec, v, steps))

    def test_rectangular_tiles_and_explicit_depth(self):
        spec = library.get("heat-2d")
        v = np.random.default_rng(0).uniform(size=(32, 48))
        got = tessellate_nd(spec, v, 9, tile=(16, 12), time_depth=3)
        assert np.array_equal(got, _reference(spec, v, 9))

    def test_four_phases_reported(self):
        spec = library.get("heat-2d")
        seen = []
        tessellate_nd(spec, np.zeros((32, 32)), 4, tile=(16, 16),
                      time_depth=4,
                      on_phase=lambda blk, ph, n: seen.append((blk, ph, n)))
        # 2x2 regions per phase (cores, y wedges, x wedges, corners) on
        # each of 4 levels
        assert seen == [(0, 0, 16), (0, 1, 16), (0, 2, 16), (0, 3, 16)]

    def test_grid_wrapper(self):
        spec = library.get("box-2d9p")
        g = Grid.random((32, 32), 1, seed=5)
        out = tessellate_grid(spec, g, 6, tile=(16, 16))
        assert np.array_equal(out.interior, apply_steps(spec, g, 6).interior)

    def test_rejects_non_dividing_tile(self):
        with pytest.raises(TilingError):
            tessellate_nd(library.get("heat-2d"), np.zeros((30, 32)), 1,
                          tile=(16, 16))

    def test_rejects_1d_spec(self):
        with pytest.raises(TilingError):
            tessellate_nd(library.get("heat-1d"), np.zeros((16, 16)), 1,
                          tile=(8, 8))

    def test_rejects_excessive_depth(self):
        with pytest.raises(TilingError):
            tessellate_nd(library.get("star-2d9p"), np.zeros((32, 32)), 8,
                          tile=(16, 16), time_depth=5)  # 2*2*5 > 16


class TestTessellateND:
    @pytest.mark.parametrize("kernel,shape,tile", [
        ("heat-1d", (96,), (24,)),
        ("star-1d5p", (96,), (48,)),
        ("heat-2d", (48, 48), (16, 16)),
        ("heat-3d", (24, 24, 24), (8, 8, 8)),
        ("box-3d27p", (24, 24, 24), (12, 8, 8)),
    ])
    @pytest.mark.parametrize("steps", [1, 7])
    def test_matches_reference_any_dim(self, kernel, shape, tile, steps):
        spec = library.get(kernel)
        rng = np.random.default_rng(steps)
        v = rng.uniform(size=shape)
        got = tessellate_nd(spec, v, steps, tile=tile)
        assert np.array_equal(got, _reference(spec, v, steps))

    def test_eight_phases_in_3d(self):
        spec = library.get("heat-3d")
        v = np.zeros((16, 16, 16))
        seen = []
        tessellate_nd(spec, v, 2, tile=(8, 8, 8), time_depth=2,
                      on_phase=lambda blk, mask, n: seen.append(mask))
        assert seen == list(range(8))

    def test_phase_zero_is_cores(self):
        spec = library.get("heat-2d")
        v = np.zeros((32, 32))
        counts = {}
        tessellate_nd(spec, v, 1, tile=(16, 16), time_depth=1,
                      on_phase=lambda blk, mask, n: counts.update({mask: n}))
        assert counts[0] == 4   # 2x2 tile cores
        assert counts[3] == 4   # 2x2 corners

    def test_grid_wrapper_any_dim(self):
        spec = library.get("heat-3d")
        g = Grid.random((16, 16, 16), 1, seed=3)
        out = tessellate_grid(spec, g, 4, tile=(8, 8, 8))
        assert np.array_equal(out.interior, apply_steps(spec, g, 4).interior)

    def test_validation(self):
        spec = library.get("heat-2d")
        with pytest.raises(TilingError):
            tessellate_nd(spec, np.zeros((30, 32)), 1, tile=(16, 16))
        with pytest.raises(TilingError):
            tessellate_nd(spec, np.zeros((32,)), 1, tile=(16,))
        with pytest.raises(TilingError):
            tessellate_nd(spec, np.zeros((32, 32)), 1, tile=(16,))
        with pytest.raises(TilingError):
            tessellate_nd(spec, np.zeros((32, 32)), 10, tile=(16, 16),
                          time_depth=9)  # 2*1*9 > 16


class TestParallelTessellation:
    @pytest.mark.parametrize("kernel,shape,tile", [
        ("heat-1d", (128,), (32,)),
        ("heat-2d", (48, 48), (16, 16)),
        ("heat-3d", (24, 24, 24), (8, 8, 8)),
    ])
    def test_pool_matches_serial(self, kernel, shape, tile):
        from concurrent.futures import ThreadPoolExecutor
        spec = library.get(kernel)
        v = np.random.default_rng(9).uniform(size=shape)
        serial = tessellate_nd(spec, v, 9, tile=tile)
        with ThreadPoolExecutor(4) as pool:
            parallel = tessellate_nd(spec, v, 9, tile=tile, pool=pool)
        assert np.array_equal(serial, parallel)

    def test_pool_matches_reference(self):
        from concurrent.futures import ThreadPoolExecutor
        spec = library.get("box-2d9p")
        v = np.random.default_rng(10).uniform(size=(64, 64))
        with ThreadPoolExecutor(3) as pool:
            got = tessellate_nd(spec, v, 6, tile=(16, 32), pool=pool)
        assert np.array_equal(got, _reference(spec, v, 6))
