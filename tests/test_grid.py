"""Unit tests for :mod:`repro.stencils.grid`."""

import numpy as np
import pytest

from repro.errors import GridError
from repro.stencils.grid import Grid


class TestConstruction:
    def test_data_shape_includes_halo(self):
        g = Grid((4, 8), (1, 2))
        assert g.data.shape == (6, 12)
        assert g.shape == (4, 8)
        assert g.halo == (1, 2)

    def test_scalar_halo_broadcasts(self):
        g = Grid((4, 8), 2)
        assert g.halo == (2, 2)

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(GridError):
            Grid((0, 4), 1)

    def test_rejects_negative_halo(self):
        with pytest.raises(GridError):
            Grid((4,), -1)

    def test_rejects_halo_rank_mismatch(self):
        with pytest.raises(GridError):
            Grid((4, 4), (1,))

    def test_rejects_empty_shape(self):
        with pytest.raises(GridError):
            Grid((), 1)

    def test_from_array_copies(self):
        a = np.arange(8.0)
        g = Grid.from_array(a, 2)
        a[0] = 99.0
        assert g.interior[0] == 0.0

    def test_random_reproducible(self):
        g1 = Grid.random((8,), 1, seed=7)
        g2 = Grid.random((8,), 1, seed=7)
        assert np.array_equal(g1.interior, g2.interior)

    def test_random_bounds(self):
        g = Grid.random((64,), 0, seed=0, low=2.0, high=3.0)
        assert g.interior.min() >= 2.0
        assert g.interior.max() <= 3.0

    @pytest.mark.parametrize("shape,halo", [
        ((37,), 0), ((37,), 3), ((12, 17), 2), ((12, 17), (0, 4)),
        ((5, 6, 7), (1, 0, 2)), ((4, 3, 9), 16)])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 31 - 1])
    @pytest.mark.parametrize("low,high,dtype", [
        (0.0, 1.0, np.float64), (0, 1, np.float64), (0.0, 1.0, np.float32),
        (-1.0, 1.0, np.float64), (2.0, 3.0, np.float32)])
    def test_random_is_the_uniform_draw(self, shape, halo, seed, low, high,
                                        dtype):
        """Bitwise the interior of ``uniform(low, high).astype(dtype)``
        under a zero halo."""
        g = Grid.random(shape, halo, seed=seed, low=low, high=high,
                        dtype=dtype)
        want = np.random.default_rng(seed).uniform(
            low, high, size=shape).astype(dtype)
        assert g.data.dtype == want.dtype
        assert np.array_equal(g.interior.view(np.uint8),
                              want.view(np.uint8))
        halo_only = g.data.copy()
        halo_only[tuple(slice(h, h + n) for h, n in
                        zip(g.halo, shape))] = 0
        assert not halo_only.any()


class TestViews:
    def test_interior_is_view(self):
        g = Grid((4,), 2)
        g.interior[...] = 5.0
        assert np.all(g.data[2:6] == 5.0)
        assert np.all(g.data[:2] == 0.0)

    def test_shifted_interior_reads_halo(self):
        g = Grid((4,), 1)
        g.data[...] = np.arange(6.0)
        assert np.array_equal(g.shifted_interior((-1,)), [0, 1, 2, 3])
        assert np.array_equal(g.shifted_interior((1,)), [2, 3, 4, 5])
        assert np.array_equal(g.shifted_interior((0,)), g.interior)

    def test_shifted_interior_2d(self):
        g = Grid((2, 2), 1)
        g.data[...] = np.arange(16.0).reshape(4, 4)
        assert np.array_equal(g.shifted_interior((-1, 1)),
                              [[2, 3], [6, 7]])

    def test_shifted_interior_rejects_beyond_halo(self):
        g = Grid((4,), 1)
        with pytest.raises(GridError):
            g.shifted_interior((2,))

    def test_shifted_interior_rejects_rank_mismatch(self):
        g = Grid((4, 4), 1)
        with pytest.raises(GridError):
            g.shifted_interior((1,))


class TestMisc:
    def test_like_is_zeroed_same_geometry(self):
        g = Grid.random((4, 4), 1, seed=0)
        h = g.like()
        assert h.shape == g.shape and h.halo == g.halo
        assert np.all(h.data == 0.0)

    def test_copy_independent(self):
        g = Grid.random((4,), 1, seed=0)
        h = g.copy()
        h.interior[0] = -1.0
        assert g.interior[0] != -1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_copy_equals_its_source_halo_included(self, dtype):
        g = Grid.random((6, 5), (2, 3), seed=4, dtype=dtype)
        g.data[0, :] = np.arange(g.data.shape[1])  # halo values too
        h = g.copy()
        assert h.shape == g.shape and h.halo == g.halo
        assert h.data.dtype == g.data.dtype and h.data.flags.c_contiguous
        assert np.array_equal(h.data, g.data)
        assert not np.shares_memory(h.data, g.data)

    def test_npoints_and_nbytes(self):
        g = Grid((4, 8), 1)
        assert g.npoints() == 32
        assert g.nbytes() == 6 * 10 * 8
