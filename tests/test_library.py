"""Unit tests for the kernel library (Table 3 parity)."""

import pytest

from repro.errors import SpecError
from repro.stencils import library
from repro.stencils.library import TABLE3, KernelConfig, table3_config

#: kernel -> (points, ndim, is_star) as the paper's Table 3 lists them
EXPECTED = {
    "heat-1d": (3, 1, True),
    "star-1d5p": (5, 1, True),
    "star-1d7p": (7, 1, True),
    "heat-2d": (5, 2, True),
    "star-2d9p": (9, 2, True),
    "box-2d9p": (9, 2, False),
    "heat-3d": (7, 3, True),
    "box-3d27p": (27, 3, False),
}


@pytest.mark.parametrize("kernel", sorted(EXPECTED))
def test_points_and_shape_match_table3(kernel):
    spec = library.get(kernel)
    points, ndim, is_star = EXPECTED[kernel]
    assert spec.npoints == points
    assert spec.ndim == ndim
    assert spec.is_star == is_star


@pytest.mark.parametrize("kernel", library.names())
def test_all_kernels_are_normalized(kernel):
    assert library.get(kernel).coefficient_sum() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "kernel",
    [k for k in library.names() if k not in ("advection-1d", "varcoef-2d5p")])
def test_smoothing_kernels_are_symmetric(kernel):
    # advection-1d (upwind) and varcoef-2d5p (direction-dependent weights)
    # are deliberately asymmetric; all smoothing kernels are
    # centro-symmetric (the paper's §3.2 observation)
    assert library.get(kernel).is_symmetric


def test_extra_kernels_present():
    assert library.get("box-2d25p").npoints == 25
    assert library.get("star-3d13p").npoints == 13
    assert not library.get("advection-1d").is_symmetric


def test_get_returns_one_instance_per_name():
    # the wire path looks a kernel up per request; one frozen spec per
    # name also keeps its memoized content digest
    for name in library.names():
        assert library.get(name) is library.get(name)
        assert library.get(name) == library._FACTORIES[name]()


def test_unknown_kernel_raises():
    with pytest.raises(SpecError):
        library.get("nope")


def test_names_sorted_and_complete():
    names = library.names()
    assert list(names) == sorted(names)
    assert set(EXPECTED) <= set(names)


def test_box2d9p_matches_figure4_structure():
    # ring 1/12, centre 1/3 — rank-1 ones + centre point (paper Figure 4)
    spec = library.get("box-2d9p")
    table = spec.coefficient_table()
    assert table[(0, 0)] == pytest.approx(1 / 3)
    ring = [c for off, c in table.items() if off != (0, 0)]
    assert all(c == pytest.approx(1 / 12) for c in ring)


def test_box3d27p_separable():
    import numpy as np
    spec = library.get("box-3d27p")
    arr = spec.coefficient_array()
    b = np.array([0.25, 0.5, 0.25])
    expect = b[:, None, None] * b[None, :, None] * b[None, None, :]
    assert np.allclose(arr, expect)


class TestTable3Configs:
    def test_eight_rows(self):
        assert len(TABLE3) == 8

    @pytest.mark.parametrize("cfg", TABLE3, ids=lambda c: c.kernel)
    def test_config_consistency(self, cfg: KernelConfig):
        spec = cfg.spec
        assert len(cfg.problem_size) == spec.ndim
        assert cfg.points == spec.npoints
        assert cfg.grid_points() == pytest.approx(
            int.__mul__(1, 1) * _prod(cfg.problem_size)
        )

    @pytest.mark.parametrize("cfg", TABLE3, ids=lambda c: c.kernel)
    def test_blocking_satisfies_tessellation_constraint(self, cfg):
        # the paper's blocking column obeys 2*r*Tb <= tile on every axis
        r = max(cfg.spec.radius)
        assert 2 * r * cfg.time_depth <= min(cfg.tile_shape)

    def test_tile_shape_rank(self):
        for cfg in TABLE3:
            assert len(cfg.tile_shape) == cfg.spec.ndim

    def test_3d_rows_get_implied_time_depth(self):
        cfg = table3_config("heat-3d")
        assert cfg.time_depth == 5  # min(20,20,10) / (2*1)

    def test_1d_rows_keep_explicit_depth(self):
        assert table3_config("heat-1d").time_depth == 1000
        assert table3_config("star-1d5p").time_depth == 500

    def test_lookup_unknown_raises(self):
        with pytest.raises(SpecError):
            table3_config("nope")


def _prod(xs):
    n = 1
    for x in xs:
        n *= x
    return n
