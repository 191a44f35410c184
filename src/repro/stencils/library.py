"""The paper's kernel library (Table 3) plus a few extras.

All eight Table-3 kernels are provided with the same points counts the
paper lists:

======== ========== ======= ==============================
kernel    shape      points  spec factory
======== ========== ======= ==============================
Heat-1D   star 1-D    3      :func:`heat1d`
1D5P      star 1-D    5      :func:`star1d5p`
1D7P      star 1-D    7      :func:`star1d7p`
Heat-2D   star 2-D    5      :func:`heat2d`
Box-2D9P  box 2-D     9      :func:`box2d9p`
Star-2D9P star 2-D    9      :func:`star2d9p`
Heat-3D   star 3-D    7      :func:`heat3d`
Box-3D27P box 3-D     27     :func:`box3d27p`
======== ========== ======= ==============================

Coefficients are symmetric and sum to 1 (Jacobi smoothing weights), the
standard choice in the stencil literature the paper cites; symmetry is what
gives the coefficient matrices their low rank (§3.2 "Coefficient
Symmetry").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from ..errors import SpecError
from .spec import StencilSpec, box, star


def heat1d() -> StencilSpec:
    """1D3P heat/Jacobi kernel: ``(1/4, 1/2, 1/4)``."""
    return star(1, 1, center=0.5, arm=[0.25], name="heat-1d")


def star1d5p() -> StencilSpec:
    """1D5P star; binomial weights ``(1,4,6,4,1)/16``."""
    return star(1, 2, center=6 / 16, arm=[4 / 16, 1 / 16], name="star-1d5p")


def star1d7p() -> StencilSpec:
    """1D7P star; binomial weights ``(1,6,15,20,15,6,1)/64``."""
    return star(1, 3, center=20 / 64, arm=[15 / 64, 6 / 64, 1 / 64],
                name="star-1d7p")


def heat2d() -> StencilSpec:
    """2D5P heat kernel: centre 1/2, four neighbours 1/8."""
    return star(2, 1, center=0.5, arm=[0.125], name="heat-2d")


def box2d9p() -> StencilSpec:
    """Box-2D9P: uniform ring 1/12 with a heavier centre 1/3.

    This is exactly the paper's Figure-4 case: the coefficient matrix is a
    rank-1 all-ones matrix plus a single centre point, so SDF decomposes it
    into one rank-1 flattening term plus one FMA (rank 2 overall).
    """
    w = np.full((3, 3), 1 / 12)
    w[1, 1] = 1 / 3
    return box(2, 1, w, name="box-2d9p")


def box2d9p_separable() -> StencilSpec:
    """A rank-1 Box-2D9P variant: outer product of ``(1/4,1/2,1/4)``.

    Used by tests and the ablation study to exercise the pure rank-1 SDF
    path (no residual point)."""
    b = np.array([0.25, 0.5, 0.25])
    return box(2, 1, np.outer(b, b), name="box-2d9p-separable")


def star2d9p() -> StencilSpec:
    """Star-2D9P: radius-2 star (order 2), centre 1/2, arms (1/10, 1/40)."""
    return star(2, 2, center=0.5, arm=[0.1, 0.025], name="star-2d9p")


def heat3d() -> StencilSpec:
    """3D7P heat kernel: centre 2/5, six neighbours 1/10."""
    return star(3, 1, center=0.4, arm=[0.1], name="heat-3d")


def box3d27p() -> StencilSpec:
    """Box-3D27P: separable ``(1/4,1/2,1/4)`` in all three axes.

    Fully separable ⇒ each z-plane matrix is rank 1; SDF removes 8/9 of the
    shuffle work (§3.2 Redundancy Reduction Analysis)."""
    b = np.array([0.25, 0.5, 0.25])
    w = b[:, None, None] * b[None, :, None] * b[None, None, :]
    return box(3, 1, w, name="box-3d27p")


def box2d25p() -> StencilSpec:
    """Box-2D25P: separable radius-2 binomial box ``(1,4,6,4,1)/16 ⊗``.

    Beyond the paper's Table 3; exercises the radius-2 box path (rank-1
    under SDF)."""
    b = np.array([1, 4, 6, 4, 1]) / 16
    return box(2, 2, np.outer(b, b), name="box-2d25p")


def star3d13p() -> StencilSpec:
    """Star-3D13P: radius-2 3-D star (order 2), centre 0.4, arms
    (0.08, 0.02).  Beyond Table 3; exercises high-order 3-D flattening."""
    return star(3, 2, center=0.4, arm=[0.08, 0.02], name="star-3d13p")


def star2d13p() -> StencilSpec:
    """Star-2D13P: radius-3 2-D star (order 3), centre 1/4, arms
    (1/8, 1/20, 1/80).  Beyond Table 3; the higher-order star the scheme
    conformance matrix exercises (deep sliding windows on narrow
    registers, fusion-depth clamping for temporal vectorization)."""
    return star(2, 3, center=0.25, arm=[0.125, 0.05, 0.0125],
                name="star-2d13p")


def varcoef2d5p() -> StencilSpec:
    """A direction-dependent ("variable-coefficient") 2D5P operator:
    every tap carries a distinct weight, as in discretized
    advection-diffusion with a non-axis-aligned velocity.  Nothing about
    it is symmetric or separable, so it defeats every symmetry-based
    optimization (SDF low rank, folding's centro-symmetry, tessellation)
    and keeps the generic scheme paths honest."""
    return StencilSpec(
        name="varcoef-2d5p", ndim=2,
        offsets=((0, 0), (0, -1), (0, 1), (-1, 0), (1, 0)),
        coeffs=(0.35, 0.05, 0.3, 0.1, 0.2),
    )


def advection1d() -> StencilSpec:
    """An *asymmetric* upwind advection-diffusion kernel
    ``(0.6, 0.3, 0.1)``.  Coefficient symmetry is an optimization in
    Jigsaw, not a requirement; this kernel keeps the asymmetric paths
    honest (the tessellation baseline rejects it by design)."""
    return StencilSpec(
        name="advection-1d", ndim=1,
        offsets=((-1,), (0,), (1,)),
        coeffs=(0.6, 0.3, 0.1),
    )


_FACTORIES: Dict[str, Callable[[], StencilSpec]] = {
    "heat-1d": heat1d,
    "star-1d5p": star1d5p,
    "star-1d7p": star1d7p,
    "heat-2d": heat2d,
    "box-2d9p": box2d9p,
    "box-2d9p-separable": box2d9p_separable,
    "star-2d9p": star2d9p,
    "heat-3d": heat3d,
    "box-3d27p": box3d27p,
    "box-2d25p": box2d25p,
    "star-3d13p": star3d13p,
    "star-2d13p": star2d13p,
    "varcoef-2d5p": varcoef2d5p,
    "advection-1d": advection1d,
}


#: one frozen spec per library name (a shared spec also shares its
#: memoized content digest)
_INSTANCES: Dict[str, StencilSpec] = {n: f() for n, f in _FACTORIES.items()}


def get(name: str) -> StencilSpec:
    """Fetch a library kernel by name (the same instance every call)."""
    try:
        return _INSTANCES[name]
    except KeyError:
        raise SpecError(f"unknown kernel {name!r}; known: {sorted(_FACTORIES)}") from None


def names() -> Tuple[str, ...]:
    return tuple(sorted(_FACTORIES))


@dataclass(frozen=True)
class KernelConfig:
    """One row of the paper's Table 3: a kernel with its evaluation problem
    size (spatial extents), time steps, and cache-blocking tile."""

    kernel: str
    problem_size: Tuple[int, ...]
    time_steps: int
    blocking: Tuple[int, ...]

    @property
    def spec(self) -> StencilSpec:
        return get(self.kernel)

    @property
    def points(self) -> int:
        return self.spec.npoints

    def grid_points(self) -> int:
        n = 1
        for s in self.problem_size:
            n *= s
        return n

    @property
    def tile_shape(self) -> Tuple[int, ...]:
        """The spatial part of the Table-3 blocking column."""
        ndim = len(self.problem_size)
        return self.blocking[:ndim]

    @property
    def time_depth(self) -> int:
        """The temporal part of the blocking column.

        1-D/2-D rows carry an explicit trailing time-tile depth, and the
        paper's values satisfy the tessellation constraint
        ``2 r Tb <= tile`` exactly.  3-D rows list spatial extents only;
        tessellating tiling is inherently temporal, so we use the maximum
        depth the constraint allows for the listed tile (documented
        interpretation, EXPERIMENTS.md)."""
        ndim = len(self.problem_size)
        extra = self.blocking[ndim:]
        if extra:
            return extra[0]
        r = max(self.spec.radius)
        return max(1, min(self.blocking[:ndim]) // (2 * r))


#: Table 3 verbatim.  1-D rows list "size x T"; 2-D rows "N x N x T"
#: (the paper writes Heat-2D as 10000^2 spatial with 10000 steps);
#: 3-D rows "256^3 x 1000".
TABLE3: Tuple[KernelConfig, ...] = (
    KernelConfig("heat-1d", (10_240_000,), 10_000, (2000, 1000)),
    KernelConfig("star-1d5p", (10_240_000,), 10_000, (2000, 500)),
    KernelConfig("star-1d7p", (10_240_000,), 10_000, (2000, 300)),
    KernelConfig("heat-2d", (10_000, 10_000), 10_000, (200, 200, 50)),
    KernelConfig("star-2d9p", (10_000, 10_000), 10_000, (200, 200, 25)),
    KernelConfig("box-2d9p", (10_000, 10_000), 10_000, (200, 200, 50)),
    KernelConfig("heat-3d", (256, 256, 256), 1000, (20, 20, 10)),
    KernelConfig("box-3d27p", (256, 256, 256), 1000, (20, 20, 10)),
)


def table3_config(kernel: str) -> KernelConfig:
    for cfg in TABLE3:
        if cfg.kernel == kernel:
            return cfg
    raise SpecError(f"kernel {kernel!r} is not in Table 3")
