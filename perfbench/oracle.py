"""The independent correctness oracle.

Expected results come from :func:`repro.stencils.reference.apply_steps`
(the dense shift-and-accumulate definition of a sweep), never from the
service, the server or an engine under test.  A served response is
checked by its sha256 interior checksum; an engine's grid by value:
the tiled and sharded executors must match the reference bitwise, the
SIMD-machine and numpy engines (which reassociate the fused sums) to
``rtol=1e-12``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import numpy as np

from repro.stencils import library
from repro.stencils.grid import Grid
from repro.stencils.reference import apply_steps

RTOL = 1e-12


def input_grid(kernel: str, shape, seed: int) -> Grid:
    """The grid a seeded wire request describes (the server builds the
    same one: ``Grid.random(shape, spec.radius, seed=seed)``)."""
    spec = library.get(kernel)
    return Grid.random(tuple(shape), spec.radius, seed=seed)


def reference_interior(kernel: str, grid: Grid, steps: int) -> np.ndarray:
    """The interior after ``steps`` sweeps with periodic boundaries."""
    return apply_steps(library.get(kernel), grid, steps,
                       boundary="periodic").interior.copy()


def checksum(interior: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(interior).tobytes()).hexdigest()


class ChecksumOracle:
    """Reference checksums for seeded wire requests, memoized per
    ``(kernel, shape, steps, seed)``."""

    def __init__(self) -> None:
        self._memo: Dict[Tuple, str] = {}

    def expected(self, kernel: str, shape, steps: int, seed: int) -> str:
        key = (kernel, tuple(shape), steps, seed)
        got = self._memo.get(key)
        if got is None:
            ref = reference_interior(kernel, input_grid(kernel, shape, seed),
                                     steps)
            got = self._memo[key] = checksum(ref)
        return got


def bitwise_equal(got: np.ndarray, ref: np.ndarray) -> bool:
    return got.dtype == ref.dtype and np.array_equal(got, ref)


def close(got: np.ndarray, ref: np.ndarray) -> bool:
    return (got.shape == ref.shape
            and bool(np.allclose(got, ref, rtol=RTOL, atol=0.0)))
