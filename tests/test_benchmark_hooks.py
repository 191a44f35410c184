"""The benchmark's tracer patches program entry points by name
(``perfbench/tracing.py``).  A rename there would only surface in the
benchmark's own smoke run, so this suite installs the tracer on the tree,
drives every patched executor entry point with the arguments the
benchmark uses, and checks the spans it records."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.parallel import executor
from repro.shard import exchange, runner
from repro.stencils import apply_steps, library
from repro.stencils.grid import Grid

# the benchmark lives beside src/ at the repository root
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench import tracing  # noqa: E402

HEAT2D = library.get("heat-2d")

#: the executor names the tracer patches, with their modules
PATCHED = ((executor, "run_parallel"), (executor, "apply_tile"),
           (executor, "ThreadPoolExecutor"), (runner, "run_sharded"),
           (exchange, "gather_window"), (exchange, "scatter_slab"))


def _current():
    return {(m.__name__, name): getattr(m, name) for m, name in PATCHED}


@pytest.fixture()
def tracer():
    originals = _current()
    t = tracing.Tracer()
    t.install()
    try:
        yield t, originals
    finally:
        t.restore()
    assert _current() == originals


def test_every_patched_name_resolves_and_is_shimmed(tracer):
    _, originals = tracer
    for key, value in _current().items():
        assert callable(value) and value is not originals[key], key


def test_traced_runs_nest_and_stay_bitwise(tracer):
    tracer, _ = tracer
    g = Grid.random((256, 256), HEAT2D.radius, seed=3)
    ref = apply_steps(HEAT2D, g, 2)
    # the sweep-large calls: tiled and 2-shard engines on threads
    a = executor.run_parallel(HEAT2D, g, 2, workers=2, backend="thread")
    b = runner.run_sharded(HEAT2D, g, 2, shards=2, executor="thread")
    # a temporal block ships windows through the exchange
    c = runner.run_sharded(HEAT2D, g, 2, shards=2, executor="thread",
                           temporal_block=2)
    for out in (a, b, c):
        assert np.array_equal(out.interior, ref.interior)
    names = {s.name for s in tracer.spans}
    assert {"parallel.run_parallel", "parallel.apply_tile",
            "shard.run_sharded", "shard.gather_window",
            "shard.scatter_slab"} <= names
    tiles = tracer.named("parallel.apply_tile", 0.0)
    assert all(t.parent is not None for t in tiles)
    # the benchmark's own reading of these spans must accept them
    tracing.parallel_metrics(tracing.Result(), tracer, 0.0)
