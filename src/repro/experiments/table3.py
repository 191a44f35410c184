"""Table 3 — the stencil benchmark configurations, and the blocking
search that re-derives them.

Re-prints the kernel set with the properties derived from our specs
(points, dimensionality, shape, order) so drift between the library and
the paper's configuration is caught by tests.

The paper "fine-tuned the size and blocking of each stencil kernel based
on relevant work to guarantee peak performance" (§4.1).  :func:`search`
redoes that step under :class:`~repro.parallel.simulator.MulticoreModel`:
for one Table-3 row it scores Jigsaw and T-Jigsaw over per-axis
geometric tile ladders and every legal tessellation depth, on all of
:data:`MACHINE`'s cores, and :func:`data` sets the model's best blocking
beside the paper's.
"""

from __future__ import annotations

from typing import List, Tuple

from ..analysis.report import render_table
from ..config import AMD_EPYC_7V13
from ..machine.perfmodel import PerfResult
from ..parallel.simulator import MulticoreModel, ParallelSetup
from ..schemes import model_cost
from ..stencils.library import TABLE3, KernelConfig
from ..stencils.spec import StencilSpec

#: the machine the blocking search models.
MACHINE = AMD_EPYC_7V13

#: the schemes the search blocks (the paper's tessellated pair).
SCHEMES: Tuple[str, ...] = ("jigsaw", "t-jigsaw")

#: tile extents kept per axis: the smallest, the untiled full extent,
#: and evenly spaced rungs between.
TILES_PER_AXIS = 6

#: time steps the search models (Table 3's counts, capped).
MAX_STEPS = 200


def _axis_tiles(extent: int) -> List[int]:
    """8, 16, 32, ... below ``extent``, then ``extent`` itself, thinned
    to :data:`TILES_PER_AXIS` rungs."""
    ladder = []
    t = 8
    while t < extent:
        ladder.append(t)
        t *= 2
    ladder.append(extent)
    if len(ladder) > TILES_PER_AXIS:
        idx = {round(i * (len(ladder) - 1) / (TILES_PER_AXIS - 1))
               for i in range(TILES_PER_AXIS)}
        ladder = [ladder[i] for i in sorted(idx)]
    return ladder


def _tiles(problem_size: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    tiles: List[Tuple[int, ...]] = [()]
    for n in problem_size:
        tiles = [t + (c,) for t in tiles for c in _axis_tiles(n)]
    return tiles


def _depths(spec: StencilSpec, tile: Tuple[int, ...]) -> List[int]:
    """1, 2, 4, ... and the ``2 r Tb <= min(tile)`` bound itself."""
    cap = min(tile) // (2 * max(spec.radius))
    depths = [1]
    d = 2
    while d <= cap:
        depths.append(d)
        d *= 2
    if cap > 1 and cap not in depths:
        depths.append(cap)
    return depths


def _estimate(cfg: KernelConfig, spec: StencilSpec, cost,
              tile: Tuple[int, ...], depth: int) -> PerfResult:
    return MulticoreModel(MACHINE).estimate(
        cost, spec, points=cfg.grid_points(),
        steps=min(cfg.time_steps, MAX_STEPS), cores=MACHINE.total_cores,
        setup=ParallelSetup(tile_shape=tile, time_depth=depth))


def search(cfg: KernelConfig) -> List[dict]:
    """Every (scheme, tile, depth) blocking of one Table-3 row, scored on
    all of :data:`MACHINE`'s cores, best first."""
    spec = cfg.spec
    costs = {s: model_cost(s, spec, MACHINE) for s in SCHEMES}
    rows = []
    for tile in _tiles(cfg.problem_size):
        for depth in _depths(spec, tile):
            for scheme, cost in costs.items():
                res = _estimate(cfg, spec, cost, tile, depth)
                rows.append({"scheme": scheme, "tile": tile,
                             "time_depth": depth,
                             "gstencil_s": res.gstencil_s,
                             "bound": res.bottleneck})
    rows.sort(key=lambda r: -r["gstencil_s"])
    return rows


def data() -> List[dict]:
    rows = []
    for cfg in TABLE3:
        spec = cfg.spec
        ranking = search(cfg)
        best = ranking[0]
        # the paper's blocking, under the same model and scheme
        paper = _estimate(cfg, spec, model_cost(best["scheme"], spec,
                                                MACHINE),
                          cfg.tile_shape, cfg.time_depth)
        rows.append({
            "kernel": cfg.kernel,
            "points": spec.npoints,
            "shape": "star" if spec.is_star else "box",
            "order": spec.order,
            "problem_size": cfg.problem_size,
            "time_steps": cfg.time_steps,
            "tile": cfg.tile_shape,
            "time_depth": cfg.time_depth,
            "paper_gstencil_s": paper.gstencil_s,
            "best": best,
            "candidates": len(ranking),
        })
    return rows


def run() -> str:
    rows = []
    for d in data():
        b = d["best"]
        rows.append([
            d["kernel"], d["points"], d["shape"], d["order"],
            "x".join(map(str, d["problem_size"])), d["time_steps"],
            "x".join(map(str, d["tile"])), d["time_depth"],
            f"{d['paper_gstencil_s']:.2f}",
            f"{b['scheme']} {'x'.join(map(str, b['tile']))}",
            b["time_depth"], f"{b['gstencil_s']:.2f}",
        ])
    return render_table(
        ["kernel", "points", "shape", "order", "size", "steps",
         "tile", "Tb", "GS/s", "model best", "Tb", "GS/s"],
        rows,
    ) + (f"\n\nGS/s: modelled on {MACHINE.name}, all "
         f"{MACHINE.total_cores} cores, min(steps, {MAX_STEPS}) steps; "
         f"the paper's blocking under the best blocking's scheme.")
