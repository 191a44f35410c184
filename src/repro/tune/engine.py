"""The two-stage search engine: analytic ranking, then empirical trials.

**Stage 1 — model guidance.**  Every candidate gets a score from the
analytic layer the repo already trusts: plan-aware engines are costed by
:class:`~repro.machine.perfmodel.PerformanceModel` on the program the
kernel cache lowers for the actual workload geometry, and parallel
configurations by :class:`~repro.parallel.simulator.MulticoreModel` with
the candidate's cores.  The model sees no tile for an axis-0 part, and
untiled its per-block far traffic never exceeds the per-sweep near
traffic, so the temporal block ``s`` would not move a score: the (parts,
workers) pairs tie across ``s``, and trials, not the model, decide it.
Because the analytic models predict *hypothetical hardware* throughput
while trials measure *Python wall-clock*, scores are scaled by
per-engine wall-clock priors (codegen execution ≈1400× the interpreter
per ``benchmarks/bench_machine.py``; the partitioned executor within
1.5× of codegen).
The priors only order candidates for pruning — empirical timing always
has the last word.

**Stage 2 — empirical timing.**  The top-ranked candidates (stratified
across engine families, the planner's default always included) are timed
through the kernel cache: ``warmup`` untimed runs, then the median of
``repeats`` timed runs, normalized to MStencil/s so configurations with
different fused depths compare fairly.  A :class:`TuneBudget` bounds the
stage by trial count and wall clock, enforces a per-trial timeout, and
stops early once ``patience`` consecutive trials fail to improve on the
incumbent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..config import MachineConfig
from ..core.cache import KernelCache
from ..core.jigsaw import required_halo
from ..core.kernel import CompiledKernel
from ..errors import ReproError, TuneError
from ..faults import failure_reason
from ..machine.perfmodel import PerformanceModel
from ..parallel.executor import MIN_PART_POINTS, run_parallel
from ..parallel.simulator import MulticoreModel
from ..schemes import generate as generate_scheme
from ..schemes import model_cost, model_program, scheme_halo
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from ..vectorize.driver import run_program
from .space import TuneConfig

#: measured wall-clock priors per engine family (relative to the
#: per-instruction interpreter = 1).  Their only job is candidate
#: *ordering* before the empirical stage; see the module docstring.  On
#: a 2-vCPU Xeon host, ``python benchmarks/bench_machine.py`` (512²,
#: jigsaw) times codegen at 1343-1509x the interpreter, and a traced
#: ``python3 perfbench/run.py --workload sweep-large --seed 0
#: --seconds 10 --trace 1`` reads the 2-part thread executor at 1.48x
#: codegen (``tiled_mstencil_s`` over ``codegen_mstencil_s``).
WALLCLOCK_PRIORS: Dict[str, float] = {
    "machine/interp": 1.0,
    "machine/auto": 1400.0,
    "machine/codegen": 1400.0,
    "scheme/interp": 1.0,
    "scheme/auto": 1400.0,
    "scheme/codegen": 1400.0,
    "parallel": 2100.0,
}


@dataclass(frozen=True)
class TuneBudget:
    """Bounds on the empirical stage."""

    max_trials: int = 8             #: configurations to time at most
    max_seconds: Optional[float] = None  #: wall-clock cap for the stage
    warmup: int = 1                 #: untimed runs per trial
    repeats: int = 3                #: timed runs per trial (median taken)
    trial_timeout_s: float = 60.0   #: per-trial wall-clock cap
    patience: int = 4               #: trials without improvement -> stop

    def __post_init__(self) -> None:
        if self.max_trials < 1:
            raise TuneError("max_trials must be >= 1")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise TuneError("max_seconds must be positive")
        if self.warmup < 0 or self.repeats < 1:
            raise TuneError("warmup must be >= 0 and repeats >= 1")
        if self.trial_timeout_s <= 0:
            raise TuneError("trial_timeout_s must be positive")
        if self.patience < 1:
            raise TuneError("patience must be >= 1")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "max_trials": self.max_trials,
            "max_seconds": self.max_seconds,
            "warmup": self.warmup,
            "repeats": self.repeats,
            "trial_timeout_s": self.trial_timeout_s,
            "patience": self.patience,
        }


@dataclass(frozen=True)
class Trial:
    """One empirical measurement of one configuration."""

    config: TuneConfig
    seconds: float = 0.0          #: median timed-run seconds
    mstencil_s: float = 0.0       #: points * steps / median / 1e6
    steps: int = 0                #: sweeps actually executed per run
    repeats: int = 0              #: timed runs completed
    model_score: float = 0.0      #: stage-1 score (prior-scaled GStencil/s)
    timed_out: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.repeats > 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.as_dict(),
            "seconds": self.seconds,
            "mstencil_s": self.mstencil_s,
            "steps": self.steps,
            "repeats": self.repeats,
            "model_score": self.model_score,
            "timed_out": self.timed_out,
            "error": self.error,
        }


def trial_steps(config: TuneConfig, steps: int) -> int:
    """``steps`` rounded up to the configuration's fused depth (throughput
    is normalized per update, so deeper fusion is not advantaged)."""
    if config.is_plan_aware:
        s = config.time_fusion
    elif config.engine == "scheme":
        s = config.scheme_fusion
    else:
        s = 1
    return -(-steps // s) * s


def _scheme_fusion_arg(config: TuneConfig):
    """The ``time_fusion`` argument for the scheme registry: explicit for
    ``temporal`` (the searched depth), ``None`` elsewhere (schemes pick
    their own)."""
    return config.scheme_fusion if config.scheme == "temporal" else None


def _family(config: TuneConfig) -> str:
    if config.engine == "machine":
        return f"machine/{config.exec_backend}"
    if config.engine == "scheme":
        return f"scheme/{config.exec_backend}"
    return config.engine


def model_score(
    spec: StencilSpec,
    machine: MachineConfig,
    config: TuneConfig,
    shape: Sequence[int],
    *,
    steps: int,
    cache: KernelCache,
) -> float:
    """Stage-1 score: analytic GStencil/s for the workload under
    ``config``, scaled by the engine's wall-clock prior.  Configurations
    the models reject score ``-inf`` (pruned before any trial)."""
    points = 1
    for n in shape:
        points *= int(n)
    prior = WALLCLOCK_PRIORS.get(_family(config), 1.0)
    try:
        if config.is_plan_aware:
            plan = cache.plan(spec, machine, **config.plan_kwargs())
            program = cache.program(plan, Grid(tuple(shape), plan.halo))
            model = PerformanceModel(machine)
            est = model.estimate(model.kernel_cost(program),
                                 points=points,
                                 steps=trial_steps(config, steps))
            return est.gstencil_s * prior
        if config.engine == "scheme":
            program = model_program(config.scheme, spec, machine,
                                    time_fusion=_scheme_fusion_arg(config))
            model = PerformanceModel(machine)
            est = model.estimate(model.kernel_cost(program),
                                 points=points,
                                 steps=trial_steps(config, steps))
            return est.gstencil_s * prior
        # credit at most one core per MIN_PART_POINTS points, the floor
        # the executor's own default partition uses: smaller parts cost
        # more in dispatch than they gain in parallel sweep time
        cores = min(config.parts, config.workers, machine.total_cores,
                    max(1, points // MIN_PART_POINTS))
        est = MulticoreModel(machine).estimate(
            model_cost("jigsaw", spec, machine), spec,
            points=points, steps=steps, cores=cores,
        )
        return est.gstencil_s * prior
    except ReproError:
        return float("-inf")


def rank_candidates(
    spec: StencilSpec,
    machine: MachineConfig,
    candidates: Sequence[TuneConfig],
    shape: Sequence[int],
    *,
    steps: int,
    cache: KernelCache,
) -> List[Tuple[TuneConfig, float]]:
    """Every candidate with its stage-1 score, best first (infeasible
    ``-inf`` candidates dropped)."""
    scored = [
        (c, model_score(spec, machine, c, shape, steps=steps, cache=cache))
        for c in candidates
    ]
    scored = [cs for cs in scored if cs[1] != float("-inf")]
    scored.sort(key=lambda cs: -cs[1])
    return scored


def select_top(
    ranked: Sequence[Tuple[TuneConfig, float]],
    k: int,
    *,
    always: Sequence[TuneConfig] = (),
) -> List[Tuple[TuneConfig, float]]:
    """Stratified top-``k``: round-robin across engine families in rank
    order, so one optimistic prior cannot monopolize the trial budget.
    ``always`` configurations (the planner's default) are force-included
    up front, over and above ``k``."""
    by_family: Dict[str, List[Tuple[TuneConfig, float]]] = {}
    for cfg, score in ranked:
        by_family.setdefault(_family(cfg), []).append((cfg, score))
    picked: List[Tuple[TuneConfig, float]] = []
    seen = set()

    def push(cfg: TuneConfig, score: float) -> None:
        key = repr(sorted(cfg.as_dict().items()))
        if key not in seen:
            seen.add(key)
            picked.append((cfg, score))

    score_of = {repr(sorted(c.as_dict().items())): s for c, s in ranked}
    for cfg in always:
        push(cfg, score_of.get(repr(sorted(cfg.as_dict().items())), 0.0))
    forced = len(picked)
    families = sorted(by_family, key=lambda f: -by_family[f][0][1])
    row = 0
    while len(picked) - forced < k:
        advanced = False
        for fam in families:
            if len(picked) - forced >= k:
                break
            if row < len(by_family[fam]):
                push(*by_family[fam][row])
                advanced = True
        if not advanced:
            break
        row += 1
    return picked


def measure(
    spec: StencilSpec,
    machine: MachineConfig,
    config: TuneConfig,
    shape: Sequence[int],
    *,
    steps: int,
    budget: TuneBudget,
    cache: KernelCache,
    boundary: str = "periodic",
    seed: int = 1234,
    model_score: float = 0.0,
    deadline: Optional[float] = None,
) -> Trial:
    """One empirical trial: warmup, then median-of-``repeats`` timing.

    Respects the per-trial timeout and an optional absolute ``deadline``
    (wall-clock budget) by cutting remaining repeats — the measurement
    already taken is kept, so even a timed-out trial reports a score.
    Execution failures become ``error`` trials, never exceptions.
    """
    shape = tuple(int(n) for n in shape)
    steps_eff = trial_steps(config, steps)
    points = 1
    for n in shape:
        points *= n
    t_start = time.perf_counter()

    def out_of_time() -> bool:
        now = time.perf_counter()
        if now - t_start > budget.trial_timeout_s:
            return True
        return deadline is not None and now > deadline

    dtype = np.float32 if machine.element_bytes == 4 else np.float64
    try:
        if config.is_plan_aware:
            halo = required_halo(spec, machine,
                                 time_fusion=config.time_fusion)
            kernel: CompiledKernel = cache.compile(
                spec, machine, Grid(shape, halo, dtype=dtype),
                **config.plan_kwargs())
            grid = Grid.random(shape, halo, seed=seed, dtype=dtype)

            def run_once() -> None:
                kernel.run(grid, steps_eff, boundary=boundary,
                           backend=config.exec_backend)
        elif config.engine == "scheme":
            tf = _scheme_fusion_arg(config)
            halo = scheme_halo(config.scheme, spec, machine, time_fusion=tf)
            grid = Grid.random(shape, halo, seed=seed, dtype=dtype)
            program = generate_scheme(config.scheme, spec, machine, grid,
                                      time_fusion=tf)
            # schemes that pick their own depth (e.g. redundancy stays at
            # 1, a future scheme may not) can disagree with scheme_fusion;
            # re-round so run_program accepts the step count
            sp = program.steps_per_iter
            steps_eff = -(-steps_eff // sp) * sp

            def run_once() -> None:
                run_program(program, grid, steps_eff, boundary=boundary,
                            backend=config.exec_backend)
        else:  # parallel
            grid = Grid.random(shape, spec.radius, seed=seed, dtype=dtype)

            def run_once() -> None:
                run_parallel(spec, grid, steps_eff, boundary=boundary,
                             backend=config.run_backend,
                             **config.run_kwargs())

        for _ in range(budget.warmup):
            if out_of_time():
                break
            run_once()
        times: List[float] = []
        timed_out = False
        for _ in range(budget.repeats):
            if times and out_of_time():
                timed_out = True
                break
            t0 = time.perf_counter()
            run_once()
            times.append(time.perf_counter() - t0)
            if out_of_time():
                timed_out = len(times) < budget.repeats
                break
    except ReproError as exc:
        # injected faults subclass ReproError, so a faulted trial is
        # recorded as a failure (never poisons the winner DB) and lands
        # in the obs failure taxonomy under its reason bucket
        obs.counter("tune.trial_failures").inc()
        obs.counter(
            f"tune.trial_failures.reason.{failure_reason(exc)}").inc()
        return Trial(config=config, steps=steps_eff,
                     model_score=model_score, error=str(exc))
    if not times:
        return Trial(config=config, steps=steps_eff, timed_out=True,
                     model_score=model_score, error="trial timed out")
    med = median(times)
    return Trial(
        config=config,
        seconds=med,
        mstencil_s=points * steps_eff / med / 1e6,
        steps=steps_eff,
        repeats=len(times),
        model_score=model_score,
        timed_out=timed_out,
    )


__all__ = [
    "Trial",
    "TuneBudget",
    "WALLCLOCK_PRIORS",
    "measure",
    "model_score",
    "rank_candidates",
    "select_top",
    "trial_steps",
]
