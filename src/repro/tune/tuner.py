"""The tuner front-end: database check, model pruning, empirical search.

:meth:`Tuner.tune` is the one entry point the CLI, the
:class:`~repro.service.KernelService`, and the benchmarks share::

    tuner = Tuner(machine, cache=cache, db=TuningDB(db_dir))
    report = tuner.tune(spec, (512, 512), steps=4,
                        budget=TuneBudget(max_trials=8))
    report.best.config      # the winning TuneConfig
    report.from_db          # True -> zero empirical trials ran

A database hit short-circuits the whole pipeline (zero trials); a miss
runs the two-stage search (:mod:`repro.tune.engine`) and persists the
winner with full measurement provenance, so the *next* identical workload
is a hit.  :meth:`Tuner.rank` is that search's first stage alone — the
analytic ranking, no trial, no database (``repro tune --model-only``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .. import obs
from ..config import MachineConfig
from ..core.cache import KernelCache, default_cache
from ..errors import TuneError
from ..faults import TaskTimeout, call_with_timeout
from ..stencils.spec import StencilSpec
from .db import TuningDB, TuningRecord, workload_key
from .engine import (
    Trial,
    TuneBudget,
    measure,
    rank_candidates,
    select_top,
    trial_steps,
)
from .space import (
    DEFAULT_SCHEMES,
    ENGINES,
    TuneConfig,
    default_config,
    enumerate_space,
)


@dataclass(frozen=True)
class TuneReport:
    """Everything one tuning run decided and why."""

    spec_name: str
    machine_name: str
    shape: Tuple[int, ...]
    steps: int
    key: str
    best: Trial                    #: the winner (synthesized on DB hits)
    from_db: bool = False          #: True -> zero empirical trials ran
    trials: Tuple[Trial, ...] = ()   #: every empirical trial, run order
    candidates: int = 0            #: legal search-space size
    stopped: str = "complete"      #: complete | patience | budget
    record: Optional[TuningRecord] = field(default=None, compare=False)

    @property
    def ranking(self) -> List[Trial]:
        """Successful trials, fastest first."""
        return sorted((t for t in self.trials if t.ok),
                      key=lambda t: -t.mstencil_s)

    def summary(self) -> str:
        src = ("tuning DB hit — 0 empirical trials"
               if self.from_db else
               f"{len(self.trials)} trial(s) over {self.candidates} "
               f"legal configuration(s), search {self.stopped}")
        return (
            f"{self.spec_name} @ {'x'.join(map(str, self.shape))} on "
            f"{self.machine_name}: {self.best.config.label()} -> "
            f"{self.best.mstencil_s:.2f} MStencil/s ({src})"
        )


class Tuner:
    """Model-guided empirical autotuner over one machine model."""

    def __init__(
        self,
        machine: MachineConfig,
        *,
        cache: Optional[KernelCache] = None,
        db: Optional[TuningDB] = None,
        budget: Optional[TuneBudget] = None,
    ) -> None:
        self.machine = machine
        self.cache = cache if cache is not None else default_cache()
        self.db = db if db is not None else TuningDB()
        self.budget = budget or TuneBudget()

    # -- the main entry point --------------------------------------------------
    def tune(
        self,
        spec: StencilSpec,
        shape: Sequence[int],
        *,
        steps: int = 4,
        budget: Optional[TuneBudget] = None,
        engines: Sequence[str] = ENGINES,
        exec_backends: Sequence[str] = ("auto",),
        schemes: Sequence[str] = DEFAULT_SCHEMES,
        boundary: str = "periodic",
        force: bool = False,
    ) -> TuneReport:
        """Best configuration for ``spec`` over interior ``shape``.

        Checks the database first unless ``force``; on a miss, ranks the
        legal space analytically, times the stratified top candidates
        under ``budget`` (the planner's default configuration always gets
        a trial), records the winner, and returns the full report.
        """
        if steps < 1:
            raise TuneError("steps must be >= 1")
        shape = tuple(int(n) for n in shape)
        budget = budget or self.budget
        key = workload_key(spec, self.machine, shape, boundary=boundary)

        if not force:
            rec = self.db.get(key)
            if rec is not None:
                obs.counter("tune.db_hits").inc()
                best = Trial(config=rec.config, seconds=rec.seconds,
                             mstencil_s=rec.mstencil_s, steps=rec.steps,
                             repeats=1)
                return TuneReport(
                    spec_name=spec.name, machine_name=self.machine.name,
                    shape=shape, steps=steps, key=key, best=best,
                    from_db=True, record=rec,
                )

        obs.counter("tune.db_misses").inc()
        with obs.span("tune", kernel=spec.name,
                      shape="x".join(map(str, shape))) as tspan:
            return self._search(spec, shape, steps=steps, budget=budget,
                                engines=engines,
                                exec_backends=exec_backends,
                                schemes=schemes,
                                boundary=boundary, key=key, tspan=tspan)

    # -- stage 1 alone ---------------------------------------------------------
    def rank(
        self,
        spec: StencilSpec,
        shape: Sequence[int],
        *,
        steps: int = 4,
        engines: Sequence[str] = ENGINES,
        exec_backends: Sequence[str] = ("auto",),
        schemes: Sequence[str] = DEFAULT_SCHEMES,
    ) -> Tuple[int, List[Tuple[TuneConfig, float]]]:
        """The legal space's size and its stage-1 ranking, best first.

        No trial runs and the database is neither read nor written; a
        search ranks through here before it times anything.
        """
        if steps < 1:
            raise TuneError("steps must be >= 1")
        space = enumerate_space(spec, self.machine, shape,
                                engines=engines,
                                exec_backends=exec_backends,
                                schemes=schemes)
        if not space:
            raise TuneError(
                f"no legal configuration for {spec.name} over {shape}")
        with obs.span("tune.rank", candidates=len(space)):
            ranked = rank_candidates(spec, self.machine, space, shape,
                                     steps=steps, cache=self.cache)
        if not ranked:
            raise TuneError(
                f"the analytic model rejected every configuration for "
                f"{spec.name} over {shape}")
        return len(space), ranked

    def _search(self, spec, shape, *, steps, budget, engines,
                exec_backends, schemes, boundary, key, tspan) -> TuneReport:
        legal, ranked = self.rank(spec, shape, steps=steps, engines=engines,
                                  exec_backends=exec_backends,
                                  schemes=schemes)
        baseline = default_config(spec, self.machine)
        selected = select_top(ranked, budget.max_trials, always=[baseline])

        deadline = (time.perf_counter() + budget.max_seconds
                    if budget.max_seconds is not None else None)
        trials: List[Trial] = []
        best: Optional[Trial] = None
        since_improve = 0
        stopped = "complete"
        for cfg, score in selected:
            now = time.perf_counter()
            if deadline is not None and now > deadline:
                stopped = "budget"
                break
            # measure() only polls the deadline *between* timed runs, so
            # one slow run could overshoot max_seconds unboundedly; a
            # hard cap at the remaining budget turns the overrun into a
            # failed trial instead (the worker thread is abandoned, the
            # search moves on)
            remaining = None if deadline is None else max(deadline - now,
                                                          0.01)
            with obs.span("tune.trial", config=cfg.label()) as span:
                try:
                    trial = call_with_timeout(
                        lambda: measure(spec, self.machine, cfg, shape,
                                        steps=steps, budget=budget,
                                        cache=self.cache, boundary=boundary,
                                        model_score=score,
                                        deadline=deadline),
                        remaining)
                except TaskTimeout:
                    obs.counter("tune.trial_overruns").inc()
                    trial = Trial(
                        config=cfg, steps=trial_steps(cfg, steps),
                        model_score=score, timed_out=True,
                        error=(f"trial overran the remaining "
                               f"{remaining:.3g}s search budget"))
                span.set(ok=trial.ok, mstencil_s=round(trial.mstencil_s, 3))
            obs.counter("tune.trials").inc()
            if obs.enabled() and trial.ok:
                obs.histogram("tune.trial_ms").observe(trial.seconds * 1e3)
            trials.append(trial)
            if trial.ok and (best is None
                             or trial.mstencil_s > best.mstencil_s):
                best = trial
                since_improve = 0
            else:
                since_improve += 1
                if since_improve >= budget.patience:
                    stopped = "patience"
                    break
        if best is None:
            raise TuneError(
                f"every empirical trial failed for {spec.name} over "
                f"{shape}: "
                + "; ".join(t.error or "timeout" for t in trials))

        record = TuningRecord(
            key=key, config=best.config, mstencil_s=best.mstencil_s,
            seconds=best.seconds, steps=best.steps,
            trials=tuple(t.to_dict() for t in trials),
            budget=budget.as_dict(),
        )
        self.db.put(record)
        tspan.set(trials=len(trials), stopped=stopped,
                  winner=best.config.label())
        return TuneReport(
            spec_name=spec.name, machine_name=self.machine.name,
            shape=shape, steps=steps, key=key, best=best,
            from_db=False, trials=tuple(trials), candidates=legal,
            stopped=stopped, record=record,
        )

    # -- transparent reuse -----------------------------------------------------
    def tuned_config(self, spec: StencilSpec, shape: Sequence[int], *,
                     boundary: str = "periodic") -> Optional[TuneConfig]:
        """The stored winner for this workload, or ``None`` (no search is
        triggered)."""
        rec = self.db.lookup(spec, self.machine, tuple(int(n) for n in shape),
                             boundary=boundary)
        return rec.config if rec is not None else None


__all__ = ["TuneReport", "Tuner"]
