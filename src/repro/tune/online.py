"""Online autotuning: explore in idle slots, serve on the incumbent.

The offline :class:`~repro.tune.tuner.Tuner` answers "what is the best
configuration for this workload?" with a blocking search; a live service
cannot afford that.  :class:`OnlineTuner` instead runs the bandit-style
explore/exploit split production autotuners use:

* **Serving always uses the incumbent** — the served default (the
  default parts for the shape on the service's ``run_workers`` and
  ``run_backend``) until the shared :class:`~repro.tune.db.TuningDB`
  has a winner the server can run, then that winner.  No request ever
  waits on a trial.
* **Exploration rides idle capacity.**  Each :meth:`OnlineTuner.step`
  is one *opportunity* to run a budgeted empirical trial of a contender
  configuration; it declines (and counts ``tune.online.gated``) unless
  the ``idle`` predicate says the owner has nothing better to do — the
  :class:`~repro.server.core.StencilServer` wires this to "no admitted
  request is in flight and no batch is open".
* **The space is what the server executes**: the :data:`ONLINE_ENGINES`
  (the partitioned :func:`~repro.parallel.executor.run_parallel`) of
  the offline search space (:func:`~repro.tune.space.enumerate_space`)
  on the service's own ``run_backend``.  Candidates are chosen
  epsilon-greedily:
  with probability ``1 - epsilon`` the best *model-ranked* untried
  candidate (greedy by the stage-1 analytic score), with probability
  ``epsilon`` a uniformly random untried one.  The choice stream is a
  pure function of the seed and the trial history, so runs replay
  deterministically.
* **Promotion is bitwise-safe and atomic.**  A contender only replaces
  the incumbent after (a) out-throughputting it by ``promote_margin``
  in same-harness trials and (b) producing *bitwise-identical* results
  to the incumbent on a seeded verification sweep.  Winners land in the
  shared database through :meth:`TuningDB.promote` (per-writer delta
  files — concurrent promoters cannot lose updates).  The server
  applies a winner whole — its parts, worker count and temporal block,
  exactly as the trial ran them
  (:meth:`~repro.tune.space.TuneConfig.run_kwargs`).

Everything lands under the ``tune.online.*`` obs taxonomy and in
:meth:`OnlineTuner.stats` (which works even with obs disabled).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import ReproError, TuneError
from ..parallel.executor import default_parts, run_parallel
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from .db import TuningRecord, workload_key
from .engine import Trial, TuneBudget, measure, rank_candidates
from .space import TuneConfig, enumerate_space

#: the engines the online space explores: exactly the executor the
#: server runs (``run_parallel``)
ONLINE_ENGINES: Tuple[str, ...] = ("parallel",)


@dataclass(frozen=True)
class OnlineTuneConfig:
    """Knobs for one :class:`OnlineTuner`."""

    epsilon: float = 0.25           #: P(random candidate) per trial
    seed: int = 0                   #: RNG seed (determinism contract)
    trial_steps: int = 2            #: sweeps per timed trial run
    warmup: int = 0                 #: untimed runs per trial
    repeats: int = 1                #: timed runs per trial (median)
    trial_timeout_s: float = 30.0   #: per-trial wall-clock cap
    max_trials: Optional[int] = None  #: lifetime trial budget (None = off)
    min_interval_s: float = 0.0     #: cool-down between trials
    promote_margin: float = 1.05    #: contender must beat incumbent by this
    confirm_trials: int = 1         #: re-measurements of the leader at the end
    verify_steps: int = 2           #: sweeps of the bitwise verification run
    verify_seed: int = 517          #: seeded grid the verification sweeps
    poll_interval_s: float = 0.02   #: background-thread nap between steps

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise TuneError("epsilon must be within [0, 1]")
        if self.trial_steps < 1 or self.verify_steps < 1:
            raise TuneError("trial_steps and verify_steps must be >= 1")
        if self.warmup < 0 or self.repeats < 1:
            raise TuneError("warmup must be >= 0 and repeats >= 1")
        if self.trial_timeout_s <= 0:
            raise TuneError("trial_timeout_s must be positive")
        if self.max_trials is not None and self.max_trials < 1:
            raise TuneError("max_trials must be >= 1 (or None)")
        if self.min_interval_s < 0:
            raise TuneError("min_interval_s must be >= 0")
        if self.promote_margin < 1.0:
            raise TuneError("promote_margin must be >= 1.0")
        if self.confirm_trials < 0:
            raise TuneError("confirm_trials must be >= 0")
        if self.poll_interval_s <= 0:
            raise TuneError("poll_interval_s must be positive")

    def trial_budget(self) -> TuneBudget:
        """The per-trial budget every online measurement runs under."""
        return TuneBudget(max_trials=1, warmup=self.warmup,
                          repeats=self.repeats,
                          trial_timeout_s=self.trial_timeout_s,
                          patience=1)


@dataclass(frozen=True)
class OnlineTrial:
    """What one productive :meth:`OnlineTuner.step` did."""

    workload: str                 #: ``<kernel> @ <shape>``
    kind: str                     #: incumbent | explore | greedy | confirm
    trial: Trial
    promoted: bool = False        #: landed in the TuningDB this step
    verified: Optional[bool] = None  #: bitwise check outcome (None = not run)


def _config_key(config: TuneConfig) -> str:
    return repr(sorted(config.as_dict().items()))


class _Workload:
    """Per-workload exploration state."""

    __slots__ = ("spec", "shape", "steps", "boundary", "key", "label",
                 "candidates", "scores", "results", "tried", "rejected",
                 "incumbent", "incumbent_score", "confirms", "converged")

    def __init__(self, spec: StencilSpec, shape: Tuple[int, ...],
                 steps: int, boundary: str, key: str,
                 incumbent: TuneConfig,
                 incumbent_score: Optional[float]) -> None:
        self.spec = spec
        self.shape = shape
        self.steps = steps
        self.boundary = boundary
        self.key = key
        self.label = f"{spec.name} @ {'x'.join(map(str, shape))}"
        self.candidates: Optional[List[TuneConfig]] = None  # lazily ranked
        self.scores: Dict[str, float] = {}       #: stage-1 model scores
        self.results: Dict[str, Trial] = {}      #: best trial per config
        self.tried: set = set()
        self.rejected: set = set()               #: failed bitwise verification
        self.incumbent = incumbent
        self.incumbent_score = incumbent_score   #: None until measured
        self.confirms = 0
        self.converged = False

    def leader(self) -> Optional[Trial]:
        """The best-throughput contender trial that is still eligible."""
        best: Optional[Trial] = None
        for ckey, trial in self.results.items():
            if ckey in self.rejected:
                continue
            if best is None or trial.mstencil_s > best.mstencil_s:
                best = trial
        return best


class OnlineTuner:
    """Budgeted idle-slot exploration over one service's workloads.

    ``service`` is duck-typed — anything with ``machine``, ``cache``,
    ``tuning_db``, ``run_workers`` and ``run_backend`` works (in
    production it is a :class:`~repro.service.KernelService`).
    ``idle`` is the occupancy gate: trials only run while it returns
    ``True``.  ``None`` means always idle (offline convergence runs and
    tests).

    Thread-safety: :meth:`observe` may be called from any thread (the
    server calls it on the event loop); :meth:`step` is intended for one
    driver — either the background thread :meth:`start` spawns or a
    caller's own loop, never both at once.
    """

    def __init__(self, service, *,
                 config: Optional[OnlineTuneConfig] = None,
                 idle: Optional[Callable[[], bool]] = None) -> None:
        if config is not None and not isinstance(config, OnlineTuneConfig):
            raise TuneError(
                f"config must be an OnlineTuneConfig, got {config!r}")
        self.service = service
        self.machine = service.machine
        self.cache = service.cache
        self.db = service.tuning_db
        self.config = config or OnlineTuneConfig()
        self._idle = idle if idle is not None else (lambda: True)
        self._rng = random.Random(self.config.seed)
        self._budget = self.config.trial_budget()
        self._lock = threading.Lock()
        self._states: Dict[str, _Workload] = {}
        self._order: List[str] = []       #: observation order (round-robin)
        self._cursor = 0
        self._last_trial = float("-inf")  #: monotonic time of the last trial
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._counts = {
            "workloads": 0, "steps": 0, "gated": 0, "trials": 0,
            "trial_failures": 0, "explore": 0, "greedy": 0,
            "promotions": 0, "verified": 0, "verify_failures": 0,
            "converged": 0,
        }

    # -- intake ----------------------------------------------------------------
    def observe(self, spec: StencilSpec, shape: Sequence[int], *,
                steps: int = 2, boundary: str = "periodic") -> None:
        """Register one live workload (cheap and idempotent — the server
        calls this on every admitted request)."""
        shape = tuple(int(n) for n in shape)
        key = workload_key(spec, self.machine, shape, boundary=boundary)
        with self._lock:
            if key in self._states:
                return
        # first sighting: resolve the incumbent outside the lock (the DB
        # read may touch disk)
        record = self.db.get(key)
        if record is not None and self._servable(record.config):
            incumbent, incumbent_score = record.config, record.mstencil_s
        else:
            incumbent, incumbent_score = self.served_default(shape), None
        state = _Workload(spec, shape, max(1, int(steps)), boundary, key,
                          incumbent, incumbent_score)
        with self._lock:
            if key in self._states:  # lost a registration race — keep first
                return
            self._states[key] = state
            self._order.append(key)
            self._counts["workloads"] += 1
        obs.counter("tune.online.workloads").inc()

    def _servable(self, config: TuneConfig) -> bool:
        """Whether the server runs ``config`` as it was measured: an
        online engine on the service's own run backend."""
        return (config.engine in ONLINE_ENGINES
                and config.run_backend == self.service.run_backend)

    def served_default(self, shape: Sequence[int]) -> TuneConfig:
        """What the server runs without a winner: the default parts on
        ``run_workers`` workers and the service's run backend."""
        workers = self.service.run_workers
        return TuneConfig(engine="parallel",
                          parts=default_parts(tuple(shape), workers),
                          workers=workers,
                          run_backend=self.service.run_backend)

    def winner(self, spec: StencilSpec, shape: Sequence[int], *,
               boundary: str = "periodic") -> Optional[TuneConfig]:
        """The stored winner for this workload if the server can run it
        as measured, else ``None`` — a pure database lookup."""
        record = self.db.lookup(spec, self.machine,
                                tuple(int(n) for n in shape),
                                boundary=boundary)
        if record is not None and self._servable(record.config):
            return record.config
        return None

    def incumbent(self, spec: StencilSpec, shape: Sequence[int], *,
                  boundary: str = "periodic") -> TuneConfig:
        """The configuration requests run on right now: the servable DB
        winner, else the served default."""
        return (self.winner(spec, shape, boundary=boundary)
                or self.served_default(shape))

    # -- the exploration step --------------------------------------------------
    def step(self) -> Optional[OnlineTrial]:
        """One idle-slot opportunity: maybe run one budgeted trial.

        Returns the :class:`OnlineTrial` if a measurement ran, ``None``
        if the step declined (gated on occupancy, cooling down, out of
        budget, or every observed workload has converged).
        """
        self._counts["steps"] += 1
        obs.counter("tune.online.steps").inc()
        state = self._pick_state()
        if state is None:
            return None
        if not self._idle():
            self._counts["gated"] += 1
            obs.counter("tune.online.gated").inc()
            return None
        now = time.monotonic()
        if now - self._last_trial < self.config.min_interval_s:
            return None
        self._ensure_candidates(state)
        # a promotion deferred by an earlier busy gate retries here
        self._maybe_promote(state, OnlineTrial(state.label, "noop", Trial(
            config=state.incumbent)))
        choice = self._choose(state)
        if choice is None:
            if not state.converged:
                state.converged = True
                self._counts["converged"] += 1
                obs.counter("tune.online.converged").inc()
            return None
        kind, config = choice
        trial = measure(state.spec, self.machine, config, state.shape,
                        steps=self.config.trial_steps, budget=self._budget,
                        cache=self.cache, boundary=state.boundary,
                        model_score=state.scores.get(_config_key(config),
                                                     0.0))
        self._last_trial = time.monotonic()
        self._counts["trials"] += 1
        obs.counter("tune.online.trials").inc()
        obs.counter(f"tune.online.trials.kind.{kind}").inc()
        out = OnlineTrial(workload=state.label, kind=kind, trial=trial)
        if not trial.ok:
            self._counts["trial_failures"] += 1
            obs.counter("tune.online.trial_failures").inc()
            return out
        if obs.enabled():
            obs.histogram("tune.online.trial_ms").observe(
                trial.seconds * 1e3)
        if kind == "incumbent":
            state.incumbent_score = trial.mstencil_s
        else:
            ckey = _config_key(config)
            prev = state.results.get(ckey)
            if prev is None or trial.mstencil_s > prev.mstencil_s:
                state.results[ckey] = trial
        return self._maybe_promote(state, out)

    def converged(self) -> bool:
        """Whether every observed workload has finished exploring (or
        the lifetime trial budget ran out)."""
        with self._lock:
            states = list(self._states.values())
        if not states:
            return False
        if self._budget_spent():
            return True
        return all(s.converged for s in states)

    # -- background driving ----------------------------------------------------
    def start(self) -> None:
        """Spawn the background exploration thread (daemon; exceptions
        are counted, never propagated — tuning must not hurt serving)."""
        if self._thread is not None:
            raise TuneError("online tuner already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                try:
                    ran = self.step() is not None
                except Exception:  # noqa: BLE001 - never kill serving
                    obs.counter("tune.online.step_errors").inc()
                    ran = False
                if not ran or self.converged():
                    self._stop.wait(self.config.poll_interval_s)

        self._thread = threading.Thread(target=loop, daemon=True,
                                        name="repro-online-tune")
        self._thread.start()

    def stop(self, *, timeout_s: float = 10.0) -> None:
        """Signal and join the background thread (a trial in flight gets
        ``timeout_s`` to finish; the daemon thread is abandoned after)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout_s)

    # -- internals -------------------------------------------------------------
    def _budget_spent(self) -> bool:
        return (self.config.max_trials is not None
                and self._counts["trials"] >= self.config.max_trials)

    def _pick_state(self) -> Optional[_Workload]:
        """Round-robin over workloads still exploring."""
        if self._budget_spent():
            return None
        with self._lock:
            open_keys = [k for k in self._order
                         if not self._states[k].converged]
            if not open_keys:
                return None
            state = self._states[open_keys[self._cursor % len(open_keys)]]
            self._cursor += 1
            return state

    def _ensure_candidates(self, state: _Workload) -> None:
        if state.candidates is not None:
            return
        space = enumerate_space(state.spec, self.machine, state.shape,
                                engines=ONLINE_ENGINES,
                                run_backends=(self.service.run_backend,))
        ranked = rank_candidates(state.spec, self.machine, space,
                                 state.shape, steps=state.steps,
                                 cache=self.cache)
        incumbent_key = _config_key(state.incumbent)
        state.candidates = [c for c, _ in ranked
                            if _config_key(c) != incumbent_key]
        state.scores = {_config_key(c): s for c, s in ranked}

    def _choose(self, state: _Workload
                ) -> Optional[Tuple[str, TuneConfig]]:
        """Epsilon-greedy pick, or ``None`` once the workload is done.

        The incumbent itself is always measured first so contenders are
        compared against a same-harness number, not an offline one.
        """
        if state.incumbent_score is None:
            return "incumbent", state.incumbent
        untried = [c for c in state.candidates
                   if _config_key(c) not in state.tried]
        if untried:
            if self._rng.random() < self.config.epsilon:
                config = untried[self._rng.randrange(len(untried))]
                kind = "explore"
                self._counts["explore"] += 1
            else:
                config = untried[0]  # best model-ranked untried
                kind = "greedy"
                self._counts["greedy"] += 1
            state.tried.add(_config_key(config))
            return kind, config
        leader = state.leader()
        if leader is not None and state.confirms < self.config.confirm_trials:
            state.confirms += 1
            return "confirm", leader.config
        return None

    def _maybe_promote(self, state: _Workload,
                       out: OnlineTrial) -> OnlineTrial:
        """Promote the leading contender if it clears the margin — but
        only through the bitwise gate, and only while still idle."""
        leader = state.leader()
        if (leader is None or state.incumbent_score is None
                or leader.mstencil_s < (state.incumbent_score
                                        * self.config.promote_margin)):
            return out
        if not self._idle():
            # verification is real kernel work; defer it like a trial
            self._counts["gated"] += 1
            obs.counter("tune.online.gated").inc()
            return out
        verified = self._verify(state, leader.config)
        if not verified:
            state.rejected.add(_config_key(leader.config))
            self._counts["verify_failures"] += 1
            obs.counter("tune.online.verify_failures").inc()
            return OnlineTrial(out.workload, out.kind, out.trial,
                               promoted=False, verified=False)
        self._counts["verified"] += 1
        obs.counter("tune.online.verified").inc()
        record = TuningRecord(
            key=state.key, config=leader.config,
            mstencil_s=leader.mstencil_s, seconds=leader.seconds,
            steps=leader.steps,
            trials=(dict(leader.to_dict(), online=True, verified=True),),
            budget=self._budget.as_dict(),
        )
        landed = self.db.promote(record)
        if landed:
            self._counts["promotions"] += 1
            obs.counter("tune.online.promotions").inc()
        # either way this workload now chases the (possibly concurrent)
        # winner: adopt the leader locally so the margin test re-arms
        state.incumbent = leader.config
        state.incumbent_score = leader.mstencil_s
        return OnlineTrial(out.workload, out.kind, out.trial,
                           promoted=landed, verified=True)

    def _verify(self, state: _Workload, contender: TuneConfig) -> bool:
        """Bitwise gate: what the contender would serve must equal what
        the incumbent serves, exactly, on a seeded verification sweep.

        Both run through :func:`~repro.parallel.executor.run_parallel`,
        which is bitwise-invariant across part counts, worker counts,
        temporal blocks and backends by design — so any difference
        means a broken configuration, and it is never promoted."""
        try:
            want = self._run_config(state, state.incumbent)
            got = self._run_config(state, contender)
        except ReproError:
            return False
        return want.dtype == got.dtype and np.array_equal(want, got)

    def _run_config(self, state: _Workload,
                    config: TuneConfig) -> np.ndarray:
        """The interior ``config`` serves for the seeded verification
        workload (the server's ``run_many`` dispatch of a winner)."""
        dtype = (np.float32 if self.machine.element_bytes == 4
                 else np.float64)
        grid = Grid.random(state.shape, state.spec.radius,
                           seed=self.config.verify_seed, dtype=dtype)
        out = run_parallel(state.spec, grid, self.config.verify_steps,
                           boundary=state.boundary,
                           backend=config.run_backend, **config.run_kwargs())
        return out.interior.copy()

    # -- introspection ---------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Lifetime counters (kept independently of the obs registry so
        they survive ``obs.disable()``)."""
        with self._lock:
            out = dict(self._counts)
        out["open_workloads"] = sum(
            0 if s.converged else 1 for s in self._states.values())
        return out


__all__ = ["ONLINE_ENGINES", "OnlineTrial", "OnlineTuneConfig",
           "OnlineTuner"]
