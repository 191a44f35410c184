"""Autotuning: model-guided + empirical configuration search with a
persistent tuning database.

The planner (:mod:`repro.core.planner`) hard-codes the paper's §4.3–§4.4
deployment policy; this subsystem instead *searches* the repo's real
configuration space — plan variants (ITM depth, SDF on/off), SIMD-machine
execution backends, executor parts and worker counts — per workload, and
remembers every winner:

* :mod:`~repro.tune.space` — legal-configuration enumeration;
* :mod:`~repro.tune.engine` — analytic ranking + budgeted empirical
  timing (:class:`TuneBudget`);
* :mod:`~repro.tune.db` — the content-addressed persistent
  :class:`TuningDB`;
* :mod:`~repro.tune.tuner` — :class:`Tuner`, the front-end gluing the
  three together;
* :mod:`~repro.tune.online` — :class:`OnlineTuner`, the live-traffic
  variant: epsilon-greedy trials in idle serving slots, bitwise-verified
  atomic promotion into the shared database.

Entry points: ``python -m repro tune``, ``KernelService.compile_many(...,
tune=True)``, ``compile_kernel(..., tuned=cfg)``, and
``repro serve --online-tune``.
"""

from .db import TuningDB, TuningRecord, default_tuning_dir, workload_key
from .engine import Trial, TuneBudget
from .online import OnlineTrial, OnlineTuneConfig, OnlineTuner
from .space import (
    ENGINES,
    TuneConfig,
    default_config,
    enumerate_space,
)
from .tuner import TuneReport, Tuner

__all__ = [
    "ENGINES",
    "OnlineTrial",
    "OnlineTuneConfig",
    "OnlineTuner",
    "Trial",
    "TuneBudget",
    "TuneConfig",
    "TuneReport",
    "Tuner",
    "TuningDB",
    "TuningRecord",
    "default_config",
    "default_tuning_dir",
    "enumerate_space",
    "workload_key",
]
