"""``repro chaos``: randomized fault plans + bitwise-equality checking.

Chaos testing closes the loop on the failure model: generate a seeded
random :class:`~repro.faults.plan.FaultPlan` covering **every** site in
the catalogue, run the full compile-and-sweep workload twice — once
clean, once under injection — and verify

* every site class actually took at least one injected fault,
* the faulted run's results are **bitwise identical** to the clean
  run's (every recovery path — retry, recompile, codegen→interp,
  process→thread→serial — preserves exact results), and
* every injected fault is visible in the observability taxonomy.

This module imports the service layer, so it is *not* re-exported from
:mod:`repro.faults` (that would cycle through the kernel cache's import
of the injector); the CLI imports it lazily.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..config import GENERIC_AVX2, MachineConfig
from ..errors import ReproError
from ..service import KernelService, SweepJob
from ..stencils import library
from ..stencils.grid import Grid
from ..stencils.spec import StencilSpec
from .injector import SITES, inject
from .plan import FaultPlan, FaultRule

#: fault kinds chaos may draw per site.  ``kill`` only where a
#: process-pool worker might run it.
CHAOS_SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    "compile.kernel": ("raise", "delay"),
    "exec.codegen_kernel": ("raise", "delay"),
    "pool.task_start": ("raise", "delay", "kill"),
    "server.batch_flush": ("raise", "delay"),
    "server.enqueue": ("raise", "delay"),
    "tile.sweep": ("raise", "delay"),
}

#: sites whose rules must fire on the very first hit: the workload only
#: guarantees a small number of hits there (and a ``raise`` at
#: ``exec.codegen_kernel`` disables that engine for the rest of the
#: call, so only hit 0 is reachable).  The server sites join because the
#: serving stage only guarantees a handful of enqueues/flushes.
_FIRST_HIT_SITES = ("compile.kernel", "exec.codegen_kernel",
                    "server.batch_flush", "server.enqueue")

#: the workload stages ``run_chaos`` can execute, and the catalogue
#: sites each one guarantees to hit at least once (the coverage check
#: only requires the union over the selected stages).
STAGES: Tuple[str, ...] = ("pipeline", "server")
_STAGE_SITES: Dict[str, Tuple[str, ...]] = {
    "pipeline": ("compile.kernel", "exec.codegen_kernel", "pool.task_start",
                 "tile.sweep"),
    "server": ("server.batch_flush", "server.enqueue", "compile.kernel",
               "pool.task_start", "tile.sweep"),
}


def chaos_plan(seed: int) -> FaultPlan:
    """A seeded random plan with exactly one rule per catalogue site."""
    rng = random.Random(seed)
    rules = []
    for site in SITES:
        kind = rng.choice(CHAOS_SITE_KINDS[site])
        after = 0 if site in _FIRST_HIT_SITES else rng.randrange(0, 4)
        rules.append(FaultRule(site=site, kind=kind, after=after,
                               delay_s=0.01 if kind == "delay" else 0.0))
    return FaultPlan(rules=tuple(rules), seed=seed,
                     name=f"chaos-{seed}")


@dataclass
class ChaosReport:
    """The outcome of one chaos run (see :func:`run_chaos`)."""

    kernel: str
    size: Tuple[int, ...]
    steps: int
    seed: int
    backends: Tuple[str, ...]
    plan: FaultPlan
    stages: Tuple[str, ...] = STAGES
    injected: Dict[str, int] = field(default_factory=dict)
    sites_missing: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    taxonomy: Dict[str, int] = field(default_factory=dict)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def ok(self) -> bool:
        """Every site faulted at least once and results stayed bitwise
        identical to the clean run."""
        return not self.sites_missing and not self.mismatches

    def to_dict(self) -> Dict:
        return {
            "kernel": self.kernel,
            "size": list(self.size),
            "steps": self.steps,
            "seed": self.seed,
            "backends": list(self.backends),
            "stages": list(self.stages),
            "plan": self.plan.to_dict(),
            "injected": dict(sorted(self.injected.items())),
            "total_injected": self.total_injected,
            "sites_missing": list(self.sites_missing),
            "mismatches": list(self.mismatches),
            "taxonomy": dict(sorted(self.taxonomy.items())),
            "ok": self.ok,
        }

    def summary(self) -> str:
        lines = [f"chaos seed={self.seed} kernel={self.kernel} "
                 f"size={'x'.join(map(str, self.size))} steps={self.steps} "
                 f"backends={','.join(self.backends)} "
                 f"stages={','.join(self.stages)}"]
        lines.append(f"  injected faults: {self.total_injected}")
        for site in SITES:
            lines.append(f"    {site:<20} {self.injected.get(site, 0)}")
        if self.taxonomy:
            lines.append("  failure/fallback taxonomy:")
            for name, v in sorted(self.taxonomy.items()):
                lines.append(f"    {name:<40} {v}")
        if self.sites_missing:
            lines.append(f"  MISSING sites: {', '.join(self.sites_missing)}")
        if self.mismatches:
            lines.append(f"  BITWISE MISMATCH: {', '.join(self.mismatches)}")
        lines.append("  result: " + ("OK — faulted run bitwise-identical "
                                     "to clean run" if self.ok else "FAILED"))
        return "\n".join(lines)


#: counter prefixes that make up the failure/fallback taxonomy slice of
#: an obs snapshot (shown by ``repro chaos`` and ``repro stats``).
TAXONOMY_PREFIXES = (
    "faults.injected",
    "service.failures",
    "service.fallback",
    "parallel.task_retries",
    "parallel.pool_restarts",
    "parallel.fallback",
    "exec.codegen_fallback",
    "server.admission.rejected",
    "server.batch.failures",
    "server.deadline_missed",
    "server.faults",
    "server.overload",
    "tune.trial_failures",
)


def taxonomy_slice(counters: Dict[str, int]) -> Dict[str, int]:
    """The failure-taxonomy subset of an obs counter snapshot."""
    return {k: v for k, v in counters.items()
            if any(k == p or k.startswith(p + ".")
                   for p in TAXONOMY_PREFIXES)}


def _workload(spec: StencilSpec, machine: MachineConfig,
              *, size: Tuple[int, ...], steps: int,
              backends: Sequence[str], data_seed: int,
              stages: Sequence[str] = STAGES) -> Dict[str, np.ndarray]:
    """The canonical chaos workload: compile in a fresh service (a cache
    miss, so the lowering runs), execute on the SIMD machine (the
    codegen→interp ladder), then sweep on each parallel backend — and,
    in the ``server`` stage, drive the async serving layer with a small
    mixed-tenant load.  Returns labelled result arrays for bitwise
    comparison."""

    def service(**kw) -> KernelService:
        return KernelService(machine, retries=3, run_workers=4, **kw)

    results: Dict[str, np.ndarray] = {}
    if "pipeline" in stages:
        kernel = service().compile(spec, size)
        grid = kernel.grid_like(size, seed=data_seed)
        results["machine"] = kernel.run(grid, steps).interior.copy()
        for backend in backends:
            svc = service(run_backend=backend)
            g = Grid.random(size, spec.radius, seed=data_seed)
            out = svc.run(SweepJob(spec, g, steps))
            results[f"sweep.{backend}"] = out.interior.copy()
            # the window path: 2 parts with deep halos (a temporal
            # block ships windows on either backend)
            out = svc.run(SweepJob(spec, g, steps, parts=2,
                                   temporal_block=2))
            results[f"shard.{backend}"] = out.interior.copy()
    if "server" in stages:
        results.update(_server_stage(spec, machine, size=size,
                                     steps=steps))
    return results


def _server_stage(spec: StencilSpec, machine: MachineConfig, *,
                  size: Tuple[int, ...], steps: int) -> Dict[str, np.ndarray]:
    """A small mixed-tenant load through the async serving layer: every
    response's interior is returned under a ``server.<label>`` key, and
    a request that failed (rejections included — admission is generous
    here, so a clean run never rejects) simply leaves its label out,
    which the caller's clean-vs-faulted comparison flags."""
    from ..server import LoadConfig, run_load_sync
    cfg = LoadConfig(requests=12, tenants=3, kernels=(spec.name,),
                     shape=size, steps=steps, seeds=2, keep_results=True)
    report = run_load_sync(
        cfg, machine=machine, max_queue_depth=64, max_batch=4,
        batch_window_s=0.002, executor_workers=2, run_workers=2, retries=3)
    return {f"server.{label}": arr
            for label, arr in report.results.items()}


def required_sites(stages: Sequence[str]) -> Tuple[str, ...]:
    """The catalogue sites the selected workload ``stages`` guarantee to
    hit (the coverage check only demands these)."""
    wanted = set()
    for stage in stages:
        if stage not in _STAGE_SITES:
            raise ReproError(
                f"unknown chaos stage {stage!r}; known: {STAGES}")
        wanted.update(_STAGE_SITES[stage])
    return tuple(s for s in SITES if s in wanted)


def run_chaos(
    *,
    kernel: str = "heat-2d",
    size: Sequence[int] = (48, 48),
    steps: int = 4,
    seed: int = 0,
    backends: Sequence[str] = ("thread", "process"),
    machine: Optional[MachineConfig] = None,
    plan: Optional[FaultPlan] = None,
    stages: Sequence[str] = STAGES,
) -> ChaosReport:
    """Run the chaos workload clean and faulted; compare bitwise.

    ``plan`` overrides the seeded random plan (used by tests to pin a
    scenario); ``stages`` selects workload stages (``pipeline`` — the
    compile/execute/sweep/shard path — and ``server`` — the async
    serving layer under load).  Observability is enabled (reset) for
    the whole run so the report can include the failure taxonomy."""
    machine = machine or GENERIC_AVX2
    spec = library.get(kernel)
    size = tuple(int(n) for n in size)
    backends = tuple(backends)
    stages = tuple(stages)
    required = required_sites(stages)
    plan = plan or chaos_plan(seed)
    obs.enable(reset=True)
    clean = _workload(spec, machine, size=size, steps=steps,
                      backends=backends, data_seed=seed + 1, stages=stages)
    with inject(plan) as inj:
        faulted = _workload(spec, machine, size=size, steps=steps,
                            backends=backends, data_seed=seed + 1,
                            stages=stages)
    injected = inj.injected_by_site()
    mismatches = [label for label in clean
                  if label not in faulted
                  or clean[label].dtype != faulted[label].dtype
                  or not np.array_equal(clean[label], faulted[label])]
    mismatches += [label for label in faulted if label not in clean]
    counters = obs.snapshot()["metrics"]["counters"]
    return ChaosReport(
        kernel=kernel, size=size, steps=steps, seed=seed, backends=backends,
        plan=plan, stages=stages,
        injected=injected,
        sites_missing=[s for s in required if injected.get(s, 0) < 1],
        mismatches=mismatches,
        taxonomy=taxonomy_slice(counters),
    )


__all__ = [
    "CHAOS_SITE_KINDS",
    "ChaosReport",
    "STAGES",
    "TAXONOMY_PREFIXES",
    "chaos_plan",
    "required_sites",
    "run_chaos",
    "taxonomy_slice",
]
