"""The autotuner's search space: every *legal* execution configuration
for one workload.

A workload is ``(StencilSpec, MachineConfig, interior shape)``; a
configuration (:class:`TuneConfig`) is one complete way to execute sweeps
of it.  Four execution engines exist today:

* ``"machine"`` — the cycle-exact SIMD machine
  (:meth:`repro.core.kernel.CompiledKernel.run`), parameterized by the
  plan (``time_fusion``, ``use_sdf``) and the execution backend
  (:data:`repro.vectorize.driver.EXEC_BACKENDS`);
* ``"numpy"`` — the fused/flattened numpy fast path
  (:meth:`~repro.core.kernel.CompiledKernel.run_numpy`), parameterized by
  the plan only;
* ``"parallel"`` — the outer-axis partitioned executor
  (:func:`repro.parallel.executor.run_parallel`), parameterized by the
  part count, the worker count, the temporal block (sub-steps per halo
  exchange) and the executor backend;
* ``"scheme"`` — a named registry scheme
  (:func:`repro.schemes.generate` + the program driver), parameterized by
  the scheme name, the vertical fusion depth (``temporal`` only) and the
  execution backend.  Legality is scheme-aware: temporal depths are
  clamped by the spec's radius, and redundancy elimination is enumerated
  only where shifted-column sharing exists.

:func:`enumerate_space` rejects illegal points up front — an ITM depth
the butterfly window cannot cover (:func:`repro.core.itm.fusable`), a
machine-engine x extent below one vector block, more parts than outer
rows — so the search engine never wastes a trial on a configuration
that cannot run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import MachineConfig
from ..core.itm import fusable
from ..errors import ReproError, TuneError
from ..parallel.executor import BACKENDS as RUN_BACKENDS
from ..stencils.spec import StencilSpec
from ..vectorize.driver import EXEC_BACKENDS

#: the execution engines a configuration can select.
ENGINES: Tuple[str, ...] = ("machine", "numpy", "parallel", "scheme")

#: ITM depths the space considers (filtered by :func:`fusable` per spec).
FUSION_LADDER: Tuple[int, ...] = (1, 2, 4)

#: outer-axis part counts the parallel engine considers (more parts than
#: workers can win: smaller parts stay cache-resident).
PARTS_LADDER: Tuple[int, ...] = (1, 2, 4, 8, 16)

#: temporal-block depths the parallel engine considers (sub-steps per halo
#: exchange; deeper blocks trade redundant ghost rows for fewer barriers).
TEMPORAL_LADDER: Tuple[int, ...] = (1, 2, 4)

#: registry scheme names the scheme engine searches by default (the two
#: related-work families; any :data:`repro.schemes.SCHEMES` name may be
#: passed explicitly).
DEFAULT_SCHEMES: Tuple[str, ...] = ("temporal", "redundancy")

#: vertical fusion depths the temporal scheme considers (filtered by
#: :func:`repro.vectorize.temporal.legal_fusion` per spec/machine).
SCHEME_FUSION_LADDER: Tuple[int, ...] = (1, 2, 4)


@dataclass(frozen=True)
class TuneConfig:
    """One point of the search space — a complete execution recipe.

    Fields irrelevant to the selected engine keep their defaults and are
    dropped from :meth:`as_dict`, so two configurations that execute
    identically are equal and share one database entry.
    """

    engine: str = "machine"
    time_fusion: int = 1
    use_sdf: bool = True
    exec_backend: str = "auto"             #: machine + scheme engines
    parts: int = 1                          #: parallel engine only
    workers: int = 1                        #: parallel engine only
    temporal_block: int = 1                 #: parallel engine only
    run_backend: str = "thread"             #: parallel engine only
    scheme: Optional[str] = None            #: scheme engine only
    scheme_fusion: int = 1                  #: scheme engine, temporal only

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise TuneError(
                f"unknown engine {self.engine!r}; known: {ENGINES}")
        if self.time_fusion < 1:
            raise TuneError("time_fusion must be >= 1")
        if self.scheme_fusion < 1:
            raise TuneError("scheme_fusion must be >= 1")
        if self.engine == "scheme":
            from ..schemes import SCHEMES
            if self.scheme is None:
                raise TuneError(
                    "scheme: scheme-engine configurations need a scheme name")
            if self.scheme not in SCHEMES:
                raise TuneError(
                    f"scheme: unknown scheme {self.scheme!r}; "
                    f"known: {SCHEMES}")
        else:
            if self.scheme is not None:
                raise TuneError(
                    f"scheme is a scheme-engine field (engine is "
                    f"{self.engine!r})")
            if self.scheme_fusion != 1:
                raise TuneError("scheme_fusion is a scheme-engine field")
        if self.exec_backend not in EXEC_BACKENDS:
            raise TuneError(
                f"unknown exec backend {self.exec_backend!r}; "
                f"known: {EXEC_BACKENDS}")
        if self.run_backend not in RUN_BACKENDS:
            raise TuneError(
                f"unknown run backend {self.run_backend!r}; "
                f"known: {RUN_BACKENDS}")
        layout = (self.parts, self.workers, self.temporal_block)
        if min(layout) < 1:
            raise TuneError("parts, workers and temporal_block must be >= 1")
        if self.engine != "parallel" and layout != (1, 1, 1):
            raise TuneError(
                "parts, workers and temporal_block are parallel-engine fields")

    # -- identity --------------------------------------------------------------
    @property
    def is_plan_aware(self) -> bool:
        """Whether the engine executes a compiled plan (so ``time_fusion``
        / ``use_sdf`` matter)."""
        return self.engine in ("machine", "numpy")

    def as_dict(self) -> Dict[str, Any]:
        """Canonical JSON content: engine-relevant fields only."""
        if self.engine == "parallel":
            return {
                "engine": self.engine,
                "parts": self.parts,
                "workers": self.workers,
                "temporal_block": self.temporal_block,
                "run_backend": self.run_backend,
            }
        if self.engine == "scheme":
            return {
                "engine": self.engine,
                "scheme": self.scheme,
                "scheme_fusion": self.scheme_fusion,
                "exec_backend": self.exec_backend,
            }
        out: Dict[str, Any] = {
            "engine": self.engine,
            "time_fusion": self.time_fusion,
            "use_sdf": self.use_sdf,
        }
        if self.engine == "machine":
            out["exec_backend"] = self.exec_backend
        return out

    @classmethod
    def from_dict(cls, payload: Any) -> "TuneConfig":
        """Rebuild from :meth:`as_dict` content, raising
        :class:`~repro.errors.TuneError` on anything malformed (the
        database uses this to detect corrupted/stale entries)."""
        if not isinstance(payload, dict):
            raise TuneError("configuration payload is not an object")
        known = {"engine", "time_fusion", "use_sdf", "exec_backend",
                 "parts", "workers", "temporal_block", "run_backend",
                 "scheme", "scheme_fusion"}
        unknown = set(payload) - known
        if unknown:
            raise TuneError(f"unknown configuration fields {sorted(unknown)}")
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:
            raise TuneError(f"malformed configuration: {exc}") from None

    # -- integration helpers ---------------------------------------------------
    @property
    def plan_backend(self) -> str:
        """The SIMD-machine backend this configuration pins on a plan
        (``"auto"`` for engines that never reach the SIMD machine)."""
        return self.exec_backend if self.engine == "machine" else "auto"

    def plan_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for :func:`repro.core.planner.plan` /
        :meth:`repro.core.cache.KernelCache.plan`."""
        if not self.is_plan_aware:
            return {"time_fusion": 1, "use_sdf": True, "backend": "auto"}
        return {"time_fusion": self.time_fusion, "use_sdf": self.use_sdf,
                "backend": self.plan_backend}

    def run_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for
        :func:`~repro.parallel.executor.run_parallel` (and
        :class:`~repro.service.SweepJob`) that execute a parallel
        configuration."""
        return {"parts": self.parts, "workers": self.workers,
                "temporal_block": self.temporal_block}

    def label(self) -> str:
        """Compact human-readable form for tables and logs."""
        if self.engine == "parallel":
            return (f"parallel[{self.parts}] w={self.workers} "
                    f"s={self.temporal_block} {self.run_backend}")
        if self.engine == "scheme":
            depth = (f" s={self.scheme_fusion}"
                     if self.scheme_fusion > 1 else "")
            return f"scheme/{self.scheme}{depth} {self.exec_backend}"
        sdf = "sdf" if self.use_sdf else "no-sdf"
        if self.engine == "machine":
            return f"machine/{self.exec_backend} tf={self.time_fusion} {sdf}"
        return f"numpy tf={self.time_fusion} {sdf}"


def worker_ladder(limit: Optional[int] = None) -> List[int]:
    """1, 2, 4, ... up to ``limit`` (default: the host's CPU count,
    capped at 8 — beyond that the GIL-bound part dispatch stops scaling)."""
    cap = limit if limit is not None else min(os.cpu_count() or 4, 8)
    out = [1]
    w = 2
    while w <= cap:
        out.append(w)
        w *= 2
    return out


def default_config(spec: StencilSpec, machine: MachineConfig) -> "TuneConfig":
    """The planner's static choice, as a configuration: the §4.3–§4.4
    deployment policy on the default SIMD-machine backend.  This is the
    baseline every search is measured against (and always receives an
    empirical trial)."""
    from ..core.planner import auto_fusion
    return TuneConfig(engine="machine",
                      time_fusion=auto_fusion(spec, machine),
                      use_sdf=True, exec_backend="auto")


def enumerate_space(
    spec: StencilSpec,
    machine: MachineConfig,
    shape: Sequence[int],
    *,
    engines: Sequence[str] = ENGINES,
    exec_backends: Sequence[str] = ("auto",),
    run_backends: Sequence[str] = ("thread",),
    max_workers: Optional[int] = None,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
) -> List[TuneConfig]:
    """All legal configurations for ``spec`` over an interior ``shape``.

    ``engines`` / ``exec_backends`` / ``run_backends`` restrict the
    families considered (the CLI's ``--backend interp`` maps straight to
    ``exec_backends=("interp",)``).  The default searches only ``auto``
    (codegen, degrading to the interpreter): the pinned interpreter runs
    orders of magnitude slower than every other family, so timing it
    only spends trial slots, and ``codegen`` (and its retired alias
    ``batch``) resolves identically to ``auto``, so it would only
    duplicate trial points.  ``schemes`` names the registry
    schemes the scheme engine enumerates (default
    :data:`DEFAULT_SCHEMES`).  Illegal points never appear: infeasible
    ITM depths, machine-engine x extents below one ``2W`` block, more
    parts than outer rows, temporal fusion depths the radius cannot support,
    and redundancy elimination on specs without shifted-column sharing
    are all rejected here.
    """
    shape = tuple(int(n) for n in shape)
    if len(shape) != spec.ndim:
        raise TuneError(
            f"shape rank {len(shape)} != stencil ndim {spec.ndim}")
    if any(n < 1 for n in shape):
        raise TuneError(f"shape extents must be >= 1, got {shape}")
    for e in engines:
        if e not in ENGINES:
            raise TuneError(f"unknown engine {e!r}; known: {ENGINES}")
    for b in exec_backends:
        if b not in EXEC_BACKENDS:
            raise TuneError(
                f"unknown exec backend {b!r}; known: {EXEC_BACKENDS}")
    for b in run_backends:
        if b not in RUN_BACKENDS:
            raise TuneError(
                f"unknown run backend {b!r}; known: {RUN_BACKENDS}")
    from ..schemes import SCHEMES
    for s in schemes:
        if s not in SCHEMES:
            raise TuneError(
                f"schemes: unknown scheme name {s!r}; known: {SCHEMES}")

    width = machine.vector_elems
    depths = [d for d in FUSION_LADDER if fusable(spec, d, width=width)]
    configs: List[TuneConfig] = []
    seen = set()

    def add(cfg: TuneConfig) -> None:
        key = tuple(sorted(cfg.as_dict().items(),
                           key=lambda kv: kv[0]))
        key = repr(key)
        if key not in seen:
            seen.add(key)
            configs.append(cfg)

    if "machine" in engines and shape[-1] >= 2 * width:
        for depth in depths:
            for use_sdf in (True, False):
                for backend in exec_backends:
                    add(TuneConfig(engine="machine", time_fusion=depth,
                                   use_sdf=use_sdf, exec_backend=backend))
    if "numpy" in engines:
        for depth in depths:
            for use_sdf in (True, False):
                add(TuneConfig(engine="numpy", time_fusion=depth,
                               use_sdf=use_sdf))
    if "parallel" in engines:
        # one part runs no windows, so deeper blocks only pay for copies
        for parts in PARTS_LADDER:
            if parts > shape[0]:
                continue
            for workers in worker_ladder(max_workers):
                if workers > parts:
                    continue
                for s in TEMPORAL_LADDER if parts > 1 else (1,):
                    for backend in run_backends:
                        add(TuneConfig(engine="parallel", parts=parts,
                                       workers=workers, temporal_block=s,
                                       run_backend=backend))
    if "scheme" in engines:
        from ..schemes import scheme_block, scheme_halo
        from ..vectorize.redundancy import has_sharing
        from ..vectorize.temporal import legal_fusion

        def halo_fits(halo) -> bool:
            # periodic refills need halo <= interior on every axis
            return all(h <= n for h, n in zip(halo, shape))

        for name in schemes:
            if name == "redundancy" and not has_sharing(spec):
                continue  # no shifted column shared by >= 2 rows
            depths = (
                [d for d in SCHEME_FUSION_LADDER
                 if legal_fusion(spec, machine, d)]
                if name == "temporal" else [1]
            )
            for depth in depths:
                try:
                    if shape[-1] < scheme_block(name, machine):
                        continue
                    tf = depth if name == "temporal" else None
                    if not halo_fits(scheme_halo(name, spec, machine,
                                                 time_fusion=tf)):
                        continue
                except ReproError:
                    continue  # the scheme refuses this spec (e.g. shape)
                for backend in exec_backends:
                    add(TuneConfig(engine="scheme", scheme=name,
                                   scheme_fusion=depth,
                                   exec_backend=backend))
    return configs


__all__ = [
    "DEFAULT_SCHEMES",
    "ENGINES",
    "FUSION_LADDER",
    "PARTS_LADDER",
    "SCHEME_FUSION_LADDER",
    "TEMPORAL_LADDER",
    "TuneConfig",
    "default_config",
    "enumerate_space",
    "worker_ladder",
]
