"""The Jigsaw planner: chooses ITM depth and the SDF decomposition.

Encodes the paper's deployment decisions (§4.3-§4.4):

* 1-D kernels take the deepest feasible fusion (the paper ships a 4-step
  ITM for Heat-1D, Figure 6 / "T-4 Jigsaw");
* 2-D kernels and 3-D stars take 2-step fusion when the fused x-radius
  still fits the butterfly window;
* 3-D boxes stay unfused — ITM's dependency growth exceeds the register
  file ("ITM introduces too many data dependencies in 3D", §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from .. import obs
from ..config import MachineConfig
from ..errors import PlanError
from ..stencils.spec import StencilSpec
from ..vectorize.driver import EXEC_BACKENDS
from .itm import fusable, merged_spec
from .jigsaw import JigsawTemplate, fused_halo, lower_jigsaw
from .sdf import Rank1Term, rows_as_terms, structured_terms


@dataclass(frozen=True)
class JigsawPlan:
    """Everything the generator needs for one kernel on one machine."""

    spec: StencilSpec
    machine: MachineConfig
    time_fusion: int
    use_sdf: bool = True
    #: preferred SIMD-machine execution backend ("auto" | "codegen" |
    #: "interp"; "batch" is a retired alias of "codegen").  An
    #: execution-time preference only: it does not change
    #: the generated program, so it participates in plan lookup keys but
    #: never in :meth:`cache_token` (program cache entries are shared
    #: across backends).
    backend: str = field(default="auto", compare=False)
    notes: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.time_fusion < 1:
            raise PlanError("time_fusion must be >= 1")

    @property
    def fused_spec(self) -> StencilSpec:
        # the ITM merge is a convolution power; like ``terms`` it is
        # computed once per plan object
        cached = getattr(self, "_fused_memo", None)
        if cached is None:
            cached = merged_spec(self.spec, self.time_fusion)
            object.__setattr__(self, "_fused_memo", cached)
        return cached

    @property
    def halo(self) -> Tuple[int, ...]:
        """The least halo a grid needs to run this plan's sweep."""
        return fused_halo(self.fused_spec, self.machine.vector_elems)

    def lower(self) -> JigsawTemplate:
        """This plan's shape-free Jigsaw program (bind it to a grid with
        :meth:`~repro.core.jigsaw.JigsawTemplate.bind`)."""
        return lower_jigsaw(self.spec, self.machine,
                            time_fusion=self.time_fusion, terms=self.terms,
                            scheme=self.scheme)

    @property
    def terms(self) -> List[Rank1Term]:
        # The decomposition (an SVD for SDF plans) is deterministic in the
        # plan, so compute it once per plan object; the kernel cache shares
        # plan objects across compiles, making this a process-wide memo.
        cached = getattr(self, "_terms_memo", None)
        if cached is None:
            with obs.span("sdf", kernel=self.spec.name,
                          use_sdf=self.use_sdf) as s:
                fused = self.fused_spec
                cached = (structured_terms(fused) if self.use_sdf
                          else rows_as_terms(fused))
                s.set(terms=len(cached))
            object.__setattr__(self, "_terms_memo", cached)
        return cached

    def cache_token(self) -> dict:
        """The plan options that participate in kernel-cache keys (the
        spec and machine are fingerprinted separately)."""
        return {"time_fusion": self.time_fusion, "use_sdf": self.use_sdf}

    @property
    def scheme(self) -> str:
        name = "jigsaw" if self.use_sdf else "jigsaw-lbv-only"
        return f"t-{name}" if self.time_fusion > 1 else name

    def describe(self) -> str:
        fused = self.fused_spec
        return (
            f"{self.spec.name}: fuse {self.time_fusion} step(s) -> "
            f"{fused.tag}, {'SDF' if self.use_sdf else 'per-row'} terms="
            f"{len(self.terms)}"
        )


def auto_fusion(spec: StencilSpec, machine: MachineConfig) -> int:
    """The paper's fusion-depth policy (see module docstring)."""
    width = machine.vector_elems
    if spec.ndim == 1:
        # standard T-Jigsaw uses 2-step fusion; the 4-step variant is the
        # separately-reported "T-4 Jigsaw" (§4.4, Figure 6)
        return 2 if fusable(spec, 2, width=width) else 1
    if spec.ndim == 3 and spec.is_box:
        return 1
    return 2 if fusable(spec, 2, width=width) else 1


def plan(
    spec: StencilSpec,
    machine: MachineConfig,
    *,
    time_fusion: Union[int, str] = "auto",
    use_sdf: bool = True,
    backend: str = "auto",
    tuned=None,
) -> JigsawPlan:
    """Build a :class:`JigsawPlan`, validating feasibility.

    ``tuned`` overrides the static policy with an autotuned
    configuration — any object carrying ``time_fusion``/``use_sdf`` (a
    :class:`repro.tune.TuneConfig`, a :class:`repro.tune.TuningRecord`'s
    ``config``) takes precedence over the corresponding keyword, so a
    stored tuning-database winner is applied transparently.
    """
    if tuned is not None:
        time_fusion = getattr(tuned, "time_fusion", time_fusion)
        use_sdf = getattr(tuned, "use_sdf", use_sdf)
        backend = getattr(tuned, "plan_backend", None) or backend
    with obs.span("plan", kernel=spec.name, time_fusion=time_fusion,
                  use_sdf=use_sdf):
        return _plan_checked(spec, machine, time_fusion=time_fusion,
                             use_sdf=use_sdf, backend=backend)


def _plan_checked(
    spec: StencilSpec,
    machine: MachineConfig,
    *,
    time_fusion: Union[int, str],
    use_sdf: bool,
    backend: str,
) -> JigsawPlan:
    if backend not in EXEC_BACKENDS:
        raise PlanError(
            f"unknown execution backend {backend!r}; "
            f"known: {EXEC_BACKENDS}"
        )
    if time_fusion == "auto":
        depth = auto_fusion(spec, machine)
    else:
        depth = int(time_fusion)
        if depth < 1:
            raise PlanError(f"time_fusion must be >= 1, got {depth}")
        if not fusable(spec, depth, width=machine.vector_elems):
            raise PlanError(
                f"{spec.name}: {depth}-step fusion gives x-radius "
                f"{spec.radius[-1] * depth} > W={machine.vector_elems}; "
                f"the butterfly window cannot cover it"
            )
    return JigsawPlan(
        spec=spec,
        machine=machine,
        time_fusion=depth,
        use_sdf=use_sdf,
        backend=backend,
        notes=f"auto={time_fusion == 'auto'}",
    )


def ablation_ladder(
    spec: StencilSpec,
    machine: MachineConfig,
) -> Sequence[Tuple[str, Optional[JigsawPlan]]]:
    """The Figure-7 optimization ladder: Tessellating-Tiling base (no plan
    — the Reorg in-core scheme), +LBV, +SDF, +ITM."""
    steps: List[Tuple[str, Optional[JigsawPlan]]] = [("base", None)]
    steps.append(("+LBV", plan(spec, machine, time_fusion=1, use_sdf=False)))
    steps.append(("+SDF", plan(spec, machine, time_fusion=1, use_sdf=True)))
    depth = auto_fusion(spec, machine)
    if depth > 1:
        steps.append(("+ITM", plan(spec, machine, time_fusion=depth,
                                   use_sdf=True)))
    else:
        steps.append(("+ITM", plan(spec, machine, time_fusion=1,
                                   use_sdf=True)))
    return steps
