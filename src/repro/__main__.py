"""The ``python -m repro`` command-line interface.

Subcommands::

    kernels                      list the kernel library
    machines                     list machine models
    inspect SCHEME KERNEL        print the generated program + mix
    estimate SCHEME KERNEL ...   modelled GStencil/s for a problem
    tune KERNEL --shape ...      model-guided + empirical autotuning
                                 (persistent winner DB; --model-only
                                 prints the model's ranking alone)
    run KERNEL ...               execute a kernel and time it
                                 (--profile prints the span tree +
                                 metrics snapshot of the whole pipeline;
                                 --fault-plan replays a stored fault plan)
    serve [--port N]             async multi-tenant stencil server: a
                                 JSON-lines TCP front end over deadline
                                 micro-batching + admission control
                                 (--selftest N drives a verified load
                                 through it and exits)
    chaos [--seed N]             randomized fault injection over the full
                                 compile-and-sweep workload (and the
                                 serving layer); verifies the faulted run
                                 is bitwise-identical to clean
    stats [--json]               persisted tuning counters + the
                                 current observability snapshot
    experiments [ID ...]         regenerate paper tables/figures
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import obs
from .analysis.report import render_dict, render_table
from .config import PAPER_MACHINES, get_machine
from .errors import ReproError
from .schemes import SCHEMES
from .vectorize.driver import EXEC_BACKENDS


def _add_machine_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machine", default=PAPER_MACHINES[0].name,
                   help="machine model name (default: %(default)s)")


def _size(text: str) -> tuple:
    return tuple(int(t) for t in text.lower().split("x"))


def cmd_kernels(_args) -> int:
    from .stencils import library
    rows = []
    for name in library.names():
        spec = library.get(name)
        rows.append([name, spec.tag, "star" if spec.is_star else "box",
                     spec.order, spec.npoints])
    print(render_table(["kernel", "tag", "shape", "order", "points"], rows))
    return 0


def cmd_machines(_args) -> int:
    from .config import _REGISTRY  # noqa: SLF001 - CLI introspection
    rows = []
    for m in _REGISTRY.values():
        rows.append([m.name, m.isa, m.freq_ghz, m.total_cores,
                     m.vector_elems, m.vector_registers])
    print(render_table(
        ["machine", "isa", "GHz", "cores", "elems/reg", "regs"], rows))
    return 0


def cmd_inspect(args) -> int:
    from .analysis.hotspots import hotspot_breakdown
    from .machine.pipeline import PipelineModel
    from .schemes import model_program
    from .stencils import library
    machine = get_machine(args.machine)
    spec = library.get(args.kernel)
    prog = model_program(args.scheme, spec, machine)
    print(prog.listing())
    print()
    print(render_dict("per-vector mix", prog.per_vector_mix()))
    est = PipelineModel(machine).estimate(prog)
    util = {
        f"port {k}": f"{v / est.cycles_per_iter * 100:.0f}%"
        for k, v in est.port_cycles.items() if v
    }
    print(render_dict("pipeline estimate", {
        "cycles/iter": est.cycles_per_iter,
        "bound": est.bound,
        "stall penalty": est.stall_penalty,
        "spills": est.spills,
        **util,
    }))
    hb = hotspot_breakdown(prog, machine)
    print(render_dict("hotspot events (cycles/vector)",
                      dict(hb.events[:8])))
    print(f"max live registers: {prog.max_live_registers()} "
          f"(budget {machine.vector_registers})")
    return 0


def cmd_estimate(args) -> int:
    from .parallel.simulator import MulticoreModel, ParallelSetup
    from .schemes import model_cost
    from .stencils import library
    machine = get_machine(args.machine)
    spec = library.get(args.kernel)
    cost = model_cost(args.scheme, spec, machine)
    points = 1
    for n in args.size:
        points *= n
    setup = ParallelSetup(
        tile_shape=args.tile, time_depth=args.time_depth,
    ) if args.tile else ParallelSetup(time_depth=args.time_depth)
    res = MulticoreModel(machine).estimate(
        cost, spec, points=points, steps=args.steps,
        cores=args.cores or machine.total_cores, setup=setup,
    )
    print(render_dict(
        f"{args.scheme} / {args.kernel} on {machine.name}",
        {
            "GStencil/s": res.gstencil_s,
            "time (s)": res.time_s,
            "bottleneck": res.bottleneck,
            "fed from": res.level,
        },
    ))
    return 0


def cmd_tune(args) -> int:
    from .stencils import library
    from .tune import TuneBudget, Tuner, TuningDB, default_tuning_dir
    machine = get_machine(args.machine)
    spec = library.get(args.kernel)
    shape = args.shape if args.shape is not None else args.size
    if shape is None:
        raise ReproError(
            "pass the interior extents via --shape (e.g. --shape 128 128) "
            "or --size 128x128")
    exec_backends = ((args.backend,) if args.backend is not None
                     else ("auto",))
    engines = tuple(e.strip() for e in args.engines.split(",") if e.strip())
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    if args.model_only:
        legal, ranked = Tuner(machine).rank(
            spec, shape, steps=args.steps, engines=engines,
            exec_backends=exec_backends, schemes=schemes)
        print(f"{spec.name} @ {'x'.join(map(str, shape))} on "
              f"{machine.name}: {len(ranked)} of {legal} legal "
              f"configuration(s) ranked by the analytic model, 0 trials")
        print(render_table(["configuration", "model"],
                           [[cfg.label(), f"{score:.1f}"]
                            for cfg, score in ranked[:args.top]]))
        return 0

    db_dir = args.db_dir or default_tuning_dir()
    budget = TuneBudget(
        max_trials=args.budget_trials,
        max_seconds=args.budget_seconds,
        warmup=args.warmup,
        repeats=args.repeats,
        trial_timeout_s=args.trial_timeout,
        patience=args.patience,
    )
    tuner = Tuner(machine, db=TuningDB(db_dir), budget=budget)
    report = tuner.tune(spec, shape, steps=args.steps, engines=engines,
                        exec_backends=exec_backends, schemes=schemes,
                        force=args.force)
    print(report.summary())
    if report.trials:
        rows = []
        for t in report.ranking[:args.top]:
            rows.append([t.config.label(), f"{t.model_score:.1f}",
                         f"{t.seconds * 1e3:.2f}", f"{t.mstencil_s:.2f}",
                         t.repeats, "<- winner" if t is report.ranking[0]
                         else ""])
        for t in report.trials:
            if not t.ok:
                rows.append([t.config.label(), f"{t.model_score:.1f}",
                             "-", "-", t.repeats,
                             t.error or "timed out"])
        print(render_table(
            ["configuration", "model", "median ms", "MStencil/s",
             "reps", ""], rows))
    print(f"tuning db: {db_dir} [{report.key[:12]}...]")
    return 0


#: ``repro run --scheme`` values that map onto the jigsaw compile
#: pipeline; the other SCHEMES run their generated baseline program on
#: the SIMD machine.
_JIGSAW_RUN_OPTIONS = {
    "lbv": {"time_fusion": 1, "use_sdf": False},
    "jigsaw": {"time_fusion": 1, "use_sdf": True},
    "t-jigsaw": {"time_fusion": "auto", "use_sdf": True},
    "t4-jigsaw": {"time_fusion": 4, "use_sdf": True},
}


def _report_run(spec, size, steps: int, dt: float, engine: str,
                detail: str) -> None:
    points = 1
    for n in size:
        points *= n
    rate = points * steps / dt / 1e6 if dt > 0 else float("inf")
    print(f"{spec.name}: {steps} steps over {'x'.join(map(str, size))} "
          f"in {dt:.3f}s ({rate:.1f} MStencil/s, {engine}, {detail})")


def _emit_profile(args) -> None:
    """Print the span tree and the metrics snapshot recorded during a
    ``--profile`` run; optionally persist the full snapshot as JSON."""
    snap = obs.snapshot()
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.profile:
        print("\n-- profile: span tree " + "-" * 40)
        print(obs.render())
        print("\n-- profile: metrics " + "-" * 42)
        print(json.dumps(snap["metrics"], indent=2, sort_keys=True))
        if args.metrics_json:
            print(f"\nmetrics written to {args.metrics_json}")


def cmd_run(args) -> int:
    from contextlib import nullcontext
    if args.profile or args.metrics_json:
        obs.enable(reset=True)
    cm = nullcontext(None)
    if args.fault_plan:
        from .faults import FaultPlan, inject
        cm = inject(FaultPlan.load(args.fault_plan))
    inj = None
    try:
        with cm as inj, obs.span("repro.run", kernel=args.kernel,
                                 machine=args.machine):
            code = _cmd_run_inner(args)
    finally:
        if obs.enabled():
            _emit_profile(args)
            obs.disable()
    if inj is not None:
        by_site = inj.injected_by_site()
        detail = ", ".join(f"{site} x{n}"
                           for site, n in sorted(by_site.items()))
        print(f"fault plan {args.fault_plan}: "
              f"{sum(by_site.values())} fault(s) injected"
              + (f" ({detail})" if detail else ""))
    return code


def _cmd_run_inner(args) -> int:
    import numpy as np

    from .core import compile_kernel
    from .stencils import library
    from .stencils.grid import Grid
    machine = get_machine(args.machine)
    spec = library.get(args.kernel)
    if args.tuned and args.scheme:
        raise ReproError("--tuned and --scheme are mutually exclusive")
    if args.temporal_block is not None and args.shards is None:
        raise ReproError("--temporal-block requires --shards N")
    if args.shards is not None and args.tuned:
        raise ReproError("--shards and --tuned are mutually exclusive "
                         "(tune the shard engine via `repro tune` instead)")
    dtype = np.float32 if machine.element_bytes == 4 else np.float64

    if args.scheme is not None and args.scheme not in _JIGSAW_RUN_OPTIONS:
        if args.shards is not None:
            raise ReproError(
                "--shards runs the jigsaw compile pipeline; baseline "
                "schemes cannot be sharded")
        # baseline schemes execute their generated program on the SIMD
        # machine, with no jigsaw plan
        from .schemes import generate, scheme_halo
        from .vectorize.driver import run_program
        grid = Grid.random(args.size,
                           scheme_halo(args.scheme, spec, machine),
                           seed=0, dtype=dtype)
        prog = generate(args.scheme, spec, machine, grid)
        backend = args.backend
        # fused schemes (temporal) advance steps_per_iter steps per sweep;
        # round down the same way the jigsaw pipeline rounds to time_fusion
        steps = args.steps - args.steps % prog.steps_per_iter
        t0 = time.perf_counter()
        run_program(prog, grid, steps, backend=backend)
        dt = time.perf_counter() - t0
        _report_run(spec, args.size, steps, dt,
                    f"machine/{backend}", f"scheme: {args.scheme}")
        return 0

    tuned_cfg = None
    plan_kwargs = {}
    backend_flag = args.backend
    if args.tuned:
        from .tune import Tuner, TuningDB, default_tuning_dir
        db = TuningDB(args.db_dir or default_tuning_dir())
        tuned_cfg = Tuner(machine, db=db).tuned_config(spec, args.size)
        if tuned_cfg is None:
            raise ReproError(
                f"no tuned configuration stored for {spec.name} @ "
                f"{'x'.join(map(str, args.size))} on {machine.name}; run "
                f"`repro tune {args.kernel} --shape ...` first")
        if tuned_cfg.engine == "parallel":
            from .parallel.executor import run_parallel
            grid = Grid.random(args.size, spec.radius, seed=0, dtype=dtype)
            t0 = time.perf_counter()
            run_parallel(spec, grid, args.steps,
                         backend=tuned_cfg.run_backend,
                         **tuned_cfg.run_kwargs())
            dt = time.perf_counter() - t0
            _report_run(spec, args.size, args.steps, dt,
                        "parallel executor",
                        f"tuned: {tuned_cfg.label()}")
            return 0
        if tuned_cfg.engine == "scheme":
            from .schemes import generate, scheme_halo
            from .vectorize.driver import run_program
            tf = (tuned_cfg.scheme_fusion
                  if tuned_cfg.scheme == "temporal" else None)
            grid = Grid.random(args.size,
                               scheme_halo(tuned_cfg.scheme, spec, machine,
                                           time_fusion=tf),
                               seed=0, dtype=dtype)
            prog = generate(tuned_cfg.scheme, spec, machine, grid,
                            time_fusion=tf)
            steps = args.steps - args.steps % prog.steps_per_iter
            t0 = time.perf_counter()
            run_program(prog, grid, steps,
                        backend=tuned_cfg.exec_backend)
            dt = time.perf_counter() - t0
            _report_run(spec, args.size, steps, dt,
                        f"machine/{tuned_cfg.exec_backend}",
                        f"tuned: {tuned_cfg.label()}")
            return 0
        backend_flag = tuned_cfg.exec_backend
        plan_kwargs = {"tuned": tuned_cfg}
    elif args.scheme is not None:
        plan_kwargs = dict(_JIGSAW_RUN_OPTIONS[args.scheme])

    template = compile_kernel(spec, machine, Grid(args.size, 16, dtype=dtype),
                              backend=backend_flag, **plan_kwargs)
    grid = Grid.random(args.size, template.halo(), seed=0, dtype=dtype)
    kernel = compile_kernel(spec, machine, grid, backend=backend_flag,
                            **plan_kwargs)
    steps = args.steps - args.steps % kernel.plan.time_fusion
    if args.shards is not None:
        # sharded execution drives the compiled pipeline in the workers
        s = (args.temporal_block if args.temporal_block is not None
             else kernel.plan.time_fusion)
        t0 = time.perf_counter()
        kernel.run_sharded(grid, steps, shards=args.shards,
                           temporal_block=args.temporal_block,
                           executor=args.shard_executor,
                           backend=backend_flag)
        dt = time.perf_counter() - t0
        _report_run(spec, args.size, steps, dt,
                    f"shard[{args.shards}]/{args.shard_executor}",
                    f"s={s}, plan: {kernel.plan.describe()}")
        return 0
    # the SIMD machine: emitted-source codegen by default, the
    # per-instruction interpreter with --backend interp
    t0 = time.perf_counter()
    kernel.run(grid, steps, backend=backend_flag)
    dt = time.perf_counter() - t0
    detail = (f"tuned: {tuned_cfg.label()}" if tuned_cfg is not None
              else f"plan: {kernel.plan.describe()}")
    _report_run(spec, args.size, steps, dt, f"machine/{backend_flag}",
                detail)
    return 0


def cmd_serve(args) -> int:
    """The async multi-tenant stencil server (see
    :mod:`repro.server`): JSON-lines requests over TCP, deadline
    micro-batching into the kernel service, per-tenant quotas and
    queue-depth admission control.  ``--selftest N`` drives N verified
    requests through the running server (plus one TCP probe) and exits
    with the load report."""
    import asyncio

    from .server import (LoadConfig, StencilServer, reference_results,
                         run_load)
    from .server.net import request_tcp, serve_tcp
    machine = get_machine(args.machine)
    record = bool(args.metrics_json) or args.selftest is not None
    if record:
        obs.enable(reset=True)
    server = StencilServer(
        machine=machine,
        max_queue_depth=args.max_queue_depth,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        batch_window_s=args.batch_window_ms / 1e3,
        max_batch=args.max_batch,
        executor_workers=args.executor_workers,
        run_backend=args.run_backend,
        run_workers=args.run_workers,
        cache_dir=args.cache_dir,
    )

    async def main() -> int:
        code = 0
        async with server:
            tcp = await serve_tcp(server, host=args.host, port=args.port)
            port = tcp.sockets[0].getsockname()[1]
            print(f"serving stencils on {args.host}:{port} "
                  f"(queue depth {args.max_queue_depth}, "
                  f"batch <= {args.max_batch} / "
                  f"{args.batch_window_ms:g} ms window)")
            if args.selftest is not None:
                cfg = LoadConfig(requests=args.selftest,
                                 shape=args.size, steps=args.steps,
                                 deadline_s=args.deadline_ms / 1e3
                                 if args.deadline_ms else None)
                refs = reference_results(cfg, machine)
                probe = (await request_tcp("127.0.0.1", port, [
                    {"kernel": cfg.kernels[0], "shape": list(cfg.shape),
                     "steps": cfg.steps, "seed": 0}]))[0]
                report = await run_load(server, cfg, references=refs)
                print(report.summary())
                print(f"tcp probe       "
                      f"{'ok' if probe.get('ok') else 'FAILED'} "
                      f"(checksum {str(probe.get('checksum'))[:12]}...)")
                code = 0 if report.ok and probe.get("ok") else 1
            else:
                try:
                    await asyncio.Event().wait()
                except asyncio.CancelledError:
                    pass
            tcp.close()
            await tcp.wait_closed()
        return code

    try:
        code = asyncio.run(main())
    except KeyboardInterrupt:
        print("\nshutting down")
        code = 0
    if args.metrics_json:
        # a point-in-time copy: the live registry keeps accumulating
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(obs.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"metrics written to {args.metrics_json}")
    if record:
        obs.disable()
    return code


def cmd_chaos(args) -> int:
    """Randomized fault injection with bitwise-equality verification
    (see :mod:`repro.faults.chaos`).  Exit 0 iff every site class the
    selected stages cover took at least one fault and the faulted run
    matched the clean run."""
    from .faults.chaos import STAGES, run_chaos
    machine = get_machine(args.machine)
    backends = (("thread", "process") if args.backend == "both"
                else (args.backend,))
    stages = (STAGES if args.stages == "all" else
              tuple(s.strip() for s in args.stages.split(",") if s.strip()))
    report = run_chaos(kernel=args.kernel, size=args.size, steps=args.steps,
                       seed=args.seed, backends=backends, machine=machine,
                       stages=stages)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _server_stats(snapshot: dict) -> dict:
    """The serving-layer slice of a saved observability snapshot: every
    ``server.*`` counter/gauge, plus per-tenant latency summaries pulled
    from the histograms."""
    metrics = snapshot.get("metrics", snapshot)
    out: dict = {"counters": {}, "gauges": {}, "latency_ms": {}}
    for name, value in (metrics.get("counters") or {}).items():
        if name.startswith("server."):
            out["counters"][name] = value
    for name, value in (metrics.get("gauges") or {}).items():
        if name.startswith("server."):
            out["gauges"][name] = value
    for name, hist in (metrics.get("histograms") or {}).items():
        if name.startswith("server.latency_ms"):
            out["latency_ms"][name] = {
                "count": hist.get("count"),
                "mean": hist.get("mean"),
                "min": hist.get("min"),
                "max": hist.get("max"),
            }
    return out


def cmd_stats(args) -> int:
    """Persisted tuning counters plus the in-process observability
    snapshot (spans + metrics recorded since the last reset).  With
    ``--metrics-json`` a saved serve-run snapshot's server counters are
    folded into the output."""
    from .tune import TuningDB, default_tuning_dir
    db_dir = args.db_dir or default_tuning_dir()
    tuning_stats = TuningDB(db_dir).stats_dict()
    server_stats = None
    if getattr(args, "metrics_json", None):
        try:
            with open(args.metrics_json, "r", encoding="utf-8") as fh:
                saved = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ReproError(
                f"cannot read metrics snapshot {args.metrics_json!r}: {exc}")
        if not isinstance(saved, dict):
            raise ReproError(
                f"{args.metrics_json!r} is not an observability snapshot")
        server_stats = _server_stats(saved)
    if args.json:
        payload = {
            "tuning_dir": db_dir,
            "tuning": tuning_stats,
            "obs": obs.snapshot(),
        }
        if server_stats is not None:
            payload["server"] = server_stats
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(render_dict(f"tuning db @ {db_dir}", tuning_stats))
    if server_stats is not None:
        flat = dict(server_stats["counters"])
        flat.update(server_stats["gauges"])
        for name, summary in server_stats["latency_ms"].items():
            count_ = summary.get("count") or 0
            mean = summary.get("mean")
            flat[name] = (f"n={count_} mean={mean:.3f}"
                          if isinstance(mean, (int, float))
                          else f"n={count_}")
        print(render_dict(f"server @ {args.metrics_json}", flat or
                          {"(no server metrics in snapshot)": ""}))
    snap = obs.snapshot()
    if snap["spans"] or any(snap["metrics"].values()):
        print("\nobservability snapshot:")
        print(json.dumps(snap["metrics"], indent=2, sort_keys=True))
    return 0


def cmd_validate(args) -> int:
    from .config import get_machine as _gm
    from .validate import DEFAULT_MACHINES, validate
    machines = ([_gm(args.machine)] if args.machine else DEFAULT_MACHINES)
    report = validate(machines=machines)
    print(report.summary())
    return 0 if report.all_ok else 1


def cmd_experiments(args) -> int:
    from .experiments.__main__ import main as exp_main
    return exp_main(args.ids)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels").set_defaults(fn=cmd_kernels)
    sub.add_parser("machines").set_defaults(fn=cmd_machines)

    p = sub.add_parser("inspect")
    p.add_argument("scheme", choices=SCHEMES)
    p.add_argument("kernel")
    _add_machine_arg(p)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("estimate")
    p.add_argument("scheme", choices=SCHEMES)
    p.add_argument("kernel")
    p.add_argument("--size", type=_size, required=True,
                   help="interior extents, e.g. 10000x10000")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--cores", type=int, default=None)
    p.add_argument("--tile", type=_size, default=None)
    p.add_argument("--time-depth", type=int, default=1)
    _add_machine_arg(p)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser(
        "tune",
        description="Model-guided + empirical autotuning: rank the legal "
                    "configurations with the analytic models, time the "
                    "most promising ones under a budget, and store the "
                    "winner in a persistent tuning database.")
    p.add_argument("kernel")
    p.add_argument("--shape", type=int, nargs="+", default=None,
                   metavar="N", help="interior extents, e.g. --shape 128 128")
    p.add_argument("--size", type=_size, default=None,
                   help="interior extents as NxM (alias for --shape)")
    p.add_argument("--steps", type=int, default=4,
                   help="sweeps per empirical trial (default: %(default)s)")
    p.add_argument("--budget-trials", type=int, default=8,
                   help="max empirical trials (default: %(default)s)")
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="wall-clock search budget in seconds")
    p.add_argument("--repeats", type=int, default=3,
                   help="timed repetitions per trial; the median is kept "
                        "(default: %(default)s)")
    p.add_argument("--warmup", type=int, default=1,
                   help="untimed warmup runs per trial (default: %(default)s)")
    p.add_argument("--trial-timeout", type=float, default=60.0,
                   help="per-trial timeout in seconds (default: %(default)s)")
    p.add_argument("--patience", type=int, default=4,
                   help="stop after this many trials without a new best "
                        "(default: %(default)s)")
    p.add_argument("--backend", default=None, choices=EXEC_BACKENDS,
                   help="pin the SIMD-machine and scheme engines to one "
                        "execution backend (default: auto; interp times "
                        "the interpreter)")
    p.add_argument("--engines", default="machine,parallel,scheme",
                   help="comma-separated engine families to search "
                        "(default: %(default)s)")
    p.add_argument("--schemes", default="temporal,redundancy",
                   help="comma-separated registry schemes the scheme "
                        "engine searches (default: %(default)s)")
    p.add_argument("--db-dir", default=None,
                   help="tuning database directory (default: "
                        "$REPRO_TUNING_DIR or $REPRO_CACHE_DIR/tuning)")
    p.add_argument("--force", action="store_true",
                   help="re-tune even if the database has a winner")
    p.add_argument("--top", type=int, default=8,
                   help="ranked rows to print (default: %(default)s)")
    p.add_argument("--model-only", action="store_true",
                   help="print the analytic ranking alone: no trial, no "
                        "database.  The model does not tell temporal "
                        "blocks apart (parallel rows tie across s); "
                        "trials decide s")
    _add_machine_arg(p)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("run")
    p.add_argument("kernel")
    p.add_argument("--size", type=_size, required=True)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--backend", default="auto", choices=EXEC_BACKENDS,
                   help="SIMD-machine execution backend: emitted-source "
                        "codegen with interpreter fallback (auto, the "
                        "default; codegen) or the per-instruction "
                        "interpreter (interp)")
    p.add_argument("--scheme", default=None, choices=SCHEMES,
                   help="run a specific vectorization scheme (jigsaw "
                        "variants use the compile pipeline; baselines run "
                        "their generated program on the SIMD machine)")
    p.add_argument("--tuned", action="store_true",
                   help="apply the stored tuning-database winner for this "
                        "workload (see `repro tune`)")
    p.add_argument("--db-dir", default=None,
                   help="tuning database directory for --tuned (default: "
                        "$REPRO_TUNING_DIR or $REPRO_CACHE_DIR/tuning)")
    p.add_argument("--profile", action="store_true",
                   help="record spans + metrics across the whole "
                        "plan/SDF/codegen/execute pipeline and print the "
                        "span tree and metrics snapshot")
    p.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="write the observability snapshot (spans + "
                        "metrics) to PATH as JSON (implies recording)")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="shard the outer axis into N slabs and run them "
                        "on a worker pool with halo exchange at each "
                        "synchronization point (bitwise identical to the "
                        "unsharded engines)")
    p.add_argument("--temporal-block", type=int, default=None, metavar="S",
                   help="sub-steps per halo exchange under --shards "
                        "(deeper halos, fewer barriers; default: the "
                        "plan's fused depth)")
    p.add_argument("--shard-executor", default="process",
                   choices=("thread", "process"),
                   help="worker pool backend for --shards "
                        "(default: %(default)s)")
    p.add_argument("--fault-plan", default=None, metavar="PATH",
                   help="inject the faults described by this JSON plan "
                        "during the run (see docs/architecture.md, "
                        "Failure model)")
    _add_machine_arg(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "chaos",
        description="Randomized fault injection: run the full "
                    "compile-and-sweep workload clean and again under a "
                    "seeded random fault plan covering every injection "
                    "site, then verify the faulted run produced "
                    "bitwise-identical results.")
    p.add_argument("--kernel", default="heat-2d",
                   help="library kernel to exercise (default: %(default)s)")
    p.add_argument("--size", type=_size, default=(48, 48),
                   help="interior extents (default: 48x48)")
    p.add_argument("--steps", type=int, default=4,
                   help="sweeps per workload stage (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan seed (default: %(default)s)")
    p.add_argument("--backend", default="both",
                   choices=("thread", "process", "both"),
                   help="parallel executor backend(s) to sweep on "
                        "(default: %(default)s)")
    p.add_argument("--stages", default="all",
                   help="comma-separated workload stages to exercise "
                        "(pipeline,server; default: all)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    _add_machine_arg(p)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "serve",
        description="Async multi-tenant stencil server: JSON-lines "
                    "requests over TCP are admission-controlled "
                    "(per-tenant token buckets + a global queue-depth "
                    "ceiling), coalesced by deadline-aware "
                    "micro-batching, and executed through the kernel "
                    "service. Under load the server degrades "
                    "gracefully: batch shedding, then fast rejection.")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default: an ephemeral port, printed "
                        "at startup)")
    p.add_argument("--max-queue-depth", type=int, default=256,
                   help="global in-flight admission ceiling "
                        "(default: %(default)s)")
    p.add_argument("--quota-rate", type=float, default=float("inf"),
                   help="per-tenant sustained requests/second "
                        "(default: unlimited)")
    p.add_argument("--quota-burst", type=float, default=None,
                   help="per-tenant burst size (default: 2x rate)")
    p.add_argument("--batch-window-ms", type=float, default=5.0,
                   help="micro-batch coalescing window in milliseconds "
                        "(default: %(default)s)")
    p.add_argument("--max-batch", type=int, default=16,
                   help="requests per micro-batch (default: %(default)s)")
    p.add_argument("--executor-workers", type=int, default=4,
                   help="batch-execution threads (default: %(default)s)")
    p.add_argument("--run-backend", default="thread",
                   choices=("thread", "process"),
                   help="kernel-service sweep backend "
                        "(default: %(default)s)")
    p.add_argument("--run-workers", type=int, default=4,
                   help="kernel-service sweep workers "
                        "(default: %(default)s)")
    p.add_argument("--cache-dir", default=None,
                   help="keep the server's tuning database in "
                        "<dir>/tuning (default: in memory)")
    p.add_argument("--selftest", type=int, default=None, metavar="N",
                   help="drive N verified requests through the running "
                        "server (plus one TCP probe), print the load "
                        "report, and exit")
    p.add_argument("--size", type=_size, default=(32, 32),
                   help="selftest interior extents (default: 32x32)")
    p.add_argument("--steps", type=int, default=2,
                   help="selftest sweeps per request "
                        "(default: %(default)s)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="selftest per-request deadline in milliseconds")
    p.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="on exit, write the observability snapshot "
                        "(server.* counters, per-tenant latency "
                        "histograms) to PATH as JSON")
    _add_machine_arg(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "stats",
        description="Persisted tuning counters and the current "
                    "observability snapshot.")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--db-dir", default=None,
                   help="tuning database directory (default: "
                        "$REPRO_TUNING_DIR or $REPRO_CACHE_DIR/tuning)")
    p.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="fold the server counters from a saved "
                        "observability snapshot (a `repro serve "
                        "--metrics-json` file) into the output")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("validate")
    p.add_argument("--machine", default=None,
                   help="restrict to one machine model (default: all widths)")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("experiments")
    p.add_argument("ids", nargs="*", default=None)
    p.set_defaults(fn=cmd_experiments)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
