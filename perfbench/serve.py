"""The two wire-serving workloads: ``serve-small`` and ``serve-churn``.

Both drive an in-process :class:`~repro.server.StencilServer` (the
``repro serve`` defaults) over JSON-lines TCP from an open-loop client
in the same process, and check every response's checksum against the
reference oracle.

* ``serve-small``: 32x32 grids, 2 steps, heat-2d / box-2d9p /
  varcoef-2d5p, input seeds 0-3, 4 tenants, at a fixed offered rate; a
  traced run adds a capacity ladder.  The kernel cache always hits.
* ``serve-churn``: the same wire path at a low fixed rate, each request
  drawn from a seeded pool of (kernel, shape) pairs larger than the
  kernel cache's 512-program bound, 64 tenants.  Almost every request
  compiles.

The bounded end-to-end numbers are CPU costs (per request, per set-up)
and memory; wall-clock latency and capacity swing too far with host
load on a small shared machine, so the traced run reports them
unbounded, with goodput (see ``README.md``).
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, List, Sequence, Tuple

from repro import obs

from .common import Result, log, median, nproc, peak_rss_mb, percentile
from .oracle import ChecksumOracle
from .tracing import Span, Tracer, cache_metrics, fallback_metrics, \
    metric_names, parallel_metrics, self_time_metrics, union_length
from .wire import Connections, Phase, Sent, ServerThread, open_loop, \
    request_once

STEPS = 2
LATENCY_LIMIT_MS = 100.0

SMALL_KERNELS = ("heat-2d", "box-2d9p", "varcoef-2d5p")
SMALL_SHAPE = (32, 32)
SMALL_SEEDS = 4
SMALL_TENANTS = 4
#: offered rate of the fixed-rate phase (req/s), about half the knee
SMALL_RATE = 50.0
#: the capacity ladder (traced runs): geometric rates above the fixed
#: rate, each held for ``RUNG_S``
LADDER = tuple(round(SMALL_RATE * 1.4 ** k, 1) for k in range(1, 7))
RUNG_S = 2.0

CHURN_KERNELS_2D = ("heat-2d", "box-2d9p", "varcoef-2d5p")
CHURN_EXTENT_2D = (32, 96)
CHURN_EXTENT_3D = (16, 32)
CHURN_SHARE_3D = 0.2
CHURN_POOL = 4096
CHURN_TENANTS = 64
CHURN_RATE = 20.0

#: an untraced run measures the fixed rate in this many windows with
#: ``SETUPS_PER_WINDOW`` set-ups before each, and reports medians, so a
#: burst of contention on a shared host moves one window's figure or a
#: few set-ups, not the result
WINDOWS = 10
SETUPS_PER_WINDOW = 2


def small_payloads(rng: random.Random, n: int) -> List[Dict]:
    return [{"kernel": rng.choice(SMALL_KERNELS),
             "shape": list(SMALL_SHAPE), "steps": STEPS,
             "seed": rng.randrange(SMALL_SEEDS),
             "tenant": f"t{rng.randrange(SMALL_TENANTS)}"}
            for _ in range(n)]


def churn_pool(rng: random.Random) -> List[Tuple[str, Tuple[int, ...]]]:
    """``CHURN_POOL`` distinct (kernel, shape) pairs: 2-D kernels at
    32-96 per axis, about a fifth heat-3d at 16-32 per axis."""
    pool = set()
    while len(pool) < CHURN_POOL:
        if rng.random() < CHURN_SHARE_3D:
            shape = tuple(rng.randint(*CHURN_EXTENT_3D) for _ in range(3))
            pool.add(("heat-3d", shape))
        else:
            shape = tuple(rng.randint(*CHURN_EXTENT_2D) for _ in range(2))
            pool.add((rng.choice(CHURN_KERNELS_2D), shape))
    return sorted(pool)


def churn_payloads(rng: random.Random, pool, n: int) -> List[Dict]:
    out = []
    for _ in range(n):
        kernel, shape = pool[rng.randrange(len(pool))]
        out.append({"kernel": kernel, "shape": list(shape), "steps": STEPS,
                    "seed": rng.randrange(SMALL_SEEDS),
                    "tenant": f"t{rng.randrange(CHURN_TENANTS)}"})
    return out


def first_requests(kernels: Sequence[str], shapes: Dict[str, Tuple]
                   ) -> List[Dict]:
    return [{"kernel": k, "shape": list(shapes[k]), "steps": STEPS,
             "seed": 0, "tenant": "setup"} for k in kernels]


class Checker:
    """Counts attempted and failed wire operations against the oracle."""

    def __init__(self, res: Result) -> None:
        self.res = res
        self.oracle = ChecksumOracle()

    def check(self, reqs: Sequence[Sent]) -> None:
        for r in reqs:
            self.res.attempted += 1
            resp = r.response
            if resp is None:
                self.res.fail(f"request {r.rid}: no response")
                continue
            if not resp.get("ok"):
                self.res.fail(f"request {r.rid}: {resp.get('reason')}: "
                              f"{resp.get('error')}")
                continue
            p = r.payload
            want = self.oracle.expected(p["kernel"], p["shape"], p["steps"],
                                        p["seed"])
            if resp.get("checksum") != want:
                self.res.fail(f"request {r.rid}: checksum mismatch "
                              f"({p['kernel']} {p['shape']} seed "
                              f"{p['seed']})")


def p99(phase: Phase) -> float:
    return percentile([r.latency_ms for r in phase.requests
                       if r.recv is not None], 99)


def breaches(phase: Phase) -> set:
    """How a window broke the limit: ``failed`` (a lost, rejected or
    failed request), ``latency`` (p99 above the limit) or ``backlog``
    (unanswered requests grew across the window by more than the limit
    allows at that rate)."""
    out = set()
    if phase.timed_out or any(r.response is None or not r.response.get("ok")
                              for r in phase.requests):
        out.add("failed")
    if p99(phase) > LATENCY_LIMIT_MS:
        out.add("latency")
    if phase.backlog_end - phase.backlog_mid > \
            phase.rate * LATENCY_LIMIT_MS / 1e3:
        out.add("backlog")
    return out


def goodput(phase: Phase) -> float:
    """Correct responses per second, from the first due time to the last
    answer."""
    done = [r for r in phase.requests
            if r.response is not None and r.response.get("ok")]
    if not done:
        return 0.0
    span = max(r.recv for r in done) - min(r.due for r in phase.requests)
    return len(done) / span


class ServeRun:
    """One run of a serving workload (see :func:`run`)."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, res: Result, out_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.res = res
        self.out_dir = out_dir
        self.rng = random.Random(seed)
        self.checker = Checker(res)
        self.next_rid = 1
        self.conns_n = max(1, nproc())
        if workload == "serve-small":
            self.rate = SMALL_RATE
            self.setup_kernels = SMALL_KERNELS
            self.setup_shapes = {k: SMALL_SHAPE for k in SMALL_KERNELS}
        else:
            self.rate = CHURN_RATE
            self.pool = churn_pool(self.rng)
            self.setup_kernels = CHURN_KERNELS_2D + ("heat-3d",)
            # shapes just below the pool's extents: set-up compiles each
            # kernel cold without pre-warming any pool entry
            self.setup_shapes = {
                k: ((CHURN_EXTENT_3D[0] - 1,) * 3 if k == "heat-3d"
                    else (CHURN_EXTENT_2D[0] - 1,) * 2)
                for k in self.setup_kernels}

    def payloads(self, n: int) -> List[Dict]:
        if self.workload == "serve-small":
            return small_payloads(self.rng, n)
        return churn_payloads(self.rng, self.pool, n)

    def rids(self, n: int) -> int:
        first = self.next_rid
        self.next_rid += n
        return first

    # -- phases --------------------------------------------------------------
    async def setup_once(self) -> Tuple[float, float, ServerThread]:
        """Server start, TCP bind and the first request of each kernel;
        returns the process CPU seconds and wall seconds it took."""
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        st = ServerThread().start()
        try:
            conns = await Connections(st.port, 1).open()
            try:
                payloads = first_requests(self.setup_kernels,
                                          self.setup_shapes)
                reqs = await request_once(conns, payloads,
                                          first_rid=self.rids(len(payloads)))
            finally:
                await conns.close()
        except BaseException:
            st.stop()
            raise
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        self.checker.check(reqs)
        return cpu, wall, st

    async def fixed(self, conns: Connections, seconds: float) -> Phase:
        n = max(1, int(round(self.rate * seconds)))
        phase = await open_loop(conns, self.payloads(n), self.rate,
                                first_rid=self.rids(n))
        self.checker.check(phase.requests)
        return phase

    async def ladder(self, conns: Connections, base: Phase) -> float:
        """One pass up the ladder, stopping at the first rung that breaks
        the limit; the capacity is the last passing rung's rate."""
        last = base.rate
        for rate in LADDER:
            n = int(round(rate * RUNG_S))
            phase = await open_loop(conns, self.payloads(n), rate,
                                    first_rid=self.rids(n))
            self.checker.check(phase.requests)
            broke = breaches(phase)
            log(f"{self.workload}: rung {rate:g}/s p99 "
                f"{p99(phase):.1f} ms, backlog {phase.backlog_mid}->"
                f"{phase.backlog_end}, breaches {sorted(broke)}")
            if broke:
                break
            last = rate
        return last

    # -- the run ---------------------------------------------------------------
    async def setups(self, n: int) -> List[Tuple[float, float]]:
        """``n`` set-ups, each on a server of its own that is stopped
        right after; the process CPU and wall seconds of each."""
        out = []
        for _ in range(n):
            cpu, wall, st = await self.setup_once()
            st.stop()
            out.append((cpu, wall))
        log(f"{self.workload}: set-up cpu/wall s "
            + ", ".join(f"{c:.4f}/{w:.4f}" for c, w in out))
        return out

    async def main(self) -> None:
        """The measured server takes the first request of each kernel
        before any timing starts."""
        st = ServerThread().start()
        try:
            conns = await Connections(st.port, self.conns_n).open()
            try:
                payloads = first_requests(self.setup_kernels,
                                          self.setup_shapes)
                self.checker.check(await request_once(
                    conns, payloads, first_rid=self.rids(len(payloads))))
                if self.trace:
                    await self.traced(st, conns)
                else:
                    await self.untraced(conns)
            finally:
                await conns.close()
        finally:
            st.stop()

    async def untraced(self, conns: Connections) -> None:
        cpus: List[float] = []
        costs: List[float] = []
        for _ in range(WINDOWS):
            cpus += [cpu for cpu, _ in await self.setups(SETUPS_PER_WINDOW)]
            phase = await self.fixed(conns, self.seconds / WINDOWS)
            costs.append(phase.cpu_s * 1e3 / len(phase.requests))
        log(f"{self.workload}: cpu ms per request by window "
            + ", ".join(f"{c:.2f}" for c in costs))
        self.res.put("setup_s", median(cpus), "s")
        self.res.put("cpu_ms_per_op", median(costs), "ms")
        self.res.put("peak_rss_mb", peak_rss_mb(), "MB")

    def latency(self, phase: Phase) -> None:
        """Wall-clock latency and goodput at the fixed rate (reported by
        the traced run, unbounded)."""
        lat = [r.latency_ms for r in phase.requests if r.recv is not None]
        log(f"{self.workload}: {len(phase.requests)} requests at "
            f"{phase.rate:g}/s, p50 {percentile(lat, 50):.2f} ms, "
            f"p99 {percentile(lat, 99):.2f} ms, late max "
            f"{max(r.late_ms for r in phase.requests):.1f} ms")
        self.res.put("p50_ms", percentile(lat, 50), "ms")
        self.res.put("p99_ms", percentile(lat, 99), "ms")
        self.res.put("goodput_rps", goodput(phase), "1/s")

    # -- traced mode -----------------------------------------------------------
    async def traced(self, st: ServerThread, conns: Connections) -> None:
        """An untraced fixed-rate window, then one as long traced, half
        of ``--seconds`` each; per-layer numbers come from the traced
        one, wall-clock latency and capacity from the untraced part."""
        walls = [wall for _, wall in
                 await self.setups(WINDOWS * SETUPS_PER_WINDOW)]
        self.res.put("setup_wall_s", median(walls), "s")
        plain = await self.fixed(conns, self.seconds / 2)
        self.latency(plain)
        tracer = Tracer()
        cache = st.server.service.cache
        before = cache.stats_dict()
        obs.enable(reset=True)
        tracer.install()
        try:
            since = time.perf_counter()
            phase = await self.fixed(conns, self.seconds / 2)
        finally:
            tracer.restore()
            snapshot = obs.snapshot()["metrics"]
            obs.disable()
        after = cache.stats_dict()
        self.layer_metrics(tracer, since, plain, phase, snapshot, before,
                           after)
        tracer.dump(f"{self.out_dir}/trace-{self.workload}-{self.seed}.json",
                    {"obs": snapshot})
        if self.workload == "serve-small":
            if breaches(plain):
                log(f"{self.workload}: WARNING: the fixed rate broke the "
                    f"limit; capacity reported as its goodput")
                cap = goodput(plain)
            else:
                cap = await self.ladder(conns, plain)
            log(f"{self.workload}: capacity {cap:.1f}/s")
            self.res.put("capacity_rps", cap, "1/s")

    def layer_metrics(self, tracer: Tracer, since: float, plain: Phase,
                      phase: Phase, snap: Dict, before: Dict,
                      after: Dict) -> None:
        put = self.res.put
        counters = snap.get("counters", {})
        hists = snap.get("histograms", {})

        def count(name: str) -> float:
            return float(counters.get(name, 0))

        submits = tracer.named("server.submit", since)
        sub_ms = [s.ms for s in submits]
        service = batch_service(tracer, since, submits)
        put("server.submit_ms.p50", percentile(sub_ms, 50), "ms")
        put("server.submit_ms.p99", percentile(sub_ms, 99), "ms")
        put("server.wait_ms.p50",
            percentile([s.ms - union_length((b.start, b.end)
                                            for b in service[s.sid]) * 1e3
                        for s in submits if s.sid in service], 50), "ms")
        put("server.batch_size.mean",
            hists.get("server.batch.size", {}).get("mean"), "count")
        put("server.rejected", count("server.admission.rejected"), "count")
        for reason in ("queue", "quota", "deadline", "closed"):
            put(f"server.rejected.{reason}",
                count(f"server.admission.rejected.reason.{reason}"), "count")

        by_rid = {s.rid: s for s in submits if s.rid is not None}
        overhead = [r.wire_ms - by_rid[r.rid].ms for r in phase.requests
                    if r.recv is not None and r.rid in by_rid]
        if not overhead:  # no request ids: compare the two medians
            overhead = [percentile([r.wire_ms for r in phase.requests
                                    if r.recv is not None], 50)
                        - percentile(sub_ms, 50)]
        put("net.overhead_ms.p50", percentile(overhead, 50), "ms")
        late = [r.late_ms for r in phase.requests]
        put("loadgen.late_ms.p99", percentile(late, 99), "ms")
        put("loadgen.late_ms.max", max(late), "ms")
        keys = {(r.payload["kernel"], tuple(r.payload["shape"]))
                for r in phase.requests}
        put("loadgen.distinct_key_share", len(keys) / len(phase.requests),
            "ratio")

        put("service.compile_many_ms.sum",
            sum(s.ms for s in tracer.named("service.compile_many", since)),
            "ms")
        put("service.compile_ms.p50",
            percentile([s.ms for s in tracer.named("service.compile", since)],
                       50), "ms")
        put("service.run_ms.per_job.p50",
            percentile([s.ms for s in tracer.named("service.run", since)],
                       50), "ms")
        put("service.failures", count("service.failures"), "count")
        put("service.fallback", count("service.fallback"), "count")
        fallback_metrics(self.res, counters)

        cache_metrics(self.res, before, after)
        put("cache.plan_ms.sum",
            sum(s.ms for s in tracer.named("cache.plan", since)), "ms")
        put("cache.program_ms.sum",
            sum(s.ms for s in tracer.named("cache.program", since)), "ms")

        parallel_metrics(self.res, tracer, since)
        self_time_metrics(self.res, tracer, since, service)
        put("obs.metric_names", metric_names(snap), "count")
        plain_p50 = percentile([r.latency_ms for r in plain.requests
                                if r.recv is not None], 50)
        traced_p50 = percentile([r.latency_ms for r in phase.requests
                                 if r.recv is not None], 50)
        put("obs.trace_overhead", traced_p50 / plain_p50, "ratio")


def batch_service(tracer: Tracer, since: float, submits: List[Span]
                  ) -> Dict[int, List[Span]]:
    """Per ``server.submit`` span id, the service calls of the batch that
    answered it; ``server.wait_ms`` is the submit time they leave.  The
    batch runs from the flusher's context, so these spans are roots.
    Without program-side request ids the batch is matched by its key
    (kernel and shape) as the latest ``run_many`` of that key to finish
    inside the submit window; its ``compile_many`` is the one just
    before it on the same thread."""
    run_manys = tracer.named("service.run_many", since)
    compiles: Dict[str, List[Span]] = {}
    for c in tracer.named("service.compile_many", since):
        compiles.setdefault(c.thread, []).append(c)
    out: Dict[int, List[Span]] = {}
    for s in submits:
        batch = [r for r in run_manys if r.tag == s.tag
                 and r.start >= s.start and r.end <= s.end]
        if not batch:
            continue
        rm = max(batch, key=lambda r: r.end)
        cm = [c for c in compiles.get(rm.thread, ()) if c.end <= rm.start
              and c.start >= s.start]
        out[s.sid] = [rm] + ([max(cm, key=lambda c: c.end)] if cm else [])
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        res: Result, out_dir: str) -> None:
    asyncio.run(ServeRun(workload, seed, seconds, trace, res,
                         out_dir).main())
