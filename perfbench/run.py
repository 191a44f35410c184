"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-small --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``perfbench/README.md``).
Progress goes to stderr; the last line of stdout is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Exit codes: 0 all outputs correct; 1 some output wrong (the result is
still printed); 2 the program sources are missing; 3 the run left a
thread, child process or listening socket behind; 4 the run failed or
timed out.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import signal
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RECORD = os.path.join(HERE, "workloads.json")

WORKLOADS = ("serve-small", "serve-churn", "sweep-large")
#: hard ceiling for one run, whatever ``--seconds`` says
MAX_RUN_S = 170


class RunTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise RunTimeout("workload exceeded its time limit")


def parse():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def complete(res, workload: str, trace: bool) -> None:
    """Hold the run's metrics to the manifest: every end-to-end metric
    (``--trace 0``) or every per-layer metric (``--trace 1``), in its
    unit.  A per-layer metric of a layer the workload never calls (its
    ``zero_per_layer`` prefixes in ``workloads.json``) reads 0."""
    with open(MANIFEST) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    with open(RECORD) as fh:
        zero = tuple(json.load(fh)["workloads"][workload]["zero_per_layer"])
    names = {m["name"] for m in declared}
    extra = sorted(set(res.metrics) - names)
    if extra:
        raise RuntimeError(f"metrics not in the manifest: {extra}")
    for m in declared:
        got = res.metrics.get(m["name"])
        if got is None and trace and m["name"].startswith(zero):
            res.put(m["name"], 0.0, m["unit"])
        elif got is None:
            raise RuntimeError(f"metric {m['name']} was not measured")
        elif got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} in {got['unit']}, "
                               f"declared in {m['unit']}")


def main() -> int:
    args = parse()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)

    from perfbench import hygiene
    from perfbench.common import Result, host_fingerprint, log

    limit = int(min(MAX_RUN_S, 60 + 3 * args.seconds))
    # soft limit: unwind through every finally; hard limit: exit anyway
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(limit)
    faulthandler.dump_traceback_later(limit + 8, exit=True)
    log(f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} host="
        + json.dumps(host_fingerprint()))
    res = Result()
    try:
        if args.workload == "sweep-large":
            from perfbench import sweep
            sweep.run(args.seed, args.seconds, bool(args.trace), res, OUT)
        else:
            from perfbench import serve
            serve.run(args.workload, args.seed, args.seconds,
                      bool(args.trace), res, OUT)
        complete(res, args.workload, bool(args.trace))
    except BaseException:  # reported, then the run fails without a result
        signal.alarm(0)
        traceback.print_exc()
        left = hygiene.problems()
        if left:
            log("perfbench: HYGIENE FAILURE: " + "; ".join(left))
        return 4
    finally:
        signal.alarm(0)
        faulthandler.cancel_dump_traceback_later()
    left = hygiene.problems()
    if left:
        log("perfbench: HYGIENE FAILURE: " + "; ".join(left))
        return 3
    for err in res.errors:
        log(f"perfbench: FAILED: {err}")
    payload = res.payload()
    print(json.dumps(payload), flush=True)
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
