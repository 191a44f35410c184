"""Shared helpers: statistics, the result record, host facts, memory."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the convention the server's load
    generator uses); NaN when empty."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(pct * len(ordered), 6) / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def l3_cache() -> str:
    """The last-level cache size as the OS reports it, or ``unknown``."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, entry, "size")) as fh:
                return fh.read().strip()
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> Dict[str, object]:
    import numpy as np
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "l3": l3_cache(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
    }


class Result:
    """What one run prints: correctness, operation counts, metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, Dict[str, float]] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def put(self, name: str, value: Optional[float], unit: str) -> None:
        if value is None or (isinstance(value, float) and math.isnan(value)):
            raise ValueError(f"metric {name} was not measured")
        self.metrics[name] = {"value": float(value), "unit": unit}

    def payload(self) -> Dict[str, object]:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def log(msg: str) -> None:
    """Progress goes to stderr; stdout's last line is the result."""
    print(msg, file=sys.stderr, flush=True)
