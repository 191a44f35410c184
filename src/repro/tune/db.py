"""The persistent tuning database.

A :class:`TuningDB` records the winning :class:`~repro.tune.space.TuneConfig`
per *workload* — ``(spec, machine, interior shape, boundary)`` — plus the
measurement provenance that justified it, so a repeat workload skips the
empirical search entirely.

The layout is one JSON file per entry in a directory (see
:func:`default_tuning_dir`), content-addressed with the kernel cache's
SHA-256-over-canonical-JSON keys (:func:`workload_key`), written
atomically, and **never trusted on read** — any entry that fails to
parse or validate (unknown format version, key mismatch, malformed
configuration, non-finite score) is counted in ``discards``, deleted,
and the workload is simply re-tuned.

``db_dir=None`` keeps the database purely in memory (used by services
without a cache directory, and by tests).  The offline
:class:`~repro.tune.tuner.Tuner` is the only writer; each
:meth:`TuningDB.put` replaces its entry file whole.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import MachineConfig
from ..core.cache import digest, machine_fingerprint, spec_fingerprint
from ..errors import TuneError
from ..stencils.spec import StencilSpec
from .space import TuneConfig

#: bump when the on-disk record layout changes; older entries re-tune.
DB_FORMAT = 1


def default_tuning_dir() -> str:
    """``$REPRO_TUNING_DIR``, else ``$REPRO_CACHE_DIR/tuning``, else
    ``~/.cache/repro/kernels/tuning``."""
    env = os.environ.get("REPRO_TUNING_DIR")
    if env:
        return env
    parent = (os.environ.get("REPRO_CACHE_DIR")
              or os.path.join(os.path.expanduser("~"), ".cache", "repro",
                              "kernels"))
    return os.path.join(parent, "tuning")


# -- small io helpers ----------------------------------------------------------

def read_json(path: str) -> Optional[Any]:
    """Parse a JSON file, returning ``None`` on any IO/parse failure
    (disk artifacts are never trusted to be well-formed)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


#: distinguishes temp files from concurrent writers within one process —
#: the pid alone is shared by every thread.
_tmp_counter = itertools.count()


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` via a temp file + atomic rename, so a concurrent
    reader never observes a half-written entry.  The temp name includes
    the pid, the thread id, and a process-wide monotonic counter: two
    threads (or two renames racing in one thread) can never interleave
    writes into a shared temp file."""
    tmp = (f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
           f".{next(_tmp_counter)}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        try:
            if os.path.exists(tmp):
                os.remove(tmp)
        except OSError:
            pass


def write_json_atomic(path: str, payload: Any) -> None:
    """:func:`write_text_atomic` over the sorted-key JSON of ``payload``."""
    write_text_atomic(path, json.dumps(payload, sort_keys=True))


def workload_key(spec: StencilSpec, machine: MachineConfig,
                 shape: Sequence[int], *, boundary: str = "periodic") -> str:
    """Content hash identifying one tuning workload.

    Like :func:`repro.core.cache.plan_key`, the key covers the canonical
    JSON of every input — any change to the spec, the machine, the
    interior shape, or the boundary produces a different key, so stale
    winners are unreachable by construction.
    """
    return digest({
        "kind": "tuning",
        "spec": spec_fingerprint(spec),
        "machine": machine_fingerprint(machine),
        "shape": [int(n) for n in shape],
        "boundary": boundary,
    })


@dataclass(frozen=True)
class TuningRecord:
    """One stored winner plus the evidence for it."""

    key: str
    config: TuneConfig
    mstencil_s: float            #: the winner's measured throughput
    seconds: float               #: the winner's median trial time
    steps: int                   #: sweeps each trial executed
    trials: Tuple[Dict[str, Any], ...] = ()  #: full measurement provenance
    budget: Dict[str, Any] = field(default_factory=dict)
    created: float = field(default_factory=time.time)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": DB_FORMAT,
            "key": self.key,
            "config": self.config.as_dict(),
            "mstencil_s": self.mstencil_s,
            "seconds": self.seconds,
            "steps": self.steps,
            "trials": list(self.trials),
            "budget": dict(self.budget),
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, payload: Any, *, key: str) -> "TuningRecord":
        """Parse and validate a stored entry; raises
        :class:`~repro.errors.TuneError` on anything suspect."""
        if not isinstance(payload, dict):
            raise TuneError("record is not an object")
        if payload.get("format") != DB_FORMAT:
            raise TuneError(
                f"record format {payload.get('format')!r} != {DB_FORMAT}")
        if payload.get("key") != key:
            raise TuneError("record key does not echo its address")
        config = TuneConfig.from_dict(payload.get("config"))
        try:
            mstencil_s = float(payload["mstencil_s"])
            seconds = float(payload["seconds"])
            steps = int(payload["steps"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TuneError(f"malformed measurement fields: {exc}") from None
        if not (mstencil_s > 0.0) or not (seconds > 0.0) or steps < 1:
            raise TuneError("non-positive measurement in record")
        trials = payload.get("trials", [])
        if not isinstance(trials, list):
            raise TuneError("trials provenance is not a list")
        return cls(key=key, config=config, mstencil_s=mstencil_s,
                   seconds=seconds, steps=steps, trials=tuple(trials),
                   budget=dict(payload.get("budget", {}) or {}),
                   created=float(payload.get("created", 0.0)))


class TuningDB:
    """Directory-backed (or in-memory) store of :class:`TuningRecord`s.

    Thread-safe.  ``hits``/``misses``/``writes``/``discards`` counters
    mirror the kernel cache's stats surface.
    """

    def __init__(self, db_dir: Optional[str] = None) -> None:
        self.db_dir = db_dir
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.discards = 0
        self._lock = threading.RLock()
        self._memory: Dict[str, TuningRecord] = {}
        if db_dir is not None:
            os.makedirs(db_dir, exist_ok=True)

    # -- lookup ----------------------------------------------------------------
    def get(self, key: str) -> Optional[TuningRecord]:
        """The stored record for ``key``, or ``None``.  A corrupted or
        stale disk entry is discarded (and deleted) — never trusted,
        never fatal."""
        with self._lock:
            rec = self._memory.get(key)
            if rec is not None:
                self.hits += 1
                return rec
        rec = self._read(key)
        if rec is None:
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
            self._memory[key] = rec
        return rec

    def _read(self, key: str) -> Optional[TuningRecord]:
        """The valid on-disk record for ``key``, or ``None`` (an
        invalid entry file is discarded)."""
        path = self._entry_path(key)
        if path is None or not os.path.exists(path):
            return None
        payload = read_json(path)
        try:
            if payload is None:
                raise TuneError("unreadable entry")
            return TuningRecord.from_dict(payload, key=key)
        except TuneError:
            with self._lock:
                self.discards += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def lookup(self, spec: StencilSpec, machine: MachineConfig,
               shape: Sequence[int], *,
               boundary: str = "periodic") -> Optional[TuningRecord]:
        """:meth:`get` keyed straight from workload content."""
        return self.get(workload_key(spec, machine, shape,
                                     boundary=boundary))

    # -- storage ---------------------------------------------------------------
    def put(self, record: TuningRecord) -> None:
        with self._lock:
            self._memory[record.key] = record
        path = self._entry_path(record.key)
        if path is None:
            return
        try:
            write_json_atomic(path, record.to_dict())
        except OSError:
            return  # a read-only directory degrades to memory-only
        with self._lock:
            self.writes += 1

    # -- maintenance -----------------------------------------------------------
    def _entry_path(self, key: str) -> Optional[str]:
        if self.db_dir is None:
            return None
        return os.path.join(self.db_dir, f"{key}.json")

    def entries(self) -> List[str]:
        """Keys present on disk (memory-only records when no directory
        is configured)."""
        if self.db_dir is None:
            with self._lock:
                return sorted(self._memory)
        return sorted(name[:-len(".json")] for name in os.listdir(self.db_dir)
                      if name.endswith(".json") and name.count(".") == 1)

    def clear(self) -> int:
        """Drop every record; returns the number of disk entries removed."""
        removed = 0
        with self._lock:
            self._memory.clear()
        if self.db_dir is not None and os.path.isdir(self.db_dir):
            for name in os.listdir(self.db_dir):
                if name.endswith(".json"):
                    try:
                        os.remove(os.path.join(self.db_dir, name))
                        removed += 1
                    except OSError:
                        pass
        return removed

    def stats_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "discards": self.discards,
                "entries": len(self.entries()),
            }


__all__ = [
    "DB_FORMAT",
    "TuningDB",
    "TuningRecord",
    "default_tuning_dir",
    "workload_key",
]
