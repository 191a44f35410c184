"""Multicore substrate: topology description, the analytic multicore
performance model (bandwidth sharing, NUMA, phase barriers — §4.4/§4.5),
and the real outer-axis partitioned executor for the numpy path.
"""

from .topology import CoreAllocation, allocate_cores
from .simulator import MulticoreModel
from .executor import BACKENDS, run_parallel, apply_tile
# the executor's window path lives in repro.shard, which imports the
# executor: load it with the package so no run pays for the import
from .. import shard  # noqa: E402,F401

__all__ = [
    "CoreAllocation",
    "allocate_cores",
    "MulticoreModel",
    "BACKENDS",
    "run_parallel",
    "apply_tile",
]
