"""Core placement across sockets, and outer-axis shard topology.

The paper's Intel scalability runs alternate cores between the two NUMA
domains to average out remote-access latency (§4.5); the resulting remote
traffic share is what the multicore model charges the NUMA penalty on.

:func:`partition_axis` is the integer geometry behind the partitioned
executor and :mod:`repro.shard`: contiguous slabs along the outermost
axis with the remainder spread over the leading slabs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..config import MachineConfig
from ..errors import ModelError, TilingError


@dataclass(frozen=True)
class CoreAllocation:
    machine: MachineConfig
    cores: int
    per_socket: Tuple[int, ...]

    @property
    def sockets_used(self) -> int:
        return sum(1 for c in self.per_socket if c > 0)

    @property
    def remote_fraction(self) -> float:
        """Expected share of memory traffic served by a remote socket.

        With pages interleaved over the used sockets, a core finds
        ``1/sockets_used`` of its data local; the rest is remote.
        """
        s = self.sockets_used
        return 0.0 if s <= 1 else 1.0 - 1.0 / s


def allocate_cores(machine: MachineConfig, cores: int,
                   *, policy: str = "alternate") -> CoreAllocation:
    """Distribute ``cores`` over sockets.

    ``alternate`` round-robins sockets (the paper's §4.5 setup);
    ``compact`` fills one socket before the next.
    """
    if not 1 <= cores <= machine.total_cores:
        raise ModelError(
            f"cores must be in [1, {machine.total_cores}], got {cores}"
        )
    per = [0] * machine.sockets
    if policy == "alternate":
        for i in range(cores):
            per[i % machine.sockets] += 1
    elif policy == "compact":
        left = cores
        for s in range(machine.sockets):
            take = min(left, machine.cores_per_socket)
            per[s] = take
            left -= take
    else:
        raise ModelError(f"unknown placement policy {policy!r}")
    if any(c > machine.cores_per_socket for c in per):
        raise ModelError("allocation exceeds per-socket core count")
    return CoreAllocation(machine=machine, cores=cores, per_socket=tuple(per))


@dataclass(frozen=True)
class ShardSlab:
    """One contiguous outer-axis slab ``[start, stop)`` of a partition."""

    index: int
    start: int
    stop: int

    @property
    def rows(self) -> int:
        return self.stop - self.start


def partition_axis(extent: int, shards: int) -> Tuple[ShardSlab, ...]:
    """Split ``extent`` rows into ``shards`` contiguous slabs.

    The remainder is spread over the leading slabs (the first
    ``extent % shards`` slabs get one extra row), so slab sizes differ by
    at most one and the partition is deterministic.
    """
    if shards < 1:
        raise TilingError("shards must be >= 1")
    if extent < shards:
        raise TilingError(
            f"cannot split {extent} rows into {shards} shards "
            "(every shard needs at least one row)"
        )
    base, rem = divmod(extent, shards)
    slabs = []
    start = 0
    for i in range(shards):
        rows = base + (1 if i < rem else 0)
        slabs.append(ShardSlab(index=i, start=start, stop=start + rows))
        start += rows
    return tuple(slabs)
