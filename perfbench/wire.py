"""The wire path: an in-process server thread and an open-loop client.

:class:`ServerThread` runs a :class:`repro.server.StencilServer` behind
:func:`repro.server.net.serve_tcp` on 127.0.0.1 (ephemeral port) in its
own event loop on one thread, so the load generator's loop in the main
thread is a separate client, as a remote user would be; both share one
process and its interpreter lock.  Every socket, the TCP server and the
stencil server are closed in ``finally`` blocks and the thread is
joined on :meth:`ServerThread.stop`.

:func:`open_loop` sends JSON-lines requests on a fixed schedule over at
most ``nproc`` connections, whatever the server's progress, and times
each one from the moment it was due until its response line arrives.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import PAPER_MACHINES
from repro.server import StencilServer
from repro.server.net import serve_tcp

HOST = "127.0.0.1"
#: how long the server thread may take to start or stop
SERVER_TIMEOUT_S = 30.0
#: how long a window waits for its last answers before counting them lost
DRAIN_S = 10.0
#: how long set-up requests may take to be answered
REQUEST_TIMEOUT_S = 60.0


def default_server() -> StencilServer:
    """A server with the ``repro serve`` defaults (machine, queue depth
    256, unlimited quota, 5 ms window, batches of 16, 4 executor
    threads, thread sweep backend with 4 workers, memory-only cache)."""
    return StencilServer(
        machine=PAPER_MACHINES[0], max_queue_depth=256,
        quota_rate=float("inf"), quota_burst=None, batch_window_s=0.005,
        max_batch=16, executor_workers=4, run_backend="thread",
        run_workers=4, cache_dir=None)


class ServerThread:
    """A started server on a private loop thread (``stop`` tears
    everything down and joins the thread)."""

    def __init__(self) -> None:
        self.server: Optional[StencilServer] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._main,
                                        name="perfbench-server")

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(SERVER_TIMEOUT_S):
            raise TimeoutError("server thread did not start")
        if self._error is not None:
            raise self._error
        return self

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except BaseException as exc:  # reported to the starting thread
            self._error = exc
            self._ready.set()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.run_until_complete(loop.shutdown_default_executor())
            finally:
                loop.close()

    async def _serve(self) -> None:
        self._stop = asyncio.Event()
        server = self.server = default_server()
        await server.start()
        tcp = None
        try:
            tcp = await serve_tcp(server, host=HOST, port=0)
            self.port = tcp.sockets[0].getsockname()[1]
            self._ready.set()
            await self._stop.wait()
        finally:
            if tcp is not None:
                tcp.close()
                await tcp.wait_closed()
            await server.stop()

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and self._stop is not None and \
                self._thread.is_alive():
            loop.call_soon_threadsafe(self._stop.set)
        if self._thread.ident is not None:
            self._thread.join(SERVER_TIMEOUT_S)
            if self._thread.is_alive():
                raise RuntimeError("server thread did not stop")


@dataclass
class Sent:
    """One request of a schedule and what happened to it."""

    rid: int
    payload: Dict
    due: float = 0.0
    sent: float = 0.0
    recv: Optional[float] = None
    response: Optional[Dict] = None

    @property
    def latency_ms(self) -> float:
        """Due-to-response time (includes any generator lateness)."""
        return (self.recv - self.due) * 1e3

    @property
    def wire_ms(self) -> float:
        """Send-to-response time."""
        return (self.recv - self.sent) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


@dataclass
class Phase:
    """The outcome of one fixed-rate window."""

    rate: float
    requests: List[Sent]
    seconds: float
    #: requests sent but unanswered, sampled at the window's midpoint
    #: and at its end
    backlog_mid: int = 0
    backlog_end: int = 0
    timed_out: int = 0
    #: process CPU time (all threads, user + system) over the window
    cpu_s: float = 0.0


class Connections:
    """``n`` pipelined JSON-lines connections with one reader each."""

    def __init__(self, port: int, n: int) -> None:
        self.port = port
        self.n = n
        self.writers: List[asyncio.StreamWriter] = []
        self._readers: List[asyncio.Task] = []
        self._inflight: Dict[int, Sent] = {}
        self._idle = asyncio.Event()
        self._idle.set()

    async def open(self) -> "Connections":
        for _ in range(self.n):
            reader, writer = await asyncio.open_connection(HOST, self.port)
            self.writers.append(writer)
            self._readers.append(asyncio.ensure_future(self._read(reader)))
        return self

    async def _read(self, reader: asyncio.StreamReader) -> None:
        loop = asyncio.get_running_loop()
        while True:
            raw = await reader.readline()
            if not raw:
                return
            now = loop.time()
            response = json.loads(raw)
            req = self._inflight.pop(response.get("id"), None)
            if req is None:
                continue
            req.recv = now
            req.response = response
            if not self._inflight:
                self._idle.set()

    @property
    def outstanding(self) -> int:
        return len(self._inflight)

    def send(self, req: Sent, slot: int) -> None:
        req.sent = asyncio.get_running_loop().time()
        self._inflight[req.rid] = req
        self._idle.clear()
        self.writers[slot % self.n].write(
            (json.dumps(req.payload) + "\n").encode())

    async def drain(self, timeout_s: float) -> int:
        """Wait for every outstanding response; returns how many never
        arrived within ``timeout_s`` (they are dropped)."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout_s)
        except asyncio.TimeoutError:
            pass
        lost = len(self._inflight)
        self._inflight.clear()
        self._idle.set()
        return lost

    async def close(self) -> None:
        for writer in self.writers:
            writer.close()
        for writer in self.writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


async def open_loop(conns: Connections, payloads: Sequence[Dict],
                    rate: float, *, first_rid: int) -> Phase:
    """Send ``payloads`` at ``rate`` per second on a fixed schedule,
    round-robin over the connections, then wait for the answers."""
    loop = asyncio.get_running_loop()
    reqs = [Sent(first_rid + i, dict(p, id=first_rid + i))
            for i, p in enumerate(payloads)]
    cpu0 = time.process_time()
    t0 = loop.time() + 0.01
    mid = len(reqs) // 2
    phase = Phase(rate=rate, requests=reqs, seconds=len(reqs) / rate)
    for i, req in enumerate(reqs):
        req.due = t0 + i / rate
        delay = req.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if i == mid:
            phase.backlog_mid = conns.outstanding
        conns.send(req, i)
        if i % 16 == 15:
            for w in conns.writers:
                await w.drain()
    for w in conns.writers:
        await w.drain()
    end = t0 + len(reqs) / rate
    if end > loop.time():
        await asyncio.sleep(end - loop.time())
    phase.backlog_end = conns.outstanding
    phase.timed_out = await conns.drain(DRAIN_S)
    phase.cpu_s = time.process_time() - cpu0
    return phase


async def request_once(conns: Connections, payloads: Sequence[Dict], *,
                       first_rid: int) -> List[Sent]:
    """Send ``payloads`` back to back and wait for every answer."""
    loop = asyncio.get_running_loop()
    reqs = [Sent(first_rid + i, dict(p, id=first_rid + i))
            for i, p in enumerate(payloads)]
    for i, req in enumerate(reqs):
        req.due = loop.time()
        conns.send(req, i)
    for w in conns.writers:
        await w.drain()
    await conns.drain(REQUEST_TIMEOUT_S)
    return reqs

