"""A JSON-lines TCP front end for the stencil server (stdlib only).

One request per line, one response per line, any number of in-flight
requests per connection (responses carry the request ``id`` and may
arrive out of order — micro-batching reorders completions)::

    -> {"id": 1, "kernel": "heat-2d", "shape": [32, 32], "steps": 2,
        "seed": 0, "tenant": "acme", "deadline_ms": 500}
    <- {"id": 1, "ok": true, "checksum": "9f...", "shape": [32, 32],
        "dtype": "float64", "latency_ms": 3.1, "batch_size": 4}

Responses carry a sha256 **checksum** of the result's interior bytes
rather than the array itself — enough for the load generator's bitwise
verification without shipping megabytes of float64 per response
(an in-process client gets the full grid; see
:mod:`repro.server.client`).  Rejections come back immediately::

    <- {"id": 7, "ok": false, "error": "...", "reason": "quota"}
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..errors import ReproError
from ..stencils import library
from .admission import ServerOverloaded
from .core import StencilJob, StencilServer


def interior_checksum(interior: np.ndarray) -> str:
    """sha256 over the C-contiguous interior bytes."""
    return hashlib.sha256(
        np.ascontiguousarray(interior).tobytes()).hexdigest()


#: seeds the wire accepts: ``[0, SEED_LIMIT)``, the range numpy's
#: ``default_rng`` takes without wrapping
SEED_LIMIT = 2 ** 63


def _wire_int(name: str, value: Any) -> int:
    """A wire integer: JSON floats, bools and strings are rejected, not
    truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproError(f"{name} must be an integer, got {value!r}")
    return value


def _parse_request(payload: Dict[str, Any]) -> Tuple[StencilJob, str,
                                                     Optional[float]]:
    try:
        spec = library.get(str(payload["kernel"]))
        shape = payload["shape"]
        if not isinstance(shape, list):
            raise ReproError(f"shape must be a list, got {shape!r}")
        seed = _wire_int("seed", payload.get("seed", 0))
        if not 0 <= seed < SEED_LIMIT:
            raise ReproError(f"seed must be in [0, 2**63), got {seed}")
        job = StencilJob(
            spec,
            tuple(_wire_int("shape entry", n) for n in shape),
            _wire_int("steps", payload.get("steps", 1)),
            seed=seed,
            boundary=str(payload.get("boundary", "periodic")),
            value=float(payload.get("value", 0.0)),
        )
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed request: {exc}") from None
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str):
        raise ReproError(f"tenant must be a string, got {tenant!r}")
    deadline_ms = payload.get("deadline_ms")
    deadline_s = None if deadline_ms is None else float(deadline_ms) / 1e3
    return job, tenant, deadline_s


async def _handle_line(server: StencilServer, line: str) -> Dict[str, Any]:
    try:
        payload = json.loads(line)
    except ValueError as exc:
        return {"id": None, "ok": False,
                "error": f"request is not valid JSON: {exc}",
                "reason": "bad_request"}
    if not isinstance(payload, dict):
        return {"id": None, "ok": False,
                "error": "request must be a JSON object",
                "reason": "bad_request"}
    rid = payload.get("id")
    try:
        job, tenant, deadline_s = _parse_request(payload)
        result = await server.submit(job, tenant=tenant,
                                     deadline_s=deadline_s)
    except ServerOverloaded as exc:
        return {"id": rid, "ok": False, "error": str(exc),
                "reason": exc.reason}
    except ReproError as exc:
        return {"id": rid, "ok": False, "error": str(exc),
                "reason": "bad_request"}
    interior = result.grid.interior
    return {
        "id": rid,
        "ok": True,
        "checksum": interior_checksum(interior),
        "shape": list(interior.shape),
        "dtype": str(interior.dtype),
        "latency_ms": result.latency_s * 1e3,
        "batch_size": result.batch_size,
        "deadline_met": result.deadline_met,
    }


async def serve_tcp(server: StencilServer, *, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
    """Bind the JSON-lines protocol in front of a started ``server``.
    Returns the asyncio server (``.sockets[0].getsockname()[1]`` is the
    bound port; close it to stop accepting)."""

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        tasks = set()

        async def respond(line: str) -> None:
            response = await _handle_line(server, line)
            async with write_lock:
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()

        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                task = asyncio.ensure_future(respond(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.start_server(handle, host=host, port=port)


async def request_tcp(host: str, port: int,
                      payloads: list) -> list:
    """Send ``payloads`` (dicts) over one connection, pipelined, and
    return the responses reordered to match the request order (requests
    without an ``id`` get one assigned)."""
    reader, writer = await asyncio.open_connection(host, port)
    payloads = [dict(p) for p in payloads]
    for i, p in enumerate(payloads):
        p.setdefault("id", i)
    try:
        for p in payloads:
            writer.write((json.dumps(p) + "\n").encode("utf-8"))
        await writer.drain()
        by_id = {}
        for _ in payloads:
            raw = await reader.readline()
            if not raw:
                raise ReproError("server closed the connection early")
            response = json.loads(raw.decode("utf-8"))
            by_id[response.get("id")] = response
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return [by_id[p["id"]] for p in payloads]


__all__ = ["interior_checksum", "request_tcp", "serve_tcp"]
