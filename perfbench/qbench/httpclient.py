"""A minimal asyncio HTTP/1.1 keep-alive client and the two load loops.

The loops only move bytes: responses are kept raw and parsed after the
phase, so the client's own JSON work never delays a send.

- :func:`open_loop` sends request ``i`` when it is due
  (``start + i / rate``) on whichever of ``connections`` keep-alive
  connections is free; latency is timed from the due time, so a stall
  also charges the requests queued behind it.  The generator's own
  lateness (enqueue time minus due time) is reported separately.
- :func:`closed_loop` runs ``connections`` clients that each send the
  next request as soon as their previous one completes.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Optional


class HttpError(Exception):
    """The server closed or garbled a response."""


@dataclass
class Sample:
    """One request's outcome."""

    index: int
    status: int
    body: bytes
    #: Seconds from the due time (open loop) or the send (closed loop).
    latency: float
    #: Seconds the request waited for a connection after it was due.
    wait: float = 0.0
    error: Optional[str] = None


class Connection:
    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader = None
        self.writer = None

    async def open(self):
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 24,
        )
        return self

    async def request(self, method: str, path: str,
                      body: Optional[bytes] = None) -> tuple:
        """Send one request, return ``(status, body)``."""
        if self.writer is None:
            await self.open()
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("latin-1")
        self.writer.write(head + payload)
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise HttpError("connection closed before the status line")
        status = int(line.split(b" ", 2)[1])
        length = 0
        close = False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        data = await self.reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, data

    async def close(self):
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None


async def _send(conn: Connection, path: str, body: bytes) -> tuple:
    try:
        status, data = await conn.request("POST", path, body)
        return status, data, None
    except (HttpError, ConnectionError, OSError,
            asyncio.IncompleteReadError) as exc:
        await conn.close()
        return 0, b"", f"{type(exc).__name__}: {exc}"


async def open_loop(host: str, port: int, path: str, bodies: list,
                    rate: float, connections: int) -> dict:
    """Send every body on a fixed schedule of ``rate`` requests/second."""
    loop = asyncio.get_running_loop()
    due_queue: asyncio.Queue = asyncio.Queue()
    start = loop.time() + 0.05
    lateness = []
    samples = []

    async def generator():
        for index in range(len(bodies)):
            due = start + index / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(max(0.0, loop.time() - due))
            due_queue.put_nowait((index, due))
        for _ in range(connections):
            due_queue.put_nowait(None)

    async def sender():
        conn = await Connection(host, port).open()
        try:
            while True:
                item = await due_queue.get()
                if item is None:
                    return
                index, due = item
                sent = loop.time()
                status, data, error = await _send(conn, path, bodies[index])
                samples.append(Sample(
                    index=index, status=status, body=data,
                    latency=loop.time() - due, wait=sent - due, error=error,
                ))
        finally:
            await conn.close()

    began = time.perf_counter()
    await asyncio.gather(generator(), *(sender() for _ in range(connections)))
    samples.sort(key=lambda sample: sample.index)
    return {
        "samples": samples,
        "wall": time.perf_counter() - began,
        "lateness": lateness,
    }


async def closed_loop(host: str, port: int, path: str, bodies: list,
                      duration: float, connections: int) -> dict:
    """``connections`` back-to-back clients until ``duration`` or no bodies."""
    loop = asyncio.get_running_loop()
    samples = []
    cursor = iter(range(len(bodies)))
    deadline = loop.time() + duration

    async def client():
        conn = await Connection(host, port).open()
        try:
            while loop.time() < deadline:
                index = next(cursor, None)
                if index is None:
                    return
                sent = loop.time()
                status, data, error = await _send(conn, path, bodies[index])
                samples.append(Sample(
                    index=index, status=status, body=data,
                    latency=loop.time() - sent, error=error,
                ))
        finally:
            await conn.close()

    began = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(connections)))
    samples.sort(key=lambda sample: sample.index)
    return {"samples": samples, "wall": time.perf_counter() - began}


def get(host: str, port: int, path: str) -> tuple:
    """One blocking GET (``/metrics``, ``/healthz``)."""

    async def once():
        conn = await Connection(host, port).open()
        try:
            return await conn.request("GET", path)
        finally:
            await conn.close()

    return asyncio.run(once())

