"""Asyncio HTTP front-end: the ``qmatch serve`` listener.

A single-threaded :func:`asyncio.start_server` accept loop: ten
thousand idle keep-alive connections cost ten thousand coroutines, not
ten thousand OS threads.  The front-end only does I/O -- parse a
request head, stream the body (the size cap is enforced on the
``Content-Length`` *before* a byte is buffered), hand off to the
router in :mod:`repro.service.http_api` on an executor thread, write
the response back.

Lifecycle: SIGTERM and SIGINT trigger a **graceful drain** -- the
listener stops accepting, in-flight and queued jobs run to completion
(bounded by ``drain_timeout``), the pool/backend shuts down, and the
process exits 0.  Read-only routes keep answering during the drain;
job-submitting routes get 503 (see ``MatchService.check_admission``).
"""

from __future__ import annotations

import asyncio
import signal
import sys
import time
from typing import Optional

from repro.obs.log import NULL_LOGGER
from repro.service.http_api import (
    ApiResponse,
    finish_request,
    handle_api_request,
    open_request,
    stamp_request_id,
    too_large_response,
)

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Maximum bytes of one request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024

SERVER_NAME = "qmatch-serve/1.0"


class _BadRequest(Exception):
    """The request head could not be parsed; the connection closes."""


async def _read_head(reader) -> Optional[tuple]:
    """Parse one request head into (method, path, version, headers).

    Returns None on a cleanly closed idle connection (EOF before any
    bytes), raises :class:`_BadRequest` on garbage.
    """
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise _BadRequest("request line too long") from None
    if not line:
        return None
    try:
        method, path, version = line.decode("latin-1").strip().split(" ", 2)
    except ValueError:
        raise _BadRequest("malformed request line") from None
    headers = {}
    head_bytes = len(line)
    while True:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise _BadRequest("header line too long") from None
        if not line:
            raise _BadRequest("connection closed mid-headers")
        head_bytes += len(line)
        if head_bytes > MAX_HEAD_BYTES:
            raise _BadRequest("request head too large")
        if line in (b"\r\n", b"\n"):
            return method, path, version, headers
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest("malformed header line")
        headers[name.strip().lower()] = value.strip()


def _render(response: ApiResponse, keep_alive: bool) -> bytes:
    reason = _REASONS.get(response.status, "Unknown")
    head = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Server: {SERVER_NAME}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
    ]
    for name, value in response.headers:
        head.append(f"{name}: {value}")
    head.append(
        "Connection: keep-alive" if keep_alive else "Connection: close"
    )
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body


class AsyncMatchServer:
    """The accept loop + per-connection protocol around one service."""

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False, log=NULL_LOGGER):
        self.service = service
        self.host = host
        self.port = port
        self.verbose = verbose
        self.log = log
        self._server = None
        self._connections = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self):
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def stop(self, drain_timeout: Optional[float] = 30.0) -> bool:
        """Stop accepting, drain the service, settle open connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        drained = await loop.run_in_executor(
            None, self.service.drain, drain_timeout,
        )
        if self._connections:
            await asyncio.wait(
                {asyncio.ensure_future(c) for c in self._connections},
                timeout=2.0,
            )
        return drained

    # ------------------------------------------------------------------
    # Per-connection protocol
    # ------------------------------------------------------------------

    async def _client_connected(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_connection(self, reader, writer):
        loop = asyncio.get_running_loop()
        while True:
            started = time.perf_counter()
            try:
                head = await _read_head(reader)
            except _BadRequest as exc:
                writer.write(_render(ApiResponse(
                    status=400,
                    body=(f'{{\n  "error": "{exc}"\n}}').encode("utf-8"),
                ), keep_alive=False))
                await writer.drain()
                return
            if head is None:
                return
            method, path, version, headers = head
            tracer, request_id = open_request(self.service, headers)
            root = tracer.start("http.request", {
                "method": method, "path": path.partition("?")[0],
                "transport": "asyncio",
            }) if tracer.enabled else None
            keep_alive = (
                version.upper() != "HTTP/1.0"
                and headers.get("connection", "").lower() != "close"
            )
            raw = None
            if method in ("POST", "PUT", "PATCH"):
                try:
                    length = int(headers.get("content-length") or 0)
                except ValueError:
                    length = 0
                if length > self.service.max_body_bytes:
                    # Reject on the declared length -- the body is
                    # never buffered, so the connection cannot be
                    # reused afterwards.
                    response = too_large_response(
                        self.service, method, path, length, started,
                    )
                    stamp_request_id(response, request_id)
                    if root is not None:
                        tracer.finish(root, status="ERROR",
                                      attributes={"status": 413})
                        finish_request(self.service, tracer)
                    writer.write(_render(response, keep_alive=False))
                    await writer.drain()
                    self._log_request(writer, method, path, response.status)
                    return
                read_span = tracer.start("request.read") \
                    if tracer.enabled else None
                raw = (
                    await reader.readexactly(length) if length > 0 else b""
                )
                if read_span is not None:
                    tracer.finish(read_span,
                                  attributes={"bytes": length})
            response = await loop.run_in_executor(
                None, handle_api_request,
                self.service, method, path, raw, started,
                tracer, request_id,
            )
            keep_alive = keep_alive and not response.close
            write_span = tracer.start("response.write") \
                if tracer.enabled else None
            writer.write(_render(response, keep_alive=keep_alive))
            await writer.drain()
            if write_span is not None:
                tracer.finish(write_span,
                              attributes={"bytes": len(response.body)})
            if root is not None:
                tracer.finish(root, attributes={
                    "status": response.status, "route": response.route,
                })
                finish_request(self.service, tracer)
            self._log_request(writer, method, path, response.status)
            if not keep_alive:
                return

    def _log_request(self, writer, method: str, path: str, status: int):
        if not self.verbose:
            return
        peer = writer.get_extra_info("peername")
        host = peer[0] if peer else "-"
        sys.stderr.write(f'{host} - "{method} {path}" {status}\n')


def run_async_server(service, host: str = "127.0.0.1", port: int = 8765,
                     verbose: bool = False,
                     drain_timeout: Optional[float] = 30.0,
                     log=NULL_LOGGER, start_info: Optional[dict] = None) -> int:
    """Run the front-end until SIGTERM/SIGINT, then drain and exit 0.

    The blocking body of ``qmatch serve``: binds, emits the
    ``serve.start`` event (with the resolved URL -- port 0 picks an
    ephemeral port), and parks until a termination signal starts the
    graceful drain.  ``serve.stop`` reports the signal and whether the
    drain finished cleanly inside ``drain_timeout``.
    """

    async def _main() -> int:
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        why = {"reason": "interrupt"}

        def _on_signal(name: str):
            why["reason"] = name
            stopping.set()

        for sig, name in ((signal.SIGTERM, "sigterm"),
                          (signal.SIGINT, "interrupt")):
            try:
                loop.add_signal_handler(sig, _on_signal, name)
            except (NotImplementedError, RuntimeError):
                pass
        server = AsyncMatchServer(
            service, host=host, port=port, verbose=verbose, log=log,
        )
        await server.start()
        log.event(
            "serve.start", url=server.url, transport="asyncio",
            **(start_info or {}),
        )
        try:
            await stopping.wait()
        except asyncio.CancelledError:
            pass
        drained = await server.stop(drain_timeout=drain_timeout)
        log.event("serve.stop", reason=why["reason"], drained=drained)
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        # Platforms without add_signal_handler (or a second Ctrl-C
        # during the drain) land here; the service still shuts down.
        log.event("serve.stop", reason="interrupt", drained=False)
        service.shutdown(wait=False)
        return 0
