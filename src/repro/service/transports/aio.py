"""The HTTP transport: ``asyncio.start_server`` fronting the app.

One event loop handles every connection; the stdlib-only HTTP/1.1 parser
below speaks keep-alive (and therefore pipelining, since requests on one
connection are answered strictly in order).  The loop itself only ever
parses, routes, and serves cached fast-path answers — every CPU-bound
F-Box call goes through :meth:`~repro.service.app.FBoxApp.handle_async`,
which admits via the controller's async path and executes on the app's
bounded thread pool under an ``asyncio.wait`` deadline.  Thread count
is thus a capacity knob (``--executor-workers``), not one-per-connection.

:class:`FBoxHTTPServer` offers the ``socketserver``-shaped surface the rest
of the repo drives — eager socket bind in the constructor (``port=0``
works), blocking ``serve_forever()``, thread-safe
``shutdown()``/``server_close()``, plus ``drain()``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from http import HTTPStatus
from time import monotonic

from ..app import FBoxApp, Request, Response, format_retry_after

__all__ = ["FBoxHTTPServer"]

_MAX_HEADER_COUNT = 128
_HEADER_LINE_LIMIT = 1 << 16


class _ProtocolError(Exception):
    """The request could not be framed at all; answer 400 and hang up."""


class FBoxHTTPServer:
    """The asyncio HTTP front-end of one :class:`~repro.service.app.FBoxApp`."""

    def __init__(
        self,
        address: tuple[str, int],
        app: FBoxApp,
        quiet: bool = True,
    ) -> None:
        self.app = app
        self.quiet = quiet
        # Bind eagerly so callers can read the ephemeral port before
        # serve_forever() runs.
        self._socket = socket.create_server(address, backlog=128)
        self.server_address = self._socket.getsockname()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._shutdown_requested = threading.Event()
        # Set while not serving; shutdown() waits on it.
        self._done = threading.Event()
        self._done.set()

    @property
    def context(self):
        """The shared service context (registry, cache, metrics, ...)."""
        return self.app.context

    @property
    def request_timeout(self) -> float | None:
        return self.app.request_timeout

    @request_timeout.setter
    def request_timeout(self, value: float | None) -> None:
        self.app.request_timeout = value

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Run the event loop on the calling thread until :meth:`shutdown`."""
        del poll_interval  # signature compatibility; the loop needs no polling
        self._done.clear()
        try:
            asyncio.run(self._main())
        finally:
            self._done.set()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            self._serve_connection, sock=self._socket
        )
        if self._shutdown_requested.is_set():
            self._stop.set()
        async with server:
            await self._stop.wait()

    def shutdown(self) -> None:
        """Stop the listener from another thread; blocks until the loop exits.

        In-flight connection tasks are cancelled as the loop shuts down —
        use :meth:`drain` first for a graceful stop.
        """
        self._shutdown_requested.set()
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # the loop finished in the same instant
        self._done.wait()

    def drain(self, grace: float = 10.0) -> None:
        """Graceful shutdown: refuse new work, let in-flight work finish."""
        self.app.begin_shutdown()
        deadline = monotonic() + grace
        metrics = self.app.context.metrics
        while monotonic() < deadline and metrics.total_in_flight() > 0:
            time.sleep(0.02)
        self.shutdown()

    def server_close(self) -> None:
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - already closed by the loop
            pass
        self.app.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        app = self.app
        app.context.metrics.count(connections=1)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Disable Nagle so small responses never sit behind the peer's
            # delayed ACK (a ~40ms floor per keep-alive request otherwise).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _ProtocolError as error:
                    await self._write_response(
                        writer, _protocol_error_response(str(error)), close=True
                    )
                    break
                if parsed is None:
                    break
                request, want_close = parsed
                response = await app.handle_async(request)
                close = bool(response.close or want_close)
                await self._write_response(writer, response, close)
                if close:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            TimeoutError,
            asyncio.IncompleteReadError,
        ):
            pass  # the client went away; nothing sensible left to send
        except asyncio.CancelledError:
            # The loop is tearing down (shutdown() without drain()); the
            # connection is abandoned by design, so end the task quietly
            # instead of leaking a cancellation traceback to the log.
            pass
        finally:
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[Request, bool] | None:
        """Parse one request off the connection; ``None`` on a clean EOF."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].upper().startswith("HTTP/"):
            raise _ProtocolError("malformed request line")
        method, path, version = parts[0].upper(), parts[1], parts[2].upper()
        headers = await self._read_headers(reader)
        connection = headers.get("connection", "").lower()
        want_close = "close" in connection or version == "HTTP/1.0"
        if method not in ("GET", "POST"):
            raise _ProtocolError(f"unsupported method {method!r}")

        app = self.app
        body = b""
        framing_error = None
        request_close = False
        if method == "POST":
            # Every POST body is consumed, known route or not: bytes left on
            # the socket would be parsed as the next pipelined request.
            plan = app.plan_body(headers.get("content-length"))
            if plan.error is not None:
                framing_error = plan.error
                request_close = plan.close
                if plan.drain:
                    try:
                        await reader.readexactly(plan.drain)
                    except asyncio.IncompleteReadError:
                        request_close = True
            elif plan.read:
                body = await reader.readexactly(plan.read)
        request = Request(
            method=method,
            path=path,
            body=body,
            framing_error=framing_error,
            close=request_close,
            headers=headers,
        )
        return request, want_close

    async def _read_headers(self, reader: asyncio.StreamReader) -> dict[str, str]:
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_COUNT):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                return headers
            if len(raw) > _HEADER_LINE_LIMIT:
                raise _ProtocolError("header line too long")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _ProtocolError("malformed header line")
            headers[name.strip().lower()] = value.strip()
        raise _ProtocolError("too many headers")

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response, close: bool
    ) -> None:
        try:
            phrase = HTTPStatus(response.status).phrase
        except ValueError:  # pragma: no cover - nonstandard status
            phrase = ""
        lines = [
            f"HTTP/1.1 {response.status} {phrase}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
        ]
        if response.retry_after is not None:
            lines.append(f"Retry-After: {format_retry_after(response.retry_after)}")
        if close:
            # Tell the client explicitly; HTTP/1.1 defaults to keep-alive.
            lines.append("Connection: close")
        # One write: headers and body in a single segment, so the response
        # never straddles Nagle's unacked-data boundary.
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + response.body)
        await writer.drain()


def _protocol_error_response(message: str) -> Response:
    body = json.dumps(
        {
            "error": {
                "code": "bad_request",
                "kind": "bad_request",
                "message": message,
                "retryable": False,
            }
        },
        sort_keys=True,
    ).encode("utf-8")
    return Response(400, body)
