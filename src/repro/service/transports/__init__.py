"""The transport adapter: sockets in, :class:`~repro.service.app.Request` out.

:mod:`repro.service.transports.aio` is the service's one HTTP front: an
``asyncio.start_server`` loop with a stdlib HTTP/1.1 parser and keep-alive.
It is a thin shell around one shared :class:`~repro.service.app.FBoxApp`;
CPU-bound work runs on the app's bounded executor so the event loop never
blocks.  The server API (``serve_forever`` / ``shutdown`` /
``server_close`` / ``drain`` / ``url`` / ``context``) is what tests,
benchmarks, and ``serve()`` drive.
"""

from __future__ import annotations

__all__ = ["FBoxHTTPServer"]

from .aio import FBoxHTTPServer
