"""Service wiring: build an app, put the asyncio front on it, run until SIGTERM.

Request policy lives in :mod:`repro.service.app` (the transport-agnostic
application layer) and the HTTP front in
:mod:`repro.service.transports.aio`.  What remains here is the composition
root: :func:`make_server` builds an :class:`~repro.service.app.FBoxApp` and
wraps it in :class:`~repro.service.transports.aio.FBoxHTTPServer`;
:func:`serve` is the blocking entry point behind ``repro serve`` that
installs SIGTERM/SIGINT handlers which *drain* — new arrivals get 503 +
``Connection: close`` while admitted and queued requests finish — before
the listener stops.
"""

from __future__ import annotations

import logging
import signal
import threading

from .app import make_app
from .faults import FaultInjector
from .registry import DatasetRegistry
from .transports.aio import FBoxHTTPServer

__all__ = ["FBoxHTTPServer", "make_app", "make_server", "serve"]

_logger = logging.getLogger("repro.service")


def make_server(
    registry: DatasetRegistry | None = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    cache_size: int = 256,
    cache_ttl: float | None = None,
    request_timeout: float | None = 30.0,
    max_concurrency: int = 8,
    queue_depth: int = 16,
    faults: FaultInjector | None = None,
    quiet: bool = True,
    executor_workers: int | None = None,
    shards: int = 0,
    alert_threshold: float | None = None,
    admin_token: str | None = None,
) -> FBoxHTTPServer:
    """Build a ready-to-serve F-Box server (``port=0`` picks an ephemeral one).

    One event loop answers every connection; CPU work runs on the app's
    bounded executor sized by ``executor_workers``.  ``shards`` selects
    the execution backend behind it: ``0`` executes in-process, ``N > 0``
    spreads dataset ownership across ``N`` worker processes for real CPU
    parallelism.  See :func:`repro.service.app.make_app` for the remaining
    knobs.
    """
    app = make_app(
        registry=registry,
        cache_size=cache_size,
        cache_ttl=cache_ttl,
        request_timeout=request_timeout,
        max_concurrency=max_concurrency,
        queue_depth=queue_depth,
        faults=faults,
        executor_workers=executor_workers,
        shards=shards,
        alert_threshold=alert_threshold,
        admin_token=admin_token,
    )
    return FBoxHTTPServer((host, port), app, quiet=quiet)


def serve(
    registry: DatasetRegistry | None = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    cache_size: int = 256,
    cache_ttl: float | None = None,
    request_timeout: float | None = 30.0,
    max_concurrency: int = 8,
    queue_depth: int = 16,
    preload: bool = False,
    quiet: bool = False,
    executor_workers: int | None = None,
    drain_grace: float = 10.0,
    shards: int = 0,
    alert_threshold: float | None = None,
    admin_token: str | None = None,
) -> int:
    """Run the service until SIGTERM/SIGINT; returns a process exit code.

    Must be called from the main thread (signal handlers are installed).
    A signal triggers a *drain*: the app stops admitting (new requests get
    503 ``shutting_down`` + ``Connection: close``), requests already
    executing or waiting in the admission queue complete, and after at most
    ``drain_grace`` seconds the listener stops.  With ``preload`` the
    server starts listening immediately and materializes datasets on a
    background thread; ``/readyz`` answers 503 until every preloaded
    dataset is built (``/healthz`` is 200 throughout).
    """
    server = make_server(
        registry=registry,
        host=host,
        port=port,
        cache_size=cache_size,
        cache_ttl=cache_ttl,
        request_timeout=request_timeout,
        max_concurrency=max_concurrency,
        queue_depth=queue_depth,
        quiet=quiet,
        executor_workers=executor_workers,
        shards=shards,
        alert_threshold=alert_threshold,
        admin_token=admin_token,
    )
    if preload:
        context = server.context
        context.require_loaded = tuple(context.registry.names())
        print("preloading datasets in the background ...", flush=True)

        def _preload() -> None:
            try:
                context.registry.preload()
            except Exception as error:  # breaker has already counted it
                _logger.error("dataset preload failed: %s", error, exc_info=error)

        threading.Thread(target=_preload, daemon=True, name="fbox-preload").start()

    def _shutdown(signum, frame) -> None:
        # drain() must not run on the serve_forever thread; hand it off.
        threading.Thread(
            target=server.drain, args=(drain_grace,), daemon=True
        ).start()

    previous = {
        sig: signal.signal(sig, _shutdown) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    datasets = ", ".join(server.context.registry.names()) or "none"
    mode = f"shards: {shards}, " if shards else ""
    print(
        f"F-Box service listening on {server.url} ({mode}datasets: {datasets})",
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("F-Box service stopped", flush=True)
    return 0
