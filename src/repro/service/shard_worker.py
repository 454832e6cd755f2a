"""Multi-process dataset sharding: the worker-process half.

:func:`worker_main` is the target :class:`~repro.service.sharding.ShardRouter`
forks.  One worker owns the datasets, cubes, index families, result cache,
and last-known-good store for its shard and answers the router's
length-prefixed JSON frames (``ping`` / ``status`` / ``call`` /
``export_dataset`` / ``import_dataset`` / ``shutdown``) over the pre-bound
listener socket it inherited.  The export/import pair is the live-resize
state handoff: the router snapshots a moving dataset's journal, ledger,
high-water sequence, and trend ring from its old owner and replays them
into the new one before flipping routing.

``call`` runs the single-process query pipeline for one routed endpoint
row — the same coroutine the front's event loop awaits, driven here by
:meth:`repro.service.app.FBoxApp.run_call` on an event loop owned by the
connection thread, against a worker-local
:class:`~repro.service.handlers.ServiceContext` — so parsing, validation,
caching, breaker accounting, deadline enforcement (the app's bounded pool
under ``asyncio.wait``), and degraded stale answers behave
byte-for-byte like the unsharded service.  Admission control stays
front-side (the router is one logical service; shedding twice would
double-count), which is why the worker's context has no controller.

Chaos hooks: a ``worker_exit`` fault rule firing for the request path makes
the worker ``os._exit`` before dispatching — the router sees the connection
die, trips the shard breaker, and restarts the worker.  Respawned workers
receive ``exit_faults_consumed`` (the shard's crash count) and deduct it
from every ``worker_exit`` rule's ``times`` budget, because each fresh
process rebuilds its injector with zeroed counters — without the deduction
a "kill once" rule would kill every replacement forever.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import socket
import threading
from dataclasses import dataclass

from .app import FBoxApp
from .cache import LRUCache
from .errors import NotFound, ServiceError
from .faults import FaultInjector, FaultRule, InjectedFault
from .handlers import ROUTED, ServiceContext
from .ingest import IngestManager, decode_observations
from .observability import ServiceMetrics
from .registry import DatasetRegistry, DatasetSpec
from .resilience import BreakerConfig
from .sharding import encode_error, recv_frame, send_frame

__all__ = ["WorkerConfig", "worker_main"]

_logger = logging.getLogger("repro.service")

_EXIT_INJECTED = 23
"""Exit status of a scripted ``worker_exit`` kill (distinguishable from a
real crash in the router's logs)."""


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs beyond its dataset specs (plain data only
    — this crosses the fork, so no live locks or registries)."""

    index: int
    request_timeout: float | None
    cache_size: int
    cache_ttl: float | None
    schema: object
    breaker_config: BreakerConfig
    exit_faults_consumed: int = 0
    alert_threshold: float | None = None
    namespace: str | None = None


def _rebuild_faults(fault_spec, consumed: int) -> FaultInjector | None:
    """A fresh injector for this process, with ``worker_exit`` budgets
    reduced by the kills previous incarnations already delivered."""
    if fault_spec is None:
        return None
    rules, seed = fault_spec
    adjusted: list[FaultRule] = []
    for rule in rules:
        if rule.site == "worker_exit" and rule.times is not None and consumed:
            rule = dataclasses.replace(rule, times=max(0, rule.times - consumed))
        adjusted.append(rule)
    return FaultInjector(rules=adjusted, seed=seed)


def _build_app(
    specs: tuple[DatasetSpec, ...],
    faults: FaultInjector | None,
    config: WorkerConfig,
) -> tuple[FBoxApp, ServiceContext]:
    registry = DatasetRegistry(
        schema=config.schema,
        breaker_config=config.breaker_config,
        faults=faults,
        namespace=config.namespace,
        # The front owns segment cleanup: a worker must never unlink the
        # published segments it would want to re-attach to after a restart.
        owns_segments=False,
    )
    for spec in specs:
        registry.register(spec)
    context = ServiceContext(
        registry=registry,
        cache=LRUCache(config.cache_size, default_ttl=config.cache_ttl),
        metrics=ServiceMetrics(),
        stale=LRUCache(max(config.cache_size, 1)),
        admission=None,
        faults=faults,
        ingest=IngestManager(alert_threshold=config.alert_threshold),
    )
    return FBoxApp(context, request_timeout=config.request_timeout), context


def _status_document(
    config: WorkerConfig, context: ServiceContext, faults: FaultInjector | None
) -> dict:
    """The worker-truth half of the service's observability surface: the
    router merges these into ``/datasets``, ``/readyz``, and ``/metrics``."""
    if faults is not None:
        faults.delay("status", exact=True)
    registry = context.registry
    datasets = []
    for entry in registry.describe():
        entry = dict(entry)
        entry.update(context.ingest.dataset_facts(entry["name"]))
        datasets.append(entry)
    return {
        "ok": True,
        "shard": config.index,
        "datasets": datasets,
        "health": registry.health_report(),
        "breakers": registry.breaker_states(),
        "counters": context.counters(),
        "faults": faults.snapshot() if faults is not None else [],
    }


def _exit_fault(faults: FaultInjector | None, target: str) -> None:
    """Fire a scripted mid-request crash for ``target`` if a rule matches."""
    if faults is not None:
        try:
            faults.fail("worker_exit", target)
        except InjectedFault:
            # Die without a reply so the router sees exactly what a real
            # worker death looks like.
            os._exit(_EXIT_INJECTED)


def _reply(handle, *args) -> dict:
    """A document op's reply frame: its document, or the error it raised."""
    try:
        document = handle(*args)
    except ServiceError as error:
        return {"ok": False, "error": encode_error(error)}
    return {"ok": True, "status": 200, "document": document}


def _handle_call(
    app: FBoxApp, faults: FaultInjector | None, message: dict
) -> dict:
    """One routed row's answer from the in-process query pipeline."""
    path = message.get("path")
    _exit_fault(faults, str(path))
    endpoint = ROUTED.get(path) if isinstance(path, str) else None
    if endpoint is None:
        raise NotFound(f"no such endpoint: POST {path}")
    try:
        return app.run_call(endpoint, message.get("payload"))[1]
    except ServiceError:
        raise
    except Exception as error:  # noqa: BLE001 - crosses a process boundary
        raise ServiceError(str(error)) from error


def _handle_export(
    context: ServiceContext, faults: FaultInjector | None, message: dict
) -> dict:
    """Snapshot one dataset's migratable state for the resize engine.

    The chaos target ``/admin/export:<dataset>`` lets a ``worker_exit``
    rule kill the *source* worker mid-migration deterministically.
    """
    name = message.get("dataset")
    _exit_fault(faults, f"/admin/export:{name}")
    registry = context.registry
    registry.spec(name)  # 404 before any work
    return {
        "dataset": name,
        "generation": registry.generation(name),
        "state": context.ingest.export_state(name),
    }


def _handle_import(
    context: ServiceContext, faults: FaultInjector | None, message: dict
) -> dict:
    """Adopt an exported snapshot as this worker's truth for the dataset.

    The journal is replayed through the same validating decoder the public
    ingest path uses; the chaos target ``/admin/import:<dataset>`` kills
    the *destination* worker mid-migration.
    """
    name = message.get("dataset")
    _exit_fault(faults, f"/admin/import:{name}")
    registry = context.registry
    spec = registry.spec(name)
    state = message.get("state") or {}
    journal = state.get("journal") or []
    observations = decode_observations(spec.site, journal) if journal else []
    registry.adopt_observations(
        name, observations, int(message.get("generation") or 0)
    )
    context.ingest.import_state(name, state)
    return {"dataset": name, "generation": registry.generation(name)}


def _handle_register(
    context: ServiceContext, faults: FaultInjector | None, message: dict
) -> dict:
    """Register a scenario-backed dataset spec broadcast by the front.

    The frame carries only plain JSON — dataset name, scenario name,
    canonical encoded overrides — and the spec is rebuilt locally through
    the same :func:`repro.scenarios.scenario_spec` funnel the front used,
    so both sides own byte-identical generation logic.  The chaos target
    ``/admin/register:<dataset>`` lets a ``worker_exit`` rule kill a worker
    mid-broadcast.
    """
    name = message.get("dataset")
    _exit_fault(faults, f"/admin/register:{name}")
    from ..scenarios import decode_overrides, scenario_spec

    if not isinstance(name, str) or not name:
        raise NotFound("register_dataset frame carries no dataset name")
    spec = scenario_spec(
        name,
        str(message.get("scenario") or ""),
        decode_overrides(tuple((message.get("overrides") or {}).items())),
        description=message.get("description") or None,
    )
    context.registry.register(spec)
    return {
        "dataset": name,
        "scenario": spec.scenario,
        "generation": context.registry.generation(name),
    }


def _serve_connection(
    sock: socket.socket,
    app: FBoxApp,
    context: ServiceContext,
    faults: FaultInjector | None,
    config: WorkerConfig,
) -> None:
    """Answer frames on one router connection until EOF (one request at a
    time per connection; the router pools connections for concurrency)."""
    try:
        while True:
            message = recv_frame(sock)
            if message is None:
                return
            op = message.get("op")
            if op == "ping":
                send_frame(sock, {"ok": True, "shard": config.index})
            elif op == "status":
                send_frame(sock, _status_document(config, context, faults))
            elif op == "call":
                send_frame(sock, _reply(_handle_call, app, faults, message))
            elif op == "export_dataset":
                send_frame(sock, _reply(_handle_export, context, faults, message))
            elif op == "import_dataset":
                send_frame(sock, _reply(_handle_import, context, faults, message))
            elif op == "register_dataset":
                send_frame(sock, _reply(_handle_register, context, faults, message))
            elif op == "shutdown":
                send_frame(sock, {"ok": True})
                os._exit(0)
            else:
                error = NotFound(f"unknown shard op {op!r}")
                send_frame(sock, {"ok": False, "error": encode_error(error)})
    except (OSError, ConnectionError, ValueError):
        pass  # the router dropped the connection; nothing to clean up
    finally:
        # One thread serves one connection, one frame at a time, so its
        # private event loop never has two callers; release it here.
        app._close_thread_loop()
        try:
            sock.close()
        except OSError:
            pass


def worker_main(listener: socket.socket, specs, fault_spec, config) -> None:
    """The forked child's entry point: build a private service, accept.

    ``listener`` is already bound and listening (created pre-fork so the
    router can connect before this loop starts); ``specs`` are the full
    spec tuple — the worker registers all of them so routing mistakes
    surface as wrong-shard answers in tests rather than spurious 404s, but
    only the datasets actually queried ever materialize.
    """
    faults = _rebuild_faults(fault_spec, config.exit_faults_consumed)
    app, context = _build_app(tuple(specs), faults, config)
    _logger.debug("shard %d worker up (pid=%d)", config.index, os.getpid())
    while True:
        try:
            sock, _ = listener.accept()
        except OSError:
            os._exit(0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        threading.Thread(
            target=_serve_connection,
            args=(sock, app, context, faults, config),
            daemon=True,
        ).start()
