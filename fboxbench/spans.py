"""In-memory spans around the F-Box service's layer entry points.

:func:`install` wraps public entry points of every layer — the app, the
route handlers and request parsers, the result cache, the columnar core,
interventions, ingest, segment publishing, the shard hop, and scenario
builds — in spans.  It runs in the server process before the server is
built, so forked shard workers inherit the wrappers.  Spans stay in memory
and each process writes its own ``spans-<pid>.jsonl`` into the trace
directory when it exits (the shard workers leave through ``os._exit``,
which is wrapped for that reason).

A span is ``[id, parent, root, name, start_ns, end_ns, tag]`` on the
system-wide monotonic clock, so spans from different processes and the
client's own timestamps share one time axis.  The parent is the span open
in the caller's context; the app's executor is wrapped so that context
crosses the hop from the event loop to the worker thread.

:func:`load` and :func:`self_ns` are the reading side used by ``run.py``.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path

_current: contextvars.ContextVar = contextvars.ContextVar("fboxbench_span", default=None)
_ids = itertools.count(1)
_spans: list = []
_counters: dict[str, int] = {}
_lock = threading.Lock()
_trace_dir: Path | None = None


def _record(name: str, fn, tag_of=None, awaitable: bool = False):
    """``fn`` wrapped in a span named ``name`` (``tag_of(args)`` labels it).

    With ``awaitable`` the wrapper is a coroutine timing ``fn``'s awaitable
    until it resolves.
    """

    def open_span(args):
        parent = _current.get()
        span_id = (os.getpid() << 32) | next(_ids)
        root = parent[1] if parent is not None else span_id
        tag = tag_of(args) if tag_of is not None else None
        token = _current.set((span_id, root))
        return span_id, parent, root, tag, token

    def close_span(opened, start):
        span_id, parent, root, tag, token = opened
        end = time.monotonic_ns()
        _current.reset(token)
        _spans.append(
            [span_id, parent[0] if parent else None, root, name, start, end, tag]
        )

    if awaitable:

        @functools.wraps(fn)
        async def wrapped_async(*args, **kwargs):
            opened = open_span(args)
            start = time.monotonic_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                close_span(opened, start)

        return wrapped_async

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        opened = open_span(args)
        start = time.monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(opened, start)

    return wrapped


def _forget() -> None:
    # A forked worker must not write out the spans its parent recorded.
    _spans.clear()
    _counters.clear()


def count(name: str, amount: int = 1) -> None:
    with _lock:
        _counters[name] = _counters.get(name, 0) + amount


class _ContextExecutor:
    """Submits each call inside a copy of the submitter's context."""

    def __init__(self, executor) -> None:
        self._executor = executor

    def submit(self, fn, *args, **kwargs):
        context = contextvars.copy_context()
        return self._executor.submit(context.run, fn, *args, **kwargs)


def flush() -> None:
    """Write this process's spans and counters (idempotent per process)."""
    if _trace_dir is None:
        return
    path = _trace_dir / f"spans-{os.getpid()}.jsonl"
    with _lock:
        spans, _spans[:] = list(_spans), []
        counters = dict(_counters)
        _counters.clear()
    with path.open("a") as handle:
        handle.write(json.dumps({"counters": counters}) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def install(trace_dir: str) -> None:
    """Wrap every layer entry point; call before the server is built."""
    global _trace_dir
    _trace_dir = Path(trace_dir)
    os.register_at_fork(after_in_child=_forget)
    from repro.core.colstore import AttachedFBox, ColumnarFBox, SegmentSpace
    from repro.core.cube import UnfairnessCube
    from repro.core import fbox as fbox_module
    from repro.scenarios import build as build_module
    from repro.service import app as app_module
    from repro.service import handlers, shard_worker
    from repro.service.cache import LRUCache
    from repro.service.registry import DatasetRegistry
    from repro.service.resilience import AdmissionController
    from repro.service.sharding import ShardRouter

    def request_id(args):
        headers = args[1].headers or {}
        return headers.get("x-request-id")

    app_module.FBoxApp.handle_async = _record(
        "app", app_module.FBoxApp.handle_async, request_id, awaitable=True
    )
    ensure_executor = app_module.FBoxApp._ensure_executor
    app_module.FBoxApp._ensure_executor = lambda self: _ContextExecutor(
        ensure_executor(self)
    )
    # FBoxApp copies POST_ROUTES per instance; REQUEST_PARSERS is the dict
    # the fast path, the front read, and the degraded path all consult.
    for path, handler in list(app_module.POST_ROUTES.items()):
        app_module.POST_ROUTES[path] = _record(f"handler{path}", handler)
    for path, parser in list(handlers.REQUEST_PARSERS.items()):
        handlers.REQUEST_PARSERS[path] = _record(f"parse{path}", parser)
    for method in ("get", "peek", "put"):
        setattr(LRUCache, method, _record(f"cache.{method}", getattr(LRUCache, method)))
    for cls in (ColumnarFBox, AttachedFBox):
        for method in ("quantify", "quantify_many", "compare"):
            setattr(cls, method, _record(f"core.{method}", getattr(cls, method)))
    fbox_module.apply_intervention = _record(
        "interventions", fbox_module.apply_intervention, lambda args: args[0]
    )
    DatasetRegistry.apply_observations = _record(
        "ingest.apply", DatasetRegistry.apply_observations
    )
    SegmentSpace.publish = _record("colstore.publish", SegmentSpace.publish)
    attach = AttachedFBox.attach.__func__
    AttachedFBox.attach = classmethod(_record("colstore.attach", attach))
    ShardRouter.execute = _record(
        "shard.execute", ShardRouter.execute, lambda args: args[1]
    )
    shard_worker._handle_call = _record(
        "shard.worker", shard_worker._handle_call, lambda args: args[2].get("path")
    )
    build_module.build_scenario = _record(
        "setup.build_scenario", build_module.build_scenario
    )
    compute = UnfairnessCube.compute.__func__
    UnfairnessCube.compute = classmethod(_record("setup.cube_build", compute))
    for_marketplace = ColumnarFBox.for_marketplace.__func__
    ColumnarFBox.for_marketplace = classmethod(
        _record("setup.fbox_construct", for_marketplace)
    )

    acquire = AdmissionController.acquire_async

    def acquire_async(self):
        snapshot = self.snapshot()
        if snapshot["active"] >= snapshot["max_concurrency"]:
            count("admission_queued")
        return acquire(self)

    AdmissionController.acquire_async = acquire_async

    real_exit = os._exit

    def exit_after_flush(code):
        flush()
        real_exit(code)

    os._exit = exit_after_flush


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------


def load(trace_dir) -> tuple[list, dict]:
    """Every span and the summed counters written under ``trace_dir``."""
    spans: list = []
    counters: dict[str, int] = {}
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            item = json.loads(line)
            if isinstance(item, dict):
                for name, value in item["counters"].items():
                    counters[name] = counters.get(name, 0) + value
            else:
                spans.append(item)
    return spans, counters


def self_ns(spans: list) -> dict[int, int]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[4], span[5]))
    result = {}
    for span in spans:
        start, end = span[4], span[5]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span[0], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span[0]] = (end - start) - covered
    return result
