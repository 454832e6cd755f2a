"""The application layer: a transport-agnostic ``Request -> Response`` surface.

:class:`FBoxApp` owns everything about answering a fairness query that is
*not* socket handling: the routing table, body-framing policy, request
validation, admission control, the per-request deadline, the result cache
and last-known-good store, degraded answers, and metrics.  Transports
(:mod:`repro.service.transports`) are thin adapters that parse HTTP off a
socket, build a :class:`Request`, and write the returned :class:`Response`
back — nothing in this module imports :mod:`http.server` or asyncio's
streams, so the application stays testable without sockets.

The app also owns the **execution layer**: a bounded
:class:`~concurrent.futures.ThreadPoolExecutor` sized by
``executor_workers``.  Every CPU-bound F-Box call (dataset loads,
cube/index builds, TA sweeps) runs on this pool via
:meth:`FBoxApp.handle_async`, so the event loop never blocks and thread
count is a capacity knob.  Callers without an event loop — shard worker
connection threads (:mod:`repro.service.shard_worker`) — drive the same
coroutine through :meth:`FBoxApp.run_post` on a private loop per thread,
so both sides of the shard hop share one POST pipeline and one deadline
mechanism.

Two flows through the POST pipeline:

* **fast path** — when no fault injector is attached, a request whose
  answer is already cached is parsed, peeked, and answered inline without
  touching admission control or the executor.  This is what keeps cheap
  repeated queries out of the queue behind expensive builds.
* **slow path** — parse, admission, deadline-bounded execution on the
  pool, and on timeout/open-breaker an opt-in degraded answer from the
  last-known-good store.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import logging
import threading
from dataclasses import dataclass, field
from time import perf_counter
from urllib.parse import parse_qsl

from ..core.colstore import SegmentMiss
from .cache import LRUCache
from .errors import (
    BadRequest,
    CircuitOpen,
    DatasetExists,
    Forbidden,
    Gone,
    NotFound,
    RequestTimeout,
    ServiceError,
    ShuttingDown,
    Unprocessable,
)
from .faults import FaultInjector, faults_from_env
from .fields import decode_fields, require_object
from .handlers import (
    API_PREFIX,
    DATASET_FIELDS,
    REQUEST_PARSERS,
    ServiceContext,
    handle_batch,
    handle_compare,
    handle_datasets,
    handle_explain,
    handle_front_read,
    handle_healthz,
    handle_quantify,
    handle_readyz,
    handle_scenarios,
    handle_schema,
    handle_whatif,
    resolve_degraded,
)
from .ingest import IngestManager, handle_observations, handle_trends, trends_document
from .observability import ServiceMetrics, merge_counters, render_metrics
from .registry import DatasetRegistry, default_registry
from .resilience import AdmissionController

__all__ = [
    "BodyPlan",
    "FBoxApp",
    "Request",
    "Response",
    "format_retry_after",
    "make_app",
]

_logger = logging.getLogger("repro.service")

def _admin_shards_unrouted(context, payload):
    # Registered so the transports read the request body and routing
    # resolves; the real work happens in FBoxApp's dispatch, which
    # intercepts the path before the handler table is consulted.
    raise Unprocessable(
        "live shard-pool resize requires --shards; this instance executes "
        "queries in-process"
    )


def _register_dataset_unrouted(context, payload):
    # Same placeholder pattern as /admin/shards: POST /datasets is always
    # intercepted by FBoxApp's dispatch ahead of admission control.
    raise Unprocessable("runtime dataset registration is handled by the front")


POST_ROUTES = {
    "/quantify": handle_quantify,
    "/compare": handle_compare,
    "/explain": handle_explain,
    "/whatif": handle_whatif,
    "/batch": handle_batch,
    # The live write path.  "/trends" is registered here too so the shard
    # workers' frame dispatch (which speaks POST) can answer routed trend
    # lookups; clients use the GET route.
    "/observations": handle_observations,
    "/trends": trends_document,
    # Operations surface: grow/shrink the worker pool while serving.
    "/admin/shards": _admin_shards_unrouted,
    # Scenario-first registration: a dataset spec born from a named
    # scenario, admin-gated and dispatched ahead of admission control.
    "/datasets": _register_dataset_unrouted,
}
GET_ROUTES = {
    "/datasets": handle_datasets,
    "/scenarios": handle_scenarios,
    "/healthz": handle_healthz,
    "/readyz": handle_readyz,
    "/schema": handle_schema,
    "/trends": handle_trends,
}

_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


# ----------------------------------------------------------------------
# The transport-facing value types
# ----------------------------------------------------------------------


@dataclass
class Request:
    """One parsed HTTP request, as the transport hands it to the app.

    ``framing_error`` carries a body-framing rejection (bad Content-Length,
    oversized body) decided by :meth:`FBoxApp.plan_body`; the app raises it
    *inside* the tracked section so framing 400s hit the same metrics as
    any other endpoint error.  ``close`` records that the transport already
    marked the connection for close (unparseable or undrainable framing).
    """

    method: str
    path: str
    body: bytes = b""
    framing_error: ServiceError | None = None
    close: bool = False
    headers: dict = field(default_factory=dict)
    """Request headers, lower-cased keys (admin endpoints read the token)."""


@dataclass
class Response:
    """What the transport must write back: status, body, framing hints."""

    status: int
    body: bytes
    content_type: str = "application/json"
    retry_after: float | None = None
    close: bool = False


@dataclass(frozen=True)
class BodyPlan:
    """The app's body-framing decision for one POST request.

    The transport executes it mechanically: read ``read`` bytes as the
    body, or — on a rejection — discard ``drain`` bytes (marking the
    connection for close if the drain fails), set ``close`` when the
    framing is beyond repair, and deliver ``error`` via
    ``Request.framing_error``.  Keeping the decision here keeps socket
    code free of request policy.
    """

    read: int = 0
    drain: int = 0
    close: bool = False
    error: ServiceError | None = None


def format_retry_after(retry_after: float) -> str:
    """``Retry-After`` wants integral seconds; round up so clients never retry early."""
    return str(max(1, int(-(-retry_after // 1))))


def _json_bytes(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True).encode("utf-8")


def _error_body(error: ServiceError) -> bytes:
    """The unified error envelope: machine ``code``, human ``message``, the
    retry contract (``retryable`` / ``retry_after``), and any structured
    context.  ``kind`` is kept as a deprecated alias of ``code`` so pre-/v1
    clients keep decoding."""
    payload: dict = {
        "code": error.code,
        "kind": error.kind,
        "message": str(error),
        "retryable": error.retryable,
    }
    if error.extra:
        payload.update(error.extra)
    if error.retry_after is not None:
        payload["retry_after"] = error.retry_after
    return _json_bytes({"error": payload})


def _internal_error_body(error: BaseException) -> bytes:
    return _json_bytes(
        {
            "error": {
                "code": "internal",
                "kind": "internal",
                "message": str(error),
                "retryable": False,
            }
        }
    )


# ----------------------------------------------------------------------
# Deadline errors
# ----------------------------------------------------------------------


def _deadline_error(timeout: float) -> RequestTimeout:
    return RequestTimeout(
        f"request exceeded the {timeout:g}s deadline; retry once the "
        "F-Box is warm"
    )


def _log_abandoned_failure(error: BaseException) -> None:
    _logger.error(
        "abandoned request worker failed after its deadline: %s",
        error,
        exc_info=error,
    )


# ----------------------------------------------------------------------
# The application
# ----------------------------------------------------------------------


class FBoxApp:
    """The transport-agnostic F-Box service: routing, policy, execution.

    One instance is shared by every connection; all state (context,
    executor, drain flag) is internally synchronized.  ``max_body_bytes`` /
    ``max_drain_bytes`` are instance attributes so tests can tighten
    framing limits per-app instead of monkeypatching module globals.
    """

    def __init__(
        self,
        context: ServiceContext,
        request_timeout: float | None = 30.0,
        executor_workers: int | None = None,
        admin_token: str | None = None,
    ) -> None:
        self.context = context
        self.request_timeout = request_timeout
        self.executor_workers = executor_workers
        self.admin_token = admin_token
        self._register_lock = threading.Lock()
        self.max_body_bytes = 1 << 20  # 1 MiB is plenty for query parameters
        self.max_drain_bytes = 8 << 20  # past this, closing beats draining
        self.post_routes = dict(POST_ROUTES)
        self.get_routes = dict(GET_ROUTES)
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self._draining = False
        self._thread_loops = threading.local()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_shutdown(self) -> None:
        """Stop admitting new requests; in-flight and queued ones complete.

        New arrivals get a 503 ``shutting_down`` with ``Connection:
        close``; the transport's ``drain()`` then waits for the in-flight
        gauge to reach zero before stopping the listener.
        """
        self._draining = True

    def close(self) -> None:
        """Release the execution pool and any shard pool (idempotent)."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)
        self._close_thread_loop()
        router = self.context.router
        if router is not None:
            router.close()
        # Sweep the shared-memory segments this process owns.  After the
        # router is closed no worker is left publishing, so nothing can
        # leak into /dev/shm.
        self.context.registry.close()

    def _ensure_executor(self) -> concurrent.futures.ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                workers = self.executor_workers
                if workers is None or workers <= 0:
                    admission = self.context.admission
                    workers = (
                        admission.max_concurrency
                        if admission is not None and admission.enabled
                        else 8
                    )
                self._executor = concurrent.futures.ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="fbox-exec"
                )
            return self._executor

    # ------------------------------------------------------------------
    # Body framing policy
    # ------------------------------------------------------------------

    def plan_body(self, length_header: str | None) -> BodyPlan:
        """Decide how the transport should handle one POST body.

        Keep-alive framing rules: any early 4xx MUST NOT leave unread body
        bytes on the socket — they would be parsed as the next pipelined
        request's start line.  Rejection plans therefore either drain the
        declared body first (bounded by ``max_drain_bytes``) or mark the
        connection for close so the client gets an unambiguous
        ``Connection: close`` response.
        """
        try:
            length = int(length_header or 0)
        except ValueError:
            # Unknown body length: we cannot resync, so drop the connection.
            return BodyPlan(
                close=True, error=BadRequest("invalid Content-Length header")
            )
        if length <= 0:
            # Nothing was sent, so nothing is left unread; keep-alive is
            # safe and the "body is required" 400 comes from parsing.
            return BodyPlan(read=0)
        if length > self.max_body_bytes:
            error = BadRequest(f"request body exceeds {self.max_body_bytes} bytes")
            if length > self.max_drain_bytes:
                return BodyPlan(close=True, error=error)
            return BodyPlan(drain=length, error=error)
        return BodyPlan(read=length)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def canonical_path(self, path: str) -> tuple[str, bool]:
        """Strip the ``/v1`` mount point: ``(unversioned path, is_legacy)``.

        Routing, handlers, and metrics labels all work on the canonical
        unversioned path; an unversioned request path only ever earns a
        410 pointer (or a 404 when it names no route).
        """
        if path == API_PREFIX:
            return "/", False
        if path.startswith(API_PREFIX + "/"):
            return path[len(API_PREFIX):], False
        return path, True

    def is_post_route(self, path: str) -> bool:
        """Whether a raw (possibly versioned) path maps to a POST endpoint
        — the transport's body-read gate."""
        return self.canonical_path(path)[0] in self.post_routes

    def handle_async(self, request: Request):
        """Answer one request; returns an awaitable.

        GET endpoints and the cached fast path run inline (they only touch
        synchronized in-memory state); POST query work is admitted via the
        controller's async path and executed on the bounded thread pool
        under an ``asyncio.wait`` deadline.
        """
        return self._handle_async(request)

    async def _handle_async(self, request: Request) -> Response:
        request.path, legacy = self.canonical_path(request.path)
        route = self._legacy_gone(request) if legacy else None
        if route is None:
            route = self._route(request)
        if not isinstance(route, Response):
            route = await self._tracked(*route)
        if request.close:
            route.close = True
        return route

    def _route(self, request: Request):
        """A ready :class:`Response`, or ``(endpoint, run)``.

        ``run`` is a zero-argument coroutine function returning
        ``(status, document)``; :meth:`_tracked` awaits it.
        """
        if self._draining:
            return self._shutdown_response()
        if request.method == "GET":
            # Split the query string: routing and metrics labels use the
            # bare path; the decoded parameters become the handler payload
            # (how ``GET /trends?dataset=…`` addresses one cube cell).
            path, _, query = request.path.partition("?")
            if path == "/metrics":
                return "/metrics", self._metrics_response
            handler = self.get_routes.get(path)
            if handler is None:
                return self._error_response(
                    NotFound(f"no such endpoint: GET {path}")
                )
            params = dict(parse_qsl(query, keep_blank_values=True)) if query else None

            # Health, readiness, and listings are never admission-controlled:
            # a saturated pool must still answer its probes.  Trends may
            # load a dataset or wait on a worker, so it leaves the loop for
            # the pool (no deadline: a routed call's worker owns it).
            async def run_get():
                if path == "/trends":
                    return await self._on_pool(lambda: handler(self.context, params))
                return handler(self.context, params)

            return path, run_get
        if request.method == "POST":
            if request.path not in self.post_routes:
                return self._error_response(
                    NotFound(f"no such endpoint: POST {request.path}")
                )
            return request.path, lambda: self._run_post(request)
        return self._error_response(
            NotFound(f"no such endpoint: {request.method} {request.path}")
        )

    def _legacy_gone(self, request: Request) -> Response | None:
        """410 for a retired unversioned path that names a known route.

        Only paths that *would* route get the pointer — an unknown legacy
        path stays an ordinary 404 (``None`` here, then :meth:`_route`), so
        probes don't learn retired-route names that never existed.
        """
        bare = request.path.partition("?")[0]
        known = (
            bare in self.post_routes
            or bare in self.get_routes
            or bare == "/metrics"
        )
        if not known:
            return None
        return self._error_response(
            Gone(
                f"unversioned path {bare!r} was retired; use "
                f"{API_PREFIX}{bare} (see GET {API_PREFIX}/schema)",
                extra={"v1_path": API_PREFIX + bare},
            )
        )

    def _shutdown_response(self) -> Response:
        response = self._error_response(
            ShuttingDown(
                "service is shutting down; retry against another instance"
            )
        )
        response.close = True
        return response

    def _error_response(self, error: ServiceError) -> Response:
        return Response(
            error.status,
            _error_body(error),
            retry_after=error.retry_after,
        )

    # ------------------------------------------------------------------
    # The tracked section
    # ------------------------------------------------------------------

    async def _tracked(self, endpoint: str, run) -> Response:
        """Run one request with metrics: in-flight, latency, status counts."""
        metrics = self.context.metrics
        metrics.request_started(endpoint)
        started = perf_counter()
        status = 500
        content_type = "application/json"
        retry_after: float | None = None
        try:
            status, document = await run()
            body = (
                document if isinstance(document, bytes) else _json_bytes(document)
            )
            if endpoint == "/metrics":
                content_type = _METRICS_CONTENT_TYPE
        except ServiceError as error:
            status = error.status
            retry_after = error.retry_after
            if isinstance(error, RequestTimeout):
                metrics.count(timeouts=1)
            body = _error_body(error)
        except Exception as error:  # pragma: no cover - defensive
            status = 500
            body = _internal_error_body(error)
        # Count the request before its bytes reach the socket: a client that
        # reads its response and immediately scrapes /metrics must find the
        # request already recorded.
        metrics.request_finished(endpoint, status, perf_counter() - started)
        return Response(status, body, content_type, retry_after=retry_after)

    # ------------------------------------------------------------------
    # The POST query pipeline
    # ------------------------------------------------------------------

    def _parse_payload(self, request: Request):
        """Raise the framing rejection (if any) and decode the JSON body."""
        if request.framing_error is not None:
            raise request.framing_error
        if not request.body:
            raise BadRequest("request body is required")
        try:
            return json.loads(request.body)
        except json.JSONDecodeError as error:
            raise BadRequest(f"request body is not valid JSON: {error}") from None

    def _fast_path(self, path: str, payload) -> dict | None:
        """A cached answer served without admission or execution, or None.

        Only taken when no fault injector is attached: chaos runs must push
        every request through the full pipeline so scripted latency and
        handler faults fire deterministically.  A parse failure falls
        through silently — the slow path re-raises it with seed-identical
        admission accounting.
        """
        context = self.context
        if context.faults is not None:
            return None
        parser = REQUEST_PARSERS.get(path)
        if parser is None:
            return None
        try:
            parsed = parser(context, payload)
        except ServiceError:
            return None
        hit = context.cache.peek(parsed.key)
        if hit is None:
            return None
        return {**hit, "cached": True}

    def _execute_fn(self, path: str, payload):
        """The CPU-bound part of one POST: faults, then the handler."""
        context = self.context
        handler = self.post_routes[path]

        def execute():
            if context.faults is not None:
                context.faults.fail("handler", path)
                context.faults.delay(path)
            return handler(context, payload)

        return execute

    def _execute_shard(self, path: str, payload) -> dict:
        """One POST on the sharded path: front-side read, else route.

        ``/quantify`` and ``/compare`` are answered on the front by
        *attaching* to the owning worker's published shared-memory segment
        — the worker roundtrip (and its queue) is skipped entirely.  Anything the segment cannot answer — other
        endpoints, nothing published yet, a racing re-publish, a payload
        error — signals :class:`SegmentMiss` and falls back to the worker,
        whose response is byte-identical.  Chaos runs (an attached fault
        injector) always route so worker-side handler faults keep firing.
        """
        if self.context.faults is None:
            try:
                return handle_front_read(self.context, path, payload)
            except SegmentMiss:
                pass
        return self._execute_routed(path, payload)

    def _execute_routed(self, path: str, payload) -> dict:
        """One POST answered by the shard pool instead of in-process.

        Handler/latency faults and the request deadline are the owning
        worker's job (firing them here too would double-count chaos and
        timeouts); the front only routes, then mirrors the fresh answer
        into its own last-known-good store so degraded ``allow_stale``
        answers survive the owning worker dying.
        """
        document = self.context.router.execute(path, payload, self.request_timeout)
        if path == "/observations" and isinstance(document, dict):
            # The owning worker bumped its private generation counter; sync
            # the front's so /datasets and cache keys reflect the live state.
            dataset = document.get("dataset")
            generation = document.get("generation")
            if isinstance(dataset, str) and isinstance(generation, int):
                self.context.registry.sync_generation(dataset, generation)
        if path == "/batch":
            self._warm_batch(payload, document)
        else:
            self._warm_stale(path, payload, document)
        return document

    def _warm_batch(self, payload, document) -> None:
        """Mirror a routed batch's answers item by item, exactly as the
        worker cached them, so a follow-up single request is a front-side
        hit like it would be in-process."""
        items = payload.get("requests") if isinstance(payload, dict) else payload
        if not isinstance(items, list) or not isinstance(document, dict):
            return
        for item, result in zip(items, document.get("results", ())):
            if isinstance(item, dict) and result.get("status") == 200:
                self._warm_stale(f"/{item['op']}", item, result["body"])

    def _warm_stale(self, path: str, payload, document) -> None:
        if not isinstance(document, dict) or document.get("degraded"):
            return
        parser = REQUEST_PARSERS.get(path)
        if parser is None:
            return
        try:
            parsed = parser(self.context, payload)
        except ServiceError:
            return
        stored = {key: value for key, value in document.items() if key != "cached"}
        self.context.stale.put(parsed.stale_key, (stored, parsed.generation))
        # Mirror into the result cache too: a repeat of this request is then
        # a front-side hit ("cached": true), which keeps responses
        # byte-identical whether the repeat would have been served by the
        # worker's cache or a segment read.
        self.context.cache.put(parsed.key, stored)

    def _require_admin(self, request: Request) -> None:
        """Enforce ``--admin-token`` on admin endpoints (no-op when unarmed).

        The token travels as ``X-Admin-Token`` or ``Authorization: Bearer``;
        a mismatch is a non-retryable 403.  An unarmed instance (no token
        configured) leaves the admin surface open — the documented local-
        development default.
        """
        token = self.admin_token
        if not token:
            return
        headers = request.headers or {}
        supplied = headers.get("x-admin-token")
        if supplied is None:
            authorization = headers.get("authorization", "")
            if authorization.lower().startswith("bearer "):
                supplied = authorization[7:].strip()
        if supplied != token:
            raise Forbidden(
                "admin endpoints require a valid X-Admin-Token (or "
                "Authorization: Bearer) header"
            )

    def _admin_shards(self, request: Request, payload) -> dict:
        """``POST /admin/shards`` — live-resize the worker pool.

        Front-only: dispatched before admission control (an overloaded pool
        is exactly when an operator grows it) and before the router, so it
        never competes with the query traffic it is reshaping.
        """
        self._require_admin(request)
        router = self.context.router
        if router is None:
            raise Unprocessable(
                "live shard-pool resize requires --shards; this instance "
                "executes queries in-process"
            )
        return router.resize(require_object(payload).get("count"))

    def _register_dataset(self, request: Request, payload) -> dict:
        """``POST /datasets`` — register a scenario-backed dataset at runtime.

        Admin-gated like the resize surface, and dispatched ahead of
        admission control for the same reason: registration is operator
        traffic, not query traffic.  The dataset stays lazy — the first
        query against it triggers the build on whichever side owns it.
        Name collisions are a hard 409 (:class:`DatasetExists`); generation
        semantics match re-registering a spec (the tag starts at 1 and
        every later ingest bumps it).
        """
        self._require_admin(request)
        values = decode_fields(DATASET_FIELDS, payload)
        name, scenario = values["name"], values["scenario"]
        overrides = values["overrides"] or {}
        # Lazy import: repro.scenarios imports service modules for its
        # error types, so the dependency must point this way at call time.
        from ..scenarios import scenario_spec

        registry = self.context.registry
        with self._register_lock:
            if name in registry.names():
                raise DatasetExists(
                    f"dataset {name!r} is already registered; runtime "
                    "registration never replaces a live dataset"
                )
            spec = scenario_spec(
                name, scenario, overrides, description=values["description"]
            )
            registry.register(spec)
        router = self.context.router
        if router is not None:
            # Broadcast after the front registers: a worker that is down
            # right now inherits the spec anyway when its respawn re-reads
            # the front registry.
            router.register_dataset(spec)
        return {
            "dataset": name,
            "scenario": scenario,
            "overrides": overrides,
            "site": spec.site,
            "generation": registry.generation(name),
            "shard": router.shard_of(name) if router is not None else 0,
        }

    def run_post(self, request: Request) -> tuple[int, dict]:
        """Drive one POST through :meth:`_run_post` on the calling thread.

        For callers that own no event loop (a shard worker's connection
        threads): each thread runs the coroutine on a private loop created
        on first use; :meth:`_close_thread_loop` releases it.
        """
        loop = getattr(self._thread_loops, "loop", None)
        if loop is None:
            loop = self._thread_loops.loop = asyncio.new_event_loop()
        return loop.run_until_complete(self._run_post(request))

    def _close_thread_loop(self) -> None:
        loop = getattr(self._thread_loops, "loop", None)
        if loop is not None:
            self._thread_loops.loop = None
            loop.close()

    async def _run_post(self, request: Request) -> tuple[int, dict]:
        """The POST pipeline body; raises :class:`ServiceError` on rejection.

        The sharded front and every shard worker run this same coroutine:
        the front routes (the worker owns the deadline, so the roundtrip
        has none here), the worker executes in-process under the deadline.
        """
        context = self.context
        path = request.path
        payload = self._parse_payload(request)
        if path == "/admin/shards":
            # A resize blocks on worker sockets for seconds; keep the loop
            # free by running it on the pool like any routed call.
            return 200, await self._on_pool(
                lambda: self._admin_shards(request, payload)
            )
        if path == "/datasets":
            # Registration broadcasts over worker sockets; same pool hop.
            return 200, await self._on_pool(
                lambda: self._register_dataset(request, payload)
            )
        fast = self._fast_path(path, payload)
        if fast is not None:
            return 200, fast
        if context.router is not None:
            # Routed calls block on a worker socket, not the CPU: run them
            # on the pool to keep the loop free, but with no deadline —
            # the worker owns the deadline, and a second one here would
            # count every slow request twice.
            execute_async = lambda: self._on_pool(  # noqa: E731
                lambda: self._execute_shard(path, payload)
            )
        else:
            execute = self._execute_fn(path, payload)
            execute_async = lambda: self._execute_async(execute)  # noqa: E731
        try:
            if context.admission is None:
                return 200, await execute_async()
            await context.admission.acquire_async()
            try:
                return 200, await execute_async()
            finally:
                context.admission.release()
        except (RequestTimeout, CircuitOpen) as error:
            # Graceful degradation: requests that opted in with
            # ``allow_stale`` get the last-known-good answer, loudly
            # marked, instead of the error.
            degraded = resolve_degraded(context, path, payload, reason=error.kind)
            if degraded is None:
                raise
            return 200, degraded

    def _on_pool(self, fn) -> asyncio.Future:
        """``fn`` on the bounded pool, as an awaitable with no deadline."""
        return asyncio.wrap_future(self._ensure_executor().submit(fn))

    async def _execute_async(self, execute):
        """Run ``execute`` on the bounded pool under the request deadline.

        On timeout the pool task is *abandoned*, not killed: it keeps
        running (a late success still warms caches), the abandoned counter
        is bumped, and a late failure is logged once via a done-callback
        (which fires immediately if the failure already happened, so a
        failure racing the deadline is never dropped).
        """
        timeout = self.request_timeout
        future = self._ensure_executor().submit(execute)
        wrapped = asyncio.wrap_future(future)
        if not timeout or timeout <= 0:
            return await wrapped
        # asyncio.wait never cancels what it waits on, so no shield is needed.
        done, _ = await asyncio.wait((wrapped,), timeout=timeout)
        if not done:
            self._abandon(future, wrapped)
            raise _deadline_error(timeout)
        return wrapped.result()

    def _abandon(
        self,
        future: concurrent.futures.Future,
        wrapped: asyncio.Future,
    ) -> None:
        metrics = self.context.metrics
        if metrics is not None:
            metrics.count(abandoned_requests=1)
        # Retrieve the asyncio mirror's eventual exception so the loop never
        # warns about it; the authoritative log comes from the pool future.
        wrapped.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )

        def _report(done: concurrent.futures.Future) -> None:
            if done.cancelled():
                return
            error = done.exception()
            if error is not None:
                _log_abandoned_failure(error)

        future.add_done_callback(_report)

    # ------------------------------------------------------------------
    # /metrics
    # ------------------------------------------------------------------

    async def _metrics_response(self) -> tuple[int, bytes]:
        context = self.context
        counters = context.counters()
        breaker_states = context.registry.breaker_states()
        fault_stats = (
            context.faults.snapshot() if context.faults is not None else None
        )
        if context.router is not None:
            # Under sharding the workers hold the truth for the summed
            # counters, dataset breakers and fired faults; fold their
            # status frames in so one scrape covers the whole service.
            # Polling them blocks on worker sockets, so it runs on the pool.
            workers = await self._on_pool(context.router.merged_observability)
            counters = merge_counters(counters, workers["counters"])
            breaker_states = workers["breakers"]
            if fault_stats is not None or workers["faults"]:
                fault_stats = list(fault_stats or ()) + workers["faults"]
        admission = context.admission
        text = render_metrics(
            context.metrics.snapshot(),
            counters,
            admission_stats=admission.snapshot() if admission is not None else None,
            breaker_states=breaker_states,
            fault_stats=fault_stats,
        )
        return 200, text.encode("utf-8")


def make_app(
    registry: DatasetRegistry | None = None,
    cache_size: int = 256,
    cache_ttl: float | None = None,
    request_timeout: float | None = 30.0,
    max_concurrency: int = 8,
    queue_depth: int = 16,
    faults: FaultInjector | None = None,
    executor_workers: int | None = None,
    shards: int = 0,
    alert_threshold: float | None = None,
    admin_token: str | None = None,
) -> FBoxApp:
    """Build a ready-to-serve application (no sockets involved).

    ``max_concurrency``/``queue_depth`` size the admission controller (0
    concurrency disables shedding).  ``faults`` defaults to whatever the
    ``FBOX_FAULTS`` environment variable configures (usually nothing); when
    an injector is attached it is also shared with the registry so
    ``dataset_load`` rules reach the loaders.  ``executor_workers`` sizes
    the bounded execution pool (default: the admission concurrency cap).
    ``shards > 0`` puts a :class:`~repro.service.sharding.ShardRouter` in
    front of that many worker processes — each owns the cubes for a
    deterministic subset of datasets, and the front answers
    ``/quantify``/``/compare`` by attaching to the owning worker's
    shared-memory segment — while ``0`` keeps the in-process execution
    path; responses are byte-identical either way.  ``alert_threshold``
    arms fairness-trend alerting: any cell recomputed by an ingest whose
    value reaches the threshold increments ``fbox_fairness_alerts_total``.
    ``admin_token`` arms authentication for ``POST /v1/admin/shards`` (the
    live pool resize); unset, the admin surface is open — fine for local
    development, not for anything shared.
    """
    if registry is None:
        if faults is None:
            faults = faults_from_env()
        registry = default_registry(faults=faults)
    else:
        # One injector end-to-end: reuse the registry's if it has one, else
        # share ours (or the env's) with it so dataset_load rules land.
        if faults is None:
            faults = (
                registry.faults if registry.faults is not None else faults_from_env()
            )
        if registry.faults is None:
            registry.faults = faults
    router = None
    if shards > 0:
        from .sharding import ShardRouter

        # Materialize the segment namespace *before* the workers fork so
        # they all publish into the front's space (attachable reads).
        registry.segments
        router = ShardRouter(
            registry,
            shards=shards,
            request_timeout=request_timeout,
            cache_size=cache_size,
            cache_ttl=cache_ttl,
            faults=faults,
            alert_threshold=alert_threshold,
            namespace=registry.namespace,
        )
    admission = None
    if max_concurrency > 0:
        admission = AdmissionController(
            max_concurrency=max_concurrency,
            max_queue=queue_depth,
            queue_timeout=request_timeout,
        )
    context = ServiceContext(
        registry=registry,
        cache=LRUCache(cache_size, default_ttl=cache_ttl),
        metrics=ServiceMetrics(),
        stale=LRUCache(max(cache_size, 1)),
        admission=admission,
        faults=faults,
        ingest=IngestManager(alert_threshold=alert_threshold),
        router=router,
    )
    if router is not None:
        router.metrics = context.metrics
    return FBoxApp(
        context,
        request_timeout=request_timeout,
        executor_workers=executor_workers,
        admin_token=admin_token,
    )
