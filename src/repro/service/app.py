"""The application layer: a transport-agnostic ``Request -> Response`` surface.

:class:`FBoxApp` owns everything about answering a fairness query that is
*not* socket handling: routing, body-framing policy, request validation,
admission control, the per-request deadline, the result cache and
last-known-good store, degraded answers, and metrics.  Every endpoint is
one row of :data:`~repro.service.handlers.ENDPOINTS`; routing, the
legacy-path 410s and the row's placement (how and where its handler runs)
all read that table.  Transports
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
coroutines through :meth:`FBoxApp.run_call` and :meth:`FBoxApp.run_post`
on a private loop per thread, so both sides of the shard hop share one
query pipeline and one deadline mechanism.

Two flows through the query pipeline:

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

from ..core.colstore import SegmentMiss
from .cache import LRUCache
from .errors import (
    BadRequest,
    CircuitOpen,
    Forbidden,
    Gone,
    NotFound,
    RequestTimeout,
    ServiceError,
    ShuttingDown,
)
from .faults import FaultInjector, faults_from_env
from .fields import decode_query
from .handlers import (
    API_PREFIX,
    ENDPOINTS,
    ROUTES,
    Endpoint,
    ServiceContext,
    handle_front_read,
    parse_request,
    resolve_degraded,
)
from .ingest import IngestManager
from .observability import ServiceMetrics
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

POST_ROUTES = {
    endpoint.path: endpoint.handler
    for endpoint in ENDPOINTS
    if endpoint.method == "POST"
}
"""Path → handler of every POST row; each app calls its own copy."""

_PATHS = frozenset(endpoint.path for endpoint in ENDPOINTS)
_PROMETHEUS_TEXT = "text/plain; version=0.0.4; charset=utf-8"


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
        self.max_body_bytes = 1 << 20  # 1 MiB is plenty for query parameters
        self.max_drain_bytes = 8 << 20  # past this, closing beats draining
        self.post_routes = dict(POST_ROUTES)
        self._placements = {
            "probe": self._inline,
            "worker": self._worker_truth,
            "pool": self._pooled,
            "admin": self._admin,
            "query": self._query,
        }
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

    def handle_async(self, request: Request):
        """Answer one request; returns an awaitable.

        The request's row says where it runs (see
        :class:`~repro.service.handlers.Endpoint`): probes and the cached
        fast path inline (they only touch synchronized in-memory state),
        query work admitted via the controller's async path and executed on
        the bounded thread pool under an ``asyncio.wait`` deadline.
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
        # A GET carries its parameters in the query string; a POST carries
        # its request in the body, so a query string there names no route.
        path = request.path
        if request.method == "GET":
            path = path.partition("?")[0]
        endpoint = ROUTES.get((request.method, path))
        if endpoint is None:
            return self._error_response(
                NotFound(f"no such endpoint: {request.method} {path}")
            )
        place = self._placements[endpoint.placement]
        return endpoint, lambda: place(
            endpoint, request, self._payload(endpoint, request)
        )

    def _legacy_gone(self, request: Request) -> Response | None:
        """410 for a retired unversioned path that names a known route.

        Only paths that *would* route get the pointer — an unknown legacy
        path stays an ordinary 404 (``None`` here, then :meth:`_route`), so
        probes don't learn retired-route names that never existed.
        """
        bare = request.path.partition("?")[0]
        if bare not in _PATHS:
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

    async def _tracked(self, endpoint: Endpoint, run) -> Response:
        """Run one request with metrics: in-flight, latency, status counts."""
        metrics = self.context.metrics
        metrics.request_started(endpoint.path)
        started = perf_counter()
        content_type = "application/json"
        retry_after: float | None = None
        try:
            status, document = await run()
            if isinstance(document, bytes):  # only /metrics: Prometheus text
                body, content_type = document, _PROMETHEUS_TEXT
            else:
                body = _json_bytes(document)
        except Exception as error:
            if not isinstance(error, ServiceError):
                # Any other crash (an injected handler fault, a bug) is the
                # generic 500 envelope with the message intact.
                error = ServiceError(str(error))
            status = error.status
            retry_after = error.retry_after
            if isinstance(error, RequestTimeout):
                metrics.count(timeouts=1)
            body = _error_body(error)
        # Count the request before its bytes reach the socket: a client that
        # reads its response and immediately scrapes /metrics must find the
        # request already recorded.
        metrics.request_finished(endpoint.path, status, perf_counter() - started)
        return Response(status, body, content_type, retry_after=retry_after)

    # ------------------------------------------------------------------
    # Placements: how a row's handler runs
    # ------------------------------------------------------------------

    def _payload(self, endpoint: Endpoint, request: Request):
        """A GET's query parameters decoded against its row's field table;
        for a POST, the framing rejection (if any) or the decoded JSON body."""
        if request.method == "GET":
            return decode_query(endpoint.fields, request.path.partition("?")[2])
        if request.framing_error is not None:
            raise request.framing_error
        if not request.body:
            raise BadRequest("request body is required")
        try:
            return json.loads(request.body)
        except json.JSONDecodeError as error:
            raise BadRequest(f"request body is not valid JSON: {error}") from None

    async def _inline(self, endpoint: Endpoint, request: Request, payload):
        return endpoint.handler(self.context, payload)

    async def _worker_truth(self, endpoint: Endpoint, request: Request, payload):
        # Polling the workers blocks on their sockets: leave the loop for the
        # default executor, not the query pool that routed queries may fill.
        if self.context.router is None:
            return endpoint.handler(self.context, payload)
        return await asyncio.get_running_loop().run_in_executor(
            None, endpoint.handler, self.context, payload
        )

    async def _pooled(self, endpoint: Endpoint, request: Request, payload):
        # No deadline: a routed call's worker owns it.
        return 200, await self._on_pool(
            lambda: endpoint.handler(self.context, payload)
        )

    async def _admin(self, endpoint: Endpoint, request: Request, payload):
        # A resize or a registration broadcast blocks on worker sockets.
        self._require_admin(request)
        handler = self.post_routes[endpoint.path]
        return 200, await self._on_pool(lambda: handler(self.context, payload))

    async def _query(self, endpoint: Endpoint, request: Request | None, payload):
        """The query pipeline; raises :class:`ServiceError` on rejection.

        The sharded front and every shard worker run this same coroutine:
        the front routes (the worker owns the deadline, so the roundtrip
        has none here), the worker executes in-process under the deadline.
        """
        context = self.context
        path = endpoint.path
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
            execute = self._execute_fn(endpoint, payload)
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

    def run_post(self, request: Request) -> tuple[int, dict]:
        """One POST through its row's placement, on the calling thread."""
        endpoint = ROUTES.get(("POST", request.path))
        if endpoint is None:
            raise NotFound(f"no such endpoint: POST {request.path}")
        payload = self._payload(endpoint, request)
        return self._on_thread(
            self._placements[endpoint.placement](endpoint, request, payload)
        )

    def run_call(self, endpoint: Endpoint, payload) -> tuple[int, dict]:
        """A shard worker's call frame: any routed row, ``GET /trends``
        included, through the in-process query pipeline."""
        return self._on_thread(self._query(endpoint, None, payload))

    def _on_thread(self, coroutine):
        """Run ``coroutine`` on the calling thread's private event loop,
        created on first use (:meth:`_close_thread_loop` releases it)."""
        loop = getattr(self._thread_loops, "loop", None)
        if loop is None:
            loop = self._thread_loops.loop = asyncio.new_event_loop()
        return loop.run_until_complete(coroutine)

    def _close_thread_loop(self) -> None:
        loop = getattr(self._thread_loops, "loop", None)
        if loop is not None:
            self._thread_loops.loop = None
            loop.close()

    # ------------------------------------------------------------------
    # The query pipeline's parts
    # ------------------------------------------------------------------

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
        parsed = parse_request(context, path, payload)
        hit = context.cache.peek(parsed.key) if parsed is not None else None
        if hit is None:
            return None
        return {**hit, "cached": True}

    def _execute_fn(self, endpoint: Endpoint, payload):
        """The CPU-bound part of one query: faults, then the handler."""
        context = self.context
        path = endpoint.path
        # POST handlers go through this app's copy of POST_ROUTES.
        handler = (
            self.post_routes[path] if endpoint.method == "POST" else endpoint.handler
        )

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
        — the worker roundtrip (and its queue) is skipped entirely.
        Anything the segment cannot answer — other endpoints, nothing
        published yet, a racing re-publish, a payload error — signals
        :class:`SegmentMiss` and falls back to the worker,
        whose response is byte-identical.  Chaos runs (an attached fault
        injector) always route so worker-side handler faults keep firing.

        Handler/latency faults and the request deadline are the owning
        worker's job (firing them here too would double-count chaos and
        timeouts); the front only routes, then mirrors the fresh answer
        into its own last-known-good store so degraded ``allow_stale``
        answers survive the owning worker dying.
        """
        if self.context.faults is None:
            try:
                return handle_front_read(self.context, path, payload)
            except SegmentMiss:
                pass
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
        parsed = parse_request(self.context, path, payload)
        if parsed is None:
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
