"""A small Python client for the F-Box query service.

:class:`FBoxClient` wraps the HTTP JSON API with the retry discipline the
resilience layer expects from well-behaved callers:

* **capped exponential backoff with jitter** — attempt ``n`` waits
  ``min(base_delay * 2**n, max_delay)`` plus a jittered fraction, so a
  thundering herd of clients spreads out instead of re-stampeding;
* **Retry-After is honored** — when a 429 (shed) or 503 (breaker open /
  deadline) carries ``Retry-After``, the client never retries earlier than
  the server asked, whatever the backoff schedule says;
* **only retryable failures retry** — 429/503 and connection errors (the
  service may still be booting); 4xx validation errors surface immediately;
* **one keep-alive connection** — requests reuse a single HTTP/1.1
  connection instead of paying a TCP handshake per call.  A send that dies
  on a stale reused connection (the server idled it out between requests)
  is replayed once on a fresh connection without consuming a retry
  attempt; real connection failures still go through the backoff policy.
  Requests marked *idempotent* (ingest always is — its ``batch_id`` turns
  a re-application into a ledger replay) get the same one-shot replay
  after a reset on a fresh connection too.

The jitter RNG is seedable and the sleeper injectable, so tests and
benchmarks get deterministic retry schedules::

    client = FBoxClient(base_url, retry=RetryPolicy(seed=7))
    answer = client.quantify("taskrabbit", "group", k=5)
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
import uuid
from dataclasses import dataclass
from random import Random

from .exceptions import ReproError

__all__ = ["RetryPolicy", "ClientError", "FBoxClient"]

_RETRYABLE_STATUSES = (429, 503)

# A reused keep-alive connection that the server has quietly closed fails
# with one of these the moment we touch it; that is the one failure worth
# replaying immediately on a fresh connection.  (RemoteDisconnected is a
# subclass of both BadStatusLine and ConnectionResetError.)
_STALE_CONNECTION_ERRORS = (
    http.client.BadStatusLine,
    ConnectionResetError,
    BrokenPipeError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff tunables for :class:`FBoxClient`.

    ``max_attempts`` counts the first try; ``jitter`` is the fraction of the
    computed delay added at random (0.1 = up to +10%); ``seed`` fixes the
    jitter sequence for reproducible tests.
    """

    max_attempts: int = 5
    base_delay: float = 0.1
    max_delay: float = 5.0
    jitter: float = 0.1
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")


class ClientError(ReproError):
    """The request failed for good: retries exhausted or a non-retryable 4xx.

    ``status`` is the last HTTP status (0 for connection failures) and
    ``body`` the decoded JSON error body when one was readable.
    """

    def __init__(self, message: str, status: int = 0, body: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.body = body


class FBoxClient:
    """Thin, retrying HTTP client for one F-Box service instance.

    Endpoint sugar (``quantify``, ``datasets``, ...) speaks the versioned
    ``/v1`` API exclusively — there is no legacy fallback.  The raw
    :meth:`request`/:meth:`post`/:meth:`get` methods use whatever path the
    caller passes; note that servers answer unversioned paths with a
    non-retryable ``410 gone``.
    """

    api_prefix = "/v1"

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        sleeper=time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(f"base_url must be http://host[:port], got {base_url!r}")
        self._host = parsed.hostname
        self._port = parsed.port if parsed.port is not None else 80
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleeper = sleeper
        self._rng = Random(self.retry.seed)
        self._connection: http.client.HTTPConnection | None = None
        self._connection_lock = threading.Lock()
        self.attempts = 0
        self.retries = 0
        self.connections_opened = 0
        self.sleeps: list[float] = []

    def close(self) -> None:
        """Drop the keep-alive connection (the next request reopens one)."""
        with self._connection_lock:
            self._drop_connection()

    def __enter__(self) -> FBoxClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport with backoff
    # ------------------------------------------------------------------

    def _backoff_delay(self, attempt: int, retry_after: float | None) -> float:
        """Delay before retry ``attempt`` (0-based), honoring Retry-After."""
        delay = min(self.retry.base_delay * (2**attempt), self.retry.max_delay)
        if self.retry.jitter:
            delay += delay * self.retry.jitter * self._rng.random()
        if retry_after is not None:
            # The server's floor wins: never retry earlier than asked.
            delay = max(delay, retry_after)
        return delay

    def _ensure_connection(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self.connections_opened += 1
        return self._connection

    def _drop_connection(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except OSError:  # pragma: no cover - close never matters
                pass
            self._connection = None

    def _send(
        self,
        method: str,
        path: str,
        data: bytes | None,
        headers: dict,
        idempotent: bool = False,
    ) -> tuple[int, str | None, bytes]:
        """One HTTP exchange on the shared keep-alive connection.

        A send that dies because the *reused* connection went stale is
        replayed once on a fresh connection, invisibly to the retry policy;
        failures on a fresh connection propagate to it.  ``idempotent``
        extends the same one-shot replay to resets on a *fresh* connection
        (e.g. the server's worker restarted mid-body): a caller that marked
        the request idempotent — ingest always does, its ``batch_id`` makes
        re-application a ledger replay — would rather resend the identical
        bytes than surface a connection error it cannot act on.
        """
        reused = self._connection is not None
        try:
            return self._exchange(method, path, data, headers)
        except _STALE_CONNECTION_ERRORS:
            if not (reused or idempotent):
                raise
        return self._exchange(method, path, data, headers)

    def _exchange(
        self, method: str, path: str, data: bytes | None, headers: dict
    ) -> tuple[int, str | None, bytes]:
        connection = self._ensure_connection()
        try:
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            status = response.status
            retry_after = response.getheader("Retry-After")
            body = response.read()
        except BaseException:
            # Whatever happened, the connection's framing state is suspect.
            self._drop_connection()
            raise
        if response.will_close:
            self._drop_connection()
        return status, retry_after, body

    def request(
        self,
        method: str,
        path: str,
        payload=None,
        retries: bool = True,
        headers: dict | None = None,
        idempotent: bool = False,
    ):
        """One API call with retries; returns ``(status, decoded_body)``.

        429/503 responses and connection errors are retried with backoff
        (unless ``retries=False``); other 4xx/5xx raise :class:`ClientError`
        immediately.  ``idempotent`` marks the request safe to resend after
        a mid-exchange connection reset (see :meth:`_send`); ``headers``
        adds extra request headers (e.g. ``X-Admin-Token``).
        """
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        send_headers = {"Content-Type": "application/json"} if data is not None else {}
        if headers:
            send_headers.update(headers)
        attempts = self.retry.max_attempts if retries else 1
        last_error: ClientError | None = None
        for attempt in range(attempts):
            self.attempts += 1
            if attempt:
                self.retries += 1
            retry_after: float | None = None
            try:
                with self._connection_lock:
                    status, header, raw = self._send(
                        method, path, data, send_headers, idempotent=idempotent
                    )
                body = _decode(raw)
                if status < 400:
                    return status, body
                if status not in _RETRYABLE_STATUSES:
                    raise ClientError(
                        f"{method} {path} answered {status}: "
                        f"{_error_message(body)}",
                        status=status,
                        body=body if isinstance(body, dict) else None,
                    ) from None
                retry_after = _retry_after_seconds(header, body)
                last_error = ClientError(
                    f"{method} {path} still answering {status} after "
                    f"{attempt + 1} attempts: {_error_message(body)}",
                    status=status,
                    body=body if isinstance(body, dict) else None,
                )
            except (OSError, http.client.HTTPException) as error:
                last_error = ClientError(
                    f"{method} {path} failed after {attempt + 1} attempts: {error}"
                )
            if attempt + 1 < attempts:
                delay = self._backoff_delay(attempt, retry_after)
                self.sleeps.append(delay)
                if delay > 0:
                    self._sleeper(delay)
        assert last_error is not None
        raise last_error

    def post(
        self,
        path: str,
        payload: dict,
        headers: dict | None = None,
        idempotent: bool = False,
    ):
        """POST returning the decoded body (status is always 200 here)."""
        _, body = self.request(
            "POST", path, payload, headers=headers, idempotent=idempotent
        )
        return body

    def get(self, path: str):
        """GET returning ``(status, decoded_body)``."""
        return self.request("GET", path)

    # ------------------------------------------------------------------
    # Endpoint sugar (versioned /v1 API)
    # ------------------------------------------------------------------

    def _api(self, path: str) -> str:
        return self.api_prefix + path

    def quantify(self, dataset: str, dimension: str, **params) -> dict:
        """``POST /v1/quantify`` — Problem 1 (top/bottom-k)."""
        return self.post(
            self._api("/quantify"),
            {"dataset": dataset, "dimension": dimension, **params},
        )

    def compare(
        self, dataset: str, dimension: str, r1: str, r2: str, breakdown: str, **params
    ) -> dict:
        """``POST /v1/compare`` — Problem 2 (reversal breakdown)."""
        return self.post(
            self._api("/compare"),
            {
                "dataset": dataset,
                "dimension": dimension,
                "r1": r1,
                "r2": r2,
                "breakdown": breakdown,
                **params,
            },
        )

    def explain(
        self, dataset: str, group: str, query: str, location: str, **params
    ) -> dict:
        """``POST /v1/explain`` — one cell's contribution breakdown."""
        return self.post(
            self._api("/explain"),
            {
                "dataset": dataset,
                "group": group,
                "query": query,
                "location": location,
                **params,
            },
        )

    def whatif(
        self,
        dataset: str,
        group: str,
        query: str,
        location: str,
        intervention: str,
        **params,
    ) -> dict:
        """``POST /v1/whatif`` — hypothetically re-rank one cell's ranking.

        ``intervention`` is a registered re-ranker (``"fair"``,
        ``"exposure_lp"``, …); extra ``params`` (``alpha``, ``p``, ``seed``,
        ``allow_stale``) pass through.
        """
        return self.post(
            self._api("/whatif"),
            {
                "dataset": dataset,
                "group": group,
                "query": query,
                "location": location,
                "intervention": intervention,
                **params,
            },
        )

    def batch(self, requests: list[dict]) -> dict:
        """``POST /v1/batch`` — many sub-requests, shared index sweeps."""
        return self.post(self._api("/batch"), {"requests": requests})

    def ingest(
        self, dataset: str, observations: list[dict], batch_id: str | None = None
    ) -> dict:
        """``POST /v1/observations`` — fold new rankings into a live dataset.

        A ``batch_id`` is generated up front when the caller does not supply
        one, so the *retries* inside :meth:`request` replay the same id: a
        POST cut off by a dropped connection that actually applied
        server-side is answered from the idempotency ledger
        (``"replayed": true``) instead of double-applying the batch.
        """
        if batch_id is None:
            batch_id = uuid.uuid4().hex
        return self.post(
            self._api("/observations"),
            {
                "dataset": dataset,
                "batch_id": batch_id,
                "observations": observations,
            },
            idempotent=True,
        )

    def resize(self, count: int, token: str | None = None) -> dict:
        """``POST /v1/admin/shards`` — live-resize the worker pool.

        ``token`` is sent as ``X-Admin-Token`` when the server was started
        with ``--admin-token``.  Safe to mark idempotent: resizing to a
        count the pool already has is a no-op, so a replayed request after
        a connection reset converges to the same state.
        """
        headers = {"X-Admin-Token": token} if token is not None else None
        return self.post(
            self._api("/admin/shards"),
            {"count": count},
            headers=headers,
            idempotent=True,
        )

    def register_scenario(
        self,
        name: str,
        scenario: str,
        overrides: dict | None = None,
        token: str | None = None,
    ) -> dict:
        """``POST /v1/datasets`` — register a dataset from a named scenario.

        ``overrides`` tweak scenario fields (``seed``, ``workers``,
        ``bias_scale``, ...); ``token`` is sent as ``X-Admin-Token`` when
        the server was started with ``--admin-token``.  Deliberately *not*
        idempotent-retried: a replay that lands after the first attempt
        succeeded answers 409 ``dataset_exists``, which is meaningful to
        the caller, not noise to be retried through.
        """
        headers = {"X-Admin-Token": token} if token is not None else None
        payload: dict = {"name": name, "scenario": scenario}
        if overrides:
            payload["overrides"] = dict(overrides)
        return self.post(self._api("/datasets"), payload, headers=headers)

    def scenarios(self) -> dict:
        """``GET /v1/scenarios`` — the scenario-preset registry."""
        return self.get(self._api("/scenarios"))[1]

    def trends(
        self, dataset: str, group: str, query: str, location: str, **params
    ) -> dict:
        """``GET /v1/trends`` — one cube cell's values across generations."""
        query_string = urllib.parse.urlencode(
            {
                "dataset": dataset,
                "group": group,
                "query": query,
                "location": location,
                **params,
            }
        )
        return self.get(self._api("/trends") + "?" + query_string)[1]

    def datasets(self) -> dict:
        return self.get(self._api("/datasets"))[1]

    def schema(self) -> dict:
        """``GET /v1/schema`` — the machine-readable API description."""
        return self.get(self._api("/schema"))[1]

    def healthz(self) -> dict:
        return self.get(self._api("/healthz"))[1]

    def readyz(self) -> tuple[int, dict]:
        """Readiness status and body (503 is a *normal* answer here).

        Unlike every other call this never retries a 503 — callers poll
        readiness themselves and want the current truth, not a wait.
        """
        try:
            return self.request("GET", self._api("/readyz"), retries=False)
        except ClientError as error:
            if error.status in _RETRYABLE_STATUSES and error.body is not None:
                return error.status, error.body
            raise

    def metrics_text(self) -> str:
        status, body = self.request("GET", self._api("/metrics"))
        return body if isinstance(body, str) else json.dumps(body)


def _decode(raw: bytes):
    text = raw.decode("utf-8", "replace")
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _error_message(body) -> str:
    if isinstance(body, dict):
        error = body.get("error")
        if isinstance(error, dict):
            return str(error.get("message", error))
    return str(body)[:200]


def _retry_after_seconds(header: str | None, body) -> float | None:
    if header is not None:
        try:
            return float(header)
        except ValueError:
            pass
    if isinstance(body, dict):
        nested = body.get("error")
        if isinstance(nested, dict) and isinstance(
            nested.get("retry_after"), (int, float)
        ):
            return float(nested["retry_after"])
    return None
