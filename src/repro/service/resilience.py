"""Admission control and circuit breaking for the F-Box query service.

Two independent mechanisms keep the service answering under stress:

:class:`AdmissionController`
    A bounded work queue in front of the handler pool.  At most
    ``max_concurrency`` requests execute at once; up to ``max_queue`` more
    wait their turn; everything beyond that is shed *immediately* with a
    :class:`~repro.service.errors.TooManyRequests` (HTTP 429 +
    ``Retry-After``).  Fast rejection is the point — under 4x-capacity
    overload the p99 of *accepted* requests stays bounded by
    ``(max_queue / max_concurrency + 1) × work`` instead of growing with
    the whole backlog.

:class:`CircuitBreaker`
    A per-dataset closed → open → half-open state machine guarding dataset
    loads and F-Box builds.  ``failure_threshold`` consecutive crashes open
    the circuit: further requests get an instant
    :class:`~repro.service.errors.CircuitOpen` (HTTP 503 with breaker state
    in the body) instead of re-running the expensive failing build.  After
    ``reset_timeout`` seconds one *probe* request is let through half-open;
    success closes the circuit, failure re-opens it with a fresh backoff.

Both take an injectable clock so chaos tests replay transitions against a
fake clock and assert the exact state sequence byte-for-byte.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from .errors import CircuitOpen, TooManyRequests

__all__ = [
    "AdmissionController",
    "BreakerConfig",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
]


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


@dataclass
class _AsyncWaiter:
    """One queued async acquirer: its loop, its wake-up future, grant state.

    ``granted`` is protected by the controller's lock.  The future is only
    ever *resolved* on its own event loop (via ``call_soon_threadsafe``), so
    a ``release()`` from a worker thread never touches asyncio state
    directly.  The authoritative fact is ``granted``: if a queue-timeout
    races the grant, the waiter sees ``granted=True`` under the lock and
    hands the slot straight back.
    """

    loop: asyncio.AbstractEventLoop
    future: asyncio.Future
    granted: bool = field(default=False)

    def wake(self) -> None:
        def _resolve(future: asyncio.Future = self.future) -> None:
            if not future.done():
                future.set_result(None)

        self.loop.call_soon_threadsafe(_resolve)


class AdmissionController:
    """Concurrency cap + bounded wait queue with fast 429 shedding.

    :meth:`acquire_async` either starts executing immediately, parks an
    ``asyncio.Future`` in the bounded queue until a slot frees, or raises
    :class:`TooManyRequests`; every successful acquire must be paired with
    :meth:`release`, which may come from any thread.  ``max_concurrency <=
    0`` disables admission entirely (every request is accepted without
    accounting), matching the cache's "0 disables" convention.
    """

    def __init__(
        self,
        max_concurrency: int = 8,
        max_queue: int = 16,
        queue_timeout: float | None = 30.0,
        retry_after: float = 1.0,
    ) -> None:
        self.max_concurrency = int(max_concurrency)
        self.max_queue = int(max_queue)
        self.queue_timeout = queue_timeout
        self.retry_after = retry_after
        self._lock = threading.Lock()
        self._async_waiters: deque[_AsyncWaiter] = deque()
        self._active = 0
        self._waiting = 0
        self.accepted = 0
        self.shed = 0

    @property
    def enabled(self) -> bool:
        return self.max_concurrency > 0

    async def acquire_async(self) -> None:
        """Take an execution slot without blocking the event loop.

        Immediate admission below the cap, a bounded wait up to
        ``max_queue`` deep, and an immediate 429 carrying ``Retry-After``
        beyond that or once ``queue_timeout`` expires.
        """
        if not self.enabled:
            return
        loop = asyncio.get_running_loop()
        with self._lock:
            if self._active < self.max_concurrency:
                self._active += 1
                self.accepted += 1
                return
            if self._waiting >= self.max_queue:
                self.shed += 1
                raise self._overloaded("the request queue is full")
            waiter = _AsyncWaiter(loop=loop, future=loop.create_future())
            self._async_waiters.append(waiter)
            self._waiting += 1
        try:
            if self.queue_timeout is None:
                await waiter.future
            else:
                await asyncio.wait_for(waiter.future, self.queue_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            with self._lock:
                if waiter.granted:
                    # release() granted the slot in the same instant the
                    # timeout fired; we are abandoning, so pass it on.
                    self._release_locked()
                else:
                    self._async_waiters.remove(waiter)
                    self._waiting -= 1
                self.shed += 1
            raise self._overloaded(
                f"queued longer than {self.queue_timeout:g}s"
            ) from None

    def release(self) -> None:
        """Give the slot back and wake one queued request."""
        if not self.enabled:
            return
        with self._lock:
            self._release_locked()

    def _release_locked(self) -> None:
        """Free one slot and hand it to a waiter (caller holds the lock)."""
        self._active = max(0, self._active - 1)
        if self._async_waiters and self._active < self.max_concurrency:
            waiter = self._async_waiters.popleft()
            self._waiting -= 1
            self._active += 1
            self.accepted += 1
            waiter.granted = True
            waiter.wake()

    def _overloaded(self, reason: str) -> TooManyRequests:
        return TooManyRequests(
            f"service is at capacity ({reason}); retry after "
            f"{self.retry_after:g}s",
            retry_after=self.retry_after,
            extra={
                "max_concurrency": self.max_concurrency,
                "max_queue": self.max_queue,
            },
        )

    def snapshot(self) -> dict:
        """Consistent gauges and counters for /metrics."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "max_concurrency": self.max_concurrency,
                "max_queue": self.max_queue,
                "active": self._active,
                "queue_depth": self._waiting,
                "accepted": self.accepted,
                "shed": self.shed,
            }


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tunables for one circuit breaker.

    ``failure_threshold`` consecutive failures open the circuit;
    ``reset_timeout`` seconds later one half-open probe is allowed.
    """

    failure_threshold: int = 3
    reset_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_timeout < 0:
            raise ValueError(f"reset_timeout must be >= 0, got {self.reset_timeout}")


class CircuitBreaker:
    """Closed/open/half-open breaker with an auditable transition log.

    Protocol: call :meth:`allow` before the protected operation (it raises
    :class:`CircuitOpen` when quarantined), then exactly one of
    :meth:`record_success`, :meth:`record_failure`, or :meth:`record_bypass`
    afterwards.  ``record_bypass`` is for outcomes that say nothing about
    dataset health (e.g. a 422 for an invalid measure) — it releases a
    half-open probe slot without moving the state machine.

    The transition log (``"closed->open"`` strings, in order) is the
    determinism contract chaos tests assert byte-for-byte.
    """

    def __init__(
        self,
        name: str,
        config: BreakerConfig | None = None,
        clock=time.monotonic,
    ) -> None:
        self.name = name
        self.config = config if config is not None else BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at: float | None = None
        self._probe_in_flight = False
        self._transitions: list[str] = []

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    def _transition(self, state: str) -> None:
        self._transitions.append(f"{self._state}->{state}")
        self._state = state

    def allow(self) -> None:
        """Gate one protected operation; raises :class:`CircuitOpen` when shut.

        In the open state, once ``reset_timeout`` has elapsed the breaker
        moves to half-open and admits exactly one probe; concurrent calls
        during the probe are still rejected.
        """
        with self._lock:
            if self._state == CLOSED:
                return
            now = self._clock()
            if self._state == OPEN:
                elapsed = now - (self._opened_at or now)
                if elapsed < self.config.reset_timeout:
                    raise self._open_error(self.config.reset_timeout - elapsed)
                self._transition(HALF_OPEN)
                self._probe_in_flight = True
                return
            # HALF_OPEN: one probe at a time.
            if self._probe_in_flight:
                raise self._open_error(self.config.reset_timeout)
            self._probe_in_flight = True

    def record_success(self) -> None:
        """The protected operation worked: close (or keep closed) the circuit."""
        with self._lock:
            self._probe_in_flight = False
            self._failures = 0
            if self._state != CLOSED:
                self._transition(CLOSED)
            self._opened_at = None

    def record_failure(self) -> None:
        """The protected operation crashed: count it, maybe open the circuit."""
        with self._lock:
            self._probe_in_flight = False
            if self._state == HALF_OPEN:
                # The probe failed: back to quarantine with a fresh backoff.
                self._transition(OPEN)
                self._opened_at = self._clock()
                return
            self._failures += 1
            if self._state == CLOSED and self._failures >= self.config.failure_threshold:
                self._transition(OPEN)
                self._opened_at = self._clock()

    def record_bypass(self) -> None:
        """The operation ended for reasons unrelated to dataset health."""
        with self._lock:
            self._probe_in_flight = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def retry_in(self) -> float | None:
        """Seconds until the next half-open probe (None when not open)."""
        with self._lock:
            if self._state != OPEN or self._opened_at is None:
                return None
            return max(
                0.0, self.config.reset_timeout - (self._clock() - self._opened_at)
            )

    def transition_log(self) -> tuple[str, ...]:
        """Every state transition so far, oldest first."""
        with self._lock:
            return tuple(self._transitions)

    def snapshot(self) -> dict:
        """State, counters, and the transition log for /readyz and /metrics."""
        with self._lock:
            retry_in = None
            if self._state == OPEN and self._opened_at is not None:
                retry_in = max(
                    0.0,
                    self.config.reset_timeout - (self._clock() - self._opened_at),
                )
            return {
                "dataset": self.name,
                "state": self._state,
                "consecutive_failures": self._failures,
                "failure_threshold": self.config.failure_threshold,
                "reset_timeout": self.config.reset_timeout,
                "retry_in": retry_in,
                "transitions": list(self._transitions),
            }

    def _open_error(self, retry_in: float) -> CircuitOpen:
        return CircuitOpen(
            f"dataset {self.name!r} is quarantined: its load/build keeps "
            f"failing ({self._failures} consecutive); next probe in "
            f"{max(0.0, retry_in):.1f}s",
            retry_after=max(0.0, retry_in),
            extra={
                "breaker": {
                    "dataset": self.name,
                    "state": self._state,
                    "consecutive_failures": self._failures,
                    "retry_in": max(0.0, retry_in),
                }
            },
        )
