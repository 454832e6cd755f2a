"""Multi-process dataset sharding: the front-end half.

``repro serve --shards N`` partitions cube ownership across ``N`` worker
processes so TA sweeps and cube builds for *distinct* datasets use distinct
interpreters — real CPU parallelism instead of GIL time-slicing.  This
module holds everything the front-end process needs:

* :func:`shard_for` — deterministic consistent hashing of dataset names
  onto shards (an MD5 hash ring with virtual nodes, stable across runs and
  processes — Python's own ``hash`` is salted per process and useless here);
* the length-prefixed JSON frame protocol shared with
  :mod:`repro.service.shard_worker` (:func:`send_frame` / :func:`recv_frame`);
* :class:`ShardRouter` — the execution backend the application layer
  (:class:`repro.service.app.FBoxApp`) dispatches POST queries through when
  sharding is on: it owns the worker pool (spawned via ``multiprocessing``'s
  ``fork`` context so dataset specs and loaders are inherited without
  pickling), per-shard connection pools, health monitoring with
  restart-on-crash, and a per-shard :class:`~repro.service.resilience.
  CircuitBreaker` — a dead shard answers 503 ``shard_unavailable`` and
  reports its datasets as quarantined in ``/readyz`` until the respawned
  worker pongs.

Worker processes rebuild their registry/caches from plain spec tuples
passed at spawn time — never from the parent's live objects — so a fork
taken while a front-end thread holds a registry or cache lock can never
deadlock the child.

The pool is **live-resizable**: :meth:`ShardRouter.resize` (behind
``POST /v1/admin/shards``) computes the old→new ring diff — consistent
hashing bounds movement to roughly ``K/N`` of ``K`` datasets — spawns or
retires workers, migrates each moving dataset's full state (observation
journal, idempotency ledger and high-water sequence, trend ring) through
the ``export_dataset``/``import_dataset`` frame ops, and flips routing
atomically per dataset via an explicit placement table that overrides the
ring while the resize is in flight.  Requests against a mid-copy dataset
queue briefly (writes) or shed with 503 ``shard_resizing`` (reads), and a
worker crash mid-copy is retried against the monitor-restarted worker.

``/batch`` is planned **per shard**: items are partitioned by their
dataset's owner and each sub-batch runs through the owning worker's normal
batch planner, so shared-sweep grouping (one TA sweep per homogeneous
group) still happens inside the process that owns the cubes.  Group keys
include the dataset name, so groups never span shards and the merged
envelope is byte-identical to the single-process answer.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import random
import socket
import struct
import threading
import time
from bisect import bisect_right
from typing import Mapping

from .errors import (
    BadRequest,
    CircuitOpen,
    Conflict,
    NotFound,
    RequestTimeout,
    ServiceError,
    ShardResizing,
    ShardUnavailable,
    ShuttingDown,
    TooManyRequests,
    Unprocessable,
)
from .faults import FaultInjector
from .registry import DatasetRegistry
from .resilience import CLOSED, OPEN, BreakerConfig, CircuitBreaker

__all__ = [
    "ShardRouter",
    "shard_for",
    "build_ring",
    "send_frame",
    "recv_frame",
    "encode_error",
    "decode_error",
]

_logger = logging.getLogger("repro.service")

# ----------------------------------------------------------------------
# Frame protocol: 4-byte big-endian length, then that many bytes of JSON.
# ----------------------------------------------------------------------

_FRAME_HEADER = struct.Struct(">I")
_MAX_FRAME_BYTES = 64 << 20


def send_frame(sock: socket.socket, document) -> None:
    """Write one length-prefixed JSON frame."""
    data = json.dumps(document).encode("utf-8")
    if len(data) > _MAX_FRAME_BYTES:
        raise ValueError(f"frame exceeds {_MAX_FRAME_BYTES} bytes")
    sock.sendall(_FRAME_HEADER.pack(len(data)) + data)


def recv_frame(sock: socket.socket):
    """Read one frame; ``None`` on a clean EOF before the header."""
    header = _recv_exactly(sock, _FRAME_HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    if length > _MAX_FRAME_BYTES:
        raise ConnectionError(f"peer announced a {length}-byte frame")
    data = _recv_exactly(sock, length, eof_ok=False)
    return json.loads(data.decode("utf-8"))


def _recv_exactly(sock: socket.socket, count: int, eof_ok: bool):
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if eof_ok and not chunks:
                return None
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Consistent hashing of dataset names onto shards
# ----------------------------------------------------------------------

_VNODES = 64


def _point(text: str) -> int:
    return int.from_bytes(hashlib.md5(text.encode("utf-8")).digest()[:8], "big")


def build_ring(shards: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The hash ring for ``shards`` workers: sorted points and their owners."""
    pairs = sorted(
        (_point(f"fbox-shard-{shard}:{vnode}"), shard)
        for shard in range(shards)
        for vnode in range(_VNODES)
    )
    return tuple(p for p, _ in pairs), tuple(s for _, s in pairs)


def shard_for(name: str, shards: int, ring=None) -> int:
    """The shard owning dataset ``name`` (deterministic across processes)."""
    if shards <= 1:
        return 0
    points, owners = ring if ring is not None else build_ring(shards)
    index = bisect_right(points, _point(name)) % len(points)
    return owners[index]


# ----------------------------------------------------------------------
# Error round-tripping (worker → front)
# ----------------------------------------------------------------------

_ERROR_CLASSES: dict[str, type[ServiceError]] = {
    "bad_request": BadRequest,
    "not_found": NotFound,
    "unprocessable": Unprocessable,
    "batch_conflict": Conflict,
    "timeout": RequestTimeout,
    "overloaded": TooManyRequests,
    "circuit_open": CircuitOpen,
    "shard_unavailable": ShardUnavailable,
    "shard_resizing": ShardResizing,
    "shutting_down": ShuttingDown,
}


def encode_error(error: ServiceError) -> dict:
    """A :class:`ServiceError` as a JSON-safe protocol payload."""
    return {
        "status": error.status,
        "kind": error.kind,
        "message": str(error),
        "retryable": error.retryable,
        "retry_after": error.retry_after,
        "extra": dict(error.extra) if error.extra else None,
    }


def decode_error(payload: Mapping) -> BaseException:
    """Rebuild the worker's exception so the front-end's error rendering,
    metrics, and degraded-answer control flow behave exactly as if the
    failure had happened in-process."""
    kind = str(payload.get("kind", "internal"))
    message = str(payload.get("message", "shard worker error"))
    retry_after = payload.get("retry_after")
    extra = payload.get("extra")
    cls = _ERROR_CLASSES.get(kind)
    if cls is None:
        # Includes "internal": the front's generic 500 path renders it with
        # the same body the in-process pipeline would have produced.
        return _RemoteFailure(message)
    if issubclass(cls, (TooManyRequests, CircuitOpen)):
        return cls(
            message,
            retry_after=retry_after if retry_after is not None else (
                1.0 if issubclass(cls, TooManyRequests) else None
            ),
            extra=extra,
        )
    error = cls(message)
    if retry_after is not None:
        error.retry_after = retry_after
    if extra:
        error.extra = extra
    return error


class _RemoteFailure(Exception):
    """A non-ServiceError crash inside a worker (e.g. an injected handler
    fault): surfaces through the front's generic 500 path, message intact."""


# ----------------------------------------------------------------------
# The shard pool
# ----------------------------------------------------------------------

_SHARD_BREAKER = BreakerConfig(failure_threshold=1, reset_timeout=0.25)
_MAX_IDLE_CONNECTIONS = 8
_STATUS_TIMEOUT = 5.0
_PING_TIMEOUT = 2.0

_MAX_SHARD_COUNT = 64
"""Upper bound on the live-resizable worker pool (one process per shard)."""

_RESTART_BACKOFF_BASE = 0.05
"""First-restart delay for a crashed worker, in seconds.  Negligible for
isolated crashes; doubles per consecutive crash so a crash-looping worker
cannot hot-spin the front's monitor thread."""

_RESTART_BACKOFF_CAP = 5.0
"""Ceiling on the exponential restart backoff."""

_RESTART_JITTER = 0.1
"""Fraction of the delay added as seeded jitter (decorrelates restarts)."""

_RESTART_STABLE_WINDOW = 5.0
"""A worker that survives this long resets the consecutive-crash counter."""

_RESIZE_WRITE_GRACE = 1.0
"""How long a write to a mid-migration dataset waits for the routing flip
before answering 503 ``shard_resizing`` (writes queue briefly)."""

_RESIZE_READ_GRACE = 0.05
"""Reads wait only briefly: a stale answer or retry beats a stalled one."""

_RESIZE_SETTLE = 0.02
"""Pause between gating a dataset and the first state copy, letting writes
that passed the gate before it existed land on the source."""

_MIGRATION_TIMEOUT = 30.0
"""Socket budget for one export/import exchange."""

_MIGRATION_DEADLINE = 30.0
"""Total budget for migrating one dataset, crash retries included."""


class _Shard:
    """One worker process slot: process handle, address, sockets, breaker."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: multiprocessing.process.BaseProcess | None = None
        self.address: tuple[str, int] | None = None
        self.breaker = CircuitBreaker(f"shard-{index}", _SHARD_BREAKER)
        self.lock = threading.Lock()
        self.idle: list[socket.socket] = []
        self.crashes = 0
        self.consecutive_crashes = 0
        self.next_restart_at = 0.0
        self.spawned_at = 0.0
        self.retired = False

    def clear_pool(self) -> None:
        with self.lock:
            sockets, self.idle = self.idle, []
        for sock in sockets:
            try:
                sock.close()
            except OSError:
                pass


class ShardRouter:
    """Routes POST query execution to the worker pool, one shard per dataset.

    Owns worker lifecycle: eager spawn at construction, a monitor thread
    that health-checks workers (liveness plus periodic pings) and respawns
    crashed ones, and a per-shard breaker so requests against a dead shard
    fail fast with 503 ``shard_unavailable`` instead of hanging, while
    ``/readyz`` reports the shard's datasets as quarantined.
    """

    def __init__(
        self,
        registry: DatasetRegistry,
        shards: int,
        request_timeout: float | None = 30.0,
        cache_size: int = 256,
        cache_ttl: float | None = None,
        faults: FaultInjector | None = None,
        poll_interval: float = 0.1,
        io_grace: float = 10.0,
        alert_threshold: float | None = None,
        namespace: str | None = None,
        restart_seed: int = 0,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.registry = registry
        self.shards = shards
        self.request_timeout = request_timeout
        self.cache_size = cache_size
        self.cache_ttl = cache_ttl
        self.faults = faults
        self.alert_threshold = alert_threshold
        self.namespace = namespace
        self.poll_interval = poll_interval
        self.io_grace = io_grace
        self.metrics = None  # set by make_app; used for /batch accounting
        self._ring = build_ring(shards)
        self._mp = multiprocessing.get_context("fork")
        self._closed = False
        self._spawn_lock = threading.Lock()
        self._restart_rng = random.Random(restart_seed)
        # Live-resize state: one resize runs at a time; ``_placement``
        # overrides the ring per dataset while one is in flight, and
        # ``_moving`` gates requests against a dataset whose state is
        # mid-copy (the event fires at the routing flip).
        self._resize_lock = threading.Lock()
        self._placement: dict[str, int] | None = None
        self._moving: dict[str, threading.Event] = {}
        self._resize_status: dict = {
            "state": "idle",
            "from": None,
            "to": None,
            "dataset": None,
            "moving": 0,
            "migrated": 0,
            "resizes": 0,
            "last": None,
        }
        self._shards = [_Shard(index) for index in range(shards)]
        for shard in self._shards:
            self._spawn(shard)
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True, name="fbox-shard-monitor"
        )
        self._monitor.start()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def shard_of(self, name) -> int:
        """The shard index owning dataset ``name`` (0 for non-strings, so
        malformed requests still route somewhere and get their normal 4xx).

        While a resize is in flight the explicit placement table wins: it
        starts as the old ring's assignment for every dataset and flips to
        the new owner per dataset as each migration completes, so routing
        is atomic per dataset even though the pool changes underneath."""
        if not isinstance(name, str) or not name:
            return 0
        placement = self._placement
        if placement is not None:
            owner = placement.get(name)
            if owner is not None:
                return owner
        return shard_for(name, self.shards, self._ring)

    def _slot(self, name) -> _Shard:
        """The live :class:`_Shard` owning ``name``.

        Re-resolves if a concurrent resize flips placement and the slot
        list between the index computation and the lookup."""
        while True:
            shards = self._shards
            index = self.shard_of(name)
            if index < len(shards):
                return shards[index]

    def _slot_by_index(self, index: int) -> _Shard:
        shards = self._shards
        if index < len(shards):
            return shards[index]
        raise ShardUnavailable(
            f"shard {index} was retired by a pool resize; retry",
            retry_after=0.2,
            extra={"shard": index},
        )

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, shard: _Shard) -> None:
        """Fork one worker, handing it the pre-bound listener socket.

        The listener is created (and listening) *before* the fork, so the
        front can connect immediately — connections queue in the backlog
        until the child's accept loop runs.  The worker gets plain spec
        tuples and fault rules, never the parent's live registry: a child
        must not inherit locks another front-end thread might hold.
        """
        from .shard_worker import WorkerConfig, worker_main

        with self._spawn_lock:
            if self._closed:
                return
            listener = socket.create_server(("127.0.0.1", 0), backlog=64)
            specs = tuple(
                self.registry.spec(name) for name in self.registry.names()
            )
            fault_spec = None
            if self.faults is not None:
                fault_spec = (self.faults.rules, self.faults.seed)
            config = WorkerConfig(
                index=shard.index,
                request_timeout=self.request_timeout,
                cache_size=self.cache_size,
                cache_ttl=self.cache_ttl,
                schema=self.registry.schema,
                breaker_config=self.registry.breaker_config,
                exit_faults_consumed=shard.crashes,
                alert_threshold=self.alert_threshold,
                namespace=self.namespace,
            )
            process = self._mp.Process(
                target=worker_main,
                args=(listener, specs, fault_spec, config),
                daemon=True,
                name=f"fbox-shard-{shard.index}",
            )
            process.start()
            address = listener.getsockname()[:2]
            listener.close()  # the child inherited its own copy of the FD
            with shard.lock:
                shard.process = process
                shard.address = (address[0], address[1])
                shard.spawned_at = time.monotonic()

    def _monitor_loop(self) -> None:
        ticks = 0
        ping_every = max(1, int(2.0 / max(self.poll_interval, 0.01)))
        while not self._closed:
            time.sleep(self.poll_interval)
            ticks += 1
            for shard in list(self._shards):
                if self._closed:
                    return
                if shard.retired:
                    continue
                process = shard.process
                if process is None:
                    continue
                if not process.is_alive():
                    # Capped exponential backoff: a crash-looping worker is
                    # left dead (breaker open, requests shed fast) until its
                    # restart slot arrives instead of hot-spinning respawns.
                    if time.monotonic() < shard.next_restart_at:
                        continue
                    self._revive(shard, "worker process died")
                elif ticks % ping_every == 0 and not self._ping(shard):
                    # Alive but not answering: assume wedged and replace it.
                    try:
                        process.terminate()
                    except OSError:
                        pass
                    self._revive(shard, "worker stopped answering pings")

    def _revive(self, shard: _Shard, reason: str) -> None:
        """Quarantine a dead shard, respawn it, and close the breaker once
        the replacement answers a ping.

        Each revive schedules the *next* allowed restart: the delay doubles
        per consecutive crash (a worker that stays up for
        ``_RESTART_STABLE_WINDOW`` seconds resets the streak), is capped,
        and carries seeded jitter so a host-wide event doesn't restart
        every shard in lockstep."""
        now = time.monotonic()
        shard.crashes += 1
        if now - shard.spawned_at < _RESTART_STABLE_WINDOW:
            shard.consecutive_crashes += 1
        else:
            shard.consecutive_crashes = 1
        delay = min(
            _RESTART_BACKOFF_BASE * (2 ** (shard.consecutive_crashes - 1)),
            _RESTART_BACKOFF_CAP,
        )
        delay *= 1.0 + _RESTART_JITTER * self._restart_rng.random()
        shard.next_restart_at = now + delay
        if self.metrics is not None:
            self.metrics.record_shard_restart(shard.index)
        shard.breaker.record_failure()
        shard.clear_pool()
        _logger.warning(
            "shard %d: %s; restarting (crash #%d, next backoff %.3fs)",
            shard.index,
            reason,
            shard.crashes,
            delay,
        )
        process = shard.process
        if process is not None:
            try:
                process.join(timeout=0.2)
            except (OSError, AssertionError):
                pass
        try:
            self._spawn(shard)
        except OSError as error:  # pragma: no cover - fork/bind failure
            _logger.error("shard %d respawn failed: %s", shard.index, error)
            return
        deadline = time.monotonic() + 10.0
        while not self._closed and time.monotonic() < deadline:
            if self._ping(shard):
                shard.breaker.record_success()
                _logger.warning("shard %d: worker restarted", shard.index)
                return
            if shard.process is not None and not shard.process.is_alive():
                # Crashed again during boot; the next monitor pass retries.
                return
            time.sleep(0.02)

    def _ping(self, shard: _Shard) -> bool:
        try:
            reply = self._roundtrip(shard, {"op": "ping"}, _PING_TIMEOUT)
        except (OSError, ConnectionError, ValueError):
            return False
        return bool(reply.get("ok"))

    # ------------------------------------------------------------------
    # Live resize (POST /v1/admin/shards)
    # ------------------------------------------------------------------

    def resize_status(self) -> dict:
        """The resize state machine's current frame (feeds ``/readyz`` and
        ``/v1/datasets``): state, endpoints, per-dataset progress, and the
        last completed resize's summary."""
        status = dict(self._resize_status)
        status["moving_datasets"] = sorted(self._moving)
        return status

    def _note_resize(self, state: str, **fields) -> None:
        self._resize_status = {**self._resize_status, "state": state, **fields}

    def resize(self, count: int) -> dict:
        """Grow or shrink the worker pool to ``count`` shards, live.

        One resize runs at a time; a concurrent request answers 503
        ``shard_resizing`` (retryable) rather than queueing, because the
        right count is whatever the operator asks for *after* seeing the
        first resize land.
        """
        if isinstance(count, bool) or not isinstance(count, int):
            raise Unprocessable("shard count must be an integer")
        if not 1 <= count <= _MAX_SHARD_COUNT:
            raise Unprocessable(
                f"shard count must be between 1 and {_MAX_SHARD_COUNT}, "
                f"got {count}"
            )
        if self._closed:
            raise ShuttingDown("the service is draining; shard pool is frozen")
        if not self._resize_lock.acquire(blocking=False):
            raise ShardResizing(
                "a shard-pool resize is already in progress; retry after it "
                "completes",
                retry_after=1.0,
            )
        try:
            return self._resize(count)
        finally:
            self._resize_lock.release()

    def _resize(self, count: int) -> dict:
        started = time.monotonic()
        old = self.shards
        old_ring = self._ring
        new_ring = build_ring(count)
        names = self.registry.names()
        # Start from the surviving placement of an interrupted resize (if
        # any) so a retry completes the job instead of undoing its flips.
        previous = self._placement
        placement = {
            name: (
                previous[name]
                if previous is not None and name in previous
                else shard_for(name, old, old_ring)
            )
            for name in names
        }
        movers = [
            name
            for name in names
            if shard_for(name, count, new_ring) != placement[name]
        ]
        if count == old and not movers:
            return {
                "kind": "resize",
                "from": old,
                "to": count,
                "migrated": [],
                "noop": True,
                "duration_seconds": 0.0,
            }
        _logger.warning(
            "resizing shard pool %d -> %d (%d of %d datasets move)",
            old,
            count,
            len(movers),
            len(names),
        )
        self._note_resize(
            "planned",
            **{"from": old, "to": count, "moving": len(movers),
               "migrated": 0, "dataset": None},
        )
        self._placement = placement
        migrated: list[str] = []
        try:
            if count > len(self._shards):
                # Grow: bring the new workers up (and pinging) before any
                # state moves, so a migration never races a worker boot.
                fresh = [
                    _Shard(index)
                    for index in range(len(self._shards), count)
                ]
                for shard in fresh:
                    self._spawn(shard)
                self._shards = self._shards + fresh
                for shard in fresh:
                    self._await_worker(shard)
            for name in movers:
                dest_index = shard_for(name, count, new_ring)
                self._note_resize("draining", dataset=name)
                source = self._slot_by_index(placement[name])
                dest = self._slot_by_index(dest_index)
                gate = threading.Event()
                self._moving[name] = gate
                try:
                    self._note_resize("migrating", dataset=name)
                    self._migrate(name, source, dest)
                    # The flip: placement first, then the gate — a queued
                    # write that wakes on the gate re-resolves its route
                    # and lands on the new owner.
                    placement[name] = dest_index
                    self._note_resize(
                        "flipped", dataset=name, migrated=len(migrated) + 1
                    )
                finally:
                    gate.set()
                    self._moving.pop(name, None)
                migrated.append(name)
                if self.metrics is not None:
                    self.metrics.count(datasets_migrated=1)
        except BaseException:
            # Leave the placement table in force: every dataset still routes
            # to a worker that holds its state (flipped ones to their new
            # owner), and a retried resize picks up from here.
            self._note_resize("failed", dataset=None)
            raise
        self.shards = count
        self._ring = new_ring
        self._placement = None
        shards = self._shards
        if count < len(shards):
            retired = shards[count:]
            # Truncate before shutting the retirees down so the monitor's
            # next pass cannot resurrect them.
            self._shards = shards[:count]
            for shard in retired:
                shard.retired = True
            self._note_resize("retired", dataset=None)
            for shard in retired:
                self._retire(shard)
        duration = time.monotonic() - started
        if self.metrics is not None:
            self.metrics.record_resize(duration)
        summary = {
            "kind": "resize",
            "from": old,
            "to": count,
            "migrated": migrated,
            "noop": False,
            "duration_seconds": round(duration, 6),
            # The handoff is O(1): the destination re-attaches the same
            # shared-memory segments, so the per-dataset segment census is
            # the observable proof that no state was copied or re-published.
            "segments": {
                name: self.registry.segments.segment_count(name)
                for name in migrated
            },
        }
        self._note_resize(
            "idle",
            dataset=None,
            resizes=self._resize_status["resizes"] + 1,
            last=summary,
        )
        _logger.warning(
            "shard pool resized %d -> %d in %.3fs (%d datasets moved)",
            old,
            count,
            duration,
            len(migrated),
        )
        return summary

    def _await_worker(self, shard: _Shard) -> None:
        deadline = time.monotonic() + 10.0
        while not self._closed and time.monotonic() < deadline:
            if self._ping(shard):
                return
            time.sleep(0.02)
        raise ShardUnavailable(
            f"shard {shard.index} did not come up in time for the resize",
            retry_after=1.0,
            extra={"shard": shard.index},
        )

    def _migrate(self, name: str, source: _Shard, dest: _Shard) -> None:
        """Copy one dataset's state from ``source`` to ``dest``.

        Copies until the source's generation is stable across the copy (new
        writes are gated on the moving event, so in-flight stragglers are
        the only source of movement and the loop converges).  A worker
        crash mid-copy — the chaos arcs script exactly this for both ends —
        surfaces as :class:`ShardUnavailable`; the monitor restarts the
        worker and the copy starts over from the survivor's truth.
        """
        time.sleep(_RESIZE_SETTLE)
        deadline = time.monotonic() + _MIGRATION_DEADLINE
        while True:
            try:
                exported = self._unwrap(
                    self._call_shard(
                        source,
                        {"op": "export_dataset", "dataset": name},
                        _MIGRATION_TIMEOUT,
                    )
                )
                self._unwrap(
                    self._call_shard(
                        dest,
                        {
                            "op": "import_dataset",
                            "dataset": name,
                            "generation": exported.get("generation"),
                            "state": exported.get("state"),
                        },
                        _MIGRATION_TIMEOUT,
                    )
                )
                check = self._unwrap(
                    self._call_shard(
                        source,
                        {"op": "export_dataset", "dataset": name},
                        _MIGRATION_TIMEOUT,
                    )
                )
                if check.get("generation") == exported.get("generation"):
                    self.registry.sync_generation(
                        name, int(exported.get("generation") or 0)
                    )
                    return
                # A straggler write landed between the copy and the check;
                # go around again with the fresher snapshot.
            except (CircuitOpen, OSError, ConnectionError, ValueError) as error:
                if time.monotonic() >= deadline:
                    raise
                _logger.warning(
                    "migration of %r interrupted (%s); waiting for the "
                    "worker to come back",
                    name,
                    error,
                )
                time.sleep(0.05)

    def _resize_gate(self, dataset: str, path: str) -> None:
        """Hold or shed one request against a mid-migration dataset.

        Writes wait up to ``_RESIZE_WRITE_GRACE`` for the flip (so most
        queue briefly and then land on the new owner); reads give up almost
        immediately — the caller either serves a stale degraded answer
        (``allow_stale``) or the client retries after ``Retry-After``.
        """
        gate = self._moving.get(dataset)
        if gate is None or gate.is_set():
            return
        grace = (
            _RESIZE_WRITE_GRACE if path == "/observations" else _RESIZE_READ_GRACE
        )
        if gate.wait(grace):
            return
        raise ShardResizing(
            f"dataset {dataset!r} is migrating to a new shard during a live "
            "pool resize; retry shortly",
            retry_after=0.2,
            extra={"dataset": dataset},
        )

    def _retire(self, shard: _Shard) -> None:
        """Shut one worker down for good (the monitor skips retired slots)."""
        try:
            self._roundtrip(shard, {"op": "shutdown"}, 0.5)
        except (OSError, ConnectionError, ValueError):
            pass
        shard.clear_pool()
        process = shard.process
        shard.process = None
        shard.address = None
        if process is None:
            return
        process.join(timeout=0.5)
        if process.is_alive():
            process.terminate()
            process.join(timeout=0.5)
        if process.is_alive():  # pragma: no cover - stubborn child
            process.kill()
            process.join(timeout=0.5)

    def close(self) -> None:
        """Stop the monitor and terminate every worker (idempotent)."""
        self._closed = True
        if self._monitor.is_alive():
            self._monitor.join(timeout=1.0)
        for shard in self._shards:
            try:
                self._roundtrip(shard, {"op": "shutdown"}, 0.5)
            except (OSError, ConnectionError, ValueError):
                pass
            shard.clear_pool()
            process = shard.process
            if process is None:
                continue
            process.join(timeout=0.5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=0.5)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join(timeout=0.5)
        # The workers are gone; sweep the namespace's shared-memory segments
        # (worker registries never unlink — the front owns segment cleanup).
        self.registry.close()

    # ------------------------------------------------------------------
    # Connection pool + request dispatch
    # ------------------------------------------------------------------

    def _acquire(self, shard: _Shard) -> socket.socket:
        with shard.lock:
            if shard.idle:
                return shard.idle.pop()
            address = shard.address
        if address is None:
            raise ConnectionError(f"shard {shard.index} has no live worker")
        sock = socket.create_connection(address, timeout=self.io_grace)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _release(self, shard: _Shard, sock: socket.socket) -> None:
        with shard.lock:
            if not self._closed and len(shard.idle) < _MAX_IDLE_CONNECTIONS:
                shard.idle.append(sock)
                return
        try:
            sock.close()
        except OSError:
            pass

    def _roundtrip(self, shard: _Shard, message: dict, timeout: float | None):
        budget = (timeout if timeout and timeout > 0 else 30.0) + self.io_grace
        sock = self._acquire(shard)
        try:
            sock.settimeout(budget)
            send_frame(sock, message)
            reply = recv_frame(sock)
            if reply is None:
                raise ConnectionError("shard closed the connection mid-request")
        except BaseException:
            try:
                sock.close()
            except OSError:
                pass
            raise
        self._release(shard, sock)
        return reply

    def _call_shard(self, shard: _Shard, message: dict, timeout: float | None):
        """One breaker-guarded exchange with a worker.

        A connection-level failure counts against the shard breaker (one
        strike opens it) and surfaces as 503 ``shard_unavailable``; the
        monitor thread restarts the worker and closes the breaker again
        once the replacement answers pings.
        """
        try:
            shard.breaker.allow()
        except CircuitOpen as error:
            raise ShardUnavailable(
                f"shard {shard.index} is down; its datasets are quarantined "
                "until the worker restarts",
                retry_after=error.retry_after,
                extra={**(error.extra or {}), "shard": shard.index},
            ) from None
        try:
            reply = self._roundtrip(shard, message, timeout)
        except (OSError, ConnectionError, ValueError) as error:
            shard.breaker.record_failure()
            raise ShardUnavailable(
                f"shard {shard.index} failed mid-request ({error}); "
                "retry once the worker restarts",
                retry_after=_SHARD_BREAKER.reset_timeout,
                extra={"shard": shard.index},
            ) from None
        shard.breaker.record_success()
        return reply

    @staticmethod
    def _unwrap(reply: Mapping):
        if reply.get("ok"):
            return reply.get("document")
        raise decode_error(reply.get("error") or {})

    def register_dataset(self, spec) -> None:
        """Broadcast a runtime-registered scenario dataset to every worker.

        Workers register **all** specs (routing mistakes then surface as
        wrong-shard answers, not key errors), so the broadcast mirrors the
        front registry onto each live worker; the spec travels as plain
        JSON — scenario name plus canonical overrides — and each worker
        rebuilds the identical :class:`DatasetSpec` locally.  A shard that
        is down is skipped on purpose: its respawn re-reads the front
        registry's spec list and inherits the dataset anyway.
        """
        message = {
            "op": "register_dataset",
            "dataset": spec.name,
            "scenario": spec.scenario,
            "overrides": dict(spec.overrides),
            "description": spec.description,
        }
        for shard in list(self._shards):
            try:
                self._unwrap(self._call_shard(shard, message, self.request_timeout))
            except ShardUnavailable:
                continue

    # ------------------------------------------------------------------
    # The execution backend surface (called by FBoxApp)
    # ------------------------------------------------------------------

    def execute(self, path: str, payload, timeout: float | None = None):
        """Answer one POST query via the owning worker (the sharded
        equivalent of running the handler in-process).  Deadlines are
        enforced *inside* the worker; the socket budget is only a safety
        net for a wedged worker."""
        if timeout is None:
            timeout = self.request_timeout
        if path == "/batch":
            return self._execute_batch(payload, timeout)
        dataset = payload.get("dataset") if isinstance(payload, Mapping) else None
        if isinstance(dataset, str):
            self._resize_gate(dataset, path)
        shard = self._slot(dataset)
        reply = self._call_shard(
            shard,
            {"op": "call", "path": path, "payload": payload, "timeout": timeout},
            timeout,
        )
        return self._unwrap(reply)

    def _execute_batch(self, payload, timeout: float | None) -> dict:
        """Partition a batch by owning shard and merge the sub-envelopes.

        Sub-batches run concurrently (one thread per involved shard) through
        each worker's normal batch planner, so shared-sweep grouping happens
        next to the cubes.  Item alignment is preserved; per-shard failures
        degrade to per-item errors (matching the planner's own isolation),
        except a worker-side deadline which fails the whole batch exactly
        like the in-process pipeline's single deadline would.
        """
        from .encoding import batch_item_error, encode_batch
        from .handlers import _batch_items

        items = _batch_items(payload)  # envelope-level 400s happen up front
        for name in {
            item.get("dataset") for item in items if isinstance(item, Mapping)
        }:
            if isinstance(name, str):
                self._resize_gate(name, "/batch")
        groups: dict[int, list[int]] = {}
        for position, item in enumerate(items):
            name = item.get("dataset") if isinstance(item, Mapping) else None
            groups.setdefault(self.shard_of(name), []).append(position)

        outcomes: dict[int, object] = {}

        def run_group(shard_index: int, positions: list[int]) -> None:
            sub = [items[position] for position in positions]
            try:
                reply = self._call_shard(
                    self._slot_by_index(shard_index),
                    {
                        "op": "call",
                        "path": "/batch",
                        "payload": {"requests": sub},
                        "timeout": timeout,
                    },
                    timeout,
                )
                outcomes[shard_index] = self._unwrap(reply)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                outcomes[shard_index] = error

        if len(groups) == 1:
            ((shard_index, positions),) = groups.items()
            run_group(shard_index, positions)
        else:
            threads = [
                threading.Thread(target=run_group, args=(index, positions))
                for index, positions in groups.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        results: list[dict | None] = [None] * len(items)
        sweep_groups = 0
        shared_items = 0
        for shard_index, positions in groups.items():
            outcome = outcomes.get(shard_index)
            if isinstance(outcome, RequestTimeout):
                raise outcome
            if isinstance(outcome, ServiceError):
                for position in positions:
                    results[position] = batch_item_error(outcome)
                continue
            if isinstance(outcome, BaseException):
                raise outcome
            envelope = outcome or {}
            sweep_groups += int(envelope.get("sweep_groups", 0))
            shared_items += int(envelope.get("shared_items", 0))
            for position, result in zip(positions, envelope.get("results", ())):
                results[position] = result
        for position, result in enumerate(results):
            if result is None:  # pragma: no cover - defensive
                results[position] = {
                    "status": 500,
                    "error": {
                        "code": "internal",
                        "kind": "internal",
                        "message": "shard returned no result for this item",
                        "retryable": False,
                    },
                }
        if self.metrics is not None:
            # One logical batch, whatever the fan-out: account it on the
            # front so fbox_batches_total matches the unsharded pipeline.
            self.metrics.count(
                batches=1,
                batch_items=len(items),
                batch_groups=sweep_groups,
                batch_shared_items=shared_items,
            )
        return encode_batch(
            results, sweep_groups=sweep_groups, shared_items=shared_items
        )

    # ------------------------------------------------------------------
    # Introspection: /datasets, /readyz, /metrics
    # ------------------------------------------------------------------

    def _worker_status(self, shard: _Shard) -> dict | None:
        """One worker's status document, or ``None`` when unreachable."""
        process = shard.process
        if process is None or not process.is_alive():
            return None
        if shard.breaker.state != CLOSED:
            return None
        try:
            reply = self._roundtrip(shard, {"op": "status"}, _STATUS_TIMEOUT)
        except (OSError, ConnectionError, ValueError):
            return None
        if not reply.get("ok"):
            return None
        return reply

    def _statuses(self) -> dict[int, dict | None]:
        return {
            shard.index: self._worker_status(shard)
            for shard in list(self._shards)
        }

    def _down_entry(self, shard: _Shard, name: str) -> dict:
        state = shard.breaker.state
        return {
            "name": name,
            "loaded": False,
            "building": False,
            "breaker": state if state != CLOSED else OPEN,
            "retry_in": shard.breaker.retry_in(),
        }

    def health_report(self) -> list[dict]:
        """Per-dataset readiness facts, shard-aware (feeds ``/readyz``).

        Datasets owned by an unreachable shard report an open breaker —
        quarantined — exactly like a dataset whose own breaker tripped.
        """
        statuses = self._statuses()
        report = []
        for name in self.registry.names():
            shard = self._slot(name)
            index = shard.index
            status = statuses.get(index)
            if status is None:
                entry = self._down_entry(shard, name)
            else:
                health = {e["name"]: e for e in status.get("health", ())}
                entry = dict(health.get(name) or self._down_entry(shard, name))
            entry["shard"] = index
            entry["migrating"] = name in self._moving
            report.append(entry)
        return report

    def describe(self) -> list[dict]:
        """The ``/datasets`` listing with live worker state overlaid."""
        statuses = self._statuses()
        entries = []
        for entry in self.registry.describe():
            name = entry["name"]
            shard = self._slot(name)
            index = shard.index
            status = statuses.get(index)
            if status is not None:
                remote = {e["name"]: e for e in status.get("datasets", ())}
                if name in remote:
                    entry = dict(remote[name])
                breakers = status.get("breakers") or {}
                state = (breakers.get(name) or {}).get("state", CLOSED)
            else:
                entry = dict(entry)
                entry["loaded"] = False
                state = shard.breaker.state
                state = state if state != CLOSED else OPEN
            entry["shard"] = index
            entry["generation"] = self.registry.generation(name)
            entry["breaker"] = state
            entry["migrating"] = name in self._moving
            entries.append(entry)
        return entries

    def merged_observability(self) -> dict:
        """Worker-side truth for the front's ``/metrics`` exposition.

        Each live worker's flat counter dict (merged by
        :func:`~repro.service.observability.merge_counters`), its fired
        fault rules, and per-dataset breaker states — datasets of a dead
        worker show its shard breaker, never closed.
        """
        statuses = self._statuses()
        breaker_states: dict[str, dict] = {}
        for name in self.registry.names():
            shard = self._slot(name)
            status = statuses.get(shard.index)
            if status is None:
                snapshot = shard.breaker.snapshot()
                snapshot["dataset"] = name
                if snapshot["state"] == CLOSED:
                    snapshot["state"] = OPEN
                breaker_states[name] = snapshot
            else:
                remote = (status.get("breakers") or {}).get(name)
                if remote is not None:
                    breaker_states[name] = remote
        live = [status for status in statuses.values() if status is not None]
        return {
            "counters": [status["counters"] for status in live],
            "faults": [rule for status in live for rule in status["faults"]],
            "breakers": breaker_states,
        }
