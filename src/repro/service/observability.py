"""Service metrics and the /metrics text, driven by one family table.

Everything is stdlib and lock-protected.  The exposition format follows the
Prometheus text conventions (``# TYPE`` lines, ``_bucket``/``_sum``/
``_count`` histogram series with cumulative ``le`` buckets) so any standard
scraper can consume ``GET /metrics``.

:data:`FAMILIES` lists every exposition family once, in output order: its
name and type, its series (a label set per key of one flat counter dict),
and whether it is *summed* — its truth lives where requests execute, so
under sharding the front adds each live worker's value to its own — or
held by the front alone.  :func:`render_metrics` walks the table and
:func:`merge_counters` sums its summed keys; a counter key is named only
where it is produced and in its row.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from ..core.indices import AccessStats

__all__ = [
    "FAMILIES",
    "Family",
    "LatencyHistogram",
    "ServiceMetrics",
    "merge_counters",
    "render_metrics",
]

DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
"""Latency bucket upper bounds, in seconds (plus an implicit +Inf)."""


class LatencyHistogram:
    """A fixed-bucket histogram of durations (seconds).

    Not locked itself: :class:`ServiceMetrics` observes and snapshots it
    under its own lock.
    """

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(buckets))
        self.counts = [0] * (len(self.bounds) + 1)  # last slot is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        """Record one duration in the first bucket whose bound holds it."""
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.total += seconds
        self.count += 1

    def snapshot(self) -> dict:
        """Per-bucket counts, sum, and count."""
        return {
            "bounds": self.bounds,
            "counts": tuple(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class ServiceMetrics:
    """All service-side instrumentation behind one lock.

    Scalar counters live in one flat dict under the keys the family table
    names; :meth:`count` moves any of them.  Labelled series (requests by
    endpoint and status, in-flight gauges, latency histograms, shard
    restarts) keep their own dicts and reach the exposition through
    :meth:`snapshot`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._in_flight: dict[str, int] = {}
        self._requests: dict[tuple[str, int], int] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._resize_seconds = LatencyHistogram()
        self.shard_restarts: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Request lifecycle (the per-request path: one lock acquisition each)
    # ------------------------------------------------------------------

    def request_started(self, endpoint: str) -> None:
        with self._lock:
            self._in_flight[endpoint] = self._in_flight.get(endpoint, 0) + 1

    def request_finished(self, endpoint: str, status: int, seconds: float) -> None:
        with self._lock:
            self._in_flight[endpoint] = max(0, self._in_flight.get(endpoint, 1) - 1)
            key = (endpoint, status)
            self._requests[key] = self._requests.get(key, 0) + 1
            histogram = self._histograms.get(endpoint)
            if histogram is None:
                histogram = self._histograms[endpoint] = LatencyHistogram()
            histogram.observe(seconds)

    def record_access_stats(self, stats: AccessStats) -> None:
        """Accumulate one query's index-access delta into the service totals."""
        snap = stats.snapshot()
        with self._lock:
            counters = self._counters
            counters["sorted_accesses"] = (
                counters.get("sorted_accesses", 0) + snap.sorted_accesses
            )
            counters["random_accesses"] = (
                counters.get("random_accesses", 0) + snap.random_accesses
            )

    def total_in_flight(self) -> int:
        """Requests currently being handled, across every endpoint.

        The drain step of graceful shutdown polls this: zero means every
        admitted or queued request has answered and the process may exit.
        """
        with self._lock:
            return sum(self._in_flight.values())

    # ------------------------------------------------------------------
    # Everything else
    # ------------------------------------------------------------------

    def count(self, **amounts: int) -> None:
        """Add to scalar counters, all under one lock acquisition.

        E.g. ``count(connections=1)`` per accepted transport connection
        (keep-alive reuse stays observable: N requests over one connection
        move ``fbox_requests_total`` by N but this by 1).
        """
        with self._lock:
            counters = self._counters
            for key, amount in amounts.items():
                counters[key] = counters.get(key, 0) + amount

    def record_resize(self, seconds: float) -> None:
        """Account one completed live shard-pool resize."""
        with self._lock:
            self._counters["resizes"] = self._counters.get("resizes", 0) + 1
            self._resize_seconds.observe(seconds)

    def record_shard_restart(self, shard: int) -> None:
        """Count one monitor-driven worker restart for the given shard."""
        with self._lock:
            self.shard_restarts[shard] = self.shard_restarts.get(shard, 0) + 1

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """The scalar counters (a key never moved is absent: zero)."""
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> dict:
        """The labelled series and histograms, consistently."""
        with self._lock:
            return {
                "in_flight": dict(self._in_flight),
                "requests": dict(self._requests),
                "histograms": {
                    endpoint: histogram.snapshot()
                    for endpoint, histogram in self._histograms.items()
                },
                "resize_seconds": self._resize_seconds.snapshot(),
                "shard_restarts": dict(self.shard_restarts),
            }


# ----------------------------------------------------------------------
# The family table
# ----------------------------------------------------------------------

Labels = Mapping[str, object]


@dataclass(frozen=True)
class Family:
    """One exposition family: its ``# TYPE`` line and its series.

    ``series`` is a tuple of ``(labels, key)`` pairs whose values are read
    from the ``source`` mapping, or — for label sets known only at scrape
    time — a callable yielding ``(labels, value)`` pairs from it (a
    histogram's value is its snapshot).  Sources: ``counters`` (the flat
    counter dict), ``metrics`` (:meth:`ServiceMetrics.snapshot`), and the
    optional components ``admission``, ``breakers`` and ``faults``; a family
    whose source is not attached is not rendered.  ``summed`` marks keys
    whose workers' values the front adds to its own under sharding.
    """

    name: str
    type: str
    series: tuple[tuple[Labels, str], ...] | Callable[..., Iterable]
    source: str = "counters"
    summed: bool = False


def _key(key: str) -> tuple[tuple[Labels, str], ...]:
    return (({}, key),)


def _by(label: str, **keys: str) -> tuple[tuple[Labels, str], ...]:
    return tuple(({label: value}, key) for value, key in keys.items())


def _sorted(field: str, *labels: str) -> Callable[[dict], Iterator]:
    """Series from one snapshot dict, in key order, its keys as labels."""

    def series(snap: dict) -> Iterator:
        for key, value in sorted(snap[field].items()):
            yield dict(zip(labels, key if isinstance(key, tuple) else (key,))), value

    return series


def _resize_seconds(snap: dict) -> Iterator:
    yield {}, snap["resize_seconds"]


_BREAKER_STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}


def _breaker_state(states: Mapping[str, Mapping]) -> Iterator:
    for dataset, state in sorted(states.items()):
        yield {"dataset": dataset}, _BREAKER_STATE_VALUES.get(str(state["state"]), -1)


def _breaker_transitions(states: Mapping[str, Mapping]) -> Iterator:
    for dataset, state in sorted(states.items()):
        yield {"dataset": dataset}, len(state["transitions"])


def _injected_faults(rules: Iterable[Mapping]) -> Iterator:
    totals: dict[str, int] = {}
    for rule in rules:
        site = str(rule["site"])
        totals[site] = totals.get(site, 0) + int(rule["fired"])
    for site in sorted(totals):
        yield {"site": site}, totals[site]


FAMILIES: tuple[Family, ...] = (
    Family(
        "fbox_requests_total", "counter",
        _sorted("requests", "endpoint", "status"), "metrics",
    ),
    Family("fbox_in_flight", "gauge", _sorted("in_flight", "endpoint"), "metrics"),
    Family(
        "fbox_request_seconds", "histogram",
        _sorted("histograms", "endpoint"), "metrics",
    ),
    Family(
        "fbox_index_accesses_total", "counter",
        _by("mode", sorted="sorted_accesses", random="random_accesses"),
        summed=True,
    ),
    Family("fbox_connections_total", "counter", _key("connections")),
    Family("fbox_request_timeouts_total", "counter", _key("timeouts")),
    Family(
        "fbox_abandoned_requests_total", "counter", _key("abandoned_requests"),
        summed=True,
    ),
    Family(
        "fbox_degraded_responses_total", "counter", _key("degraded_responses"),
        summed=True,
    ),
    Family(
        "fbox_ingest_batches_total", "counter", _key("ingest_batches"),
        summed=True,
    ),
    Family(
        "fbox_ingest_observations_total", "counter",
        _key("ingest_observations"), summed=True,
    ),
    Family(
        "fbox_ingest_replays_total", "counter",
        _by(
            "kind",
            ledger="ingest_replays_ledger",
            conflict="ingest_replays_conflict",
        ),
        summed=True,
    ),
    Family(
        "fbox_fairness_alerts_total", "counter", _key("fairness_alerts"),
        summed=True,
    ),
    Family(
        "fbox_admission_total", "counter",
        _by("outcome", accepted="accepted", shed="shed"), "admission",
    ),
    Family("fbox_queue_depth", "gauge", _key("queue_depth"), "admission"),
    Family("fbox_admission_active", "gauge", _key("active"), "admission"),
    Family(
        "fbox_concurrency_limit", "gauge", _key("max_concurrency"), "admission"
    ),
    Family("fbox_queue_limit", "gauge", _key("max_queue"), "admission"),
    Family("fbox_breaker_state", "gauge", _breaker_state, "breakers"),
    Family(
        "fbox_breaker_transitions_total", "counter", _breaker_transitions,
        "breakers",
    ),
    Family("fbox_injected_faults_total", "counter", _injected_faults, "faults"),
    # Per /batch call: batch_items / batches is the mean batch size and
    # batch_shared_items / batch_items the share answered by a shared sweep.
    Family("fbox_batches_total", "counter", _key("batches")),
    Family(
        "fbox_batch_items_total", "counter",
        _by("kind", all="batch_items", shared_sweep="batch_shared_items"),
    ),
    Family("fbox_batch_sweep_groups_total", "counter", _key("batch_groups")),
    Family("fbox_resizes_total", "counter", _key("resizes")),
    Family(
        "fbox_datasets_migrated_total", "counter", _key("datasets_migrated")
    ),
    Family(
        "fbox_resize_duration_seconds", "histogram", _resize_seconds, "metrics"
    ),
    Family(
        "fbox_shard_restarts_total", "counter",
        _sorted("shard_restarts", "shard"), "metrics",
    ),
    Family(
        "fbox_cache_events_total", "counter",
        _by(
            "event",
            hits="hits", misses="misses",
            evictions="evictions", expirations="expirations",
        ),
        summed=True,
    ),
    Family("fbox_cache_entries", "gauge", _key("size"), summed=True),
    Family("fbox_cache_capacity", "gauge", _key("capacity"), summed=True),
    Family("fbox_cube_builds_total", "counter", _key("cube_builds"), summed=True),
    Family(
        "fbox_index_family_builds_total", "counter", _key("family_builds"),
        summed=True,
    ),
    Family(
        "fbox_segment_attaches_total", "counter", _key("segment_attaches"),
        summed=True,
    ),
    Family(
        "fbox_delta_applies_total", "counter", _key("delta_applies"),
        summed=True,
    ),
    Family(
        "fbox_delta_cells_recomputed_total", "counter", _key("delta_cells"),
        summed=True,
    ),
    Family(
        "fbox_delta_lists_rebuilt_total", "counter", _key("delta_lists"),
        summed=True,
    ),
    Family("fbox_instances", "gauge", _key("fboxes"), summed=True),
)

_SUMMED_KEYS = tuple(
    key for family in FAMILIES if family.summed for _, key in family.series
)


def merge_counters(
    front: Mapping[str, int], workers: Iterable[Mapping[str, int]]
) -> dict[str, int]:
    """The front's flat counters with every worker's summed keys added."""
    merged = dict(front)
    for counters in workers:
        for key in _SUMMED_KEYS:
            merged[key] = merged.get(key, 0) + counters.get(key, 0)
    return merged


def _labels(pairs: Labels) -> str:
    inner = ",".join(f'{key}="{value}"' for key, value in pairs.items())
    return "{" + inner + "}" if inner else ""


def _histogram_lines(name: str, labels: Labels, snap: dict) -> Iterator[str]:
    cumulative = 0
    for bound, count in zip(snap["bounds"], snap["counts"]):
        cumulative += count
        yield f"{name}_bucket{_labels({**labels, 'le': bound})} {cumulative}"
    cumulative += snap["counts"][-1]
    yield f"{name}_bucket{_labels({**labels, 'le': '+Inf'})} {cumulative}"
    yield f"{name}_sum{_labels(labels)} {snap['sum']:.6f}"
    yield f"{name}_count{_labels(labels)} {snap['count']}"


def render_metrics(
    snapshot: Mapping[str, object],
    counters: Mapping[str, int],
    admission_stats: Mapping[str, object] | None = None,
    breaker_states: Mapping[str, Mapping[str, object]] | None = None,
    fault_stats: Iterable[Mapping[str, object]] | None = None,
) -> str:
    """Render the full /metrics exposition text by walking :data:`FAMILIES`.

    ``snapshot`` is :meth:`ServiceMetrics.snapshot`, ``counters`` the flat
    counter dict (under sharding already :func:`merge_counters`-ed).  The
    admission, breaker and injected-fault families appear only when their
    component is attached.
    """
    sources = {
        "counters": counters,
        "metrics": snapshot,
        "admission": admission_stats,
        "breakers": breaker_states,
        "faults": fault_stats,
    }
    lines: list[str] = []
    for family in FAMILIES:
        source = sources[family.source]
        if source is None:
            continue
        name = family.name
        lines.append(f"# TYPE {name} {family.type}")
        if callable(family.series):
            series = family.series(source)
        else:
            series = ((labels, source.get(key, 0)) for labels, key in family.series)
        for labels, value in series:
            if family.type == "histogram":
                lines.extend(_histogram_lines(name, labels, value))
            else:
                lines.append(f"{name}{_labels(labels)} {value}")
    return "\n".join(lines) + "\n"
