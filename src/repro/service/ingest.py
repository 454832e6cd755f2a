"""The live-ingest subsystem: ``POST /observations`` and ``GET /trends``.

The paper's data is a crawl *protocol* — repeated queries against live
sites — so the service accepts the same shape continuously: a batch of new
``(query, location)`` rankings lands as one ``POST /observations``, is
schema-validated against :mod:`repro.data.schema`, and is folded into the
live dataset **incrementally** (only the dirty unfairness-cube columns are
recomputed and only the dirty posting lists re-sorted — see
:meth:`repro.core.fbox.FBox.apply_observations`).  The dataset's generation
counter bumps last, so the LRU result cache and the degraded-answer store
invalidate for free and no pre-ingest answer can ever carry the post-ingest
generation tag.

On top of the write path sits the monitoring surface the paper's
longitudinal framing implies: every ingest records the recomputed cell
values into a generation-ringed history, ``GET /v1/trends`` replays one
cube cell's values across generations, and a configurable alert threshold
counts crossings into ``fbox_fairness_alerts_total`` and the ``/datasets``
listing.

Idempotency: a client-supplied ``batch_id`` is remembered per dataset, and
a replay (e.g. a retry after a dropped connection) returns the stored
result with ``"replayed": true`` instead of double-applying the batch.  The
ledger is a bounded FIFO, so on its own an old ``batch_id`` replayed after
eviction would be silently re-applied; a client-supplied monotonically
increasing ``sequence`` closes that hole — the manager tracks the highest
applied sequence per dataset, and an unknown ``batch_id`` at or below the
high-water mark is rejected with 409 ``batch_conflict`` instead of
double-counting its observations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Mapping

from ..core.groups import group_lattice
from ..core.rankings import RankedList
from ..core.unfairness import MarketplaceUnfairness, SearchEngineUnfairness
from ..data.schema import MarketplaceObservation, SearchObservation
from ..exceptions import DataError, ReproError
from .errors import BadRequest, Conflict, Unprocessable
from .fields import DATASET, MEASURE, Field, check_fields, decode_fields

__all__ = [
    "MARKETPLACE_ITEM_FIELDS",
    "OBSERVATION_FIELDS",
    "SEARCH_ITEM_FIELDS",
    "TRENDS_FIELDS",
    "IngestManager",
    "decode_observations",
    "encode_observation",
    "handle_observations",
    "trends_document",
]

_MAX_INGEST_OBSERVATIONS = 256
"""Upper bound on observations per ingest batch (one batch applies under
the dataset's build lock, so unbounded batches would stall readers)."""

_DEFAULT_HISTORY = 64
"""Generations of trend history retained per dataset."""

_LEDGER_CAPACITY = 256
"""Remembered ``batch_id`` results per dataset (FIFO eviction)."""


# ----------------------------------------------------------------------
# Payload decoding (schema validation)
# ----------------------------------------------------------------------


_QUERY = Field("query", "string", "the crawled query", required=True)
_LOCATION = Field("location", "string", "the crawled location", required=True)

MARKETPLACE_ITEM_FIELDS = (
    _QUERY,
    _LOCATION,
    Field("ranking", "strings", "worker ids, best first", required=True),
    Field(
        "scores", "numbers",
        "worker id -> relevance score in [0, 1], one per ranked worker",
    ),
)
"""One observation of a group-ranking (marketplace) dataset."""

SEARCH_ITEM_FIELDS = (
    _QUERY,
    _LOCATION,
    Field(
        "results_by_user", "rankings",
        "user id -> that user's result list; non-empty",
        required=True,
    ),
)
"""One observation of a ranked-list (search) dataset."""

OBSERVATION_FIELDS = (
    DATASET,
    Field(
        "batch_id", "string",
        "client-supplied idempotency key; a replayed batch returns the "
        "stored result instead of re-applying",
    ),
    Field(
        "sequence", "natural",
        "client-supplied batch sequence number, strictly increasing per "
        "dataset; an unknown batch_id at or below the applied high-water "
        "mark is rejected with 409 batch_conflict",
    ),
    Field(
        "observations", "array",
        "ranking batches, decoded by the dataset's site kind",
        required=True,
        items={"marketplace": MARKETPLACE_ITEM_FIELDS, "search": SEARCH_ITEM_FIELDS},
    ),
)
"""The ``POST /observations`` field table.  Items are decoded by
:func:`decode_observations` once the dataset's site is known."""


def _decode_marketplace(values: dict) -> MarketplaceObservation:
    ranking = RankedList(items=values["ranking"], scores=values["scores"])
    return MarketplaceObservation(
        query=values["query"], location=values["location"], ranking=ranking
    )


def _decode_search(values: dict) -> SearchObservation:
    results = values["results_by_user"]
    if not results:
        raise BadRequest("field 'results_by_user' must be a non-empty JSON object")
    return SearchObservation(
        query=values["query"],
        location=values["location"],
        results_by_user={user: RankedList(items) for user, items in results.items()},
    )


def decode_observations(site: str, items) -> list:
    """Validate a batch of raw observation payloads for one site kind.

    Each item is decoded by its site's field table.  Envelope problems
    (wrong types, missing fields) raise :class:`BadRequest`; semantic ones
    (duplicate ranks, empty rankings, scores outside [0, 1]) raise
    :class:`Unprocessable`, matching the service-wide policy.
    """
    if not isinstance(items, (list, tuple)):
        raise BadRequest(
            "field 'observations' must be a JSON array of observation objects"
        )
    if not items:
        raise BadRequest("field 'observations' is empty; send at least one")
    if len(items) > _MAX_INGEST_OBSERVATIONS:
        raise BadRequest(
            f"batch exceeds {_MAX_INGEST_OBSERVATIONS} observations "
            f"(got {len(items)})"
        )
    if site == "taskrabbit":
        table, decode = MARKETPLACE_ITEM_FIELDS, _decode_marketplace
    else:
        table, decode = SEARCH_ITEM_FIELDS, _decode_search
    decoded = []
    for position, item in enumerate(items):
        where = f"observations[{position}]"
        if not isinstance(item, Mapping):
            raise BadRequest(
                f"{where} must be a JSON object, got {type(item).__name__}"
            )
        try:
            decoded.append(decode(decode_fields(table, item)))
        except BadRequest as error:
            raise BadRequest(f"{where}: {error}") from error
        except ReproError as error:  # a ranking or observation the data rejects
            raise Unprocessable(f"{where}: {error}") from error
    return decoded


def encode_observation(observation) -> dict:
    """The inverse of :func:`decode_observations` for one observation.

    Produces the exact ``POST /observations`` item shape, so a journal of
    these payloads can be shipped over the shard frame protocol (plain
    JSON) and replayed through the same validating decoder on the other
    side — the wire format for dataset state migration is the public API
    format, not a private pickle.
    """
    if isinstance(observation, MarketplaceObservation):
        payload: dict = {
            "query": observation.query,
            "location": observation.location,
            "ranking": list(observation.ranking.items),
        }
        if observation.ranking.scores is not None:
            payload["scores"] = dict(observation.ranking.scores)
        return payload
    return {
        "query": observation.query,
        "location": observation.location,
        "results_by_user": {
            user: list(ranking.items)
            for user, ranking in observation.results_by_user.items()
        },
    }


# ----------------------------------------------------------------------
# The manager: idempotency ledger, trend history, alerts
# ----------------------------------------------------------------------


class IngestManager:
    """Per-dataset write-path state: batch ledger, trend ring, alerts.

    One instance lives on the :class:`~repro.service.handlers.ServiceContext`
    (each shard worker owns its own, covering the datasets it serves).
    Ingests for one dataset serialize on a per-dataset lock so the
    check-ledger → apply → record sequence is atomic even under concurrent
    replays of the same ``batch_id``.
    """

    def __init__(
        self,
        alert_threshold: float | None = None,
        history: int = _DEFAULT_HISTORY,
    ) -> None:
        self.alert_threshold = alert_threshold
        self.history = history
        self._lock = threading.RLock()
        self._dataset_locks: dict[str, threading.RLock] = {}
        self._ledgers: dict[str, OrderedDict[str, dict]] = {}
        # Latest accepted observation per (query, location), re-encoded to
        # the API payload shape.  Replaying the journal onto the dataset's
        # deterministic base load reproduces the live state exactly — this
        # is what a shard migration ships (alongside the O(1) handoff of
        # the dataset's shared-memory segments).
        self._journals: dict[str, OrderedDict[tuple[str, str], dict]] = {}
        self._rings: dict[str, deque] = {}
        self._alerts: dict[str, int] = {}
        self._batches: dict[str, int] = {}
        self._observations = 0
        # Replays by kind: "ledger" = answered from the stored result;
        # "conflict" = an evicted-but-older sequence rejected with 409.
        self._replays = {"ledger": 0, "conflict": 0}
        self._high_water: dict[str, int] = {}

    def _dataset_lock(self, name: str) -> threading.RLock:
        with self._lock:
            lock = self._dataset_locks.get(name)
            if lock is None:
                lock = self._dataset_locks[name] = threading.RLock()
            return lock

    # -- the write path -------------------------------------------------

    def ingest(
        self,
        registry,
        name: str,
        batch_id: str | None,
        observations: list,
        sequence: int | None = None,
    ) -> dict:
        """Apply one decoded batch; idempotent per ``(dataset, batch_id)``.

        ``sequence`` (client-supplied, strictly increasing per dataset)
        guards the idempotency ledger's bounded depth: an unknown
        ``batch_id`` whose sequence is at or below the dataset's applied
        high-water mark must be a replay of an evicted batch — re-applying
        it would double-count, so it is rejected with 409
        :class:`~repro.service.errors.Conflict` instead.
        """
        with self._dataset_lock(name):
            with self._lock:
                ledger = self._ledgers.setdefault(name, OrderedDict())
                stored = ledger.get(batch_id) if batch_id else None
                if stored is not None:
                    self._replays["ledger"] += 1
                    return {**stored, "replayed": True}
                high_water = self._high_water.get(name)
                if (
                    sequence is not None
                    and high_water is not None
                    and sequence <= high_water
                ):
                    self._replays["conflict"] += 1
                    raise Conflict(
                        f"batch sequence {sequence} for dataset {name!r} is at "
                        f"or below the applied high-water mark {high_water} and "
                        f"its batch_id is no longer in the idempotency ledger; "
                        "re-applying would double-count its observations"
                    )
            try:
                outcome = registry.apply_observations(name, observations)
            except DataError as error:
                # Semantic problems the decode layer cannot see (rankings
                # referencing workers/users outside the dataset's roster).
                raise Unprocessable(str(error)) from error
            snapshot = self._record(registry, name, batch_id, outcome)
            document = {
                "kind": "ingest",
                "dataset": name,
                "batch_id": batch_id,
                **({"sequence": sequence} if sequence is not None else {}),
                "generation": outcome["generation"],
                "accepted": len(observations),
                "touched_pairs": [list(pair) for pair in outcome["touched"]],
                "cells_recomputed": outcome["cells_recomputed"],
                "lists_rebuilt": outcome["lists_rebuilt"],
                "alerts": snapshot["alerts"],
            }
            with self._lock:
                journal = self._journals.setdefault(name, OrderedDict())
                for observation in observations:
                    key = (observation.query, observation.location)
                    journal.pop(key, None)
                    journal[key] = encode_observation(observation)
                self._batches[name] = self._batches.get(name, 0) + 1
                self._observations += len(observations)
                if sequence is not None:
                    previous = self._high_water.get(name)
                    if previous is None or sequence > previous:
                        self._high_water[name] = sequence
                if batch_id:
                    ledger[batch_id] = document
                    while len(ledger) > _LEDGER_CAPACITY:
                        ledger.popitem(last=False)
            return {**document, "replayed": False}

    def _record(
        self, registry, name: str, batch_id: str | None, outcome: dict
    ) -> dict:
        """Snapshot the recomputed cells into the trend ring; count alerts.

        Values come from each measure's engine (stateless per-cell, so this
        costs only ``|groups| × |touched pairs|`` per measure).  The ring
        holds one entry per ingest generation.
        """
        spec = registry.spec(name)
        dataset = registry.dataset(name)
        fboxes = registry.live_fboxes(name)
        measures = sorted(fboxes) or [spec.default_measure]
        groups = group_lattice(registry.schema)
        values: dict[str, dict] = {}
        alerts = 0
        for measure in measures:
            if measure in fboxes:
                engine = fboxes[measure].engine
            elif spec.site == "taskrabbit":
                engine = MarketplaceUnfairness(dataset, registry.schema, measure=measure)
            else:
                engine = SearchEngineUnfairness(dataset, registry.schema, measure=measure)
            cells: dict[tuple[str, str, str], float | None] = {}
            for query, location in outcome["touched"]:
                for group in groups:
                    if engine.defined_for(group, query, location):
                        value = float(engine.unfairness(group, query, location))
                    else:
                        value = None
                    cells[(str(group), query, location)] = value
                    if (
                        value is not None
                        and self.alert_threshold is not None
                        and value >= self.alert_threshold
                    ):
                        alerts += 1
            values[measure] = cells
        entry = {
            "generation": outcome["generation"],
            "batch_id": batch_id,
            "values": values,
            "alerts": alerts,
        }
        with self._lock:
            ring = self._rings.setdefault(name, deque(maxlen=self.history))
            ring.append(entry)
            self._alerts[name] = self._alerts.get(name, 0) + alerts
        return entry

    # -- state migration (live shard-pool resize) ------------------------

    @staticmethod
    def _encode_ring_entry(entry: dict) -> dict:
        # Trend cells are keyed by (group, query, location) tuples, which
        # JSON cannot express as object keys; flatten to [g, q, l, value]
        # rows for the wire.
        return {
            "generation": entry["generation"],
            "batch_id": entry["batch_id"],
            "alerts": entry["alerts"],
            "values": {
                measure: [
                    [group, query, location, value]
                    for (group, query, location), value in cells.items()
                ]
                for measure, cells in entry["values"].items()
            },
        }

    def export_state(self, name: str) -> dict:
        """A JSON-safe snapshot of one dataset's full write-path state.

        Everything a destination worker needs so the move is invisible to
        clients: the observation journal (to rebuild the dataset), the
        idempotency ledger and applied high-water sequence (so replay
        protection survives the move), the trend ring, and the alert and
        batch counts.  Taken under the dataset's ingest lock, so the
        snapshot can never interleave with a concurrent apply.
        """
        with self._dataset_lock(name):
            with self._lock:
                ledger = self._ledgers.get(name) or OrderedDict()
                return {
                    "journal": [
                        dict(payload)
                        for payload in self._journals.get(name, OrderedDict()).values()
                    ],
                    "ledger": [[batch_id, dict(doc)] for batch_id, doc in ledger.items()],
                    "high_water": self._high_water.get(name),
                    "ring": [
                        self._encode_ring_entry(entry)
                        for entry in self._rings.get(name, ())
                    ],
                    "alerts": self._alerts.get(name, 0),
                    "batches": self._batches.get(name, 0),
                }

    def import_state(self, name: str, state: Mapping) -> None:
        """Adopt an exported snapshot, wholesale replacing local state.

        Replacement (not merge) is deliberate: after an N→M→N round trip a
        worker may still hold the dataset's pre-departure state, and merging
        would resurrect ledger entries and trend points the source already
        evicted.  The imported snapshot *is* the dataset's truth.
        """
        journal: OrderedDict[tuple[str, str], dict] = OrderedDict()
        for item in state.get("journal") or ():
            journal[(item.get("query"), item.get("location"))] = dict(item)
        ledger: OrderedDict[str, dict] = OrderedDict(
            (batch_id, dict(doc)) for batch_id, doc in (state.get("ledger") or ())
        )
        ring: deque = deque(maxlen=self.history)
        for entry in state.get("ring") or ():
            ring.append(
                {
                    "generation": entry["generation"],
                    "batch_id": entry["batch_id"],
                    "alerts": entry["alerts"],
                    "values": {
                        measure: {
                            (group, query, location): value
                            for group, query, location, value in cells
                        }
                        for measure, cells in entry["values"].items()
                    },
                }
            )
        with self._dataset_lock(name):
            with self._lock:
                self._journals[name] = journal
                self._ledgers[name] = ledger
                self._rings[name] = ring
                high_water = state.get("high_water")
                if high_water is None:
                    self._high_water.pop(name, None)
                else:
                    self._high_water[name] = int(high_water)
                self._alerts[name] = int(state.get("alerts") or 0)
                self._batches[name] = int(state.get("batches") or 0)

    # -- the read surfaces ----------------------------------------------

    def trends(
        self, name: str, measure: str, group: str, query: str, location: str
    ) -> list[dict]:
        """Per-generation values of one cube cell, oldest first.

        A generation appears only when the requested cell was recomputed by
        that ingest; ``value`` is ``null`` when the cell was undefined then.
        """
        key = (group, query, location)
        points = []
        with self._lock:
            ring = list(self._rings.get(name, ()))
        for entry in ring:
            cells = entry["values"].get(measure)
            if cells is None or key not in cells:
                continue
            value = cells[key]
            points.append(
                {
                    "generation": entry["generation"],
                    "batch_id": entry["batch_id"],
                    "value": value,
                    "alert": (
                        value is not None
                        and self.alert_threshold is not None
                        and value >= self.alert_threshold
                    ),
                }
            )
        return points

    def dataset_facts(self, name: str) -> dict:
        """The ``/datasets`` overlay: alerting config plus write-path counts."""
        with self._lock:
            return {
                "alert_threshold": self.alert_threshold,
                "alerts": self._alerts.get(name, 0),
                "ingest_batches": self._batches.get(name, 0),
                "trend_generations": len(self._rings.get(name, ())),
            }

    def counters(self) -> dict[str, int]:
        """Totals for the /metrics exposition (summed across datasets)."""
        with self._lock:
            return {
                "ingest_batches": sum(self._batches.values()),
                "ingest_observations": self._observations,
                "ingest_replays_ledger": self._replays["ledger"],
                "ingest_replays_conflict": self._replays["conflict"],
                "fairness_alerts": sum(self._alerts.values()),
            }


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------


def handle_observations(context, payload) -> dict:
    """``POST /observations`` — fold a batch of new rankings into a dataset.

    Under sharding this runs on the owning worker (the front routes the
    payload over the frame protocol and syncs its generation counter from
    the response).
    """
    values = decode_fields(OBSERVATION_FIELDS, payload)
    name = values["dataset"]
    spec = context.registry.spec(name)  # 404 before any decoding work
    observations = decode_observations(spec.site, values["observations"])
    return context.ingest.ingest(
        context.registry,
        name,
        values["batch_id"],
        observations,
        sequence=values["sequence"],
    )


TRENDS_FIELDS = (
    DATASET,
    MEASURE,
    Field(
        "group", "group", "group label of the cell, attr=value[,attr=value]",
        required=True,
    ),
    Field("query", "string", "query of the cell", required=True),
    Field("location", "string", "location of the cell", required=True),
)
"""The ``GET /trends`` query parameters."""


def trends_document(context, payload) -> dict:
    """``GET /trends`` — one cube cell's measure values across generations
    (a sharded front forwards the call to the owning worker)."""
    values = decode_fields(TRENDS_FIELDS, payload)
    router = context.router
    if router is not None:
        return router.execute("/trends", dict(payload), router.request_timeout)
    name = values["dataset"]
    spec = context.registry.spec(name)
    values["measure"] = (values["measure"] or spec.default_measure).lower()
    check_fields(TRENDS_FIELDS, values)
    query, location = values["query"], values["location"]
    # A coordinate outside the dataset's domain is a 422, not a cell with
    # no history yet.  The check reads one snapshot of the dataset (an
    # ingest may upsert it concurrently), never a cube.
    observations = context.registry.dataset(name).observations()
    for field, value, domain in (
        ("group", values["group"], group_lattice(context.registry.schema)),
        ("query", query, {o.query for o in observations}),
        ("location", location, {o.location for o in observations}),
    ):
        if value not in domain:
            raise Unprocessable(f"{field} {payload[field]!r} is not in dataset {name!r}")
    group = str(values["group"])
    points = context.ingest.trends(name, values["measure"], group, query, location)
    return {
        "kind": "trends",
        "dataset": name,
        "measure": values["measure"],
        "group": group,
        "query": query,
        "location": location,
        "alert_threshold": context.ingest.alert_threshold,
        "points": points,
    }
