"""Endpoint logic: validate, consult the cache, query the F-Box, encode.

Handlers are plain functions over a :class:`ServiceContext` — no HTTP in
sight — so the full request surface (including every error path) is testable
without a socket.  The server layer maps their return values onto HTTP
responses and their :class:`~repro.service.errors.ServiceError` exceptions
onto structured 4xx JSON bodies.

Every public endpoint is one :class:`Endpoint` row of :data:`ENDPOINTS`,
which routing, ``/v1/schema`` and the shard worker's call check all read.

Validation policy
-----------------
Each endpoint's request is one field table (:mod:`repro.service.fields`):
the JSON body of a POST, the query parameters of a GET (decoded with
:func:`~repro.service.fields.decode_query`, so ``?limit=abc`` is a 400 and
``?limit=0`` a 422 exactly as the same values in a body would be).  The
table drives parsing, the cache keys and the endpoint's ``request_fields``
in ``GET /v1/schema``.  A payload is judged in a fixed order, so one with
several faults always reports the first of:

1. 400 — envelope faults: the body is not an object, a required field is
   missing, a field has the wrong JSON type;
2. 404 — the dataset is not registered (checked before any heavy work);
3. 422 — semantic faults: a value outside its enum (dimensions, measures,
   interventions, ...), a value below its minimum (``k <= 0``,
   ``limit <= 0``), a malformed group label or member, a
   what-if on a ranked-list dataset; members outside a domain and
   undefined cells surface when the query runs.

``POST /observations`` decodes its items against the dataset's site, so
an item's own 400 or 422 follows the 404.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import SimpleNamespace

from ..core.batch import group_key
from ..core.explain import explain_cell
from ..core.interventions import available_interventions, intervention_info
from ..core.measures.base import (
    GROUP_RANKING,
    available_measures,
    family_for_site,
    measure_info,
)
from ..exceptions import ReproError
from .cache import LRUCache
from .encoding import (
    batch_item_error,
    batch_item_ok,
    canonical_key,
    encode_batch,
    encode_comparison,
    encode_explanation,
    encode_topk,
    encode_whatif,
)
from .errors import (
    BadRequest, DatasetExists, ServiceError, Unprocessable, error_catalog,
)
from .faults import FaultInjector
from .fields import DATASET, MEASURE, Field, check_fields, decode_fields, require_object
from .ingest import OBSERVATION_FIELDS, TRENDS_FIELDS, IngestManager
from .ingest import handle_observations, trends_document
from .observability import ServiceMetrics, merge_counters, render_metrics
from .registry import DatasetRegistry
from .resilience import AdmissionController

__all__ = [
    "API_PREFIX",
    "API_VERSION",
    "DATASET_FIELDS",
    "ENDPOINTS",
    "LEGACY_SUNSET",
    "REQUEST_PARSERS",
    "ROUTED",
    "ROUTES",
    "Endpoint",
    "ServiceContext",
    "handle_quantify",
    "handle_compare",
    "handle_explain",
    "handle_whatif",
    "handle_batch",
    "handle_front_read",
    "handle_admin_shards",
    "handle_register_dataset",
    "handle_datasets",
    "handle_scenarios",
    "handle_healthz",
    "handle_readyz",
    "handle_metrics",
    "handle_schema",
    "parse_request",
    "resolve_degraded",
    "service_schema",
]

API_VERSION = "v1"
API_PREFIX = "/v1"
"""The current API version mount point: every endpoint answers at
``/v1/<endpoint>``.  Unversioned paths are retired: known routes answer
410 ``gone`` with a ``v1_path`` pointer."""

LEGACY_SUNSET = "Thu, 31 Dec 2026 23:59:59 GMT"
"""The retirement date ``/v1/schema`` advertises for unversioned paths."""

_DIMENSIONS = ("group", "query", "location")
_ORDERS = ("most", "least")
_QUANTIFY_ALGORITHMS = ("fagin", "naive")
_COMPARE_ALGORITHMS = ("cube", "indices")

_MAX_BATCH_ITEMS = 64
"""Upper bound on sub-requests per batch (everything runs under one
request deadline, so unbounded batches would turn into guaranteed 503s)."""


# ----------------------------------------------------------------------
# The field tables
# ----------------------------------------------------------------------

_ALLOW_STALE = Field(
    "allow_stale", "bool",
    "opt in to a degraded last-known-good answer when the deadline "
    "fires or a breaker is open",
    default=False,
)

QUANTIFY_FIELDS = (
    DATASET,
    MEASURE,
    _ALLOW_STALE,
    Field(
        "dimension", "choice", "dimension to rank", required=True,
        enum=_DIMENSIONS,
    ),
    Field(
        "k", "int", "how many members to return (positive)", default=5,
        minimum=1,
    ),
    Field("order", "choice", "rank direction", default="most", enum=_ORDERS),
    Field(
        "algorithm", "choice", "sweep strategy", default="fagin",
        enum=_QUANTIFY_ALGORITHMS,
    ),
)

COMPARE_FIELDS = (
    DATASET,
    MEASURE,
    _ALLOW_STALE,
    Field(
        "dimension", "choice", "dimension r1/r2 belong to", required=True,
        enum=_DIMENSIONS,
    ),
    Field(
        "breakdown", "choice", "dimension to break the comparison down by",
        required=True, enum=_DIMENSIONS,
    ),
    Field(
        "r1", "member",
        "first member (groups use attr=value[,attr=value] syntax)",
        required=True,
    ),
    Field("r2", "member", "second member, same syntax as r1", required=True),
    Field(
        "algorithm", "choice", "comparison strategy", default="cube",
        enum=_COMPARE_ALGORITHMS,
    ),
)

EXPLAIN_FIELDS = (
    DATASET,
    MEASURE,
    _ALLOW_STALE,
    Field(
        "group", "group", "group label, attr=value[,attr=value]", required=True,
    ),
    Field("query", "string", "query of the cell to explain", required=True),
    Field("location", "string", "location of the cell to explain", required=True),
)

WHATIF_FIELDS = (
    Field(
        "dataset", "string",
        "registered dataset name (see GET /v1/datasets); must be a "
        "group-ranking (marketplace) dataset",
        required=True,
    ),
    Field(
        "group", "group",
        "group to repair the ranking for, attr=value[,attr=value]",
        required=True,
    ),
    Field("query", "string", "query of the cell to re-rank", required=True),
    Field("location", "string", "location of the cell to re-rank", required=True),
    Field(
        "intervention", "string", "registered re-ranking intervention",
        required=True, enum=available_interventions,
    ),
    Field("alpha", "number", "FA*IR significance level, in (0, 0.5)"),
    Field(
        "p", "number",
        "FA*IR null-hypothesis protected probability; defaults to the "
        "group's share of the ranking",
    ),
    Field(
        "seed", "int", "deterministic tie-break seed for exposure_lp", default=0,
    ),
    _ALLOW_STALE,
)

BATCH_FIELDS = (
    Field(
        "requests", "array",
        "sub-requests; each carries an 'op' plus that endpoint's fields",
        required=True,
    ),
)
"""Documentation only: :func:`_batch_items` also takes a bare array."""

ADMIN_SHARDS_FIELDS = (
    Field(
        "count", "int", "target shard count (1-64); requires --shards",
        required=True,
    ),
)
"""Documentation only: ``ShardRouter.resize`` owns the ``count`` checks."""

DATASET_FIELDS = (
    Field("name", "string", "registry key for the new dataset", required=True),
    Field(
        "scenario", "string", "preset name (see GET /v1/scenarios)",
        required=True,
    ),
    Field(
        "overrides", "object",
        "scenario field overrides (seed, workers, cities, bias_scale, ...); "
        "identity fields are protected",
    ),
    Field(
        "description", "text",
        "human-readable description; defaults to the scenario's",
    ),
)
"""``POST /datasets``, decoded by :func:`handle_register_dataset`."""

_MAX_PAGE_LIMIT = 1_000

PAGE_FIELDS = (
    # The default page is large enough that small catalogs arrive whole.
    Field(
        "limit", "int", f"page size; at most {_MAX_PAGE_LIMIT} are returned",
        default=100, minimum=1,
    ),
    Field(
        "offset", "natural", "entries to skip; page on with next_offset",
        default=0,
    ),
)
"""The ``limit``/``offset`` query parameters of the paginated listings."""


@dataclass
class ServiceContext:
    """Everything a handler needs: datasets, caches, metrics, resilience.

    ``stale`` is the **last-known-good store**: one entry per logical query
    keyed *without* the dataset generation, holding ``(document,
    generation)``.  Unlike the result cache it survives re-registration on
    purpose — it is what degraded mode serves (with an explicit
    ``"degraded": true`` and ``"age_generations"``) when a deadline fires
    or a breaker is open and the request opted in via ``allow_stale``.
    """

    registry: DatasetRegistry
    cache: LRUCache = field(default_factory=LRUCache)
    metrics: ServiceMetrics = field(default_factory=ServiceMetrics)
    stale: LRUCache = field(default_factory=lambda: LRUCache(256))
    admission: AdmissionController | None = None
    faults: FaultInjector | None = None
    require_loaded: tuple[str, ...] = ()
    ingest: IngestManager = field(default_factory=IngestManager)
    router: object | None = None
    """The :class:`~repro.service.sharding.ShardRouter` when ``--shards N``
    is on (typed loosely to keep this module import-light).  When set, POST
    query execution and the dataset-truth surfaces (``/datasets``,
    ``/readyz``, the worker half of ``/metrics``) go through it."""

    def counters(self) -> dict[str, int]:
        """Every scalar ``/metrics`` counter this process holds, flat: the
        metrics' own plus cache events, builds and ingest totals (the shape
        a shard worker ships in its status frame)."""
        return {
            **self.metrics.counters(),
            **self.cache.stats(),
            **self.registry.build_counts(),
            **self.ingest.counters(),
        }


def _run_query(fn):
    """Run one F-Box call, translating library errors into 422s."""
    try:
        return fn()
    except ServiceError:
        raise
    except ReproError as error:
        raise Unprocessable(str(error)) from error


class _Request(SimpleNamespace):
    """A fully validated request.

    Carries every field of its endpoint's table as an attribute (group
    labels and members parsed), ``measure`` (the F-Box to consult), the
    dataset ``generation`` it was parsed against, and its two cache keys:
    ``key`` (generation-tagged, for the result cache) and ``stale_key``
    (generation-free, for the last-known-good store).
    """

    @property
    def sweep_key(self) -> tuple[str, str, str, str]:
        """A quantify request's batch sharing key (see
        :func:`repro.core.batch.group_key`)."""
        return group_key(self.dataset, self.measure, self.dimension, self.order)


def _parse(context: ServiceContext, endpoint: str, table, payload, hook) -> _Request:
    """Validate ``payload`` against ``table`` without computing anything heavy.

    ``hook(spec, values)`` says what the table cannot: defaults and checks
    that depend on the dataset.  The cache keys cover every table field but
    ``allow_stale``, which changes how a request may be answered, not what
    it asks.
    """
    values = decode_fields(table, payload)
    spec = context.registry.spec(values["dataset"])
    hook(spec, values)
    check_fields(table, values)
    params = {f.name: values[f.name] for f in table if f.name != "allow_stale"}
    generation = context.registry.generation(spec.name)
    return _Request(
        **values,
        generation=generation,
        key=canonical_key(endpoint, {**params, "generation": generation}),
        stale_key=canonical_key(endpoint, params),
    )


def _default_measure(spec, values: dict) -> None:
    values["measure"] = (values["measure"] or spec.default_measure).lower()


def _parse_quantify(context: ServiceContext, payload) -> _Request:
    return _parse(context, "quantify", QUANTIFY_FIELDS, payload, _default_measure)


def _parse_compare(context: ServiceContext, payload) -> _Request:
    return _parse(context, "compare", COMPARE_FIELDS, payload, _default_measure)


def _parse_explain(context: ServiceContext, payload) -> _Request:
    return _parse(context, "explain", EXPLAIN_FIELDS, payload, _default_measure)


def _whatif_hook(spec, values: dict) -> None:
    values["intervention"] = values["intervention"].lower()
    if family_for_site(spec.site) != GROUP_RANKING:
        raise Unprocessable(
            f"dataset {spec.name!r} is a {spec.site} (ranked-list) dataset; "
            "what-if interventions re-rank the shared worker ranking of a "
            "group-ranking dataset"
        )
    # Not a request field: the F-Box is looked up under the dataset's
    # default measure only to share the already-built instance.
    values["measure"] = spec.default_measure


def _parse_whatif(context: ServiceContext, payload) -> _Request:
    return _parse(context, "whatif", WHATIF_FIELDS, payload, _whatif_hook)


def _answer(context: ServiceContext, request: _Request, compute, fbox=None) -> dict:
    """Cache-through with a last-known-good side copy.

    On a miss, ``compute(context, request, fbox)`` runs against ``fbox``,
    by default the registry's F-Box for the request's dataset and measure.
    A fresh computation lands in two places: the result cache (under the
    generation-tagged key, so re-registration invalidates it) and the stale
    store (under the generation-*free* key, tagged with the generation it
    was computed against) so degraded mode can still find it later.
    """
    hit = context.cache.get(request.key)
    if hit is not None:
        return {**hit, "cached": True}
    if fbox is None:
        fbox = context.registry.fbox(request.dataset, request.measure)
    document = compute(context, request, fbox)
    context.cache.put(request.key, document)
    context.stale.put(request.stale_key, (document, request.generation))
    return {**document, "cached": False}


def _quantify_document(request: _Request, result) -> dict:
    document = encode_topk(result, request.dimension)
    document.update(
        dataset=request.dataset,
        measure=request.measure,
        k=request.k,
        algorithm=request.algorithm,
    )
    return document


def _compute_quantify(context: ServiceContext, request: _Request, fbox) -> dict:
    result = _run_query(
        lambda: fbox.quantify(
            request.dimension,
            k=request.k,
            order=request.order,
            algorithm=request.algorithm,
        )
    )
    context.metrics.record_access_stats(result.stats)
    return _quantify_document(request, result)


def handle_quantify(context: ServiceContext, payload) -> dict:
    """``POST /quantify`` — Problem 1: top/bottom-k of one dimension."""
    return _answer(context, _parse_quantify(context, payload), _compute_quantify)


def _compute_compare(context: ServiceContext, request: _Request, fbox) -> dict:
    report = _run_query(
        lambda: fbox.compare(
            request.dimension,
            request.r1,
            request.r2,
            request.breakdown,
            algorithm=request.algorithm,
        )
    )
    context.metrics.record_access_stats(report.stats)
    document = encode_comparison(report)
    document.update(
        dataset=request.dataset,
        measure=request.measure,
        algorithm=request.algorithm,
    )
    return document


def handle_compare(context: ServiceContext, payload) -> dict:
    """``POST /compare`` — Problem 2: reversal breakdown of r1 vs r2."""
    return _answer(context, _parse_compare(context, payload), _compute_compare)


def _compute_explain(context: ServiceContext, request: _Request, fbox) -> dict:
    explanation = _run_query(
        lambda: explain_cell(
            fbox.engine, request.group, request.query, request.location
        )
    )
    document = encode_explanation(explanation)
    document.update(dataset=request.dataset, measure=request.measure)
    return document


def handle_explain(context: ServiceContext, payload) -> dict:
    """``POST /explain`` — decompose one ``d<g,q,l>`` cell."""
    return _answer(context, _parse_explain(context, payload), _compute_explain)


def _compute_whatif(context: ServiceContext, request: _Request, fbox) -> dict:
    result = _run_query(
        lambda: fbox.whatif(
            request.group,
            request.query,
            request.location,
            request.intervention,
            alpha=request.alpha,
            p=request.p,
            seed=request.seed,
        )
    )
    document = encode_whatif(result)
    document.update(
        dataset=request.dataset,
        group=str(request.group),
        query=request.query,
        location=request.location,
    )
    return document


def handle_whatif(context: ServiceContext, payload) -> dict:
    """``POST /whatif`` — re-rank one cell's ranking, report every measure.

    Purely hypothetical: runs a registered intervention on the worker
    ranking behind ``d<group, query, location>`` and reports the
    before/after value of **all** registered group-ranking measures; the
    dataset and its materializations are untouched.  The F-Box is looked up
    under the dataset's default measure purely to share the already-built
    instance — the intervention consults the measure registry directly.
    """
    return _answer(context, _parse_whatif(context, payload), _compute_whatif)


def handle_front_read(context: ServiceContext, path: str, payload) -> dict:
    """Answer ``/quantify`` or ``/compare`` on a sharded front straight from
    the owning worker's published columnar segment — no worker roundtrip.

    Raises :class:`~repro.core.colstore.SegmentMiss` whenever the request
    cannot be served this way: a non-read endpoint, nothing published yet
    for the ``(dataset, measure)``,
    or a payload that fails validation — error responses must come from the
    routed path so fronted and routed answers stay byte-identical.
    """
    from ..core.colstore import AttachedFBox, SegmentMiss

    endpoint = ROUTES.get(("POST", path))
    if endpoint is None or endpoint.front_read is None:
        raise SegmentMiss(f"no front-side read for {path}")
    try:
        request = REQUEST_PARSERS[path](context, payload)
    except ServiceError as error:
        raise SegmentMiss(
            "payload must be validated by the owning worker"
        ) from error
    fbox = AttachedFBox.attach(
        context.registry.segments, request.dataset, request.measure
    )
    return _answer(context, request, endpoint.front_read, fbox)


def parse_request(context: ServiceContext, path: str, payload) -> _Request | None:
    """``payload`` parsed by ``path``'s :data:`REQUEST_PARSERS` entry, or
    ``None`` when the endpoint has none or the payload does not parse."""
    parser = REQUEST_PARSERS.get(path)
    if parser is None:
        return None
    try:
        return parser(context, payload)
    except ServiceError:
        return None


def resolve_degraded(
    context: ServiceContext, endpoint: str, payload, reason: str
) -> dict | None:
    """The degraded-mode answer for a failed request, or ``None``.

    Called by the HTTP layer when a request hit its deadline or an open
    circuit breaker.  Serves the last-known-good document — possibly
    computed against an older dataset generation — but only when the
    request opted in with ``allow_stale: true``, and never silently: the
    document carries ``"degraded": true``, the staleness in generations,
    and the reason, and ``fbox_degraded_responses_total`` is incremented.
    Returns ``None`` (caller re-raises the original error) when the
    endpoint has no degraded mode, the request did not opt in, the payload
    does not re-parse, or there is no last-known-good entry.
    """
    request = parse_request(context, endpoint, payload)
    if request is None or not request.allow_stale:
        return None
    entry = context.stale.get(request.stale_key)
    if entry is None:
        return None
    document, generation = entry
    context.metrics.count(degraded_responses=1)
    return {
        **document,
        "cached": True,
        "degraded": True,
        "degraded_reason": reason,
        "age_generations": max(0, request.generation - generation),
    }


def _batch_items(payload) -> list:
    """Unwrap and bound the batch envelope (whole-batch 400s live here)."""
    if isinstance(payload, Mapping):
        payload = payload.get("requests")
        if payload is None:
            raise BadRequest(
                'batch body must be a JSON array of sub-requests or '
                '{"requests": [...]}'
            )
    if not isinstance(payload, (list, tuple)):
        raise BadRequest(
            f"batch requests must be a JSON array, got {type(payload).__name__}"
        )
    if not payload:
        raise BadRequest("batch is empty; send at least one sub-request")
    if len(payload) > _MAX_BATCH_ITEMS:
        raise BadRequest(
            f"batch exceeds {_MAX_BATCH_ITEMS} sub-requests (got {len(payload)})"
        )
    return list(payload)


def handle_batch(context: ServiceContext, payload) -> dict:
    """``POST /batch`` — many quantify/compare/explain answers in one call.

    The planner groups cold fagin-quantify sub-requests by
    ``(dataset, measure, dimension, order)`` and answers each group with a
    **single** threshold-algorithm sweep at the group's largest ``k``
    (:meth:`repro.core.fbox.FBox.quantify_many`), slicing per-request
    results out of the one heap walk.  Everything else — cache hits,
    naive-algorithm quantifies, compares, explains — runs through the
    existing single-request handlers, so per-item caching semantics are
    identical to the standalone endpoints.

    Item failures never fail the batch: each sub-request carries its own
    ``status`` and either ``body`` or ``error`` in the item-aligned
    ``results`` array, and the batch itself answers 200.  Only envelope
    problems (empty, oversized, non-array) are whole-batch 400s.
    """
    items = _batch_items(payload)
    results: list[dict | None] = [None] * len(items)
    plans: dict[tuple, list[tuple[int, _Request]]] = {}

    for position, item in enumerate(items):
        try:
            values = decode_fields(_BATCH_ITEM_FIELDS, item)
            check_fields(_BATCH_ITEM_FIELDS, values)
            if values["op"] == "compare":
                results[position] = batch_item_ok(handle_compare(context, item))
            elif values["op"] == "explain":
                results[position] = batch_item_ok(handle_explain(context, item))
            else:
                request = _parse_quantify(context, item)
                hit = context.cache.get(request.key)
                if hit is not None:
                    results[position] = batch_item_ok({**hit, "cached": True})
                elif request.algorithm == "fagin":
                    plans.setdefault(request.sweep_key, []).append(
                        (position, request)
                    )
                else:
                    results[position] = batch_item_ok(
                        _answer(context, request, _compute_quantify)
                    )
        except ServiceError as error:
            results[position] = batch_item_error(error)

    shared_items = sum(len(members) for members in plans.values() if len(members) > 1)
    for members in plans.values():
        _, first = members[0]
        try:
            fbox = context.registry.fbox(first.dataset, first.measure)
            sweep = _run_query(
                lambda: fbox.quantify_many(
                    first.dimension,
                    [request.k for _, request in members],
                    order=first.order,
                )
            )
            # Every sliced result shares the one sweep's frozen counters;
            # account the sweep once, not once per sub-request.
            context.metrics.record_access_stats(
                next(iter(sweep.values())).stats
            )
            for position, request in members:
                document = _quantify_document(request, sweep[request.k])
                context.cache.put(request.key, document)
                context.stale.put(request.stale_key, (document, request.generation))
                results[position] = batch_item_ok({**document, "cached": False})
        except ServiceError as error:
            for position, _ in members:
                results[position] = batch_item_error(error)

    context.metrics.count(
        batches=1,
        batch_items=len(items),
        batch_groups=len(plans),
        batch_shared_items=shared_items,
    )
    return encode_batch(results, sweep_groups=len(plans), shared_items=shared_items)


def _paginate(payload, entries: list) -> tuple[list, dict]:
    """Slice a listing by ``limit``/``offset`` and build the cursor fields.

    ``next_offset`` is the cursor: non-null while more entries remain, so a
    client pages with ``?offset=<next_offset>`` until it comes back null.
    """
    values = decode_fields(PAGE_FIELDS, payload or {})
    check_fields(PAGE_FIELDS, values)
    limit = min(values["limit"], _MAX_PAGE_LIMIT)
    offset = values["offset"]
    window = entries[offset : offset + limit]
    next_offset = offset + limit if offset + limit < len(entries) else None
    return window, {
        "count": len(entries),
        "offset": offset,
        "limit": limit,
        "next_offset": next_offset,
    }


def handle_datasets(context: ServiceContext, payload=None) -> tuple[int, dict]:
    """``GET /datasets`` — the registry listing.

    Every entry carries its placement and health facts — ``shard`` (0 when
    sharding is off), ``generation``, and ``breaker`` state — so one call
    answers "where does this dataset live and is it servable".  Under
    sharding the listing is worker-truth: the router overlays each owning
    worker's live load state.  ``limit``/``offset`` query params page the
    listing (``next_offset`` is the cursor) so scenario-scale catalogs
    never produce unbounded responses.
    """
    router = context.router
    if router is not None:
        entries, page = _paginate(payload, router.describe())
        return 200, {
            "datasets": entries,
            "resize": router.resize_status(),
            **page,
        }
    registry = context.registry
    entries = []
    for entry in registry.describe():
        name = entry["name"]
        entry["shard"] = 0
        entry["generation"] = registry.generation(name)
        entry["breaker"] = registry.breaker(name).state
        entry["migrating"] = False
        entry.update(context.ingest.dataset_facts(name))
        entries.append(entry)
    entries, page = _paginate(payload, entries)
    # "resize": null documents that an in-process instance has no worker
    # pool to resize (the sharded listing carries the live state machine).
    return 200, {"datasets": entries, "resize": None, **page}


def handle_scenarios(context: ServiceContext, payload=None) -> tuple[int, dict]:
    """``GET /scenarios`` — the scenario-preset registry, full config echo.

    Same ``limit``/``offset``/``next_offset`` pagination contract as the
    dataset listing.  Lazy import keeps :mod:`repro.scenarios` (which
    imports service modules for its error types) out of this module's
    import cycle.
    """
    from ..scenarios import describe_scenarios

    entries, page = _paginate(payload, describe_scenarios())
    return 200, {"scenarios": entries, **page}


def handle_healthz(context: ServiceContext, payload=None) -> tuple[int, dict]:
    """``GET /healthz`` — liveness only: the process is up and answering.

    Deliberately trivial — orchestrators must not restart a pod because a
    dataset is quarantined; that is readiness (``/readyz``), not liveness.
    """
    return 200, {"status": "ok", "datasets": context.registry.names()}


def handle_readyz(context: ServiceContext, payload=None) -> tuple[int, dict]:
    """``GET /readyz`` — readiness: can this instance serve real answers?

    503 while any preloaded dataset is still building (or not yet loaded)
    or any dataset's breaker is not closed; the body always carries the
    per-dataset breaker state so a probe failure is self-explaining.  Under
    sharding the report is the router's shard-aware one: datasets owned by
    a dead worker show an open breaker (quarantined) until it restarts.
    """
    router = context.router
    resize = None
    if router is not None:
        report = router.health_report()
        resize = router.resize_status()
    else:
        report = [
            dict(entry, shard=0, migrating=False)
            for entry in context.registry.health_report()
        ]
    states = {entry["name"]: entry for entry in report}
    blockers: list[str] = []
    for name in context.require_loaded:
        entry = states.get(name)
        if entry is None:
            blockers.append(f"dataset {name!r} is not registered")
        elif entry["building"]:
            blockers.append(f"dataset {name!r} is still building")
        elif not entry["loaded"]:
            blockers.append(f"dataset {name!r} is not loaded yet")
    for entry in report:
        if entry["breaker"] != "closed":
            blockers.append(
                f"dataset {entry['name']!r} breaker is {entry['breaker']}"
            )
        if entry.get("migrating"):
            blockers.append(
                f"dataset {entry['name']!r} is migrating (live shard-pool "
                "resize)"
            )
    status = 200 if not blockers else 503
    return status, {
        "status": "ready" if not blockers else "unavailable",
        "blockers": blockers,
        "datasets": report,
        "resize": resize,
    }


def handle_metrics(context: ServiceContext, payload=None) -> tuple[int, bytes]:
    """``GET /metrics`` — the Prometheus text exposition; under sharding the
    workers' counters, breakers and fired faults are folded in."""
    counters = context.counters()
    breaker_states = context.registry.breaker_states()
    fault_stats = context.faults.snapshot() if context.faults is not None else None
    if context.router is not None:
        workers = context.router.merged_observability()
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


def handle_admin_shards(context: ServiceContext, payload) -> dict:
    """``POST /admin/shards`` — live-resize the worker pool (``--shards`` only)."""
    router = context.router
    if router is None:
        raise Unprocessable(
            "live shard-pool resize requires --shards; this instance "
            "executes queries in-process"
        )
    return router.resize(require_object(payload).get("count"))


_REGISTER_LOCK = threading.Lock()
"""Serializes the name check and the registration of runtime datasets."""


def handle_register_dataset(context: ServiceContext, payload) -> dict:
    """``POST /datasets`` — register a scenario-backed dataset at runtime.

    The dataset stays lazy: the first query against it triggers the build
    on whichever side owns it.  Name collisions are a hard 409
    (:class:`DatasetExists`); generation semantics match re-registering a
    spec (the tag starts at 1 and every later ingest bumps it).
    """
    values = decode_fields(DATASET_FIELDS, payload)
    name, scenario = values["name"], values["scenario"]
    overrides = values["overrides"] or {}
    # Lazy import: repro.scenarios imports service modules for its error
    # types, so the dependency must point this way at call time.
    from ..scenarios import scenario_spec

    registry = context.registry
    with _REGISTER_LOCK:
        if name in registry.names():
            raise DatasetExists(
                f"dataset {name!r} is already registered; runtime "
                "registration never replaces a live dataset"
            )
        spec = scenario_spec(
            name, scenario, overrides, description=values["description"]
        )
        registry.register(spec)
    router = context.router
    if router is not None:
        # Broadcast after the front registers: a worker that is down right
        # now inherits the spec anyway when its respawn re-reads the front
        # registry.
        router.register_dataset(spec)
    return {
        "dataset": name,
        "scenario": scenario,
        "overrides": overrides,
        "site": spec.site,
        "generation": registry.generation(name),
        "shard": router.shard_of(name) if router is not None else 0,
    }


def handle_schema(context: ServiceContext, payload=None) -> tuple[int, dict]:
    """``GET /schema`` — the machine-readable description of the API."""
    return 200, service_schema()


# ----------------------------------------------------------------------
# The endpoint table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Endpoint:
    """One public endpoint, declared once for routing, placement and schema.

    ``handler(context, payload)`` gets a POST's JSON body or a GET's query
    parameters and returns the answer (``probe`` and ``worker`` handlers:
    ``(status, document)``).  ``placement`` is how the app runs it:
    ``probe`` inline, outside admission; ``worker`` inline, but under
    ``--shards`` on the loop's default executor (it polls the workers, and
    must not queue behind query work on the pool); ``pool`` on the pool;
    ``admin`` token-gated on the pool, outside admission; ``query`` through
    the fast path, admission and the deadline, or to the owning worker.
    Pool and executor hops add no front deadline: a routed call's worker
    owns it.
    ``parser``, ``front_read`` (computed on an attached segment) and
    ``batch_op`` belong to query rows; ``extra`` adds schema keys.
    """

    method: str
    path: str
    description: str
    handler: Callable
    placement: str
    fields: tuple[Field, ...] = ()
    parser: Callable | None = None
    front_read: Callable | None = None
    batch_op: bool = False
    extra: Callable[[], dict] | None = None


ENDPOINTS = (
    Endpoint(
        "POST", "/quantify",
        "Problem 1: top/bottom-k unfairness of one dimension",
        handle_quantify, "query", QUANTIFY_FIELDS,
        parser=_parse_quantify, front_read=_compute_quantify, batch_op=True,
    ),
    Endpoint(
        "POST", "/compare", "Problem 2: reversal breakdown of two members",
        handle_compare, "query", COMPARE_FIELDS,
        parser=_parse_compare, front_read=_compute_compare, batch_op=True,
    ),
    # No front read for /explain and /whatif: both reach into the raw worker
    # rankings, which only the owning worker holds (segments do not).
    Endpoint(
        "POST", "/explain", "decompose one d<g,q,l> cell into contributions",
        handle_explain, "query", EXPLAIN_FIELDS,
        parser=_parse_explain, batch_op=True,
    ),
    Endpoint(
        "POST", "/whatif",
        "hypothetically re-rank one cell's worker ranking with a fairness "
        "intervention; reports before/after for every registered "
        "group-ranking measure",
        handle_whatif, "query", WHATIF_FIELDS, parser=_parse_whatif,
    ),
    Endpoint(
        "POST", "/batch", "many sub-requests in one call, sharing index sweeps",
        handle_batch, "query", BATCH_FIELDS,
        extra=lambda: {
            "batch": {"max_items": _MAX_BATCH_ITEMS, "ops": list(_BATCH_OPS)}
        },
    ),
    Endpoint(
        "POST", "/observations",
        "live ingest: fold a batch of new rankings into a dataset "
        "incrementally (delta cube/index maintenance)",
        handle_observations, "query", OBSERVATION_FIELDS,
    ),
    Endpoint(
        "GET", "/trends",
        "one cube cell's measure values across ingest generations "
        "(request_fields are query parameters)",
        trends_document, "pool", TRENDS_FIELDS,
    ),
    Endpoint(
        "POST", "/admin/shards",
        "operations: live-resize the worker pool; migrates moving datasets' "
        "state and flips routing atomically per dataset (auth: "
        "X-Admin-Token when --admin-token is set)",
        handle_admin_shards, "admin", ADMIN_SHARDS_FIELDS,
    ),
    Endpoint(
        "POST", "/datasets",
        "register a dataset from a named scenario at runtime; the owning "
        "worker builds it lazily on first touch (auth: X-Admin-Token when "
        "--admin-token is set; 409 on name collision)",
        handle_register_dataset, "admin", DATASET_FIELDS,
    ),
    Endpoint(
        "GET", "/datasets",
        "registered datasets with shard, generation, and breaker state "
        "(query params: limit, offset; next_offset cursor)",
        handle_datasets, "worker", PAGE_FIELDS,
    ),
    Endpoint(
        "GET", "/scenarios",
        "named scenario presets with full config echo (query params: limit, "
        "offset; next_offset cursor)",
        handle_scenarios, "probe", PAGE_FIELDS,
    ),
    Endpoint("GET", "/schema", "this document", handle_schema, "probe"),
    Endpoint("GET", "/healthz", "liveness: the process is up", handle_healthz, "probe"),
    Endpoint(
        "GET", "/readyz",
        "readiness: 503 while datasets build or breakers are open",
        handle_readyz, "worker",
    ),
    Endpoint("GET", "/metrics", "Prometheus text exposition", handle_metrics, "worker"),
)
"""Every public endpoint, in ``/v1/schema`` order."""

ROUTES = {(endpoint.method, endpoint.path): endpoint for endpoint in ENDPOINTS}
"""``(method, canonical path)`` → row: what the application layer routes."""

ROUTED = {e.path: e for e in ENDPOINTS if e.placement in ("query", "pool")}
"""Path → row for the calls a sharded front ships to the owning worker."""

REQUEST_PARSERS = {
    endpoint.path: endpoint.parser for endpoint in ENDPOINTS if endpoint.parser
}
"""Endpoint → cheap payload parser, for callers that need a request's cache
keys without running it: the application layer's cached fast path, the
front-side read, and degraded mode."""

_BATCH_OPS = tuple(endpoint.path[1:] for endpoint in ENDPOINTS if endpoint.batch_op)

_BATCH_ITEM_FIELDS = (Field("op", "choice", "", required=True, enum=_BATCH_OPS),)


def service_schema() -> dict:
    """The ``GET /v1/schema`` document: one entry per :data:`ENDPOINTS` row.

    Each endpoint's ``request_fields`` is rendered from the field table its
    request is decoded with, the enums of ``measure`` and ``intervention``
    from the live registries (a measure registered at runtime appears here
    with no service edits), the batch limits from the constants ``/batch``
    enforces, and the error catalog from
    :func:`~repro.service.errors.error_catalog`, so the document describes
    exactly what the service accepts and raises.
    """
    return {
        "version": API_VERSION,
        "mount": API_PREFIX,
        "measures": [
            measure_info(name).describe() for name in available_measures()
        ],
        "interventions": [
            intervention_info(name).describe()
            for name in available_interventions()
        ],
        "legacy": {
            "deprecated": True,
            "sunset": LEGACY_SUNSET,
            "note": "unversioned paths are retired: known routes answer "
            "410 with a v1_path pointer",
        },
        "endpoints": [
            {
                "method": endpoint.method,
                "path": API_PREFIX + endpoint.path,
                "legacy_path": endpoint.path,
                "description": endpoint.description,
                "request_fields": [field.describe() for field in endpoint.fields],
                **(endpoint.extra() if endpoint.extra is not None else {}),
            }
            for endpoint in ENDPOINTS
        ],
        "errors": error_catalog(),
    }
