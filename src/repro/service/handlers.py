"""Endpoint logic: validate, consult the cache, query the F-Box, encode.

Handlers are plain functions over a :class:`ServiceContext` — no HTTP in
sight — so the full request surface (including every error path) is testable
without a socket.  The server layer maps their return values onto HTTP
responses and their :class:`~repro.service.errors.ServiceError` exceptions
onto structured 4xx JSON bodies.

Validation policy
-----------------
* envelope problems (non-object body, missing/mistyped fields) → 400;
* unknown dataset names → 404;
* semantically invalid queries (unknown dimensions or measures, malformed
  group labels, members outside a domain, undefined cells) → 422.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

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
    parse_group,
    parse_member,
)
from .errors import BadRequest, ServiceError, Unprocessable, error_catalog
from .faults import FaultInjector
from .ingest import IngestManager
from .observability import ServiceMetrics
from .registry import DatasetRegistry
from .resilience import AdmissionController

__all__ = [
    "API_PREFIX",
    "API_VERSION",
    "LEGACY_SUNSET",
    "REQUEST_PARSERS",
    "ServiceContext",
    "handle_quantify",
    "handle_compare",
    "handle_explain",
    "handle_whatif",
    "handle_batch",
    "handle_front_read",
    "handle_datasets",
    "handle_healthz",
    "handle_readyz",
    "handle_schema",
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
_BATCH_OPS = ("quantify", "compare", "explain")

_MAX_BATCH_ITEMS = 64
"""Upper bound on sub-requests per batch (everything runs under one
request deadline, so unbounded batches would turn into guaranteed 503s)."""


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


def _require_object(payload) -> Mapping:
    if not isinstance(payload, Mapping):
        raise BadRequest(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _string_field(payload: Mapping, name: str, required: bool = True) -> str | None:
    value = payload.get(name)
    if value is None:
        if required:
            raise BadRequest(f"missing required field {name!r}")
        return None
    if not isinstance(value, str) or not value:
        raise BadRequest(f"field {name!r} must be a non-empty string")
    return value


def _int_field(payload: Mapping, name: str, default: int) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"field {name!r} must be an integer")
    return value


def _bool_field(payload: Mapping, name: str, default: bool = False) -> bool:
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise BadRequest(f"field {name!r} must be a boolean")
    return value


def _number_field(payload: Mapping, name: str) -> float | None:
    """An optional numeric field (int or float, not bool)."""
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(f"field {name!r} must be a number")
    return float(value)


def _choice_field(
    payload: Mapping, name: str, choices: tuple[str, ...], default: str | None = None
) -> str:
    """A string field restricted to ``choices``.

    Missing-and-no-default is a 400 (envelope problem); present but outside
    ``choices`` is a 422 (semantic problem).
    """
    value = payload.get(name, default)
    if value is None:
        raise BadRequest(f"missing required field {name!r}")
    if not isinstance(value, str):
        raise BadRequest(f"field {name!r} must be a string")
    if value not in choices:
        raise Unprocessable(
            f"field {name!r} must be one of {list(choices)}, got {value!r}"
        )
    return value


def _parse_member_or_422(dimension: str, text: str) -> Hashable:
    try:
        return parse_member(dimension, text)
    except ServiceError:
        raise
    except ReproError as error:
        raise Unprocessable(str(error)) from error


def _run_query(fn):
    """Run one F-Box call, translating library errors into 422s."""
    try:
        return fn()
    except ServiceError:
        raise
    except ReproError as error:
        raise Unprocessable(str(error)) from error


def _answer(context: ServiceContext, request: "_ParsedRequest", compute):
    """Cache-through with a last-known-good side copy: ``(document, was_hit)``.

    A fresh computation lands in two places: the result cache (under the
    generation-tagged key, so re-registration invalidates it) and the stale
    store (under the generation-*free* key, tagged with the generation it
    was computed against) so degraded mode can still find it later.
    """
    hit = context.cache.get(request.key)
    if hit is not None:
        return hit, True
    document = compute()
    context.cache.put(request.key, document)
    context.stale.put(request.stale_key, (document, request.generation))
    return document, False


@dataclass(frozen=True)
class _ParsedRequest:
    """A fully validated request: cache keys plus degraded-mode facts."""

    dataset: str
    generation: int
    key: str
    stale_key: str
    allow_stale: bool = False


def _request_keys(
    context: ServiceContext, endpoint: str, dataset: str, params: Mapping
) -> tuple[int, str, str]:
    """The (generation, cache key, stale key) triple for one request."""
    generation = context.registry.generation(dataset)
    key = canonical_key(endpoint, {**params, "generation": generation})
    stale_key = canonical_key(endpoint, dict(params))
    return generation, key, stale_key


@dataclass(frozen=True)
class _QuantifyRequest(_ParsedRequest):
    """One fully validated quantify sub-request plus its cache keys."""

    measure: str = ""
    dimension: str = ""
    k: int = 0
    order: str = ""
    algorithm: str = ""

    @property
    def sweep_key(self) -> tuple[str, str, str, str]:
        """The batch planner's sharing key (see :func:`repro.core.batch.group_key`)."""
        return group_key(self.dataset, self.measure, self.dimension, self.order)


def _parse_quantify(context: ServiceContext, payload) -> _QuantifyRequest:
    """Validate a quantify payload without computing anything heavy."""
    payload = _require_object(payload)
    dataset = _string_field(payload, "dataset")
    dimension = _choice_field(payload, "dimension", _DIMENSIONS)
    k = _int_field(payload, "k", 5)
    if k <= 0:
        raise Unprocessable(f"k must be positive, got {k}")
    order = _choice_field(payload, "order", _ORDERS, "most")
    algorithm = _choice_field(payload, "algorithm", _QUANTIFY_ALGORITHMS, "fagin")
    allow_stale = _bool_field(payload, "allow_stale")
    measure = _string_field(payload, "measure", required=False)
    spec = context.registry.spec(dataset)  # 404 before any heavy work
    measure = (measure or spec.default_measure).lower()

    generation, key, stale_key = _request_keys(
        context,
        "quantify",
        dataset,
        {
            "dataset": dataset,
            "measure": measure,
            "dimension": dimension,
            "k": k,
            "order": order,
            "algorithm": algorithm,
        },
    )
    return _QuantifyRequest(
        dataset=dataset,
        generation=generation,
        key=key,
        stale_key=stale_key,
        allow_stale=allow_stale,
        measure=measure,
        dimension=dimension,
        k=k,
        order=order,
        algorithm=algorithm,
    )


def _quantify_document(request: _QuantifyRequest, result) -> dict:
    document = encode_topk(result, request.dimension)
    document.update(
        dataset=request.dataset,
        measure=request.measure,
        k=request.k,
        algorithm=request.algorithm,
    )
    return document


def _compute_quantify(context: ServiceContext, request: _QuantifyRequest) -> dict:
    fbox = context.registry.fbox(request.dataset, request.measure)
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
    request = _parse_quantify(context, payload)
    document, was_hit = _answer(
        context, request, lambda: _compute_quantify(context, request)
    )
    return {**document, "cached": was_hit}


@dataclass(frozen=True)
class _CompareRequest(_ParsedRequest):
    """One fully validated compare request plus its cache keys."""

    measure: str = ""
    dimension: str = ""
    breakdown: str = ""
    r1: Hashable = None
    r2: Hashable = None
    algorithm: str = ""


def _parse_compare(context: ServiceContext, payload) -> _CompareRequest:
    payload = _require_object(payload)
    dataset = _string_field(payload, "dataset")
    dimension = _choice_field(payload, "dimension", _DIMENSIONS)
    breakdown = _choice_field(payload, "breakdown", _DIMENSIONS)
    r1_text = _string_field(payload, "r1")
    r2_text = _string_field(payload, "r2")
    algorithm = _choice_field(payload, "algorithm", _COMPARE_ALGORITHMS, "cube")
    allow_stale = _bool_field(payload, "allow_stale")
    measure = _string_field(payload, "measure", required=False)
    spec = context.registry.spec(dataset)
    measure = (measure or spec.default_measure).lower()
    r1 = _parse_member_or_422(dimension, r1_text)
    r2 = _parse_member_or_422(dimension, r2_text)

    generation, key, stale_key = _request_keys(
        context,
        "compare",
        dataset,
        {
            "dataset": dataset,
            "measure": measure,
            "dimension": dimension,
            "breakdown": breakdown,
            "r1": str(r1),
            "r2": str(r2),
            "algorithm": algorithm,
        },
    )
    return _CompareRequest(
        dataset=dataset,
        generation=generation,
        key=key,
        stale_key=stale_key,
        allow_stale=allow_stale,
        measure=measure,
        dimension=dimension,
        breakdown=breakdown,
        r1=r1,
        r2=r2,
        algorithm=algorithm,
    )


def handle_compare(context: ServiceContext, payload) -> dict:
    """``POST /compare`` — Problem 2: reversal breakdown of r1 vs r2."""
    request = _parse_compare(context, payload)

    def compute() -> dict:
        fbox = context.registry.fbox(request.dataset, request.measure)
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

    document, was_hit = _answer(context, request, compute)
    return {**document, "cached": was_hit}


@dataclass(frozen=True)
class _ExplainRequest(_ParsedRequest):
    """One fully validated explain request plus its cache keys."""

    measure: str = ""
    group: Hashable = None
    query: str = ""
    location: str = ""


def _parse_explain(context: ServiceContext, payload) -> _ExplainRequest:
    payload = _require_object(payload)
    dataset = _string_field(payload, "dataset")
    group_text = _string_field(payload, "group")
    query = _string_field(payload, "query")
    location = _string_field(payload, "location")
    allow_stale = _bool_field(payload, "allow_stale")
    measure = _string_field(payload, "measure", required=False)
    spec = context.registry.spec(dataset)
    measure = (measure or spec.default_measure).lower()
    try:
        group = parse_group(group_text)
    except ReproError as error:
        raise Unprocessable(str(error)) from error

    generation, key, stale_key = _request_keys(
        context,
        "explain",
        dataset,
        {
            "dataset": dataset,
            "measure": measure,
            "group": str(group),
            "query": query,
            "location": location,
        },
    )
    return _ExplainRequest(
        dataset=dataset,
        generation=generation,
        key=key,
        stale_key=stale_key,
        allow_stale=allow_stale,
        measure=measure,
        group=group,
        query=query,
        location=location,
    )


def handle_explain(context: ServiceContext, payload) -> dict:
    """``POST /explain`` — decompose one ``d<g,q,l>`` cell."""
    request = _parse_explain(context, payload)

    def compute() -> dict:
        fbox = context.registry.fbox(request.dataset, request.measure)
        explanation = _run_query(
            lambda: explain_cell(
                fbox.engine, request.group, request.query, request.location
            )
        )
        document = encode_explanation(explanation)
        document.update(dataset=request.dataset, measure=request.measure)
        return document

    document, was_hit = _answer(context, request, compute)
    return {**document, "cached": was_hit}


@dataclass(frozen=True)
class _WhatifRequest(_ParsedRequest):
    """One fully validated what-if request plus its cache keys."""

    measure: str = ""
    group: Hashable = None
    query: str = ""
    location: str = ""
    intervention: str = ""
    alpha: float | None = None
    p: float | None = None
    seed: int = 0


def _parse_whatif(context: ServiceContext, payload) -> _WhatifRequest:
    payload = _require_object(payload)
    dataset = _string_field(payload, "dataset")
    group_text = _string_field(payload, "group")
    query = _string_field(payload, "query")
    location = _string_field(payload, "location")
    intervention = _string_field(payload, "intervention")
    alpha = _number_field(payload, "alpha")
    p = _number_field(payload, "p")
    seed = _int_field(payload, "seed", 0)
    allow_stale = _bool_field(payload, "allow_stale")
    spec = context.registry.spec(dataset)  # 404 before any heavy work
    interventions = available_interventions()
    if intervention.lower() not in interventions:
        raise Unprocessable(
            f"unknown intervention {intervention!r}; available: {interventions}"
        )
    intervention = intervention.lower()
    if family_for_site(spec.site) != GROUP_RANKING:
        raise Unprocessable(
            f"dataset {dataset!r} is a {spec.site} (ranked-list) dataset; "
            "what-if interventions re-rank the shared worker ranking of a "
            "group-ranking dataset"
        )
    try:
        group = parse_group(group_text)
    except ReproError as error:
        raise Unprocessable(str(error)) from error

    generation, key, stale_key = _request_keys(
        context,
        "whatif",
        dataset,
        {
            "dataset": dataset,
            "group": str(group),
            "query": query,
            "location": location,
            "intervention": intervention,
            "alpha": alpha,
            "p": p,
            "seed": seed,
        },
    )
    return _WhatifRequest(
        dataset=dataset,
        generation=generation,
        key=key,
        stale_key=stale_key,
        allow_stale=allow_stale,
        measure=spec.default_measure,
        group=group,
        query=query,
        location=location,
        intervention=intervention,
        alpha=alpha,
        p=p,
        seed=seed,
    )


def handle_whatif(context: ServiceContext, payload) -> dict:
    """``POST /whatif`` — re-rank one cell's ranking, report every measure.

    Purely hypothetical: runs a registered intervention on the worker
    ranking behind ``d<group, query, location>`` and reports the
    before/after value of **all** registered group-ranking measures; the
    dataset and its materializations are untouched.  The F-Box is looked up
    under the dataset's default measure purely to share the already-built
    instance — the intervention consults the measure registry directly.
    """
    request = _parse_whatif(context, payload)

    def compute() -> dict:
        fbox = context.registry.fbox(request.dataset, request.measure)
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

    document, was_hit = _answer(context, request, compute)
    return {**document, "cached": was_hit}


_DEGRADED_PARSERS = {
    "/quantify": _parse_quantify,
    "/compare": _parse_compare,
    "/explain": _parse_explain,
    "/whatif": _parse_whatif,
}

_FRONT_READ_PATHS = ("/quantify", "/compare")
"""Endpoints a sharded front can answer straight from a published columnar
segment.  ``/explain`` and ``/whatif`` are excluded on purpose: both reach
through the unfairness *engine* into per-observation evidence (the raw
worker rankings), which only the owning worker holds — segments carry the
materialized cube and indices, not the raw dataset."""


def _front_quantify(context: ServiceContext, request: _QuantifyRequest, fbox) -> dict:
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


def _front_compare(context: ServiceContext, request: _CompareRequest, fbox) -> dict:
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

    if path not in _FRONT_READ_PATHS:
        raise SegmentMiss(f"no front-side read for {path}")
    parser = _DEGRADED_PARSERS[path]
    try:
        request = parser(context, payload)
    except ServiceError as error:
        raise SegmentMiss(
            "payload must be validated by the owning worker"
        ) from error
    fbox = AttachedFBox.attach(
        context.registry.segments, request.dataset, request.measure
    )
    if path == "/quantify":
        compute = lambda: _front_quantify(context, request, fbox)  # noqa: E731
    else:
        compute = lambda: _front_compare(context, request, fbox)  # noqa: E731
    document, was_hit = _answer(context, request, compute)
    return {**document, "cached": was_hit}

REQUEST_PARSERS = _DEGRADED_PARSERS
"""Endpoint → cheap payload parser, for callers that need a request's cache
keys without running it (the application layer's cached fast path)."""


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
    parser = _DEGRADED_PARSERS.get(endpoint)
    if parser is None:
        return None
    try:
        request = parser(context, payload)
    except ServiceError:
        return None
    if not request.allow_stale:
        return None
    entry = context.stale.get(request.stale_key)
    if entry is None:
        return None
    document, generation = entry
    context.metrics.record_degraded()
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
    plans: dict[tuple, list[tuple[int, _QuantifyRequest]]] = {}

    for position, item in enumerate(items):
        try:
            item = _require_object(item)
            op = _choice_field(item, "op", _BATCH_OPS)
            if op == "compare":
                results[position] = batch_item_ok(handle_compare(context, item))
            elif op == "explain":
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
                    document, was_hit = _answer(
                        context,
                        request,
                        lambda request=request: _compute_quantify(context, request),
                    )
                    results[position] = batch_item_ok(
                        {**document, "cached": was_hit}
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

    context.metrics.record_batch(
        items=len(items), groups=len(plans), shared_items=shared_items
    )
    return encode_batch(results, sweep_groups=len(plans), shared_items=shared_items)


_DEFAULT_PAGE_LIMIT = 100
"""Listing page size when the client sends no ``limit`` — large enough that
small catalogs still arrive whole in one response."""

_MAX_PAGE_LIMIT = 1_000


def _page_params(payload) -> tuple[int, int]:
    """Validated ``limit``/``offset`` query params (GET params are strings)."""
    params = payload if isinstance(payload, dict) else {}

    def parse(name: str, default: int, minimum: int) -> int:
        raw = params.get(name, default)
        try:
            value = int(raw)
        except (TypeError, ValueError):
            raise BadRequest(
                f"query param {name!r} must be an integer, got {raw!r}"
            ) from None
        if value < minimum:
            raise BadRequest(
                f"query param {name!r} must be >= {minimum}, got {value}"
            )
        return value

    limit = min(parse("limit", _DEFAULT_PAGE_LIMIT, 1), _MAX_PAGE_LIMIT)
    offset = parse("offset", 0, 0)
    return limit, offset


def _paginate(payload, entries: list) -> tuple[list, dict]:
    """Slice a listing by ``limit``/``offset`` and build the cursor fields.

    ``next_offset`` is the cursor: non-null while more entries remain, so a
    client pages with ``?offset=<next_offset>`` until it comes back null.
    """
    limit, offset = _page_params(payload)
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


# ----------------------------------------------------------------------
# GET /schema — the machine-readable API description
# ----------------------------------------------------------------------


def _field(
    name: str,
    type_: str,
    description: str,
    required: bool = False,
    default=None,
    enum: tuple[str, ...] | None = None,
) -> dict:
    entry: dict = {
        "name": name,
        "type": type_,
        "required": required,
        "description": description,
    }
    if default is not None:
        entry["default"] = default
    if enum is not None:
        entry["enum"] = list(enum)
    return entry


def _common_query_fields() -> list[dict]:
    return [
        _field(
            "dataset", "string",
            "registered dataset name (see GET /v1/datasets)", required=True,
        ),
        _field(
            "measure", "string",
            "distance measure; defaults to the dataset's default_measure",
            enum=tuple(available_measures()),
        ),
        _field(
            "allow_stale", "boolean",
            "opt in to a degraded last-known-good answer when the deadline "
            "fires or a breaker is open",
            default=False,
        ),
    ]


def _quantify_fields() -> list[dict]:
    return _common_query_fields() + [
        _field(
            "dimension", "string", "dimension to rank", required=True,
            enum=_DIMENSIONS,
        ),
        _field("k", "integer", "how many members to return (positive)", default=5),
        _field("order", "string", "rank direction", default="most", enum=_ORDERS),
        _field(
            "algorithm", "string", "sweep strategy", default="fagin",
            enum=_QUANTIFY_ALGORITHMS,
        ),
    ]


def _compare_fields() -> list[dict]:
    return _common_query_fields() + [
        _field(
            "dimension", "string", "dimension r1/r2 belong to", required=True,
            enum=_DIMENSIONS,
        ),
        _field(
            "breakdown", "string", "dimension to break the comparison down by",
            required=True, enum=_DIMENSIONS,
        ),
        _field(
            "r1", "string",
            "first member (groups use attr=value[,attr=value] syntax)",
            required=True,
        ),
        _field("r2", "string", "second member, same syntax as r1", required=True),
        _field(
            "algorithm", "string", "comparison strategy", default="cube",
            enum=_COMPARE_ALGORITHMS,
        ),
    ]


def _explain_fields() -> list[dict]:
    return _common_query_fields() + [
        _field(
            "group", "string", "group label, attr=value[,attr=value]",
            required=True,
        ),
        _field("query", "string", "query of the cell to explain", required=True),
        _field("location", "string", "location of the cell to explain", required=True),
    ]


def _whatif_fields() -> list[dict]:
    return [
        _field(
            "dataset", "string",
            "registered dataset name (see GET /v1/datasets); must be a "
            "group-ranking (marketplace) dataset",
            required=True,
        ),
        _field(
            "group", "string",
            "group to repair the ranking for, attr=value[,attr=value]",
            required=True,
        ),
        _field("query", "string", "query of the cell to re-rank", required=True),
        _field("location", "string", "location of the cell to re-rank", required=True),
        _field(
            "intervention", "string", "registered re-ranking intervention",
            required=True, enum=tuple(available_interventions()),
        ),
        _field("alpha", "number", "FA*IR significance level, in (0, 0.5)"),
        _field(
            "p", "number",
            "FA*IR null-hypothesis protected probability; defaults to the "
            "group's share of the ranking",
        ),
        _field(
            "seed", "integer",
            "deterministic tie-break seed for exposure_lp", default=0,
        ),
        _field(
            "allow_stale", "boolean",
            "opt in to a degraded last-known-good answer when the deadline "
            "fires or a breaker is open",
            default=False,
        ),
    ]


def service_schema() -> dict:
    """The ``GET /v1/schema`` document.

    Generated from the same constants the validators consult
    (``_DIMENSIONS``, ``_ORDERS``, the algorithm tables, the batch op list
    and size cap), from the live measure and intervention registries
    (:func:`~repro.core.measures.base.available_measures` and friends — a
    measure registered at runtime appears here with no service edits), and
    from :func:`~repro.service.errors.error_catalog`, so the advertised
    enums and error codes can never drift from what the service actually
    accepts and raises.
    """
    endpoint = lambda method, path, description, **extra: {  # noqa: E731
        "method": method,
        "path": API_PREFIX + path,
        "legacy_path": path,
        "description": description,
        **extra,
    }
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
            endpoint(
                "POST", "/quantify",
                "Problem 1: top/bottom-k unfairness of one dimension",
                request_fields=_quantify_fields(),
            ),
            endpoint(
                "POST", "/compare",
                "Problem 2: reversal breakdown of two members",
                request_fields=_compare_fields(),
            ),
            endpoint(
                "POST", "/explain",
                "decompose one d<g,q,l> cell into contributions",
                request_fields=_explain_fields(),
            ),
            endpoint(
                "POST", "/whatif",
                "hypothetically re-rank one cell's worker ranking with a "
                "fairness intervention; reports before/after for every "
                "registered group-ranking measure",
                request_fields=_whatif_fields(),
            ),
            endpoint(
                "POST", "/batch",
                "many sub-requests in one call, sharing index sweeps",
                request_fields=[
                    _field(
                        "requests", "array",
                        "sub-requests; each carries an 'op' plus that "
                        "endpoint's fields",
                        required=True,
                    ),
                ],
                batch={
                    "max_items": _MAX_BATCH_ITEMS,
                    "ops": list(_BATCH_OPS),
                },
            ),
            endpoint(
                "POST", "/observations",
                "live ingest: fold a batch of new rankings into a dataset "
                "incrementally (delta cube/index maintenance)",
                request_fields=[
                    _field(
                        "dataset", "string",
                        "registered dataset name (see GET /v1/datasets)",
                        required=True,
                    ),
                    _field(
                        "batch_id", "string",
                        "client-supplied idempotency key; a replayed batch "
                        "returns the stored result instead of re-applying",
                    ),
                    _field(
                        "observations", "array",
                        "ranking batches; marketplace items carry query/"
                        "location/ranking (+optional scores), search items "
                        "query/location/results_by_user",
                        required=True,
                    ),
                ],
            ),
            endpoint(
                "GET", "/trends",
                "one cube cell's measure values across ingest generations "
                "(query params: dataset, group, query, location[, measure])",
            ),
            endpoint(
                "POST", "/admin/shards",
                "operations: live-resize the worker pool; migrates moving "
                "datasets' state and flips routing atomically per dataset "
                "(auth: X-Admin-Token when --admin-token is set)",
                request_fields=[
                    _field(
                        "count", "integer",
                        "target shard count (1-64); requires --shards",
                        required=True,
                    ),
                ],
            ),
            endpoint(
                "POST", "/datasets",
                "register a dataset from a named scenario at runtime; the "
                "owning worker builds it lazily on first touch (auth: "
                "X-Admin-Token when --admin-token is set; 409 on name "
                "collision)",
                request_fields=[
                    _field(
                        "name", "string",
                        "registry key for the new dataset",
                        required=True,
                    ),
                    _field(
                        "scenario", "string",
                        "preset name (see GET /v1/scenarios)",
                        required=True,
                    ),
                    _field(
                        "overrides", "object",
                        "scenario field overrides (seed, workers, cities, "
                        "bias_scale, ...); identity fields are protected",
                    ),
                ],
            ),
            endpoint(
                "GET", "/datasets",
                "registered datasets with shard, generation, and breaker "
                "state (query params: limit, offset; next_offset cursor)",
            ),
            endpoint(
                "GET", "/scenarios",
                "named scenario presets with full config echo (query "
                "params: limit, offset; next_offset cursor)",
            ),
            endpoint("GET", "/schema", "this document"),
            endpoint("GET", "/healthz", "liveness: the process is up"),
            endpoint(
                "GET", "/readyz",
                "readiness: 503 while datasets build or breakers are open",
            ),
            endpoint("GET", "/metrics", "Prometheus text exposition"),
        ],
        "errors": error_catalog(),
    }


def handle_schema(context: ServiceContext, payload=None) -> tuple[int, dict]:
    """``GET /schema`` — the machine-readable description of the API."""
    return 200, service_schema()
