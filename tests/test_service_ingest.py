"""The live-ingest subsystem: POST /observations, trends, and convergence.

Covers the write path end-to-end on both execution backends the conftest
parameterizes: validation and idempotency of
``POST /v1/observations``, incremental cube/index maintenance converging
byte-for-byte with a cold rebuild of the final dataset state, generation
invalidation under ingest/quantify races, trend history plus alert
accounting on ``GET /v1/trends`` / ``/metrics`` / ``/v1/datasets``, the
simulators' ``emit_observations`` streaming mode, the client's
retry-idempotent ``ingest()``/``trends()`` sugar, and the worker-exit
chaos arc (a shard dying mid-ingest must quarantine, restart, and let the
replayed ``batch_id`` converge to the same cube state).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse

import pytest

from repro.client import FBoxClient, RetryPolicy
from repro.data.schema import MarketplaceDataset, SearchDataset
from repro.marketplace.crawl import emit_observations as emit_marketplace
from repro.searchengine.study import emit_observations as emit_search
from repro.service.faults import FAULTS_ENV_VAR
from repro.service.handlers import ServiceContext, handle_quantify, service_schema
from repro.service.ingest import (
    MARKETPLACE_ITEM_FIELDS,
    SEARCH_ITEM_FIELDS,
    TRENDS_FIELDS,
    decode_observations,
    handle_observations,
)
from repro.service.registry import DatasetRegistry, DatasetSpec
from repro.service.server import make_server
from repro.service.sharding import shard_for

from tests.test_service import ServiceHarness, _registry


def _trends_path(dataset: str, **params) -> str:
    return "/v1/trends?" + urllib.parse.urlencode({"dataset": dataset, **params})


def _market_batch(site, dataset, seed=0, batch_size=3, swaps=2) -> list[dict]:
    return next(
        emit_marketplace(
            site, dataset, batches=1, batch_size=batch_size, seed=seed, swaps=swaps
        )
    )


def _copy_marketplace(dataset: MarketplaceDataset) -> MarketplaceDataset:
    return MarketplaceDataset(
        workers=dataset.workers.values(), observations=dataset.observations()
    )


def _copy_search(dataset: SearchDataset) -> SearchDataset:
    return SearchDataset(
        users=dataset.users.values(), observations=dataset.observations()
    )


@pytest.fixture
def service(start_service, small_marketplace_dataset, small_search_dataset):
    # Ingest mutates the registered dataset in place; hand the registry
    # copies so one parameterization's writes never leak into the next
    # (a leaked re-apply changes zero cells, and the exact staleness
    # predicate then correctly rebuilds zero posting lists).
    registry = _registry(
        _copy_marketplace(small_marketplace_dataset),
        _copy_search(small_search_dataset),
    )
    return ServiceHarness(start_service(registry=registry, request_timeout=60.0))


# ----------------------------------------------------------------------
# POST /observations: the write path over HTTP
# ----------------------------------------------------------------------


class TestIngestEndpoint:
    def test_ingest_applies_and_invalidates_the_cache(
        self, service, site, small_marketplace_dataset
    ):
        request = {"dataset": "taskrabbit", "dimension": "group", "k": 3}
        status, first = service.post("/v1/quantify", request)
        assert status == 200 and first["cached"] is False
        assert service.post("/v1/quantify", request)[1]["cached"] is True

        batch = _market_batch(site, small_marketplace_dataset)
        status, document = service.post(
            "/v1/observations",
            {"dataset": "taskrabbit", "batch_id": "b-1", "observations": batch},
        )
        assert status == 200
        assert document["kind"] == "ingest"
        assert document["dataset"] == "taskrabbit"
        assert document["replayed"] is False
        assert document["accepted"] == len(batch)
        assert len(document["touched_pairs"]) == len(batch)
        assert document["cells_recomputed"] > 0
        assert document["lists_rebuilt"] > 0

        status, fresh = service.post("/v1/quantify", request)
        assert status == 200
        assert fresh["cached"] is False  # the generation bump defeated the LRU
        assert service.post("/v1/quantify", request)[1]["cached"] is True

    def test_replayed_batch_id_is_not_double_applied(
        self, service, site, small_marketplace_dataset
    ):
        batch = _market_batch(site, small_marketplace_dataset)
        payload = {
            "dataset": "taskrabbit",
            "batch_id": "replay-me",
            "observations": batch,
        }
        _, first = service.post("/v1/observations", payload)
        status, second = service.post("/v1/observations", payload)
        assert status == 200
        assert second["replayed"] is True
        assert second["generation"] == first["generation"]
        _, datasets = service.get_json("/v1/datasets")
        entry = next(
            e for e in datasets["datasets"] if e["name"] == "taskrabbit"
        )
        assert entry["ingest_batches"] == 1

    def test_google_ingest_via_the_study_emitter(
        self, service, small_search_dataset
    ):
        batch = next(emit_search(small_search_dataset, batch_size=2, seed=3))
        status, document = service.post(
            "/v1/observations", {"dataset": "google", "observations": batch}
        )
        assert status == 200, document
        assert document["accepted"] == 2
        assert document["batch_id"] is None

    def test_unknown_dataset_is_404(self, service):
        status, body = service.post(
            "/v1/observations",
            {"dataset": "missing", "observations": [{}]},
        )
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_envelope_problems_are_400(self, service):
        for payload in (
            {"dataset": "taskrabbit"},
            {"dataset": "taskrabbit", "observations": []},
            {"dataset": "taskrabbit", "observations": "nope"},
            {"dataset": "taskrabbit", "observations": [{"query": "Moving"}]},
            {
                "dataset": "taskrabbit",
                "observations": [
                    {"query": "Moving", "location": "Boston, MA", "ranking": [1, 2]}
                ],
            },
        ):
            status, body = service.post("/v1/observations", payload)
            assert status == 400, (payload, body)
            assert body["error"]["code"] == "bad_request"

    def test_unknown_worker_is_422(self, service):
        status, body = service.post(
            "/v1/observations",
            {
                "dataset": "taskrabbit",
                "observations": [
                    {
                        "query": "Moving",
                        "location": "Boston, MA",
                        "ranking": ["w-not-a-worker"],
                    }
                ],
            },
        )
        assert status == 422, body
        assert body["error"]["code"] == "unprocessable"
        assert "unknown worker" in body["error"]["message"]

    def test_non_numeric_score_is_400(self, service, small_marketplace_dataset):
        ranking = sorted(small_marketplace_dataset.workers)[:2]
        for score in ("abc", None, [1], "0.5", True):
            item = {
                "query": "Moving",
                "location": "Boston, MA",
                "ranking": ranking,
                "scores": {ranking[0]: score, ranking[1]: 0.5},
            }
            status, body = service.post(
                "/v1/observations", {"dataset": "taskrabbit", "observations": [item]}
            )
            assert status == 400, (score, body)
            assert body["error"]["code"] == "bad_request"
            assert "scores" in body["error"]["message"]

    def test_non_finite_score_is_422(self, service, small_marketplace_dataset):
        ranking = json.dumps(sorted(small_marketplace_dataset.workers)[:1])
        worker = json.dumps(sorted(small_marketplace_dataset.workers)[0])
        for literal in ("NaN", "Infinity"):
            raw = (
                '{"dataset": "taskrabbit", "observations": [{"query": "Moving", '
                f'"location": "Boston, MA", "ranking": {ranking}, '
                f'"scores": {{{worker}: {literal}}}}}]}}'
            ).encode("utf-8")
            status, body = service.post("/v1/observations", None, raw=raw)
            assert status == 422, (literal, body)
            assert body["error"]["code"] == "unprocessable"

    def test_search_result_lists_must_be_string_arrays(self, service):
        for results in ({}, {"u": "x"}, {"u": [1]}, ["x"]):
            status, body = service.post(
                "/v1/observations",
                {
                    "dataset": "google",
                    "observations": [
                        {
                            "query": "yard work",
                            "location": "Boston, MA",
                            "results_by_user": results,
                        }
                    ],
                },
            )
            assert status == 400, (results, body)
            assert body["error"]["code"] == "bad_request"

    def test_duplicate_ranking_entry_is_422(self, service, small_marketplace_dataset):
        worker = next(iter(small_marketplace_dataset.workers))
        status, body = service.post(
            "/v1/observations",
            {
                "dataset": "taskrabbit",
                "observations": [
                    {
                        "query": "Moving",
                        "location": "Boston, MA",
                        "ranking": [worker, worker],
                    }
                ],
            },
        )
        assert status == 422, body


# ----------------------------------------------------------------------
# Trends, alerts, and the observability surfaces
# ----------------------------------------------------------------------


class TestTrendsAndAlerts:
    @pytest.fixture
    def alerting_service(
        self, start_service, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        return ServiceHarness(
            start_service(
                registry=registry, request_timeout=60.0, alert_threshold=0.0001
            )
        )

    def test_trends_replay_one_cell_across_generations(
        self, alerting_service, site, small_marketplace_dataset
    ):
        service = alerting_service
        # Materialize the default-measure F-Box so ingest exercises the
        # incremental path rather than a later cold build.
        service.post("/v1/quantify", {"dataset": "taskrabbit", "dimension": "group"})
        generations = []
        # Two batches revisiting the same (query, location) cell.
        first = _market_batch(site, small_marketplace_dataset, seed=5, batch_size=1)
        second = _market_batch(site, small_marketplace_dataset, seed=6, batch_size=1)
        query, location = first[0]["query"], first[0]["location"]
        assert (second[0]["query"], second[0]["location"]) == (query, location)
        for position, batch in enumerate((first, second)):
            status, document = service.post(
                "/v1/observations",
                {
                    "dataset": "taskrabbit",
                    "batch_id": f"trend-{position}",
                    "observations": batch,
                },
            )
            assert status == 200, document
            generations.append(document["generation"])

        status, trends = service.get_json(
            _trends_path(
                "taskrabbit",
                measure="emd",
                group="gender=Female",
                query=query,
                location=location,
            )
        )
        assert status == 200, trends
        assert trends["kind"] == "trends"
        assert trends["alert_threshold"] == 0.0001
        points = trends["points"]
        assert [point["generation"] for point in points] == generations
        assert [point["batch_id"] for point in points] == ["trend-0", "trend-1"]
        for point in points:
            assert point["value"] is None or isinstance(point["value"], float)

    def test_alerts_reach_metrics_and_datasets(
        self, alerting_service, site, small_marketplace_dataset
    ):
        service = alerting_service
        batch = _market_batch(site, small_marketplace_dataset)
        _, document = service.post(
            "/v1/observations", {"dataset": "taskrabbit", "observations": batch}
        )
        assert document["alerts"] > 0  # threshold 0.0001 trips on real cells
        _, text = service.get("/v1/metrics")
        lines = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if line and not line.startswith("#")
        )
        assert int(lines["fbox_ingest_batches_total"]) == 1
        assert int(lines["fbox_ingest_observations_total"]) == len(batch)
        assert int(lines["fbox_fairness_alerts_total"]) == document["alerts"]
        assert int(lines["fbox_delta_applies_total"]) >= 0

        _, datasets = service.get_json("/v1/datasets")
        entry = next(e for e in datasets["datasets"] if e["name"] == "taskrabbit")
        assert entry["alert_threshold"] == 0.0001
        assert entry["alerts"] == document["alerts"]
        assert entry["trend_generations"] == 1

    def test_trends_requires_the_cell_coordinates(self, service):
        status, body = service.get_json(_trends_path("taskrabbit"))
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_trends_with_bad_group_is_422(self, service):
        status, body = service.get_json(
            _trends_path(
                "taskrabbit",
                group="not-a-label",
                query="Moving",
                location="Boston, MA",
            )
        )
        assert status == 422, body

    def test_trends_with_unknown_measure_is_422(self, service):
        status, body = service.get_json(
            _trends_path(
                "taskrabbit",
                measure="nope",
                group="gender=Female",
                query="Moving",
                location="Boston, MA",
            )
        )
        assert status == 422, body
        assert body["error"]["code"] == "unprocessable"

    def test_ingest_counters_render_on_every_backend(self, service):
        _, text = service.get("/v1/metrics")
        for family in (
            "fbox_ingest_batches_total",
            "fbox_ingest_observations_total",
            "fbox_ingest_replays_total",
            "fbox_fairness_alerts_total",
            "fbox_delta_applies_total",
            "fbox_delta_cells_recomputed_total",
            "fbox_delta_lists_rebuilt_total",
        ):
            assert family in text


# ----------------------------------------------------------------------
# Convergence: incremental maintenance == cold rebuild, byte for byte
# ----------------------------------------------------------------------


QUANTIFY_PROBES = (
    {"dataset": "taskrabbit", "dimension": "group", "k": 5},
    {"dataset": "taskrabbit", "dimension": "query", "k": 4, "order": "least"},
    {"dataset": "taskrabbit", "dimension": "location", "k": 6},
    {"dataset": "google", "dimension": "group", "k": 5},
    {"dataset": "google", "dimension": "location", "k": 2},
)

COMPARE_PROBE = {
    "dataset": "taskrabbit",
    "dimension": "group",
    "r1": "gender=Male",
    "r2": "gender=Female",
    "breakdown": "location",
}


class TestIngestConvergence:
    def test_ingest_matches_a_cold_reregister(
        self,
        start_service,
        site,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        """After any ingest sequence, answers must be byte-identical to a
        cold re-register of the final dataset state (the acceptance bar for
        the delta-maintenance path), on both execution backends."""
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        live = ServiceHarness(start_service(registry=registry, request_timeout=60.0))

        # Materialize cubes *first* so ingest takes the incremental path.
        for probe in QUANTIFY_PROBES:
            assert live.post("/v1/quantify", probe)[0] == 200
        assert live.post("/v1/compare", COMPARE_PROBE)[0] == 200

        market_final = _copy_marketplace(small_marketplace_dataset)
        search_final = _copy_search(small_search_dataset)
        market_stream = emit_marketplace(
            site, small_marketplace_dataset, batches=3, batch_size=4, seed=17
        )
        for position, batch in enumerate(market_stream):
            status, document = live.post(
                "/v1/observations",
                {
                    "dataset": "taskrabbit",
                    "batch_id": f"mkt-{position}",
                    "observations": batch,
                },
            )
            assert status == 200, document
            market_final.upsert_observations(
                decode_observations("taskrabbit", batch)
            )
        search_stream = emit_search(
            small_search_dataset, batches=2, batch_size=2, seed=23
        )
        for position, batch in enumerate(search_stream):
            status, document = live.post(
                "/v1/observations",
                {
                    "dataset": "google",
                    "batch_id": f"ggl-{position}",
                    "observations": batch,
                },
            )
            assert status == 200, document
            search_final.upsert_observations(decode_observations("google", batch))

        cold = ServiceHarness(
            start_service(
                registry=_registry(market_final, search_final),
                request_timeout=60.0,
            )
        )

        for probe in QUANTIFY_PROBES:
            status, incremental = live.post("/v1/quantify", probe)
            assert status == 200
            status, rebuilt = cold.post("/v1/quantify", probe)
            assert status == 200
            incremental.pop("cached")
            rebuilt.pop("cached")
            assert json.dumps(incremental, sort_keys=True) == json.dumps(
                rebuilt, sort_keys=True
            ), probe
        _, incremental = live.post("/v1/compare", COMPARE_PROBE)
        _, rebuilt = cold.post("/v1/compare", COMPARE_PROBE)
        incremental.pop("cached")
        rebuilt.pop("cached")
        assert json.dumps(incremental, sort_keys=True) == json.dumps(
            rebuilt, sort_keys=True
        )


# ----------------------------------------------------------------------
# Generation invalidation under ingest/quantify races
# ----------------------------------------------------------------------


class TestGenerationInvalidation:
    """Extends TestRegistry's re-register pattern to the ingest write path."""

    @pytest.fixture
    def make_context(self, closing):
        def _context(dataset) -> ServiceContext:
            registry = closing(DatasetRegistry())
            registry.register(
                DatasetSpec(name="tr", site="taskrabbit", loader=lambda: dataset)
            )
            return ServiceContext(registry=registry)

        return _context

    def test_ingest_mid_flight_serves_fresh_results(
        self, make_context, site, small_marketplace_dataset
    ):
        context = make_context(_copy_marketplace(small_marketplace_dataset))
        request = {"dataset": "tr", "dimension": "query", "k": 8}

        first = handle_quantify(context, request)
        assert first["cached"] is False
        assert handle_quantify(context, request)["cached"] is True

        batch = _market_batch(site, small_marketplace_dataset, seed=2, swaps=6)
        document = handle_observations(
            context,
            {"dataset": "tr", "batch_id": "mid", "observations": batch},
        )
        assert document["replayed"] is False

        fresh = handle_quantify(context, request)
        assert fresh["cached"] is False  # generation bump defeated the LRU
        assert handle_quantify(context, request)["cached"] is True

    def test_concurrent_quantify_never_caches_under_the_new_generation(
        self, make_context, site, small_marketplace_dataset, monkeypatch
    ):
        """A quantify that keyed itself *before* an ingest must not have its
        answer served *after* the ingest: the generation tag is taken before
        compute, and the bump happens last, so the stale entry's key can
        never collide with a post-ingest lookup."""
        context = make_context(_copy_marketplace(small_marketplace_dataset))
        registry = context.registry
        request = {"dataset": "tr", "dimension": "query", "k": 8}
        handle_quantify(context, request)  # materialize the F-Box

        quantify_entered = threading.Event()
        ingest_done = threading.Event()
        original_fbox = DatasetRegistry.fbox

        def pausing_fbox(self, name, measure=None):
            if not quantify_entered.is_set():
                quantify_entered.set()
                assert ingest_done.wait(timeout=30.0)
            return original_fbox(self, name, measure)

        # Drop the cached first answer so the racing quantify recomputes.
        context.cache.clear()
        monkeypatch.setattr(DatasetRegistry, "fbox", pausing_fbox)

        outcome: dict = {}

        def racing_quantify() -> None:
            outcome["document"] = handle_quantify(context, request)

        thread = threading.Thread(target=racing_quantify)
        thread.start()
        assert quantify_entered.wait(timeout=30.0)
        # The quantify thread holds a *pre-ingest* generation tag and is
        # paused mid-compute.  Complete a full ingest underneath it.
        batch = _market_batch(site, small_marketplace_dataset, seed=9, swaps=6)
        document = handle_observations(
            context,
            {"dataset": "tr", "batch_id": "race", "observations": batch},
        )
        post_generation = document["generation"]
        ingest_done.set()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert outcome["document"]["cached"] is False

        # The racing answer was tagged with the pre-ingest generation, so a
        # post-ingest request misses the cache and recomputes fresh.
        monkeypatch.setattr(DatasetRegistry, "fbox", original_fbox)
        after = handle_quantify(context, request)
        assert after["cached"] is False
        assert registry.generation("tr") == post_generation

    def test_ingest_stress_converges_with_concurrent_readers(
        self, make_context, site, small_marketplace_dataset
    ):
        context = make_context(_copy_marketplace(small_marketplace_dataset))
        request = {"dataset": "tr", "dimension": "location", "k": 6}
        handle_quantify(context, request)

        stop = threading.Event()
        failures: list[BaseException] = []

        def reader() -> None:
            while not stop.is_set():
                try:
                    handle_quantify(context, request)
                except BaseException as error:  # noqa: BLE001 - collected
                    failures.append(error)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        final = _copy_marketplace(small_marketplace_dataset)
        for position, batch in enumerate(
            emit_marketplace(
                site, small_marketplace_dataset, batches=4, batch_size=3, seed=31
            )
        ):
            handle_observations(
                context,
                {"dataset": "tr", "batch_id": f"s-{position}", "observations": batch},
            )
            final.upsert_observations(decode_observations("taskrabbit", batch))
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not failures

        # Whatever interleaving happened, the post-ingest answer equals a
        # cold compute over the final dataset state.
        settled = handle_quantify(context, request)
        cold_context = make_context(final)
        cold = handle_quantify(cold_context, request)
        settled = {k: v for k, v in settled.items() if k != "cached"}
        cold = {k: v for k, v in cold.items() if k != "cached"}
        assert settled == cold


# ----------------------------------------------------------------------
# Client sugar: retry-idempotent ingest, trends
# ----------------------------------------------------------------------


class TestClientIngest:
    def test_client_ingest_and_trends(self, service, site, small_marketplace_dataset):
        batch = _market_batch(site, small_marketplace_dataset)
        query, location = batch[0]["query"], batch[0]["location"]
        with FBoxClient(service.base, retry=RetryPolicy(seed=1)) as client:
            document = client.ingest("taskrabbit", batch)
            assert document["replayed"] is False
            assert document["batch_id"]  # generated client-side, sent along
            trends = client.trends(
                "taskrabbit",
                group="gender=Female",
                query=query,
                location=location,
            )
            assert trends["kind"] == "trends"
            assert [p["batch_id"] for p in trends["points"]] == [
                document["batch_id"]
            ]

    def test_replay_after_connection_drop_does_not_double_apply(
        self, service, site, small_marketplace_dataset
    ):
        """The retry contract: the batch_id is fixed before the first POST,
        so resending the identical request (what a retry after a dropped
        connection does) answers from the ledger instead of re-applying."""
        batch = _market_batch(site, small_marketplace_dataset)
        sent: list[dict] = []
        with FBoxClient(service.base, retry=RetryPolicy(seed=1)) as client:
            original_post = client.post

            def recording_post(path, payload, **kwargs):
                sent.append(payload)
                return original_post(path, payload, **kwargs)

            client.post = recording_post
            first = client.ingest("taskrabbit", batch)
            # Simulate the retry: replay the captured wire payload verbatim.
            replay = original_post("/v1/observations", sent[0])
            assert replay["replayed"] is True
            assert replay["generation"] == first["generation"]
            assert client.ingest("taskrabbit", batch)["replayed"] is False

    def test_explicit_batch_id_is_respected(self, service, site, small_marketplace_dataset):
        batch = _market_batch(site, small_marketplace_dataset)
        with FBoxClient(service.base, retry=RetryPolicy(seed=1)) as client:
            first = client.ingest("taskrabbit", batch, batch_id="mine")
            assert first["batch_id"] == "mine"
            assert client.ingest("taskrabbit", batch, batch_id="mine")["replayed"] is True


# ----------------------------------------------------------------------
# The simulators' streaming mode
# ----------------------------------------------------------------------


class TestEmitObservations:
    def test_marketplace_stream_is_deterministic(self, site, small_marketplace_dataset):
        a = list(emit_marketplace(site, small_marketplace_dataset, batches=2, seed=4))
        b = list(emit_marketplace(site, small_marketplace_dataset, batches=2, seed=4))
        c = list(emit_marketplace(site, small_marketplace_dataset, batches=2, seed=5))
        assert a == b
        assert a != c

    def test_marketplace_stream_rotates_through_the_dataset(
        self, site, small_marketplace_dataset
    ):
        pairs = {
            (o.query, o.location) for o in small_marketplace_dataset.observations()
        }
        emitted = set()
        for batch in emit_marketplace(
            site, small_marketplace_dataset, batches=6, batch_size=8, seed=1
        ):
            emitted.update((item["query"], item["location"]) for item in batch)
        assert emitted == pairs

    def test_marketplace_batches_decode_and_upsert(
        self, site, small_marketplace_dataset
    ):
        batch = _market_batch(site, small_marketplace_dataset, swaps=4)
        final = _copy_marketplace(small_marketplace_dataset)
        touched = final.upsert_observations(decode_observations("taskrabbit", batch))
        assert len(touched) == len(batch)
        for item in batch:
            stored = final.observation(item["query"], item["location"])
            assert list(stored.ranking.items) == item["ranking"]

    def test_search_stream_keeps_the_participant_panel(self, small_search_dataset):
        batch = next(emit_search(small_search_dataset, batch_size=2, seed=8))
        for item in batch:
            original = small_search_dataset.observation(
                item["query"], item["location"]
            )
            assert set(item["results_by_user"]) == set(original.results_by_user)
        final = _copy_search(small_search_dataset)
        touched = final.upsert_observations(decode_observations("google", batch))
        assert len(touched) == len(batch)


# ----------------------------------------------------------------------
# Chaos: a shard dying mid-ingest, then a convergent replay
# ----------------------------------------------------------------------


class TestIngestWorkerExit:
    def test_worker_exit_during_ingest_replays_to_the_same_state(
        self,
        monkeypatch,
        site,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {
                    "rules": [
                        {"site": "worker_exit", "match": "/observations", "times": 1}
                    ]
                }
            ),
        )
        running = []

        def start(registry, **kwargs):
            server = make_server(registry=registry, port=0, **kwargs)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            running.append((server, thread))
            return server

        try:
            registry = _registry(small_marketplace_dataset, small_search_dataset)
            server = start(
                registry, shards=2, request_timeout=60.0, cache_size=0
            )
            harness = ServiceHarness(server)
            victim_shard = shard_for("taskrabbit", 2)
            router = server.context.router
            router.poll_interval = 2.0
            time.sleep(0.3)  # let the monitor settle into the slow cadence

            # Materialize the victim's cube so the replay exercises the
            # incremental path on the *restarted* worker's rebuilt state.
            assert (
                harness.post(
                    "/v1/quantify", {"dataset": "taskrabbit", "dimension": "group"}
                )[0]
                == 200
            )

            batch = _market_batch(site, small_marketplace_dataset, seed=13, swaps=5)
            payload = {
                "dataset": "taskrabbit",
                "batch_id": "chaos-1",
                "observations": batch,
            }
            status, body = harness.post("/v1/observations", payload)
            assert status == 503
            error = body["error"]
            assert error["code"] == "shard_unavailable"
            assert error["shard"] == victim_shard
            assert error["retryable"] is True

            # Quarantine: the dead shard's dataset is flagged in /readyz.
            status, ready = harness.get_json("/v1/readyz")
            assert status == 503
            entries = {entry["name"]: entry for entry in ready["datasets"]}
            assert entries["taskrabbit"]["breaker"] != "closed"

            # Recovery + replay: the monitor respawns the worker; replaying
            # the same batch_id must converge (the crash killed ledger and
            # state together, so the replay applies exactly once).
            router.poll_interval = 0.05
            deadline = time.monotonic() + 20.0
            status, document = 0, {}
            while time.monotonic() < deadline:
                status, document = harness.post("/v1/observations", payload)
                if status == 200:
                    break
                time.sleep(0.1)
            assert status == 200, document
            assert document["replayed"] is False
            assert document["accepted"] == len(batch)
            # A second replay now hits the fresh worker's ledger.
            status, again = harness.post("/v1/observations", payload)
            assert status == 200 and again["replayed"] is True

            # Convergence: byte-identical answers to a cold single-process
            # server that ingested the batch exactly once.
            final = _copy_marketplace(small_marketplace_dataset)
            final.upsert_observations(decode_observations("taskrabbit", batch))
            cold = ServiceHarness(
                start(
                    _registry(final, small_search_dataset),
                    shards=0,
                    request_timeout=60.0,
                    cache_size=0,
                )
            )
            for probe in (
                {"dataset": "taskrabbit", "dimension": "group", "k": 5},
                {"dataset": "taskrabbit", "dimension": "location", "k": 6},
            ):
                status, sharded = harness.post("/v1/quantify", probe)
                assert status == 200
                status, rebuilt = cold.post("/v1/quantify", probe)
                assert status == 200
                assert json.dumps(sharded, sort_keys=True) == json.dumps(
                    rebuilt, sort_keys=True
                ), probe
        finally:
            for server, thread in running:
                server.shutdown()
                thread.join(timeout=5)
                server.server_close()


# ----------------------------------------------------------------------
# The published contract
# ----------------------------------------------------------------------


def test_schema_types_observation_items_and_trends_params():
    endpoints = {
        (endpoint["method"], endpoint["legacy_path"]): endpoint
        for endpoint in service_schema()["endpoints"]
    }
    fields = {
        field["name"]: field
        for field in endpoints[("POST", "/observations")]["request_fields"]
    }
    items = fields["observations"]["items"]
    assert items == {
        "marketplace": [field.describe() for field in MARKETPLACE_ITEM_FIELDS],
        "search": [field.describe() for field in SEARCH_ITEM_FIELDS],
    }
    marketplace = {field["name"]: field for field in items["marketplace"]}
    assert marketplace["ranking"]["type"] == "array"
    assert marketplace["scores"]["type"] == "object"
    assert endpoints[("GET", "/trends")]["request_fields"] == [
        field.describe() for field in TRENDS_FIELDS
    ]
