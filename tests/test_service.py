"""End-to-end tests of the F-Box query service.

A real server is started on an ephemeral port for every test (datasets are
session-cached fixtures, so boots are cheap) and exercised over HTTP with
urllib — all six endpoints, the error paths, cache-hit behavior verified via
``/metrics``, the per-request timeout guard, and a concurrency test proving
that 16 parallel first-touch requests build the cube exactly once.

Every server-backed test runs in-process and on a two-worker shard pool,
each under a pooled and a one-thread CPU executor (the
``executor_workers``/``shards``/``start_service`` conftest fixtures): all
four configurations must be byte-compatible on every endpoint and error
path.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.attributes import default_schema
from repro.core.fbox import FBox
from repro.service.cache import LRUCache
from repro.service.encoding import canonical_key
from repro.service.app import make_app
from repro.service.errors import RequestTimeout
from repro.service.faults import FaultInjector, FaultRule
from repro.service.handlers import API_PREFIX, ServiceContext, handle_quantify
from repro.service.registry import DatasetRegistry, DatasetSpec


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


class ServiceHarness:
    """One live server plus tiny HTTP helpers.

    ``get``/``post`` take endpoint paths and mount them under ``/v1``
    (already-versioned paths pass through unchanged).
    """

    def __init__(self, server):
        self.server = server
        self.base = server.url

    def url(self, path: str) -> str:
        if path.startswith(API_PREFIX + "/"):
            return self.base + path
        return self.base + API_PREFIX + path

    @property
    def registry(self):
        return self.server.context.registry

    @property
    def cache(self):
        return self.server.context.cache

    def get(self, path: str):
        try:
            with urllib.request.urlopen(self.url(path)) as response:
                return response.status, response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode("utf-8")

    def get_json(self, path: str):
        status, body = self.get(path)
        return status, json.loads(body)

    def post(self, path: str, payload, raw: bytes | None = None):
        data = raw if raw is not None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.url(path), data=data, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


def _registry(
    small_marketplace_dataset, small_search_dataset, registry_class=DatasetRegistry
) -> DatasetRegistry:
    registry = registry_class()
    registry.register(
        DatasetSpec(
            name="taskrabbit",
            site="taskrabbit",
            loader=lambda: small_marketplace_dataset,
            description="six-city category crawl",
        )
    )
    registry.register(
        DatasetSpec(
            name="google",
            site="google",
            loader=lambda: small_search_dataset,
            description="two-location study",
        )
    )
    return registry


@pytest.fixture
def service(start_service, small_marketplace_dataset, small_search_dataset):
    registry = _registry(small_marketplace_dataset, small_search_dataset)
    return ServiceHarness(start_service(registry=registry, request_timeout=60.0))


# ----------------------------------------------------------------------
# Happy paths
# ----------------------------------------------------------------------


class TestEndpoints:
    def test_healthz(self, service):
        status, body = service.get_json("/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["datasets"] == ["taskrabbit", "google"]

    def test_datasets_lists_specs_and_load_state(self, service):
        status, body = service.get_json("/datasets")
        assert status == 200
        by_name = {entry["name"]: entry for entry in body["datasets"]}
        assert set(by_name) == {"taskrabbit", "google"}
        assert by_name["taskrabbit"]["default_measure"] == "emd"
        assert by_name["google"]["default_measure"] == "kendall"
        assert not by_name["taskrabbit"]["loaded"]

        service.post("/quantify", {"dataset": "taskrabbit", "dimension": "group"})
        _, body = service.get_json("/datasets")
        entry = {e["name"]: e for e in body["datasets"]}["taskrabbit"]
        assert entry["loaded"]
        assert entry["observations"] > 0
        assert entry["measures_ready"] == ["emd"]

    def test_quantify_matches_direct_fbox(
        self, service, small_marketplace_dataset, schema
    ):
        status, body = service.post(
            "/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 3}
        )
        assert status == 200
        assert body["kind"] == "quantification"
        assert body["measure"] == "emd"
        assert len(body["entries"]) == 3
        fbox = FBox.for_marketplace(small_marketplace_dataset, schema, measure="emd")
        expected = fbox.quantify("group", k=3)
        for entry, (key, value) in zip(body["entries"], expected.entries):
            assert entry["name"] == str(key)
            assert entry["unfairness"] == pytest.approx(value)
            assert "predicates" in entry  # groups round-trip their labels

    def test_quantify_google_with_explicit_measure(self, service):
        status, body = service.post(
            "/quantify",
            {"dataset": "google", "dimension": "location", "k": 2, "measure": "jaccard"},
        )
        assert status == 200
        assert body["measure"] == "jaccard"
        assert body["entries"]

    def test_compare_reports_reversals(self, service):
        status, body = service.post(
            "/compare",
            {
                "dataset": "taskrabbit",
                "dimension": "group",
                "r1": "gender=Male",
                "r2": "gender=Female",
                "breakdown": "location",
            },
        )
        assert status == 200
        assert body["kind"] == "comparison"
        assert body["r1"]["predicates"] == {"gender": "Male"}
        assert {"value_r1", "value_r2", "reversed"} <= set(body["rows"][0])
        reversed_names = {row["name"] for row in body["rows"] if row["reversed"]}
        assert set(body["reversed_members"]) == reversed_names

    def test_explain_decomposes_a_cell(self, service, small_marketplace_dataset):
        query = small_marketplace_dataset.queries[0]
        location = small_marketplace_dataset.locations[0]
        status, body = service.post(
            "/explain",
            {
                "dataset": "taskrabbit",
                "group": "gender=Female,ethnicity=Asian",
                "query": query,
                "location": location,
            },
        )
        assert status == 200
        assert body["kind"] == "explanation"
        assert "driven most by" in body["narrative"]
        assert body["contributions"]
        assert all("distance" in c for c in body["contributions"])


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------


class TestCaching:
    def test_repeat_quantify_is_served_from_cache(self, service):
        request = {"dataset": "taskrabbit", "dimension": "group", "k": 4}
        _, first = service.post("/quantify", request)
        assert first["cached"] is False
        _, second = service.post("/quantify", request)
        assert second["cached"] is True
        # Identical payloads modulo the cache marker.
        first.pop("cached"), second.pop("cached")
        assert first == second

        _, metrics = service.get("/metrics")
        assert 'fbox_cache_events_total{event="hits"} 1' in metrics
        assert 'fbox_cache_events_total{event="misses"} 1' in metrics

    def test_field_order_does_not_defeat_the_cache(self, service):
        _, first = service.post(
            "/quantify", {"dataset": "taskrabbit", "dimension": "query", "k": 2}
        )
        _, second = service.post(
            "/quantify", {"k": 2, "dimension": "query", "dataset": "taskrabbit"}
        )
        assert first["cached"] is False
        assert second["cached"] is True

    def test_canonical_key_is_order_insensitive(self):
        assert canonical_key("q", {"a": 1, "b": "x"}) == canonical_key(
            "q", {"b": "x", "a": 1}
        )

    def test_lru_eviction_and_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.stats() == {
            "size": 2, "capacity": 2, "hits": 1, "misses": 1, "evictions": 1,
            "expirations": 0,
        }

    def test_zero_capacity_disables_caching(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------


class TestErrorPaths:
    def test_unknown_dataset_is_404(self, service):
        status, body = service.post(
            "/quantify", {"dataset": "linkedin", "dimension": "group"}
        )
        assert status == 404
        assert body["error"]["kind"] == "not_found"
        assert "linkedin" in body["error"]["message"]

    def test_unknown_dimension_is_422(self, service):
        status, body = service.post(
            "/quantify", {"dataset": "taskrabbit", "dimension": "color"}
        )
        assert status == 422
        assert body["error"]["kind"] == "unprocessable"

    def test_malformed_group_label_is_422(self, service):
        status, body = service.post(
            "/compare",
            {
                "dataset": "taskrabbit",
                "dimension": "group",
                "r1": "Male",  # missing attr= syntax
                "r2": "gender=Female",
                "breakdown": "location",
            },
        )
        assert status == 422
        assert "attr=value" in body["error"]["message"]

    def test_member_outside_domain_is_422(self, service):
        status, body = service.post(
            "/compare",
            {
                "dataset": "taskrabbit",
                "dimension": "location",
                "r1": "Atlantis",
                "r2": "Boston, MA",
                "breakdown": "group",
            },
        )
        assert status == 422

    def test_unknown_measure_is_422(self, service):
        status, body = service.post(
            "/quantify",
            {"dataset": "taskrabbit", "dimension": "group", "measure": "cosine"},
        )
        assert status == 422

    def test_missing_required_field_is_400(self, service):
        status, body = service.post("/quantify", {"dataset": "taskrabbit"})
        assert status == 400
        assert body["error"]["kind"] == "bad_request"

    def test_non_positive_k_is_422(self, service):
        status, _ = service.post(
            "/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 0}
        )
        assert status == 422

    def test_mistyped_k_is_400(self, service):
        status, _ = service.post(
            "/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": "five"}
        )
        assert status == 400

    def test_invalid_json_body_is_400(self, service):
        status, body = service.post("/quantify", None, raw=b"{not json")
        assert status == 400
        assert "not valid JSON" in body["error"]["message"]

    def test_non_object_body_is_400(self, service):
        status, _ = service.post("/quantify", [1, 2, 3])
        assert status == 400

    def test_unknown_paths_are_404(self, service):
        assert service.get("/nope")[0] == 404
        assert service.post("/nope", {})[0] == 404

    def test_explain_undefined_cell_is_422(self, service):
        status, body = service.post(
            "/explain",
            {
                "dataset": "taskrabbit",
                "group": "gender=Female",
                "query": "no-such-job",
                "location": "Nowhere",
            },
        )
        assert status == 422


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_exposition_covers_requests_latency_and_accesses(self, service):
        service.post(
            "/quantify",
            {"dataset": "taskrabbit", "dimension": "group", "algorithm": "fagin"},
        )
        service.post("/quantify", {"dataset": "unknown", "dimension": "group"})
        status, text = service.get("/metrics")
        assert status == 200
        assert 'fbox_requests_total{endpoint="/quantify",status="200"} 1' in text
        assert 'fbox_requests_total{endpoint="/quantify",status="404"} 1' in text
        assert 'fbox_in_flight{endpoint="/quantify"} 0' in text
        assert 'fbox_request_seconds_bucket{endpoint="/quantify",le="+Inf"} 2' in text
        assert "fbox_cube_builds_total 1" in text

        sorted_line = next(
            line for line in text.splitlines()
            if line.startswith('fbox_index_accesses_total{mode="sorted"}')
        )
        assert int(sorted_line.rsplit(" ", 1)[1]) > 0


# ----------------------------------------------------------------------
# Concurrency and timeouts
# ----------------------------------------------------------------------


def _stalled() -> dict:
    """Server options that make every ``/quantify`` outlive its deadline.

    The injected stall sleeps 20x the deadline (itself 50x the
    interpreter's 5 ms switch interval), so the deadline fires first
    however fast the query itself is.
    """
    return {
        "request_timeout": 0.25,
        "faults": FaultInjector(
            [FaultRule(site="latency", match="/quantify", latency=5.0)]
        ),
    }


class TestConcurrency:
    def test_parallel_first_touch_builds_one_cube(
        self, start_service, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        harness = ServiceHarness(
            start_service(registry=registry, request_timeout=120.0)
        )
        request = {"dataset": "taskrabbit", "dimension": "group", "k": 5}
        with ThreadPoolExecutor(max_workers=16) as pool:
            outcomes = list(
                pool.map(lambda _: harness.post("/quantify", request), range(16))
            )

        assert [status for status, _ in outcomes] == [200] * 16
        entries = [
            tuple((e["name"], e["unfairness"]) for e in body["entries"])
            for _, body in outcomes
        ]
        assert len(set(entries)) == 1  # every response is identical
        # Read build counts from /metrics, not the front registry object:
        # under sharding the build happened in a worker process and the
        # exposition merges worker truth into the scrape.
        _, text = harness.get("/metrics")
        assert "fbox_cube_builds_total 1" in text
        assert "fbox_instances 1" in text

    def test_shared_fbox_is_reused_across_measures_and_datasets(
        self, closing, small_marketplace_dataset, small_search_dataset
    ):
        registry = closing(
            _registry(small_marketplace_dataset, small_search_dataset)
        )
        first = registry.fbox("taskrabbit")
        second = registry.fbox("taskrabbit", "emd")
        assert first is second
        exposure = registry.fbox("taskrabbit", "exposure")
        assert exposure is not first
        assert registry.build_counts()["fboxes"] == 2

    def test_request_timeout_returns_503(
        self, start_service, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        harness = ServiceHarness(start_service(registry=registry, **_stalled()))
        status, body = harness.post(
            "/quantify", {"dataset": "taskrabbit", "dimension": "group"}
        )
        assert status == 503
        assert body["error"]["kind"] == "timeout"


# ----------------------------------------------------------------------
# Keep-alive framing on early-rejection paths
# ----------------------------------------------------------------------


def _read_http_response(reader) -> tuple[int, dict, bytes]:
    """Parse one well-framed HTTP response off a socket file."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


class TestKeepAliveFraming:
    def test_pipelined_rejected_then_valid_request(self, service, monkeypatch):
        """An oversized body is drained, not left to masquerade as request 2."""
        monkeypatch.setattr(service.server.app, "max_body_bytes", 64)
        oversized = b"x" * 200
        first = (
            b"POST /v1/quantify HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(oversized)).encode() + b"\r\n"
            b"\r\n" + oversized
        )
        payload = json.dumps(
            {"dataset": "taskrabbit", "dimension": "group", "k": 2}
        ).encode()
        second = (
            b"POST /v1/quantify HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(payload)).encode() + b"\r\n"
            b"\r\n" + payload
        )
        host, port = service.server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(first + second)  # pipelined on one connection
            reader = sock.makefile("rb")
            status1, _, body1 = _read_http_response(reader)
            status2, _, body2 = _read_http_response(reader)
        assert status1 == 400
        assert "exceeds" in json.loads(body1)["error"]["message"]
        assert status2 == 200
        document = json.loads(body2)
        assert document["kind"] == "quantification"
        assert len(document["entries"]) == 2

    def test_invalid_content_length_closes_the_connection(self, service):
        """With an unparseable length we cannot resync, so we must close."""
        request = (
            b"POST /v1/quantify HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: banana\r\n"
            b"\r\n"
        )
        host, port = service.server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(request)
            reader = sock.makefile("rb")
            status, headers, body = _read_http_response(reader)
            assert status == 400
            assert headers.get("connection") == "close"
            assert "Content-Length" in json.loads(body)["error"]["message"]
            assert reader.readline() == b""  # server hung up

    def test_undrainably_large_body_closes_the_connection(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(service.server.app, "max_body_bytes", 64)
        monkeypatch.setattr(service.server.app, "max_drain_bytes", 128)
        request = (
            b"POST /v1/quantify HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Length: 4096\r\n"
            b"\r\n"
        )
        host, port = service.server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(request + b"y" * 4096)
            reader = sock.makefile("rb")
            status, headers, _ = _read_http_response(reader)
            assert status == 400
            assert headers.get("connection") == "close"
            assert reader.readline() == b""


# ----------------------------------------------------------------------
# Deadline abandonment accounting
# ----------------------------------------------------------------------


class TestAbandonedWorkers:
    @pytest.fixture
    def app(self, closing):
        """An app with no datasets, for driving the execution layer."""
        app = make_app(registry=closing(DatasetRegistry()), request_timeout=1.0)
        yield app
        app.close()

    def test_value_and_error_paths_unchanged(self, app):
        assert asyncio.run(app._execute_async(lambda: 42)) == 42

        def failure():
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            asyncio.run(app._execute_async(failure))
        assert app.context.metrics.counters().get("abandoned_requests", 0) == 0

    def test_abandoned_worker_failure_is_counted_and_logged(self, app, caplog):
        app.request_timeout = 0.05
        release = threading.Event()

        def slow_failure():
            # Blocked until released, so the deadline always fires first.
            release.wait(30.0)
            raise ValueError("late boom")

        with caplog.at_level(logging.ERROR, logger="repro.service"):
            with pytest.raises(RequestTimeout):
                asyncio.run(app._execute_async(slow_failure))
            assert app.context.metrics.counters().get("abandoned_requests", 0) == 1
            release.set()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if any(
                    "abandoned request worker failed" in record.message
                    for record in caplog.records
                ):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("abandoned worker's exception was never logged")
        record = next(
            record for record in caplog.records
            if "abandoned request worker failed" in record.message
        )
        assert "late boom" in str(record.exc_info[1])

    def test_abandoned_counter_reaches_the_exposition(
        self, start_service, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        harness = ServiceHarness(start_service(registry=registry, **_stalled()))
        status, _ = harness.post(
            "/quantify", {"dataset": "taskrabbit", "dimension": "group"}
        )
        assert status == 503
        _, text = harness.get("/metrics")
        assert "fbox_abandoned_requests_total 1" in text
        assert "fbox_request_timeouts_total 1" in text


# ----------------------------------------------------------------------
# Registry behavior that needs no server
# ----------------------------------------------------------------------


class TestRegistry:
    def test_unknown_dataset_raises_not_found(self):
        from repro.service.errors import NotFound

        registry = DatasetRegistry(schema=default_schema())
        with pytest.raises(NotFound, match="unknown dataset"):
            registry.spec("missing")

    def test_loader_called_exactly_once(self, small_marketplace_dataset):
        calls = []

        def loader():
            calls.append(1)
            return small_marketplace_dataset

        registry = DatasetRegistry()
        registry.register(DatasetSpec(name="tr", site="taskrabbit", loader=loader))
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: registry.dataset("tr"), range(8)))
        assert len(calls) == 1

    def test_reregistering_drops_stale_materializations(
        self, closing, small_marketplace_dataset
    ):
        registry = closing(DatasetRegistry())
        spec = DatasetSpec(
            name="tr", site="taskrabbit", loader=lambda: small_marketplace_dataset
        )
        registry.register(spec)
        registry.fbox("tr")
        assert registry.is_loaded("tr")
        registry.register(spec)
        assert not registry.is_loaded("tr")
        assert registry.build_counts()["fboxes"] == 0

    def test_generation_counts_registrations(self, small_marketplace_dataset):
        registry = DatasetRegistry()
        assert registry.generation("tr") == 0
        spec = DatasetSpec(
            name="tr", site="taskrabbit", loader=lambda: small_marketplace_dataset
        )
        registry.register(spec)
        assert registry.generation("tr") == 1
        registry.register(spec)
        assert registry.generation("tr") == 2

    def test_reregister_mid_flight_serves_fresh_results(
        self, closing, site, small_marketplace_dataset
    ):
        """The ROADMAP stale-cache bug: cached answers must die with the data."""
        from repro.marketplace.crawl import run_crawl

        registry = closing(DatasetRegistry())
        registry.register(
            DatasetSpec(
                name="tr",
                site="taskrabbit",
                loader=lambda: small_marketplace_dataset,
            )
        )
        context = ServiceContext(registry=registry)
        request = {"dataset": "tr", "dimension": "location", "k": 10}

        first = handle_quantify(context, request)
        assert first["cached"] is False
        assert handle_quantify(context, request)["cached"] is True
        six_cities = {entry["name"] for entry in first["entries"]}
        assert len(six_cities) == 6

        two_city = run_crawl(
            site, level="category", cities=["Boston, MA", "Seattle, WA"]
        ).dataset
        registry.register(
            DatasetSpec(name="tr", site="taskrabbit", loader=lambda: two_city)
        )

        fresh = handle_quantify(context, request)
        assert fresh["cached"] is False  # generation bump defeated the LRU
        fresh_cities = {entry["name"] for entry in fresh["entries"]}
        assert fresh_cities == {"Boston, MA", "Seattle, WA"}
        # And the new generation caches normally from here on.
        assert handle_quantify(context, request)["cached"] is True
