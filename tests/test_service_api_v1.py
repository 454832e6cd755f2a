"""The versioned /v1 API surface: the retired unversioned mount, the
unified error envelope, and the machine-readable /v1/schema document.

Every test runs over both execution backends and both executor widths
(the ``shards`` and ``executor_workers`` conftest parameters).  Legacy unversioned paths are retired — known routes answer
``410 gone`` with a ``v1_path`` pointer, unknown ones 404.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.client import FBoxClient, RetryPolicy
from repro.service.errors import error_catalog
from repro.service.faults import FAULTS_ENV_VAR
from repro.service.handlers import API_PREFIX, API_VERSION, LEGACY_SUNSET
from repro.service.registry import DatasetRegistry, DatasetSpec


def _registry(small_marketplace_dataset, small_search_dataset) -> DatasetRegistry:
    registry = DatasetRegistry()
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


def _exchange(base: str, method: str, path: str, payload=None):
    """One raw HTTP exchange returning ``(status, body_bytes, headers)``."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


@pytest.fixture
def service(start_service, small_marketplace_dataset, small_search_dataset):
    registry = _registry(small_marketplace_dataset, small_search_dataset)
    return start_service(registry=registry, request_timeout=60.0, cache_size=0)


QUANTIFY = {"dataset": "taskrabbit", "dimension": "group", "k": 3}

PROBES = [
    ("GET", "/healthz", None),
    ("GET", "/readyz", None),
    ("GET", "/datasets", None),
    ("GET", "/schema", None),
    ("POST", "/quantify", QUANTIFY),
    ("POST", "/nope", {"x": 1}),  # 404s must be versioned consistently too
    ("POST", "/quantify", {"dataset": "missing", "dimension": "group"}),
]


class TestVersionedPaths:
    def test_v1_paths_are_not_deprecated(self, service):
        for method, path, payload in PROBES:
            _, _, headers = _exchange(service.url, method, API_PREFIX + path, payload)
            assert "Deprecation" not in headers, path
            assert "Sunset" not in headers, path

    def test_metrics_served_under_v1_only(self, service):
        status, body, _ = _exchange(service.url, "GET", API_PREFIX + "/metrics")
        assert status == 200
        assert b"fbox_requests_total" in body
        status, body, _ = _exchange(service.url, "GET", "/metrics")
        assert status == 410
        assert json.loads(body)["error"]["v1_path"] == API_PREFIX + "/metrics"


class TestLegacyRetired:
    """The unversioned mount is retired: known routes answer 410 with a
    pointer."""

    @pytest.fixture
    def gone_service(
        self, start_service, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        return start_service(registry=registry, request_timeout=60.0)

    def test_known_legacy_paths_answer_410_with_pointer(self, gone_service):
        for method, path, payload in PROBES:
            if path == "/nope":
                continue  # unknown everywhere; stays 404 below
            status, body, _ = _exchange(gone_service.url, method, path, payload)
            assert status == 410, path
            error = json.loads(body)["error"]
            assert error["code"] == "gone"
            assert error["retryable"] is False
            assert error["v1_path"] == API_PREFIX + path

    def test_unknown_legacy_paths_stay_404(self, gone_service):
        status, body, _ = _exchange(gone_service.url, "POST", "/nope", {"x": 1})
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_versioned_paths_are_unaffected(self, gone_service):
        status, body, _ = _exchange(
            gone_service.url, "POST", API_PREFIX + "/quantify", QUANTIFY
        )
        assert status == 200
        assert json.loads(body)["kind"] == "quantification"

    def test_client_surfaces_410_as_non_retryable(self, gone_service):
        from repro.client import ClientError

        with FBoxClient(
            gone_service.url, retry=RetryPolicy(max_attempts=3, seed=0)
        ) as client:
            with pytest.raises(ClientError) as excinfo:
                client.request("GET", "/healthz")
        assert excinfo.value.status == 410


class TestErrorEnvelope:
    def test_validation_error_envelope(self, service):
        status, body, _ = _exchange(
            service.url, "POST", "/v1/quantify", {"dataset": "taskrabbit"}
        )
        assert status == 400
        error = json.loads(body)["error"]
        assert error["code"] == error["kind"]
        assert isinstance(error["message"], str) and error["message"]
        assert error["retryable"] is False

    def test_not_found_envelope(self, service):
        status, body, _ = _exchange(service.url, "GET", "/v1/missing")
        assert status == 404
        error = json.loads(body)["error"]
        assert error["code"] == "not_found"
        assert error["retryable"] is False

    def test_unknown_dataset_envelope(self, service):
        status, body, _ = _exchange(
            service.url,
            "POST",
            "/v1/quantify",
            {"dataset": "nope", "dimension": "group"},
        )
        assert status == 404
        error = json.loads(body)["error"]
        assert error["code"] == "not_found"
        assert error["kind"] == "not_found"  # the deprecated alias survives

    def test_injected_handler_fault_envelope(
        self, start_service, monkeypatch, small_marketplace_dataset,
        small_search_dataset,
    ):
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {"rules": [{"site": "handler", "match": "/quantify", "message": "boom"}]}
            ),
        )
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = start_service(registry=registry, request_timeout=60.0)
        status, body, _ = _exchange(server.url, "POST", "/v1/quantify", QUANTIFY)
        assert status == 500
        assert body == (
            b'{"error": {"code": "internal", "kind": "internal", "message": '
            b'"boom (site=handler, target=/quantify)", "retryable": false}}'
        )

    def test_catalog_codes_are_unique_and_complete(self):
        catalog = error_catalog()
        codes = [entry["code"] for entry in catalog]
        assert len(codes) == len(set(codes))
        for expected in (
            "bad_request",
            "not_found",
            "timeout",
            "circuit_open",
            "shard_unavailable",
            "overloaded",
            "shutting_down",
            "internal",
        ):
            assert expected in codes
        for entry in catalog:
            assert set(entry) >= {"code", "status", "retryable", "description"}


class TestSchemaEndpoint:
    def test_schema_document_shape(self, service):
        status, body, _ = _exchange(service.url, "GET", "/v1/schema")
        assert status == 200
        doc = json.loads(body)
        assert doc["version"] == API_VERSION
        assert doc["mount"] == API_PREFIX
        assert doc["legacy"]["deprecated"] is True
        assert doc["legacy"]["sunset"] == LEGACY_SUNSET
        paths = {endpoint["path"] for endpoint in doc["endpoints"]}
        for suffix in (
            "/quantify", "/compare", "/explain", "/batch",
            "/datasets", "/schema", "/healthz", "/readyz", "/metrics",
        ):
            assert API_PREFIX + suffix in paths
        for endpoint in doc["endpoints"]:
            assert endpoint["path"].startswith(API_PREFIX)
            assert endpoint["legacy_path"] == endpoint["path"][len(API_PREFIX):]
            assert endpoint["method"] in ("GET", "POST")

    def test_schema_reflects_validation_constants(self, service):
        _, body, _ = _exchange(service.url, "GET", "/v1/schema")
        doc = json.loads(body)
        by_path = {endpoint["path"]: endpoint for endpoint in doc["endpoints"]}
        quantify = by_path["/v1/quantify"]
        fields = {f["name"]: f for f in quantify["request_fields"]}
        assert set(fields["dimension"]["enum"]) == {"group", "query", "location"}
        assert set(fields["algorithm"]["enum"]) == {"fagin", "naive"}
        assert fields["k"]["default"] == 5
        batch = by_path["/v1/batch"]
        assert batch["batch"]["max_items"] == 64
        assert set(batch["batch"]["ops"]) == {"quantify", "compare", "explain"}
        assert doc["errors"] == error_catalog()

    def test_schema_lists_every_accepted_field(self, service):
        _, body, _ = _exchange(service.url, "GET", "/v1/schema")
        doc = json.loads(body)
        fields = {
            (endpoint["method"], endpoint["path"]): {
                entry["name"]: entry for entry in endpoint.get("request_fields", ())
            }
            for endpoint in doc["endpoints"]
        }
        sequence = fields[("POST", "/v1/observations")]["sequence"]
        assert sequence["type"] == "integer" and sequence["required"] is False
        description = fields[("POST", "/v1/datasets")]["description"]
        assert description["type"] == "string" and description["required"] is False


class TestEndpointTable:
    """Routing agrees with ``/v1/schema``: what is published answers, what
    is not is a 404, and every published path is retired unversioned."""

    @staticmethod
    def _published(service) -> list[dict]:
        _, body, _ = _exchange(service.url, "GET", "/v1/schema")
        return json.loads(body)["endpoints"]

    def test_every_published_endpoint_routes(self, service):
        for endpoint in self._published(service):
            payload = {} if endpoint["method"] == "POST" else None
            status, body, _ = _exchange(
                service.url, endpoint["method"], endpoint["path"], payload
            )
            assert status != 404, (endpoint["method"], endpoint["path"], body)

    def test_an_unpublished_method_is_404(self, service):
        published = {
            (endpoint["method"], endpoint["path"])
            for endpoint in self._published(service)
        }
        for method, path, payload in (
            ("GET", "/v1/quantify", None),
            ("POST", "/v1/trends", {}),
            ("POST", "/v1/healthz", {}),
        ):
            assert (method, path) not in published
            status, body, _ = _exchange(service.url, method, path, payload)
            assert status == 404, (method, path)
            assert json.loads(body)["error"]["code"] == "not_found"

    def test_post_trends_is_404_for_a_valid_cell(
        self, service, small_marketplace_dataset
    ):
        observation = small_marketplace_dataset.observations()[0]
        cell = {
            "dataset": "taskrabbit",
            "group": "gender=Female",
            "query": observation.query,
            "location": observation.location,
        }
        status, body, _ = _exchange(service.url, "POST", "/v1/trends", cell)
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"
        path = "/v1/trends?" + urllib.parse.urlencode(cell)
        status, body, _ = _exchange(service.url, "GET", path)
        assert status == 200, body

    def test_every_published_path_is_410_without_the_prefix(self, service):
        for endpoint in self._published(service):
            payload = {} if endpoint["method"] == "POST" else None
            status, body, _ = _exchange(
                service.url, endpoint["method"], endpoint["legacy_path"], payload
            )
            assert status == 410, endpoint["legacy_path"]
            error = json.loads(body)["error"]
            assert error["code"] == "gone"
            assert error["v1_path"] == endpoint["path"]

    def test_every_endpoint_publishes_request_fields(self, service):
        for endpoint in self._published(service):
            assert isinstance(endpoint["request_fields"], list), endpoint["path"]


class TestClientSpeaksV1:
    def test_endpoint_sugar_uses_the_versioned_mount(self, service):
        with FBoxClient(
            service.url, retry=RetryPolicy(max_attempts=1, seed=0)
        ) as client:
            assert client.api_prefix == API_PREFIX
            answer = client.quantify("taskrabbit", "group", k=3)
            assert answer["kind"] == "quantification"
            assert client.schema()["version"] == API_VERSION
            assert client.healthz()["status"] == "ok"
            names = [d["name"] for d in client.datasets()["datasets"]]
            assert names == ["taskrabbit", "google"]
            # The raw surface takes whatever path the caller passes.
            status, body = client.request("POST", API_PREFIX + "/quantify", QUANTIFY)
            assert status == 200 and body["kind"] == "quantification"
