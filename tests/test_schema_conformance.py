"""``GET /v1/schema`` conformance: each endpoint accepts what it publishes.

Payloads — POST bodies and GET query strings — are generated from each
table-driven endpoint's own published ``request_fields`` and run in-process
through the application layer (no sockets) over one small marketplace
dataset.  A payload that follows the published fields never gets a 400;
changing exactly one field gets the catalogued status and error code, and
an envelope fault (400) is reported before a semantic one (422).
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.groups import group_lattice
from repro.data.schema import MarketplaceDataset
from repro.service.app import Request, make_app
from repro.service.errors import ServiceError
from repro.service.fields import Field
from repro.service.handlers import DATASET_FIELDS, service_schema
from repro.service.ingest import OBSERVATION_FIELDS, encode_observation
from repro.service.registry import DatasetRegistry, DatasetSpec

ENDPOINTS = (
    "/quantify", "/compare", "/explain", "/whatif", "/observations", "/datasets",
)

MEMBER_FIELDS = ("r1", "r2", "group", "query", "location")
"""Free-string fields naming a member of the dataset's domain."""

WRONG_TYPES = {
    "string": 7,
    "integer": 1.5,
    "boolean": "yes",
    "number": True,
    "object": [],
    "array": {"not": "an array"},
}
"""A value of another JSON type for each published field type."""


def _published_fields() -> dict[str, list[dict]]:
    return {
        endpoint["legacy_path"]: endpoint["request_fields"]
        for endpoint in service_schema()["endpoints"]
        if endpoint["method"] == "POST" and endpoint["legacy_path"] in ENDPOINTS
    }


FIELDS = _published_fields()

GET_FIELDS = {
    endpoint["legacy_path"]: endpoint["request_fields"]
    for endpoint in service_schema()["endpoints"]
    if endpoint["method"] == "GET" and endpoint["request_fields"]
}
"""The GET endpoints with query parameters (``/trends`` and the listings)."""

BELOW_MINIMUM = {"limit": 0}
"""Integer query parameters with a minimum above zero, which
``Field.describe`` leaves unpublished: a value below it is a 422."""


@pytest.fixture(scope="module")
def conformance(small_marketplace_dataset, schema):
    # A private copy: valid /observations payloads ingest into it.
    dataset = MarketplaceDataset(
        workers=small_marketplace_dataset.workers.values(),
        observations=small_marketplace_dataset.observations(),
    )
    registry = DatasetRegistry()
    registry.register(
        DatasetSpec(name="taskrabbit", site="taskrabbit", loader=lambda: dataset)
    )
    app = make_app(registry=registry, cache_size=64)
    observations = dataset.observations()
    domain = {
        "group": [
            ",".join(f"{name}={value}" for name, value in group.predicates)
            for group in group_lattice(schema)
        ],
        "query": sorted({observation.query for observation in observations}),
        "location": sorted({observation.location for observation in observations}),
        "observations": [encode_observation(item) for item in observations[:4]],
    }
    yield app, domain
    app.close()


def _post(app, path: str, payload) -> tuple[int, str | None]:
    request = Request("POST", path, body=json.dumps(payload).encode("utf-8"))
    try:
        status, _ = app.run_post(request)
    except ServiceError as error:
        return error.status, error.code
    return status, None


def _value(data, field: dict, payload: dict, domain: dict):
    """One value of ``field``, drawn as the published entry describes it."""
    name, kind = field["name"], field["type"]
    if name == "dataset":
        return "taskrabbit"
    if "enum" in field:
        return data.draw(st.sampled_from(field["enum"]))
    if name in MEMBER_FIELDS:
        dimension = payload.get("dimension", name if name in domain else "group")
        return data.draw(st.sampled_from(domain[dimension]))
    if name == "observations":
        return data.draw(
            st.lists(st.sampled_from(domain["observations"]), min_size=1, max_size=2)
        )
    if kind == "integer":
        return data.draw(st.integers(field.get("minimum", -3), 40))
    if kind == "number":
        return data.draw(st.floats(-1.0, 1.0, allow_nan=False))
    if kind == "boolean":
        return data.draw(st.booleans())
    if kind == "object":
        return data.draw(st.dictionaries(st.sampled_from(["seed"]), st.integers(0, 9)))
    return data.draw(st.text(min_size=1, max_size=8))


def _valid_payload(data, fields: list[dict], domain: dict) -> dict:
    payload: dict = {}
    for field in fields:
        if field["required"] or data.draw(st.booleans()):
            payload[field["name"]] = _value(data, field, payload, domain)
    return payload


def _get(app, path: str, params: dict) -> tuple[int, str | None]:
    query = urllib.parse.urlencode({name: str(value) for name, value in params.items()})
    request = Request("GET", f"/v1{path}?{query}")
    response = asyncio.run(app.handle_async(request))
    document = json.loads(response.body)
    return response.status, document["error"]["code"] if "error" in document else None


def _semantic_fault(data, fields: list[dict]) -> tuple[str, object]:
    """One ``(name, value)`` that decodes but fails its field's check."""
    faults = [
        (field["name"], "zz-" + field["enum"][0]) for field in fields if "enum" in field
    ] + [(name, value) for name, value in BELOW_MINIMUM.items() if any(
        field["name"] == name for field in fields
    )]
    return data.draw(st.sampled_from(faults))


def _envelope_fault(data, fields: list[dict], payload: dict) -> None:
    """Break ``payload``'s envelope: drop a required parameter, or send a
    non-integer for an integer one."""
    faults = [("drop", field["name"]) for field in fields if field["required"]] + [
        ("set", field["name"]) for field in fields if field["type"] == "integer"
    ]
    action, name = data.draw(st.sampled_from(faults))
    if action == "drop":
        payload.pop(name, None)
    else:
        payload[name] = data.draw(st.sampled_from(["abc", "1.5", ""]))


endpoints = st.sampled_from(ENDPOINTS)
get_endpoints = st.sampled_from(sorted(GET_FIELDS))
enum_endpoints = st.sampled_from(
    [path for path in ENDPOINTS if any("enum" in field for field in FIELDS[path])]
)


class TestPublishedFieldsConform:
    @settings(max_examples=24)
    @given(path=endpoints, data=st.data())
    def test_valid_payload_never_gets_a_400(self, conformance, path, data):
        app, domain = conformance
        payload = _valid_payload(data, FIELDS[path], domain)
        status, code = _post(app, path, payload)
        assert status != 400, (payload, code)
        assert status < 500, (payload, code)

    @settings(max_examples=24)
    @given(path=endpoints, data=st.data())
    def test_dropping_a_required_field_is_400(self, conformance, path, data):
        app, domain = conformance
        payload = _valid_payload(data, FIELDS[path], domain)
        required = [field["name"] for field in FIELDS[path] if field["required"]]
        del payload[data.draw(st.sampled_from(required))]
        assert _post(app, path, payload) == (400, "bad_request")

    @settings(max_examples=24)
    @given(path=endpoints, data=st.data())
    def test_a_wrong_json_type_is_400(self, conformance, path, data):
        app, domain = conformance
        payload = _valid_payload(data, FIELDS[path], domain)
        field = data.draw(st.sampled_from(FIELDS[path]))
        payload[field["name"]] = WRONG_TYPES[field["type"]]
        assert _post(app, path, payload) == (400, "bad_request")

    @settings(max_examples=24)
    @given(path=enum_endpoints, data=st.data())
    def test_a_value_outside_an_enum_is_422(self, conformance, path, data):
        app, domain = conformance
        fields = [field for field in FIELDS[path] if "enum" in field]
        payload = _valid_payload(data, FIELDS[path], domain)
        field = data.draw(st.sampled_from(fields))
        payload[field["name"]] = "zz-" + data.draw(st.sampled_from(field["enum"]))
        assert _post(app, path, payload) == (422, "unprocessable")


@pytest.mark.parametrize(
    "path, table",
    [("/observations", OBSERVATION_FIELDS), ("/datasets", DATASET_FIELDS)],
)
def test_published_fields_come_from_the_tables(path, table: tuple[Field, ...]):
    assert FIELDS[path] == [field.describe() for field in table]


class TestPublishedQueryParamsConform:
    @settings(max_examples=24)
    @given(path=get_endpoints, data=st.data())
    def test_valid_query_never_gets_a_400(self, conformance, path, data):
        app, domain = conformance
        params = _valid_payload(data, GET_FIELDS[path], domain)
        status, code = _get(app, path, params)
        assert status != 400, (params, code)
        assert status < 500, (params, code)

    @settings(max_examples=24)
    @given(path=get_endpoints, data=st.data())
    def test_an_envelope_fault_is_400(self, conformance, path, data):
        app, domain = conformance
        params = _valid_payload(data, GET_FIELDS[path], domain)
        _envelope_fault(data, GET_FIELDS[path], params)
        assert _get(app, path, params) == (400, "bad_request")

    @settings(max_examples=24)
    @given(path=get_endpoints, data=st.data())
    def test_a_semantic_fault_is_422(self, conformance, path, data):
        app, domain = conformance
        params = _valid_payload(data, GET_FIELDS[path], domain)
        name, value = _semantic_fault(data, GET_FIELDS[path])
        params[name] = value
        assert _get(app, path, params) == (422, "unprocessable")

    @settings(max_examples=24)
    @given(path=get_endpoints, data=st.data())
    def test_400_comes_before_422(self, conformance, path, data):
        app, domain = conformance
        params = _valid_payload(data, GET_FIELDS[path], domain)
        name, value = _semantic_fault(data, GET_FIELDS[path])
        params[name] = value
        _envelope_fault(data, [f for f in GET_FIELDS[path] if f["name"] != name], params)
        assert _get(app, path, params) == (400, "bad_request")


def test_get_endpoints_with_fields_are_published():
    assert sorted(GET_FIELDS) == ["/datasets", "/scenarios", "/trends"]
