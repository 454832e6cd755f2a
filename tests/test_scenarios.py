"""The declarative scenario framework and the load-generation harness.

Covers the acceptance contract end to end: preset determinism (one frozen
config → byte-identical datasets no matter which surface builds it),
override plumbing and validation, lazy materialization through the service
(both execution backends), the admin-gated runtime
``POST /v1/datasets`` registration, paginated listings, and the seeded
loadgen planner/report schema.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.client import ClientError, FBoxClient, RetryPolicy
from repro.data.io import load_marketplace_dataset, save_marketplace_dataset
from repro.scenarios import (
    PAGE_SLOTS,
    PRESETS,
    ScaledMarketplaceSite,
    arrival_schedule,
    build_scenario,
    build_scenario_site,
    decode_overrides,
    encode_overrides,
    get_scenario,
    latency_keys,
    plan_operations,
    report_keys,
    run_loadgen,
    scenario_names,
    scenario_spec,
)
from repro.service.errors import NotFound, Unprocessable

from tests.helpers import DictOracle, DictOracleRegistry

ADMIN_TOKEN = "test-admin-token"

SCALED_OVERRIDES = {
    "workers": 4_000,
    "cities": "Boston, MA;Chicago, IL",
    "queries": "Handyman;Delivery",
    "seed": 5,
}


def _scaled_config():
    return get_scenario("mega_marketplace").with_overrides(SCALED_OVERRIDES)


# ----------------------------------------------------------------------
# Config + presets
# ----------------------------------------------------------------------


class TestScenarioConfig:
    def test_preset_catalog(self):
        assert list(scenario_names()) == sorted(PRESETS)
        for expected in (
            "paper_taskrabbit",
            "paper_google",
            "mega_marketplace",
            "adversarial_bias",
            "null_no_bias",
        ):
            assert expected in PRESETS
        assert PRESETS["mega_marketplace"].population == 1_000_000

    def test_unknown_scenario_is_not_found(self):
        with pytest.raises(NotFound):
            get_scenario("nope")

    def test_overrides_produce_a_new_frozen_config(self):
        base = get_scenario("paper_taskrabbit")
        derived = base.with_overrides({"seed": 99, "bias_scale": 2.0})
        assert derived.seed == 99 and derived.bias_scale == 2.0
        assert base.seed != 99  # frozen: the preset itself never mutates
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            derived.seed = 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": "hijack"},  # protected
            {"site": "google"},  # protected
            {"no_such_field": 1},  # unknown
            {"cities": "Atlantis, XX"},  # outside the catalog
            {"queries": "Cleaning"},  # not a real category name
            {"bias_scale": -1},  # out of range
            {"demographic_mix": "Male:White:-3"},  # negative weight
        ],
    )
    def test_bad_overrides_are_unprocessable(self, overrides):
        with pytest.raises(Unprocessable):
            get_scenario("paper_taskrabbit").with_overrides(overrides)

    def test_override_encoding_round_trips(self):
        overrides = {"seed": 9, "cities": "Boston, MA;Chicago, IL"}
        encoded = encode_overrides(overrides)
        assert all(
            isinstance(k, str) and isinstance(v, str) for k, v in encoded
        )
        assert decode_overrides(encoded) == overrides
        # Canonical: dict order does not leak into the encoding.
        reordered = {"cities": "Boston, MA;Chicago, IL", "seed": 9}
        assert encode_overrides(reordered) == encoded

    def test_demographic_mix_parses_from_string(self):
        config = get_scenario("mega_marketplace").with_overrides(
            {"demographic_mix": "Male:White:3;Female:White:1"}
        )
        assert config.demographic_mix == (
            ("Male", "White", 3.0),
            ("Female", "White", 1.0),
        )
        assert config.is_scaled


# ----------------------------------------------------------------------
# Scaled site: bounded, lazy, deterministic
# ----------------------------------------------------------------------


class TestScaledSite:
    def test_population_apportionment_is_exact(self):
        config = _scaled_config()
        site = ScaledMarketplaceSite(config)
        assert sum(site.cell_counts.values()) == config.population == 4_000

    def test_materialization_is_lazy_and_bounded(self):
        from repro.marketplace.site import RESULT_CAP

        site = ScaledMarketplaceSite(_scaled_config())
        ranking = site.search("Handyman", "Boston, MA")
        assert len(ranking) == min(RESULT_CAP, PAGE_SLOTS)
        # One query samples one availability page, never the full roster.
        assert len(site.materialized_ids()) <= PAGE_SLOTS

    def test_search_is_deterministic_across_instances(self):
        config = _scaled_config()
        first = ScaledMarketplaceSite(config).search("Delivery", "Chicago, IL")
        second = ScaledMarketplaceSite(config).search("Delivery", "Chicago, IL")
        assert first.items == second.items

    def test_mega_preset_is_scaled(self):
        assert PRESETS["mega_marketplace"].is_scaled
        assert not PRESETS["paper_taskrabbit"].is_scaled

    def test_scenario_site_matches_dataset(self):
        """The simulate surface and the generate surface agree."""
        config = _scaled_config()
        dataset = build_scenario(config)
        site = build_scenario_site(config)
        observed = dataset.observation("Handyman", "Boston, MA").ranking
        assert observed.items == site.search("Handyman", "Boston, MA").items


# ----------------------------------------------------------------------
# Byte identity across build surfaces
# ----------------------------------------------------------------------


class TestByteIdentity:
    def test_cli_and_registry_builds_are_byte_identical(self, tmp_path):
        from repro.cli import main

        cli_path = tmp_path / "cli.jsonl"
        rc = main(
            [
                "generate",
                "--scenario",
                "mega_marketplace",
                "--override",
                "workers=4000",
                "--override",
                "cities=Boston, MA;Chicago, IL",
                "--override",
                "queries=Handyman;Delivery",
                "--override",
                "seed=5",
                str(cli_path),
            ]
        )
        assert rc == 0
        spec = scenario_spec("m", "mega_marketplace", SCALED_OVERRIDES)
        registry_path = tmp_path / "registry.jsonl"
        save_marketplace_dataset(spec.loader(), registry_path)
        assert cli_path.read_bytes() == registry_path.read_bytes()

    def test_saved_scenario_round_trips(self, tmp_path):
        dataset = build_scenario(_scaled_config())
        path = tmp_path / "scenario.jsonl"
        save_marketplace_dataset(dataset, path)
        reloaded = load_marketplace_dataset(path)
        assert len(reloaded) == len(dataset)
        assert reloaded.queries == dataset.queries

    def test_quantify_identical_across_cores(self):
        """The same scenario served by the columnar core answers the
        quantification document the dict-FBox oracle computes."""
        from repro.service.server import make_server

        server = make_server(port=0, quiet=True, admin_token=ADMIN_TOKEN)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with FBoxClient(
                server.url, retry=RetryPolicy(max_attempts=1, seed=0)
            ) as client:
                client.register_scenario("nb", "null_no_bias", token=ADMIN_TOKEN)
                served = client.quantify("nb", "group", k=3)
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()
        with DictOracle(DictOracleRegistry()) as oracle:
            status, _ = oracle.call(
                "/v1/datasets", {"name": "nb", "scenario": "null_no_bias"}
            )
            assert status == 200
            status, expected = oracle.call(
                "/v1/quantify", {"dataset": "nb", "dimension": "group", "k": 3}
            )
        assert status == 200
        assert json.dumps(served, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )


# ----------------------------------------------------------------------
# Service surface: GET /v1/scenarios, POST /v1/datasets, pagination
# ----------------------------------------------------------------------


@pytest.fixture
def service(start_service):
    return start_service(admin_token=ADMIN_TOKEN)


@pytest.fixture
def client(service):
    with FBoxClient(
        service.url, retry=RetryPolicy(max_attempts=1, seed=0)
    ) as client:
        yield client


class TestScenarioEndpoints:
    def test_scenarios_listing(self, client):
        document = client.scenarios()
        names = [entry["name"] for entry in document["scenarios"]]
        assert names == list(scenario_names())
        assert document["count"] == len(names)
        assert document["next_offset"] is None
        by_name = {entry["name"]: entry for entry in document["scenarios"]}
        assert by_name["mega_marketplace"]["population"] == 1_000_000
        assert by_name["null_no_bias"]["bias_scale"] == 0.0

    def test_scenarios_pagination_walks_the_catalog(self, client):
        collected = []
        offset = 0
        while offset is not None:
            _, page = client.get(
                f"/v1/scenarios?limit=2&offset={offset}"
            )
            assert page["limit"] == 2
            collected.extend(e["name"] for e in page["scenarios"])
            offset = page["next_offset"]
        assert collected == list(scenario_names())

    def test_bad_page_params_are_rejected(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.get("/v1/scenarios?limit=zero")
        assert excinfo.value.status == 400
        with pytest.raises(ClientError) as excinfo:
            client.get("/v1/datasets?offset=-1")
        assert excinfo.value.status == 400

    def test_datasets_listing_is_paginated(self, client):
        document = client.datasets()
        assert {"count", "offset", "limit", "next_offset"} <= set(document)
        _, page = client.get("/v1/datasets?limit=1")
        assert len(page["datasets"]) == 1
        assert page["next_offset"] == 1


class TestRuntimeRegistration:
    def test_registration_requires_the_admin_token(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.register_scenario("nb", "null_no_bias")
        assert excinfo.value.status == 403
        with pytest.raises(ClientError) as excinfo:
            client.register_scenario("nb", "null_no_bias", token="wrong")
        assert excinfo.value.status == 403

    def test_register_then_lazily_materialize(self, client):
        document = client.register_scenario(
            "nb", "null_no_bias", overrides={"seed": 9}, token=ADMIN_TOKEN
        )
        assert document["dataset"] == "nb"
        assert document["scenario"] == "null_no_bias"
        assert document["overrides"] == {"seed": 9}
        assert document["site"] == "taskrabbit"

        listing = {
            e["name"]: e for e in client.datasets()["datasets"]
        }
        assert listing["nb"]["loaded"] is False  # registered, not built
        assert listing["nb"]["scenario"] == "null_no_bias"
        assert listing["nb"]["overrides"] == {"seed": 9}

        answer = client.quantify("nb", "group", k=3)
        assert answer["kind"] == "quantification"

        listing = {
            e["name"]: e for e in client.datasets()["datasets"]
        }
        assert listing["nb"]["loaded"] is True

    def test_name_collision_is_a_conflict(self, client):
        client.register_scenario("nb", "null_no_bias", token=ADMIN_TOKEN)
        with pytest.raises(ClientError) as excinfo:
            client.register_scenario("nb", "null_no_bias", token=ADMIN_TOKEN)
        assert excinfo.value.status == 409
        assert excinfo.value.body["error"]["code"] == "dataset_exists"

    def test_builtin_names_collide_too(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.register_scenario(
                "taskrabbit", "null_no_bias", token=ADMIN_TOKEN
            )
        assert excinfo.value.status == 409

    def test_unknown_scenario_and_bad_overrides(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.register_scenario("x", "no_such_preset", token=ADMIN_TOKEN)
        assert excinfo.value.status == 404
        with pytest.raises(ClientError) as excinfo:
            client.register_scenario(
                "x", "null_no_bias", overrides={"name": "y"}, token=ADMIN_TOKEN
            )
        assert excinfo.value.status == 422
        with pytest.raises(ClientError) as excinfo:
            client.register_scenario(
                "x", "null_no_bias", overrides={"seed": "NaN-ish"},
                token=ADMIN_TOKEN,
            )
        assert excinfo.value.status == 422

    def test_validation_of_the_envelope(self, client):
        for payload in ({}, {"name": "x"}, {"scenario": "null_no_bias"},
                        {"name": "x", "scenario": "null_no_bias",
                         "overrides": [1, 2]}):
            with pytest.raises(ClientError) as excinfo:
                client.post(
                    "/v1/datasets", payload,
                    headers={"X-Admin-Token": ADMIN_TOKEN},
                )
            assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# Loadgen: seeded planning, report schema, a live quick run
# ----------------------------------------------------------------------


class TestLoadgenPlanning:
    def test_operation_plan_is_deterministic(self):
        first = plan_operations({"quantify": 3, "compare": 1}, 50, seed=4)
        second = plan_operations({"quantify": 3, "compare": 1}, 50, seed=4)
        assert first == second
        assert len(first) == 50
        assert set(first) <= {"quantify", "compare"}
        assert plan_operations({"quantify": 3, "compare": 1}, 50, seed=5) != first

    def test_unknown_ops_are_rejected(self):
        with pytest.raises(Unprocessable):
            plan_operations({"frobnicate": 1}, 10, seed=0)
        with pytest.raises(Unprocessable):
            plan_operations({"quantify": 0}, 10, seed=0)
        # An absent mix means "the default", not an error.
        assert len(plan_operations(None, 10, seed=0)) == 10

    def test_arrival_schedule_is_deterministic_and_monotone(self):
        first = arrival_schedule(100.0, 40, seed=2)
        second = arrival_schedule(100.0, 40, seed=2)
        assert first == second
        assert len(first) == 40
        assert all(b >= a for a, b in zip(first, first[1:]))
        assert first[0] >= 0.0


class TestLoadgenLiveRun:
    @pytest.fixture(scope="class")
    def loadgen_server(self):
        from repro.service.server import make_server

        server = make_server(port=0, quiet=True, admin_token=ADMIN_TOKEN)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with FBoxClient(server.url) as client:
            client.register_scenario("nb", "null_no_bias", token=ADMIN_TOKEN)
        yield server
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()

    def test_report_schema_and_zero_hard_failures(self, loadgen_server):
        config = get_scenario("null_no_bias")
        report = run_loadgen(
            loadgen_server.url,
            "nb",
            config,
            requests=24,
            workers=2,
            warmup=4,
            seed=3,
        )
        assert set(report) == report_keys()
        assert set(report["latency_ms"]) == latency_keys()
        assert report["errors"]["hard"] == 0
        assert report["throughput_rps"] > 0
        assert report["measured"] == 20
        for stats in report["mix"].values():
            assert {"requests", "hard", "shed", "p50_ms"} <= set(stats)
        json.dumps(report)  # the report must be a plain JSON document

    def test_open_loop_measures_from_scheduled_arrival(self, loadgen_server):
        config = get_scenario("null_no_bias")
        report = run_loadgen(
            loadgen_server.url,
            "nb",
            config,
            mode="open",
            requests=16,
            workers=4,
            rate=400.0,
            seed=3,
        )
        assert report["mode"] == "open"
        assert report["rate"] == 400.0
        assert report["errors"]["hard"] == 0
