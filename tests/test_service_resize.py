"""Live shard-pool resize: ``POST /v1/admin/shards`` end to end.

Covers the full contract of a resize:

* the consistent-hash ring bounds how many datasets a ±1 resize moves;
* an N→M→N round trip is invisible — quantify, trends, and replayed
  ``batch_id``s answer identically before and after, and match a cold
  rebuild (a fresh server at the same count, and the dict-FBox oracle
  cold-built in-process);
* the admin surface validates counts, requires ``--shards``, and honors
  ``--admin-token`` (X-Admin-Token or Authorization: Bearer);
* concurrent query/ingest traffic across a resize sees only transparent
  retries — :class:`~repro.client.FBoxClient` callers observe zero
  failures;
* the two worker-kill chaos arcs (source killed mid-export, destination
  killed mid-import) and a resize racing a quarantined shard all converge
  to the same state a cold boot at the final count reaches.

Worker kills are scripted through ``FBOX_FAULTS`` ``worker_exit`` rules
targeting the migration ops (``/admin/export:<dataset>`` /
``/admin/import:<dataset>``) — one rule per scenario, because respawned
workers deduct the observed crash count from every rule.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
import urllib.parse

import pytest

from repro.client import ClientError, FBoxClient, RetryPolicy
from repro.service.faults import FAULTS_ENV_VAR
from repro.service.registry import DatasetRegistry, DatasetSpec
from repro.service.server import make_server
from repro.service.sharding import build_ring, shard_for

from tests.helpers import DictOracle, DictOracleRegistry, copy_dataset


def _registry(
    small_marketplace_dataset, small_search_dataset, registry_class=DatasetRegistry
) -> DatasetRegistry:
    # Loaders hand out private copies: the in-process oracle ingests into
    # its datasets, which must never mutate the session fixtures.
    registry = registry_class()
    registry.register(
        DatasetSpec(
            name="taskrabbit",
            site="taskrabbit",
            loader=lambda: copy_dataset(small_marketplace_dataset),
            description="six-city category crawl",
        )
    )
    registry.register(
        DatasetSpec(
            name="google",
            site="google",
            loader=lambda: copy_dataset(small_search_dataset),
            description="two-location study",
        )
    )
    return registry


@pytest.fixture
def run_server():
    """Boot servers with explicit knobs (every test pins its own shards)."""
    running: list = []

    def _start(registry, **kwargs):
        kwargs.setdefault("port", 0)
        server = make_server(registry=registry, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        running.append((server, thread))
        return server

    yield _start
    for server, thread in running:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def _client(server) -> FBoxClient:
    return FBoxClient(server.url, retry=RetryPolicy(seed=3))


def _search_batches(small_search_dataset, count: int = 2) -> list[list[dict]]:
    """Deterministic ingest batches referencing the fixture study's roster."""
    from repro.searchengine.study import emit_observations

    return list(
        emit_observations(
            small_search_dataset, batches=count, batch_size=3, seed=11, swaps=2
        )
    )


def _apply(client: FBoxClient, batches) -> None:
    for position, batch in enumerate(batches):
        client.ingest("google", batch, batch_id=f"rz-{position}")


def _norm(document, volatile=("cached",)) -> str:
    document = dict(document)
    for key in volatile:
        document.pop(key, None)
    return json.dumps(document, sort_keys=True)


_TREND_CELL = dict(group="gender=female", query="yard work", location="Boston, MA")


def _cold_answers(
    oracle, run_server, datasets, batches, shards
) -> tuple[dict, dict]:
    """The google quantify and trend documents after ``batches``, from a
    cold rebuild: a fresh columnar server at ``shards`` workers
    (``oracle="columnar"``) or the dict-FBox oracle in-process
    (``oracle="dict"``).  ``datasets`` is the fixture pair."""
    if oracle == "columnar":
        cold = run_server(_registry(*datasets), shards=shards)
        with _client(cold) as client:
            _apply(client, batches)
            return (
                client.quantify("google", "group", k=3),
                client.trends("google", **_TREND_CELL),
            )
    registry = _registry(*datasets, registry_class=DictOracleRegistry)
    with DictOracle(registry) as app:
        for position, batch in enumerate(batches):
            status, _ = app.call(
                "/v1/observations",
                {"dataset": "google", "batch_id": f"rz-{position}", "observations": batch},
            )
            assert status == 200
        _, quantify = app.call(
            "/v1/quantify", {"dataset": "google", "dimension": "group", "k": 3}
        )
        query = urllib.parse.urlencode({"dataset": "google", **_TREND_CELL})
        _, trends = app.call("/v1/trends?" + query)
        return quantify, trends


# ----------------------------------------------------------------------
# The ring: a ±1 resize moves a bounded slice of the catalog
# ----------------------------------------------------------------------


class TestRingMovementProperty:
    def test_adjacent_resizes_move_a_bounded_fraction(self):
        """For every N→N±1 resize, at most ``2*ceil(K/max(N,M)) + 2`` of K
        datasets change owner.

        The ideal consistent-hashing bound is ``ceil(K/max(N,M))``; with 64
        virtual nodes per shard the realized movement fluctuates around it,
        and a factor-2-plus-2 envelope holds across every seeded catalog
        here with margin (worst observed ratio ≈ 0.93) while still
        excluding modulo-style reshuffles, which move ``(1 - 1/N)·K``.
        """
        for seed in range(10):
            rng = random.Random(seed)
            catalog_size = rng.choice([40, 80, 120, 250])
            names = [
                f"ds-{seed}-{rng.randrange(10**9)}" for _ in range(catalog_size)
            ]
            for before in range(1, 9):
                for after in (before - 1, before + 1):
                    if after < 1:
                        continue
                    ring_before = build_ring(before)
                    ring_after = build_ring(after)
                    moved = sum(
                        1
                        for name in names
                        if shard_for(name, before, ring_before)
                        != shard_for(name, after, ring_after)
                    )
                    allowed = 2 * math.ceil(catalog_size / max(before, after)) + 2
                    assert moved <= allowed, (
                        f"{before}->{after} moved {moved} of {catalog_size} "
                        f"(allowed {allowed})"
                    )

    def test_unmoved_names_keep_their_owner_exactly(self):
        ring3, ring4 = build_ring(3), build_ring(4)
        names = [f"stable-{i}" for i in range(200)]
        stayed = [
            name
            for name in names
            if shard_for(name, 3, ring3) == shard_for(name, 4, ring4)
        ]
        # Growing never reshuffles survivors among the old shards: a name
        # either moves to the new shard or stays exactly where it was.
        for name in names:
            owner = shard_for(name, 4, ring4)
            if owner != 3:
                assert owner == shard_for(name, 3, ring3)
        assert len(stayed) > len(names) // 2


# ----------------------------------------------------------------------
# Validation and the admin-token gate
# ----------------------------------------------------------------------


class TestAdminSurface:
    def test_resize_without_sharding_is_unprocessable(
        self, run_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=0)
        with _client(server) as client:
            with pytest.raises(ClientError) as caught:
                client.resize(2)
            assert caught.value.status == 422
            assert "shards" in str(caught.value)

    def test_count_validation(
        self, run_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=2)
        with _client(server) as client:
            for bad in (0, 65, -1, "three", True, None, 2.5):
                with pytest.raises(ClientError) as caught:
                    client.post(
                        "/v1/admin/shards", {"count": bad}, idempotent=True
                    )
                assert caught.value.status == 422, bad

    def test_resize_to_current_count_is_a_noop(
        self, run_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=2)
        with _client(server) as client:
            outcome = client.resize(2)
        assert outcome["noop"] is True
        assert outcome["migrated"] == []

    def test_admin_token_gates_the_endpoint(
        self, run_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=2, admin_token="s3cret")
        with _client(server) as client:
            with pytest.raises(ClientError) as caught:
                client.resize(2)
            assert caught.value.status == 403
            with pytest.raises(ClientError) as caught:
                client.resize(2, token="wrong")
            assert caught.value.status == 403
            assert client.resize(2, token="s3cret")["noop"] is True
            # The Authorization: Bearer spelling is equivalent.
            status, body = client.request(
                "POST",
                "/v1/admin/shards",
                {"count": 2},
                headers={"Authorization": "Bearer s3cret"},
                idempotent=True,
            )
            assert status == 200 and body["noop"] is True
            # Query endpoints stay open: the token arms only the admin API.
            assert client.healthz()["status"] == "ok"

    def test_unarmed_server_accepts_without_token(
        self, run_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=2)
        with _client(server) as client:
            assert client.resize(2)["noop"] is True

    def test_schema_lists_the_admin_endpoint(
        self, run_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=2)
        with _client(server) as client:
            endpoints = {
                (entry["method"], entry["path"])
                for entry in client.schema()["endpoints"]
            }
        assert ("POST", "/v1/admin/shards") in endpoints


# ----------------------------------------------------------------------
# The round trip: N→M→N is invisible to readers, writers, and replays
# ----------------------------------------------------------------------


@pytest.mark.parametrize("oracle", ["dict", "columnar"])
class TestResizeRoundTrip:
    def test_round_trip_preserves_state_byte_for_byte(
        self,
        oracle,
        run_server,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        batches = _search_batches(small_search_dataset)
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=2)
        with _client(server) as client:
            _apply(client, batches)
            before_quantify = _norm(client.quantify("google", "group", k=3))
            before_market = _norm(client.quantify("taskrabbit", "group", k=3))
            before_trends = _norm(client.trends("google", **_TREND_CELL))

            grown = client.resize(4)
            assert grown["from"] == 2 and grown["to"] == 4
            assert set(grown["migrated"]) <= {"taskrabbit", "google"}
            # The O(1) segment handoff: migrated datasets keep their
            # shared-memory segments — nothing republished, count > 0.
            assert all(count > 0 for count in grown["segments"].values())
            assert _norm(client.quantify("google", "group", k=3)) == before_quantify
            assert _norm(client.trends("google", **_TREND_CELL)) == before_trends
            # Replay protection moved with the dataset.
            replay = client.ingest("google", batches[0], batch_id="rz-0")
            assert replay["replayed"] is True

            shrunk = client.resize(2)
            assert shrunk["from"] == 4 and shrunk["to"] == 2
            assert _norm(client.quantify("google", "group", k=3)) == before_quantify
            assert _norm(client.quantify("taskrabbit", "group", k=3)) == before_market
            assert _norm(client.trends("google", **_TREND_CELL)) == before_trends
            assert (
                client.ingest("google", batches[1], batch_id="rz-1")["replayed"]
                is True
            )

            # A cold rebuild with the same ingests answers byte-identically:
            # the migrated state is indistinguishable from never having
            # moved.
            quantify, trends = _cold_answers(
                oracle,
                run_server,
                (small_marketplace_dataset, small_search_dataset),
                batches,
                shards=2,
            )
            assert _norm(quantify) == before_quantify
            assert _norm(trends) == before_trends

            # The observability contract: resize counters and the state
            # machine are exposed.
            metrics = client.metrics_text()
            assert "fbox_resizes_total 2" in metrics
            assert "fbox_datasets_migrated_total" in metrics
            assert "fbox_resize_duration_seconds_count 2" in metrics
            listing = client.datasets()
            assert listing["resize"]["state"] == "idle"
            assert listing["resize"]["last"]["to"] == 2
            assert all(
                entry["migrating"] is False for entry in listing["datasets"]
            )
            status, ready = client.readyz()
            assert ready["resize"]["state"] == "idle"


# ----------------------------------------------------------------------
# Resize under concurrent traffic: clients see zero failures
# ----------------------------------------------------------------------


class TestResizeUnderTraffic:
    def test_open_loop_queries_and_ingests_survive_a_resize(
        self,
        run_server,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        batches = _search_batches(small_search_dataset)
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=2, cache_size=0)
        volatile = ("cached", "generation")
        with _client(server) as warm:
            _apply(warm, batches)
            expected = _norm(warm.quantify("google", "group", k=3), volatile)

        failures: list[BaseException] = []
        answers: list[str] = []
        stop = threading.Event()

        def reader(dataset: str) -> None:
            with _client(server) as client:
                while not stop.is_set():
                    try:
                        document = client.quantify(dataset, "group", k=3)
                        if dataset == "google":
                            answers.append(_norm(document, volatile))
                    except BaseException as error:  # noqa: BLE001
                        failures.append(error)
                        return

        def writer() -> None:
            with _client(server) as client:
                position = 0
                while not stop.is_set():
                    try:
                        # Re-apply the *last* batch: latest-wins makes it a
                        # no-op by value, so readers see one stable answer
                        # while the write path stays under real load.
                        client.ingest(
                            "google", batches[-1], batch_id=f"traffic-{position}"
                        )
                        position += 1
                    except BaseException as error:  # noqa: BLE001
                        failures.append(error)
                        return

        threads = [
            threading.Thread(target=reader, args=("google",)),
            threading.Thread(target=reader, args=("taskrabbit",)),
            threading.Thread(target=writer),
        ]
        for thread in threads:
            thread.start()
        try:
            with _client(server) as admin:
                grown = admin.resize(4)
                shrunk = admin.resize(2)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures
        assert grown["to"] == 4 and shrunk["to"] == 2
        assert answers, "the reader never completed a query"
        # Every answer mid-resize was a real answer over the same state
        # (the writer re-applies batch 0's observations, which are
        # idempotent by value, so the cube never changes).
        assert set(answers) == {expected}


# ----------------------------------------------------------------------
# Chaos: worker kills mid-migration, and resize racing a quarantine
# ----------------------------------------------------------------------


def _cold_answer(oracle, run_server, datasets, batches, shards) -> str:
    quantify, _ = _cold_answers(oracle, run_server, datasets, batches, shards)
    return _norm(quantify, volatile=("cached", "generation"))


@pytest.mark.parametrize("oracle", ["dict", "columnar"])
class TestResizeChaos:
    """Both kill arcs must converge to the cold-rebuild state at the final
    count.  ``generation`` is normalized out: a kill destroys the victim's
    in-memory write-path state, so re-applied batches legitimately advance
    the counter past a cold boot's (the cube *values* still converge)."""

    def test_source_killed_mid_export_converges(
        self,
        oracle,
        run_server,
        monkeypatch,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {
                    "rules": [
                        {
                            "site": "worker_exit",
                            "match": "/admin/export:google",
                            "times": 1,
                        }
                    ]
                }
            ),
        )
        batches = _search_batches(small_search_dataset)
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=2, cache_size=0)
        with _client(server) as client:
            _apply(client, batches)
            outcome = client.resize(4)
            assert outcome["to"] == 4
            assert "google" in outcome["migrated"]
            # The kill wiped the source's journal; re-ingesting the same
            # batches restores the lost observations (idempotent by value).
            _apply(client, batches)
            answer = _norm(
                client.quantify("google", "group", k=3),
                volatile=("cached", "generation"),
            )
        monkeypatch.delenv(FAULTS_ENV_VAR)
        datasets = (small_marketplace_dataset, small_search_dataset)
        assert answer == _cold_answer(oracle, run_server, datasets, batches, 4)

    def test_destination_killed_mid_import_converges(
        self,
        oracle,
        run_server,
        monkeypatch,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {
                    "rules": [
                        {
                            "site": "worker_exit",
                            "match": "/admin/import:google",
                            "times": 1,
                        }
                    ]
                }
            ),
        )
        batches = _search_batches(small_search_dataset)
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=2, cache_size=0)
        with _client(server) as client:
            _apply(client, batches)
            outcome = client.resize(4)
            assert outcome["to"] == 4
            # The source survived, so the retried copy carried the full
            # state across — including the idempotency ledger.
            assert (
                client.ingest("google", batches[0], batch_id="rz-0")["replayed"]
                is True
            )
            answer = _norm(
                client.quantify("google", "group", k=3),
                volatile=("cached", "generation"),
            )
            metrics = client.metrics_text()
            assert "fbox_shard_restarts_total" in metrics
        monkeypatch.delenv(FAULTS_ENV_VAR)
        datasets = (small_marketplace_dataset, small_search_dataset)
        assert answer == _cold_answer(oracle, run_server, datasets, batches, 4)

    def test_resize_while_shard_quarantined_converges(
        self,
        oracle,
        run_server,
        monkeypatch,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        # Kill the google owner with a /compare aimed at it, then resize
        # immediately — the migration loop waits out the monitor's revival.
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {"rules": [{"site": "worker_exit", "match": "/compare", "times": 1}]}
            ),
        )
        batches = _search_batches(small_search_dataset)
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=2, cache_size=0)
        with _client(server) as client:
            _apply(client, batches)
            with pytest.raises(ClientError):
                # The kill shot: the owning worker dies mid-request.  No
                # retries, so the resize below races the quarantine window.
                FBoxClient(
                    server.url, retry=RetryPolicy(max_attempts=1)
                ).compare("google", "group", "gender=male", "gender=female", "query")
            outcome = client.resize(4)
            assert outcome["to"] == 4
            _apply(client, batches)
            answer = _norm(
                client.quantify("google", "group", k=3),
                volatile=("cached", "generation"),
            )
        monkeypatch.delenv(FAULTS_ENV_VAR)
        datasets = (small_marketplace_dataset, small_search_dataset)
        assert answer == _cold_answer(oracle, run_server, datasets, batches, 4)


# ----------------------------------------------------------------------
# Satellite fixes: restart backoff, idempotent client replay
# ----------------------------------------------------------------------


class TestRestartBackoff:
    def test_consecutive_crashes_back_off_exponentially(
        self,
        run_server,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=1)
        router = server.context.router
        shard = router._shards[0]
        delays = []
        for _ in range(3):
            # Each revive looks like a crash shortly after spawn, so the
            # consecutive-crash streak grows and the delay doubles.
            shard.spawned_at = time.monotonic()
            before = time.monotonic()
            router._revive(shard, "scripted crash")
            delays.append(shard.next_restart_at - before)
        assert delays[0] < delays[1] < delays[2]
        assert all(delay <= 5.0 * 1.2 for delay in delays)
        assert server.context.metrics.shard_restarts.get(0, 0) >= 3
        with _client(server) as client:
            assert 'fbox_shard_restarts_total{shard="0"}' in client.metrics_text()

    def test_stable_uptime_resets_the_streak(
        self,
        run_server,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=1)
        router = server.context.router
        shard = router._shards[0]
        shard.spawned_at = time.monotonic()
        router._revive(shard, "scripted crash")
        router._revive(shard, "scripted crash")  # spawned_at is fresh: streak 2
        assert shard.consecutive_crashes >= 2
        shard.spawned_at = time.monotonic() - 60.0  # survived a long time
        router._revive(shard, "scripted crash")
        assert shard.consecutive_crashes == 1


class TestClientIdempotentReplay:
    def _scripted_client(self, fail_times: int) -> FBoxClient:
        client = FBoxClient(
            "http://127.0.0.1:9", retry=RetryPolicy(max_attempts=1, seed=1)
        )
        calls = {"n": 0}

        def scripted_exchange(method, path, data, headers):
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise ConnectionResetError("reset mid-body")
            return 200, None, json.dumps({"ok": True, "calls": calls["n"]}).encode()

        client._exchange = scripted_exchange
        client.calls = calls
        return client

    def test_idempotent_post_replays_once_after_reset(self):
        client = self._scripted_client(fail_times=1)
        body = client.post("/v1/observations", {"batch_id": "b"}, idempotent=True)
        assert body == {"ok": True, "calls": 2}
        # The replay was invisible to the retry policy: no sleeps, one attempt.
        assert client.sleeps == []
        assert client.attempts == 1

    def test_non_idempotent_post_surfaces_the_reset(self):
        client = self._scripted_client(fail_times=1)
        with pytest.raises(ClientError):
            client.post("/v1/quantify", {"dataset": "google"})

    def test_replay_is_single_shot(self):
        # Two consecutive resets exhaust the replay; the error surfaces.
        client = self._scripted_client(fail_times=2)
        with pytest.raises(ClientError):
            client.post("/v1/observations", {"batch_id": "b"}, idempotent=True)

    def test_ingest_marks_itself_idempotent(self):
        client = FBoxClient("http://127.0.0.1:9")
        seen = {}

        def recording_request(method, path, payload=None, **kwargs):
            seen.update(kwargs, path=path)
            return 200, {"ok": True}

        client.request = recording_request
        client.ingest("google", [{"query": "q"}])
        assert seen["idempotent"] is True

    def test_resize_sends_the_admin_token(self):
        client = FBoxClient("http://127.0.0.1:9")
        seen = {}

        def recording_request(method, path, payload=None, **kwargs):
            seen.update(kwargs, path=path, payload=payload)
            return 200, {"ok": True}

        client.request = recording_request
        client.resize(4, token="s3cret")
        assert seen["path"] == "/v1/admin/shards"
        assert seen["payload"] == {"count": 4}
        assert seen["headers"] == {"X-Admin-Token": "s3cret"}
        assert seen["idempotent"] is True
