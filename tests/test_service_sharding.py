"""The sharded execution backend: placement, crash chaos, batch fan-out.

The conftest ``shards`` parameter already runs every existing service suite
against a two-worker pool, so byte-compatibility is covered there.  This
module tests what only sharding has: deterministic consistent-hash
placement, the frame protocol, shard-crash quarantine and recovery
(scripted through ``FBOX_FAULTS`` worker_exit rules, exactly how an
operator would chaos-test a deployment), cross-shard ``/batch`` planning,
and the per-dataset registry locks that let distinct datasets build
concurrently.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import Counter

import pytest

from repro.service.errors import ShardUnavailable
from repro.service.faults import FAULTS_ENV_VAR
from repro.service.registry import DatasetRegistry, DatasetSpec
from repro.service.server import make_server
from repro.service.sharding import build_ring, recv_frame, send_frame, shard_for


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


def _get(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(base: str, path: str, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture
def run_server():
    """Boot servers with explicit knobs (chaos tests pin their own shards)."""
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


# ----------------------------------------------------------------------
# Placement: the consistent-hash ring
# ----------------------------------------------------------------------


class TestPlacement:
    def test_shard_for_is_deterministic_across_calls(self):
        for name in ("taskrabbit", "google", "α-dataset", ""):
            assert shard_for(name, 4) == shard_for(name, 4)

    def test_single_shard_owns_everything(self):
        assert shard_for("anything", 1) == 0
        assert shard_for("else", 0) == 0

    def test_every_shard_owns_some_names(self):
        ring = build_ring(4)
        owners = Counter(
            shard_for(f"dataset-{i}", 4, ring) for i in range(400)
        )
        assert set(owners) == {0, 1, 2, 3}
        # Consistent hashing with 64 vnodes keeps the split roughly even.
        assert min(owners.values()) > 40

    def test_ring_is_stable_under_reconstruction(self):
        assert build_ring(3) == build_ring(3)

    def test_growing_the_pool_moves_few_names(self):
        names = [f"dataset-{i}" for i in range(300)]
        before = {name: shard_for(name, 4) for name in names}
        after = {name: shard_for(name, 5) for name in names}
        moved = sum(1 for name in names if before[name] != after[name])
        # Consistent hashing: ~1/5 of keys move when a fifth shard joins,
        # nothing like the ~4/5 a modulo scheme would reshuffle.
        assert moved < len(names) // 2

    def test_fixture_datasets_land_on_distinct_shards(self):
        # The chaos tests below rely on this split to show one shard dying
        # while the other keeps serving.
        assert shard_for("taskrabbit", 2) != shard_for("google", 2)


class TestFrameProtocol:
    def test_roundtrip(self):
        left, right = socket.socketpair()
        try:
            document = {"op": "call", "payload": {"k": [1, 2, 3], "s": "α"}}
            send_frame(left, document)
            assert recv_frame(right) == document
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_oversized_announcement_is_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((1 << 30).to_bytes(4, "big"))
            with pytest.raises(ConnectionError):
                recv_frame(right)
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# Shard-crash chaos: kill a worker mid-request, watch quarantine + recovery
# ----------------------------------------------------------------------


class TestShardCrash:
    def test_worker_death_quarantines_then_recovers(
        self,
        run_server,
        monkeypatch,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        # Scripted through FBOX_FAULTS, the same knob an operator would use.
        # The rule matches /compare so only the worker we aim a compare at
        # dies (every worker holds the same rules; a /quantify rule would
        # also kill the "surviving" shard on its first query below).
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {"rules": [{"site": "worker_exit", "match": "/compare", "times": 1}]}
            ),
        )
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(
            registry,
            shards=2,
            request_timeout=60.0,
            cache_size=0,
        )
        router = server.context.router
        victim_shard = shard_for("taskrabbit", 2)
        # Widen the monitor's poll so the quarantine window is observable
        # deterministically instead of racing a 100ms revive.
        router.poll_interval = 2.0
        time.sleep(0.3)  # let the monitor settle into the slow cadence

        status, body = _post(
            server.url,
            "/v1/compare",
            {
                "dataset": "taskrabbit",
                "dimension": "group",
                "r1": "gender=Male",
                "r2": "gender=Female",
                "breakdown": "location",
            },
        )
        assert status == 503
        error = body["error"]
        assert error["code"] == "shard_unavailable"
        assert error["retryable"] is True
        assert error["shard"] == victim_shard
        assert "retry_after" in error

        # Quarantine: /readyz flags the dead shard's dataset, and only it.
        status, ready = _get(server.url, "/v1/readyz")
        assert status == 503
        assert ready["status"] == "unavailable"
        assert any("taskrabbit" in blocker for blocker in ready["blockers"])
        entries = {entry["name"]: entry for entry in ready["datasets"]}
        assert entries["taskrabbit"]["breaker"] != "closed"
        assert entries["taskrabbit"]["shard"] == victim_shard
        assert entries["google"]["breaker"] == "closed"

        # The surviving shard keeps answering while its peer is down.
        status, answer = _post(
            server.url,
            "/v1/quantify",
            {"dataset": "google", "dimension": "group", "k": 3},
        )
        assert status == 200
        assert answer["kind"] == "quantification"

        # Recovery: the monitor respawns the worker (whose injector knows
        # the exit fault is spent), the breaker closes, answers come back.
        router.poll_interval = 0.05
        deadline = time.monotonic() + 20.0
        status, body = 0, {}
        while time.monotonic() < deadline:
            status, body = _post(
                server.url,
                "/v1/quantify",
                {"dataset": "taskrabbit", "dimension": "group", "k": 3},
            )
            if status == 200:
                break
            time.sleep(0.1)
        assert status == 200, body
        assert body["kind"] == "quantification"
        status, ready = _get(server.url, "/v1/readyz")
        assert status == 200
        assert ready["status"] == "ready"

    def test_shard_unavailable_is_a_circuit_open(self):
        # The degraded-answer path catches CircuitOpen; a dead shard must
        # ride the same rail so allow_stale answers survive worker death.
        from repro.service.errors import CircuitOpen

        assert issubclass(ShardUnavailable, CircuitOpen)
        assert ShardUnavailable.kind == "shard_unavailable"


class TestLoopStaysFree:
    def test_healthz_answers_while_a_routed_trends_call_stalls(
        self,
        run_server,
        monkeypatch,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        # The worker sleeps 5 s inside /trends; the front must wait for it
        # on the pool, not on the event loop.  Only the order of events is
        # asserted: healthz returns while the trends call is still open.
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {"rules": [{"site": "latency", "match": "/trends", "latency": 5.0}]}
            ),
        )
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=2, request_timeout=60.0)
        observation = small_marketplace_dataset.observations()[0]
        path = "/v1/trends?" + urllib.parse.urlencode(
            {
                "dataset": "taskrabbit",
                "group": "gender=Female",
                "query": observation.query,
                "location": observation.location,
            }
        )
        answered = []
        trends = threading.Thread(
            target=lambda: answered.append(_get(server.url, path)), daemon=True
        )
        trends.start()
        metrics = server.context.metrics
        while not metrics.snapshot()["in_flight"].get("/trends"):
            assert not answered, answered
            time.sleep(0.01)

        status, health = _get(server.url, "/v1/healthz")
        assert status == 200, health
        assert not answered
        trends.join(timeout=60)
        assert not trends.is_alive()
        assert answered[0][0] == 200, answered

    @pytest.mark.parametrize("path", ["/metrics", "/readyz", "/datasets"])
    def test_healthz_answers_while_a_worker_status_reply_stalls(
        self,
        run_server,
        monkeypatch,
        path,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        # Each worker sleeps 3 s (below the 5 s status timeout) before its
        # status reply; the worker-truth GETs must poll from the pool.  Only
        # the order of events is asserted.
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {"rules": [{"site": "latency", "match": "status", "latency": 3.0}]}
            ),
        )
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(registry, shards=2, request_timeout=60.0)
        answered = []

        def scrape() -> None:
            with urllib.request.urlopen(server.url + "/v1" + path) as response:
                answered.append(response.status)

        stalled = threading.Thread(target=scrape, daemon=True)
        stalled.start()
        metrics = server.context.metrics
        while not metrics.snapshot()["in_flight"].get(path):
            assert not answered, answered
            time.sleep(0.01)

        status, health = _get(server.url, "/v1/healthz")
        assert status == 200, health
        assert not answered
        stalled.join(timeout=60)
        assert not stalled.is_alive()
        assert answered == [200]

    def test_worker_truth_gets_answer_while_routed_calls_fill_the_pool(
        self,
        run_server,
        monkeypatch,
        small_marketplace_dataset,
        small_search_dataset,
    ):
        # Two routed trends calls stall 5 s on their worker and hold both
        # threads of the query pool; the worker-truth GETs must not queue
        # behind them.  Only the order of events is asserted.
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {"rules": [{"site": "latency", "match": "/trends", "latency": 5.0}]}
            ),
        )
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = run_server(
            registry, shards=2, request_timeout=60.0, executor_workers=2
        )
        observation = small_marketplace_dataset.observations()[0]
        path = "/v1/trends?" + urllib.parse.urlencode(
            {
                "dataset": "taskrabbit",
                "group": "gender=Female",
                "query": observation.query,
                "location": observation.location,
            }
        )
        answered = []
        stalled = [
            threading.Thread(
                target=lambda: answered.append(_get(server.url, path)), daemon=True
            )
            for _ in range(2)
        ]
        for thread in stalled:
            thread.start()
        metrics = server.context.metrics
        while metrics.snapshot()["in_flight"].get("/trends", 0) < 2:
            assert not answered, answered
            time.sleep(0.01)

        for probe in ("/v1/readyz", "/v1/datasets", "/v1/metrics"):
            with urllib.request.urlopen(server.url + probe) as response:
                assert response.status == 200, probe
            assert not answered, probe
        for thread in stalled:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert [status for status, _ in answered] == [200, 200]


# ----------------------------------------------------------------------
# Cross-shard /batch
# ----------------------------------------------------------------------


class TestCrossShardBatch:
    BATCH = [
        {"op": "quantify", "dataset": "taskrabbit", "dimension": "group", "k": 3},
        {"op": "quantify", "dataset": "google", "dimension": "group", "k": 3},
        {"op": "quantify", "dataset": "taskrabbit", "dimension": "query", "k": 2},
        {"op": "quantify", "dataset": "google", "dimension": "query", "k": 2},
    ]

    def test_batch_spanning_shards_matches_the_unsharded_answer(
        self, run_server, small_marketplace_dataset, small_search_dataset
    ):
        sharded = run_server(
            _registry(small_marketplace_dataset, small_search_dataset),
            shards=2,
            request_timeout=120.0,
            cache_size=0,
        )
        inproc = run_server(
            _registry(small_marketplace_dataset, small_search_dataset),
            shards=0,
            request_timeout=120.0,
            cache_size=0,
        )
        status_a, body_a = _post(
            sharded.url, "/v1/batch", {"requests": self.BATCH}
        )
        status_b, body_b = _post(
            inproc.url, "/v1/batch", {"requests": self.BATCH}
        )
        assert status_a == status_b == 200
        assert body_a == body_b
        assert body_a["succeeded"] == len(self.BATCH)

    def test_bad_item_fails_alone_across_shards(
        self, run_server, small_marketplace_dataset, small_search_dataset
    ):
        server = run_server(
            _registry(small_marketplace_dataset, small_search_dataset),
            shards=2,
            request_timeout=120.0,
            cache_size=0,
        )
        batch = [
            self.BATCH[0],
            {"op": "quantify", "dataset": "missing", "dimension": "group"},
            self.BATCH[1],
        ]
        status, body = _post(server.url, "/v1/batch", {"requests": batch})
        assert status == 200
        assert [item["status"] for item in body["results"]] == [200, 404, 200]
        failed = body["results"][1]["error"]
        assert failed["code"] == "not_found"
        assert failed["retryable"] is False
        assert body["succeeded"] == 2 and body["failed"] == 1


# ----------------------------------------------------------------------
# Per-dataset registry locks
# ----------------------------------------------------------------------


class TestPerDatasetLocks:
    def test_slow_builds_on_distinct_datasets_overlap(
        self, small_marketplace_dataset, small_search_dataset
    ):
        """Regression: dataset loads used to serialize on one global lock.

        Both loaders rendezvous on a barrier *inside* the build; under the
        old registry-wide lock the second loader could never start, the
        barrier timed out, and this test failed with BrokenBarrierError.
        """
        barrier = threading.Barrier(2, timeout=5.0)
        registry = DatasetRegistry()
        registry.register(
            DatasetSpec(
                name="taskrabbit",
                site="taskrabbit",
                loader=lambda: (barrier.wait(), small_marketplace_dataset)[1],
                description="slow build a",
            )
        )
        registry.register(
            DatasetSpec(
                name="google",
                site="google",
                loader=lambda: (barrier.wait(), small_search_dataset)[1],
                description="slow build b",
            )
        )
        failures: list[BaseException] = []

        def load(name: str) -> None:
            try:
                registry.dataset(name)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=load, args=(name,))
            for name in ("taskrabbit", "google")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not failures, failures
        assert registry.is_loaded("taskrabbit") and registry.is_loaded("google")

    def test_same_dataset_still_builds_exactly_once(
        self, small_marketplace_dataset
    ):
        calls = []
        registry = DatasetRegistry()
        registry.register(
            DatasetSpec(
                name="taskrabbit",
                site="taskrabbit",
                loader=lambda: (calls.append(1), small_marketplace_dataset)[1],
                description="counted build",
            )
        )
        threads = [
            threading.Thread(target=registry.dataset, args=("taskrabbit",))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(calls) == 1
