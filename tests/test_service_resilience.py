"""Chaos and resilience tests for the F-Box query service.

Covers the whole resilience layer:

* admission control — bounded queue, fast 429 shedding, Retry-After;
* the per-dataset circuit breaker — open/half-open/closed transitions,
  validation errors never tripping it, re-registration resetting it;
* deterministic fault injection — with a fixed seed, the breaker transition
  sequence and the shed count are byte-for-byte identical across runs;
* graceful degradation — ``allow_stale`` requests get the last-known-good
  answer, loudly marked, when a deadline fires or a breaker is open;
* the liveness/readiness split (``/healthz`` vs ``/readyz``);
* result-cache TTLs against an injectable clock;
* the retrying :class:`~repro.client.FBoxClient`; and
* the overload scenario itself: under 4x-capacity load, shedding keeps the
  p99 of *accepted* requests below the no-admission server's, and no
  request — accepted or shed — outlives its deadline.
"""

from __future__ import annotations

import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.client import ClientError, FBoxClient, RetryPolicy
from repro.service.cache import LRUCache
from repro.service.errors import CircuitOpen, TooManyRequests, Unprocessable
from repro.service.faults import (
    FaultInjector,
    FaultRule,
    InjectedFault,
    faults_from_env,
)
from repro.service.handlers import ServiceContext, handle_readyz
from repro.service.registry import DatasetRegistry, DatasetSpec
from repro.service.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionController,
    BreakerConfig,
    CircuitBreaker,
)
from repro.service.server import make_server

from tests.helpers import wait_for
from tests.test_service import ServiceHarness, _registry


class FakeClock:
    """A manually advanced monotonic clock for breaker and TTL tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def live_server(executor_workers):
    """A contextmanager factory booting a real in-process server under the
    parameterized executor width (ephemeral port, always torn down)."""

    @contextmanager
    def _live(**kwargs):
        kwargs.setdefault("executor_workers", executor_workers)
        server = make_server(port=0, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield ServiceHarness(server)
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()

    return _live


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestAdmissionController:
    def test_zero_concurrency_disables_admission(self):
        admission = AdmissionController(max_concurrency=0)
        assert not admission.enabled
        admission.acquire()  # no-op, no slot accounting
        admission.release()
        assert admission.snapshot()["accepted"] == 0

    def test_sheds_immediately_when_queue_is_full(self):
        admission = AdmissionController(max_concurrency=1, max_queue=0)
        admission.acquire()
        with pytest.raises(TooManyRequests) as excinfo:
            admission.acquire()
        error = excinfo.value
        assert error.status == 429
        assert error.retry_after == 1.0
        assert error.extra == {"max_concurrency": 1, "max_queue": 0}
        snapshot = admission.snapshot()
        assert snapshot["accepted"] == 1
        assert snapshot["shed"] == 1
        admission.release()

    def test_queued_request_sheds_after_queue_timeout(self):
        admission = AdmissionController(
            max_concurrency=1, max_queue=4, queue_timeout=0.05
        )
        admission.acquire()
        started = time.monotonic()
        with pytest.raises(TooManyRequests, match="queued longer"):
            admission.acquire()
        assert time.monotonic() - started >= 0.05
        assert admission.snapshot()["shed"] == 1
        admission.release()

    def test_queued_request_runs_once_a_slot_frees(self):
        admission = AdmissionController(max_concurrency=1, max_queue=1)
        admission.acquire()
        got_slot = threading.Event()

        def waiter() -> None:
            admission.acquire()
            got_slot.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        wait_for(lambda: admission.snapshot()["queue_depth"] == 1)
        assert not got_slot.is_set()
        admission.release()
        assert got_slot.wait(2.0)
        thread.join(timeout=2)
        snapshot = admission.snapshot()
        assert snapshot["accepted"] == 2
        assert snapshot["queue_depth"] == 0
        admission.release()

    def test_admit_context_manager_pairs_acquire_and_release(self):
        admission = AdmissionController(max_concurrency=2, max_queue=0)
        with admission.admit():
            assert admission.snapshot()["active"] == 1
        assert admission.snapshot()["active"] == 0


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, **config) -> tuple[CircuitBreaker, FakeClock]:
        clock = FakeClock()
        breaker = CircuitBreaker(
            "ds", BreakerConfig(**config), clock=clock
        )
        return breaker, clock

    def test_opens_after_threshold_then_probe_closes(self):
        breaker, clock = self._breaker(failure_threshold=2, reset_timeout=10.0)
        for _ in range(2):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpen) as excinfo:
            breaker.allow()
        error = excinfo.value
        assert error.status == 503
        assert error.extra["breaker"]["state"] == OPEN
        assert 0 < error.retry_after <= 10.0
        clock.advance(10.0)
        breaker.allow()  # the half-open probe
        assert breaker.state == HALF_OPEN
        with pytest.raises(CircuitOpen):
            breaker.allow()  # one probe at a time
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.transition_log() == (
            "closed->open",
            "open->half_open",
            "half_open->closed",
        )

    def test_failed_probe_reopens_with_fresh_backoff(self):
        breaker, clock = self._breaker(failure_threshold=1, reset_timeout=5.0)
        breaker.allow()
        breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()
        breaker.record_failure()  # the probe crashed too
        assert breaker.state == OPEN
        assert breaker.retry_in() == pytest.approx(5.0)
        clock.advance(5.0)
        breaker.allow()
        breaker.record_success()
        assert breaker.transition_log() == (
            "closed->open",
            "open->half_open",
            "half_open->open",
            "open->half_open",
            "half_open->closed",
        )

    def test_bypass_never_moves_the_state_machine(self):
        breaker, clock = self._breaker(failure_threshold=1, reset_timeout=5.0)
        for _ in range(3):
            breaker.allow()
            breaker.record_bypass()
        assert breaker.state == CLOSED
        assert breaker.transition_log() == ()
        # A bypassed half-open probe frees the probe slot without closing.
        breaker.allow()
        breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()
        breaker.record_bypass()
        assert breaker.state == HALF_OPEN
        breaker.allow()  # probe slot is free again
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(reset_timeout=-1.0)


class TestRegistryBreaker:
    def _failing_registry(
        self, dataset, failures: int, clock: FakeClock
    ) -> tuple[DatasetRegistry, list]:
        """A registry whose taskrabbit loader crashes ``failures`` times."""
        faults = FaultInjector(
            [FaultRule(site="dataset_load", match="taskrabbit", times=failures)],
            seed=42,
        )
        registry = DatasetRegistry(
            breaker_config=BreakerConfig(failure_threshold=2, reset_timeout=5.0),
            faults=faults,
            clock=clock,
        )
        loads: list = []

        def loader():
            loads.append(1)
            return dataset

        registry.register(
            DatasetSpec(name="taskrabbit", site="taskrabbit", loader=loader)
        )
        return registry, loads

    def test_crashing_loader_quarantines_then_recovers(
        self, small_marketplace_dataset
    ):
        clock = FakeClock()
        registry, loads = self._failing_registry(
            small_marketplace_dataset, failures=2, clock=clock
        )
        for _ in range(2):
            with pytest.raises(InjectedFault):
                registry.dataset("taskrabbit")
        assert registry.breaker("taskrabbit").state == OPEN
        assert registry.quarantined() == ["taskrabbit"]
        # Quarantined: the loader is not even consulted.
        with pytest.raises(CircuitOpen):
            registry.dataset("taskrabbit")
        assert loads == []
        clock.advance(5.0)
        dataset = registry.dataset("taskrabbit")  # half-open probe, fault spent
        assert dataset is small_marketplace_dataset
        assert loads == [1]
        assert registry.breaker("taskrabbit").state == CLOSED
        assert registry.breaker("taskrabbit").transition_log() == (
            "closed->open",
            "open->half_open",
            "half_open->closed",
        )

    def test_validation_errors_never_trip_the_breaker(
        self, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        for _ in range(registry.breaker_config.failure_threshold + 1):
            with pytest.raises(Unprocessable):
                registry.fbox("taskrabbit", "not-a-measure")
        assert registry.breaker("taskrabbit").state == CLOSED

    def test_reregistration_resets_the_breaker(self, small_marketplace_dataset):
        clock = FakeClock()
        registry, _ = self._failing_registry(
            small_marketplace_dataset, failures=2, clock=clock
        )
        for _ in range(2):
            with pytest.raises(InjectedFault):
                registry.dataset("taskrabbit")
        assert registry.breaker("taskrabbit").state == OPEN
        registry.register(
            DatasetSpec(
                name="taskrabbit",
                site="taskrabbit",
                loader=lambda: small_marketplace_dataset,
            )
        )
        breaker = registry.breaker("taskrabbit")
        assert breaker.state == CLOSED
        assert breaker.transition_log() == ()
        assert registry.dataset("taskrabbit") is small_marketplace_dataset


# ----------------------------------------------------------------------
# Deterministic chaos
# ----------------------------------------------------------------------


class TestChaosDeterminism:
    def _run_scenario(self, dataset) -> str:
        """One scripted chaos run, serialized for byte-for-byte comparison."""
        clock = FakeClock()
        faults = FaultInjector(
            [
                FaultRule(site="dataset_load", match="taskrabbit", times=3),
                FaultRule(site="handler", match="/quantify", probability=0.5),
            ],
            seed=42,
        )
        registry = DatasetRegistry(
            breaker_config=BreakerConfig(failure_threshold=2, reset_timeout=4.0),
            faults=faults,
            clock=clock,
        )
        registry.register(
            DatasetSpec(
                name="taskrabbit", site="taskrabbit", loader=lambda: dataset
            )
        )
        outcomes: list[str] = []
        for _ in range(12):
            try:
                registry.dataset("taskrabbit")
                outcomes.append("ok")
            except InjectedFault:
                outcomes.append("fault")
            except CircuitOpen:
                outcomes.append("quarantined")
            clock.advance(1.0)

        admission = AdmissionController(max_concurrency=1, max_queue=0)
        for _ in range(3):
            admission.acquire()
            try:
                admission.acquire()
            except TooManyRequests:
                pass
            admission.release()

        coin_flips = []
        for _ in range(20):
            try:
                faults.fail("handler", "/quantify")
                coin_flips.append(0)
            except InjectedFault:
                coin_flips.append(1)

        return json.dumps(
            {
                "transitions": list(
                    registry.breaker("taskrabbit").transition_log()
                ),
                "outcomes": outcomes,
                "shed": admission.snapshot()["shed"],
                "accepted": admission.snapshot()["accepted"],
                "coin_flips": coin_flips,
                "faults": faults.snapshot(),
            },
            sort_keys=True,
        )

    def test_fixed_seed_reproduces_breaker_and_shed_sequence(
        self, small_marketplace_dataset
    ):
        first = self._run_scenario(small_marketplace_dataset)
        second = self._run_scenario(small_marketplace_dataset)
        assert first == second  # byte-for-byte
        replay = json.loads(first)
        # The scripted schedule: 2 faults open the circuit, probes at t=4
        # and t=9 are spent on the remaining injected fault, the t>=9 probe
        # finally loads the dataset.
        assert replay["transitions"] == [
            "closed->open",
            "open->half_open",
            "half_open->open",
            "open->half_open",
            "half_open->closed",
        ]
        assert replay["shed"] == 3
        assert "quarantined" in replay["outcomes"]
        assert replay["outcomes"][-1] == "ok"
        assert sum(replay["coin_flips"]) > 0  # the 50% rule really fires
        assert 0 < sum(replay["coin_flips"]) < 20  # ... and really skips


# ----------------------------------------------------------------------
# Fault injection plumbing
# ----------------------------------------------------------------------


class TestFaultInjection:
    def test_skip_then_times_budget(self):
        injector = FaultInjector(
            [FaultRule(site="dataset_load", match="*", skip=1, times=2)]
        )
        injector.fail("dataset_load", "any")  # skipped
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.fail("dataset_load", "any")
        injector.fail("dataset_load", "any")  # budget spent, inert
        (snapshot,) = injector.snapshot()
        assert snapshot["matched"] == 4
        assert snapshot["fired"] == 2
        assert injector.fired_total() == 2

    def test_glob_matching_is_per_target(self):
        injector = FaultInjector([FaultRule(site="handler", match="/quant*")])
        injector.fail("handler", "/compare")  # no match, no raise
        with pytest.raises(InjectedFault):
            injector.fail("handler", "/quantify")

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(site="nope")
        with pytest.raises(ValueError):
            FaultRule(site="handler", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule(site="handler", skip=-1)

    def test_faults_from_env_roundtrip(self):
        spec = {
            "seed": 7,
            "rules": [{"site": "dataset_load", "match": "google", "times": 2}],
        }
        injector = faults_from_env({"FBOX_FAULTS": json.dumps(spec)})
        assert injector is not None
        assert injector.seed == 7
        assert injector.rules[0].match == "google"
        assert faults_from_env({}) is None

    def test_faults_from_env_rejects_malformed_values(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            faults_from_env({"FBOX_FAULTS": "{nope"})
        with pytest.raises(ValueError, match="JSON object"):
            faults_from_env({"FBOX_FAULTS": "[1, 2]"})


# ----------------------------------------------------------------------
# Graceful degradation over HTTP
# ----------------------------------------------------------------------


def _boom_loader():
    raise RuntimeError("dataset storage is on fire")


class TestDegradedAnswers:
    def test_open_breaker_serves_marked_stale_answer(
        self, live_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        registry.breaker_config = BreakerConfig(
            failure_threshold=1, reset_timeout=60.0
        )
        with live_server(registry=registry, request_timeout=60.0) as service:
            payload = {
                "dataset": "taskrabbit",
                "dimension": "group",
                "k": 3,
                "allow_stale": True,
            }
            status, fresh = service.post("/quantify", payload)
            assert status == 200 and not fresh.get("degraded")

            # Replace the dataset with one whose loader crashes: the next
            # request opens the breaker (threshold 1) ...
            registry.register(
                DatasetSpec(
                    name="taskrabbit", site="taskrabbit", loader=_boom_loader
                )
            )
            status, body = service.post("/quantify", payload)
            assert status == 500
            assert registry.breaker("taskrabbit").state == OPEN

            # ... and every later opted-in request gets the last-known-good
            # answer, loudly marked with staleness facts.
            status, degraded = service.post("/quantify", payload)
            assert status == 200
            assert degraded["degraded"] is True
            assert degraded["degraded_reason"] == "circuit_open"
            assert degraded["age_generations"] == 1
            assert degraded["entries"] == fresh["entries"]

            # Without the opt-in the breaker error surfaces untouched.
            status, refused = service.post(
                "/quantify", {**payload, "allow_stale": False}
            )
            assert status == 503
            assert refused["error"]["kind"] == "circuit_open"
            assert refused["error"]["breaker"]["state"] == OPEN

            metrics = service.get("/metrics")[1]
            assert "fbox_degraded_responses_total 1" in metrics
            assert 'fbox_breaker_state{dataset="taskrabbit"} 2' in metrics

    def test_deadline_serves_stale_within_the_deadline(
        self, live_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        faults = FaultInjector(
            [FaultRule(site="latency", match="/quantify", skip=1, latency=3.0)]
        )
        # The deadline must clear the warm first-touch build (~0.4s on a
        # loaded single-core runner) while staying far below the 3s stall.
        with live_server(
            registry=registry, request_timeout=1.0, faults=faults
        ) as service:
            payload = {
                "dataset": "taskrabbit",
                "dimension": "group",
                "k": 3,
                "allow_stale": True,
            }
            status, fresh = service.post("/quantify", payload)  # warm, no delay
            assert status == 200

            started = time.monotonic()
            status, degraded = service.post("/quantify", payload)
            elapsed = time.monotonic() - started
            assert status == 200
            assert degraded["degraded"] is True
            assert degraded["degraded_reason"] == "timeout"
            assert degraded["age_generations"] == 0
            assert degraded["entries"] == fresh["entries"]
            # Served at the deadline, not after the injected 3s stall.
            assert elapsed < 2.0

            status, refused = service.post(
                "/quantify", {**payload, "allow_stale": False}
            )
            assert status == 503
            assert refused["error"]["kind"] == "timeout"


# ----------------------------------------------------------------------
# Liveness vs readiness
# ----------------------------------------------------------------------


class TestReadiness:
    def test_readyz_gates_on_preload_and_breakers(
        self, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        context = ServiceContext(
            registry=registry, require_loaded=("taskrabbit", "google")
        )
        status, body = handle_readyz(context)
        assert status == 503
        assert body["status"] == "unavailable"
        assert any("not loaded" in blocker for blocker in body["blockers"])

        registry.dataset("taskrabbit")
        registry.dataset("google")
        status, body = handle_readyz(context)
        assert status == 200
        assert body["status"] == "ready" and body["blockers"] == []

        breaker = registry.breaker("google")
        for _ in range(registry.breaker_config.failure_threshold):
            breaker.record_failure()
        status, body = handle_readyz(context)
        assert status == 503
        assert any("breaker is open" in blocker for blocker in body["blockers"])

    def test_healthz_stays_alive_while_readyz_says_unavailable(
        self, live_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        with live_server(registry=registry) as service:
            status, body = service.get_json("/readyz")
            assert status == 200 and body["status"] == "ready"

            breaker = service.registry.breaker("taskrabbit")
            for _ in range(service.registry.breaker_config.failure_threshold):
                breaker.record_failure()

            status, body = service.get_json("/readyz")
            assert status == 503
            assert body["status"] == "unavailable"
            states = {entry["name"]: entry for entry in body["datasets"]}
            assert states["taskrabbit"]["breaker"] == OPEN
            assert states["taskrabbit"]["retry_in"] > 0
            # Liveness is deliberately oblivious: don't restart a pod over
            # a quarantined dataset.
            status, body = service.get_json("/healthz")
            assert status == 200 and body["status"] == "ok"


# ----------------------------------------------------------------------
# Result-cache TTLs
# ----------------------------------------------------------------------


class TestCacheTTL:
    def test_entries_expire_into_miss_plus_counters(self):
        clock = FakeClock()
        cache = LRUCache(8, default_ttl=10.0, clock=clock)
        cache.put("answer", {"k": 1})
        assert cache.get("answer") == {"k": 1}
        assert "answer" in cache
        clock.advance(10.0)
        assert "answer" not in cache
        assert cache.get("answer") is None
        assert cache.stats() == {
            "size": 0,
            "capacity": 8,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "expirations": 1,
        }

    def test_per_entry_ttl_overrides_the_default(self):
        clock = FakeClock()
        cache = LRUCache(8, default_ttl=5.0, clock=clock)
        cache.put("short", 1, ttl=1.0)
        cache.put("default", 2)
        cache.put("pinned", 3, ttl=None)  # never expires
        clock.advance(1.0)
        assert cache.get("short") is None
        assert cache.get("default") == 2
        clock.advance(4.0)
        assert cache.get("default") is None
        clock.advance(1_000_000.0)
        assert cache.get("pinned") == 3

    def test_no_ttl_entries_never_expire(self):
        clock = FakeClock()
        cache = LRUCache(4, clock=clock)
        cache.put("forever", "x")
        clock.advance(1e9)
        assert cache.get("forever") == "x"
        assert cache.stats()["expirations"] == 0

    def test_generation_keys_still_partition_the_cache(self):
        # TTL bounds staleness in time; generations bound staleness across
        # re-registration.  The two must compose, not interfere.
        clock = FakeClock()
        cache = LRUCache(8, default_ttl=10.0, clock=clock)
        cache.put("quantify|gen=1", "old")
        cache.put("quantify|gen=2", "new")
        assert cache.get("quantify|gen=1") == "old"
        assert cache.get("quantify|gen=2") == "new"
        clock.advance(10.0)
        assert cache.get("quantify|gen=1") is None
        assert cache.get("quantify|gen=2") is None


# ----------------------------------------------------------------------
# The retrying client
# ----------------------------------------------------------------------


class TestClient:
    def test_backoff_is_capped_and_honors_retry_after(self):
        client = FBoxClient(
            "http://unused",
            retry=RetryPolicy(base_delay=0.1, max_delay=2.0, jitter=0.1, seed=3),
        )
        assert client._backoff_delay(0, retry_after=1.5) == 1.5  # floor wins
        small = client._backoff_delay(0, retry_after=None)
        assert 0.1 <= small <= 0.11
        capped = client._backoff_delay(10, retry_after=None)
        assert capped <= 2.0 * 1.1

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_client_retries_a_shed_request_after_retry_after(
        self, live_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        faults = FaultInjector(
            [FaultRule(site="latency", match="/compare", latency=0.8)]
        )
        with live_server(
            registry=registry,
            request_timeout=10.0,
            max_concurrency=1,
            queue_depth=0,
            faults=faults,
        ) as service:
            hog = threading.Thread(
                target=service.post,
                args=(
                    "/compare",
                    {
                        "dataset": "taskrabbit",
                        "dimension": "group",
                        "r1": "gender=Female",
                        "r2": "gender=Male",
                        "breakdown": "location",
                    },
                ),
                daemon=True,
            )
            hog.start()
            # Let the hog take the only slot.
            admission = service.server.context.admission
            wait_for(lambda: admission.snapshot()["active"] == 1)

            client = FBoxClient(
                service.base,
                retry=RetryPolicy(max_attempts=5, base_delay=0.01, seed=1),
            )
            answer = client.quantify("taskrabbit", "group", k=3)
            hog.join(timeout=5)
            assert answer["entries"]
            assert client.retries >= 1
            # The shed's Retry-After (1s) is a floor the backoff never undercuts.
            assert min(client.sleeps) >= 1.0

    def test_non_retryable_errors_surface_immediately(
        self, live_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        with live_server(registry=registry) as service:
            client = FBoxClient(service.base)
            with pytest.raises(ClientError) as excinfo:
                client.quantify("taskrabbit", "not-a-dimension")
            assert excinfo.value.status == 422
            assert client.attempts == 1
            assert client.sleeps == []

    def test_connection_failures_retry_then_raise(self):
        sleeps: list[float] = []
        client = FBoxClient(
            "http://127.0.0.1:9",  # nothing listens on the discard port
            timeout=0.2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
            sleeper=sleeps.append,
        )
        with pytest.raises(ClientError) as excinfo:
            client.datasets()
        assert excinfo.value.status == 0
        assert client.attempts == 3
        assert len(client.sleeps) == 2

    def test_readyz_reports_503_as_an_answer_not_an_error(
        self, live_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        with live_server(registry=registry) as service:
            breaker = registry.breaker("google")
            for _ in range(registry.breaker_config.failure_threshold):
                breaker.record_failure()
            client = FBoxClient(service.base)
            status, body = client.readyz()
            assert status == 503
            assert body["status"] == "unavailable"
            assert client.retries == 0


# ----------------------------------------------------------------------
# Overload: shedding bounds the p99 of accepted requests
# ----------------------------------------------------------------------


def _p99(values: list[float]) -> float:
    ranked = sorted(values)
    return ranked[max(0, math.ceil(0.99 * len(ranked)) - 1)]


def _storm(service: ServiceHarness, clients: int, deadline: float):
    """Fire ``clients`` simultaneous quantifies; return (durations, statuses)."""
    payload = {"dataset": "taskrabbit", "dimension": "group", "k": 3}
    barrier = threading.Barrier(clients)

    def one_request():
        barrier.wait()
        started = time.monotonic()
        status, _ = service.post("/quantify", payload)
        return time.monotonic() - started, status

    with ThreadPoolExecutor(max_workers=clients) as pool:
        outcomes = list(pool.map(lambda _: one_request(), range(clients)))
    durations = [duration for duration, _ in outcomes]
    statuses = [status for _, status in outcomes]
    assert max(durations) < deadline + 2.0, "a request outlived its deadline"
    return durations, statuses


class TestOverloadShedding:
    CLIENTS = 24  # 4x the shedding server's cap + queue
    BURN = 0.03  # thread-CPU seconds per request
    DEADLINE = 5.0

    def _faults(self) -> FaultInjector:
        # skip=1 lets the warm-up request through untouched; every storm
        # request then burns real CPU, contending for the interpreter.
        return FaultInjector(
            [FaultRule(site="latency", match="/quantify", skip=1, busy=self.BURN)],
            seed=1,
        )

    def test_shedding_bounds_p99_of_accepted_requests(
        self, live_server, small_marketplace_dataset, small_search_dataset
    ):
        warm_up = {"dataset": "taskrabbit", "dimension": "group", "k": 3}

        registry = _registry(small_marketplace_dataset, small_search_dataset)
        with live_server(
            registry=registry,
            request_timeout=self.DEADLINE,
            max_concurrency=2,
            queue_depth=4,
            faults=self._faults(),
        ) as shedding:
            assert shedding.post("/quantify", warm_up)[0] == 200
            durations, statuses = _storm(shedding, self.CLIENTS, self.DEADLINE)
            accepted = [
                duration
                for duration, status in zip(durations, statuses)
                if status == 200
            ]
            shed = statuses.count(429)
            assert set(statuses) <= {200, 429}
            assert shed >= self.CLIENTS // 2, "expected most of 4x load shed"
            assert accepted, "some requests must still be served"
            p99_shedding = _p99(accepted)
            snapshot = shedding.server.context.admission.snapshot()
            assert snapshot["shed"] == shed
            metrics = shedding.get("/metrics")[1]
            assert f'fbox_admission_total{{outcome="shed"}} {shed}' in metrics

        registry = _registry(small_marketplace_dataset, small_search_dataset)
        with live_server(
            registry=registry,
            request_timeout=self.DEADLINE,
            max_concurrency=0,  # admission disabled: everything executes
            faults=self._faults(),
        ) as unbounded:
            assert unbounded.post("/quantify", warm_up)[0] == 200
            durations, statuses = _storm(unbounded, self.CLIENTS, self.DEADLINE)
            assert statuses.count(200) == self.CLIENTS
            p99_unbounded = _p99(durations)

        # The point of shedding: accepted requests finish fast because at
        # most cap + queue of them ever share the interpreter, while the
        # unbounded server makes all 24 burns fight each other.
        assert p99_shedding < p99_unbounded


# ----------------------------------------------------------------------
# Metrics exposition for the resilience layer
# ----------------------------------------------------------------------


class TestResilienceMetrics:
    def test_breaker_queue_and_fault_series_are_exposed(
        self, live_server, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        faults = FaultInjector(
            [FaultRule(site="handler", match="/never-called")]
        )
        with live_server(
            registry=registry, max_concurrency=4, queue_depth=8, faults=faults
        ) as service:
            service.post(
                "/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 2}
            )
            metrics = service.get("/metrics")[1]
            for needle in (
                'fbox_admission_total{outcome="accepted"}',
                'fbox_admission_total{outcome="shed"} 0',
                "fbox_queue_depth 0",
                "fbox_admission_active 0",
                "fbox_concurrency_limit 4",
                "fbox_queue_limit 8",
                'fbox_breaker_state{dataset="taskrabbit"} 0',
                'fbox_breaker_state{dataset="google"} 0',
                'fbox_breaker_transitions_total{dataset="taskrabbit"} 0',
                'fbox_injected_faults_total{site="handler"} 0',
                "fbox_degraded_responses_total 0",
                "fbox_cache_events_total{event=\"expirations\"} 0",
            ):
                assert needle in metrics, f"missing metric line: {needle}"
