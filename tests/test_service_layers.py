"""The three-layer split: import hygiene, async admission, drain, keep-alive.

The refactor's contract is structural, so these tests assert structure:

* **layering** — the application layer (``app``, ``handlers``,
  ``resilience``, ``faults``, ``cache``) imports nothing from
  ``http.server`` or ``repro.service.transports``, checked in a clean
  subprocess so this suite's own imports cannot mask a violation;
* **async admission** — ``AdmissionController.acquire_async`` shares the
  sync path's counters and shed policy (grant, queue-full shed, queue
  timeout, slot hand-off to a parked waiter);
* **graceful drain** — at shutdown, requests already admitted or queued
  complete while new arrivals get 503 + ``Connection: close``, on both
  execution backends;
* **client keep-alive** — ``FBoxClient`` drives many requests over one
  connection, asserted via the server's ``fbox_connections_total``.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.client import FBoxClient, RetryPolicy
from repro.service.errors import TooManyRequests
from repro.service.faults import FaultInjector, FaultRule
from repro.service.resilience import AdmissionController

from tests.helpers import wait_for
from tests.test_service import ServiceHarness, _registry

_SRC = str(Path(repro.__file__).resolve().parents[1])


# ----------------------------------------------------------------------
# Layering
# ----------------------------------------------------------------------


class TestLayering:
    def test_application_layer_never_imports_a_transport(self):
        """The acceptance criterion, checked in a pristine interpreter."""
        code = textwrap.dedent(
            """
            import sys

            import repro.service.app
            import repro.service.handlers
            import repro.service.resilience
            import repro.service.faults
            import repro.service.cache

            offenders = sorted(
                name
                for name in sys.modules
                if name == "http.server"
                or name.startswith("repro.service.transports")
            )
            if offenders:
                raise SystemExit(f"transport leaked into the app layer: {offenders}")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_lazy_server_exports_still_resolve(self):
        import repro.service as service
        from repro.service.transports.aio import FBoxHTTPServer

        assert service.FBoxHTTPServer is FBoxHTTPServer
        assert callable(service.make_server)
        with pytest.raises(AttributeError):
            service.no_such_export


# ----------------------------------------------------------------------
# Async admission
# ----------------------------------------------------------------------


class TestAsyncAdmission:
    def test_grant_within_capacity(self):
        admission = AdmissionController(max_concurrency=2, max_queue=0)

        async def scenario():
            await admission.acquire_async()

        asyncio.run(scenario())
        snapshot = admission.snapshot()
        assert snapshot["accepted"] == 1
        assert snapshot["active"] == 1
        admission.release()
        assert admission.snapshot()["active"] == 0

    def test_disabled_controller_is_a_noop(self):
        admission = AdmissionController(max_concurrency=0)

        async def scenario():
            await admission.acquire_async()

        asyncio.run(scenario())
        assert admission.snapshot()["accepted"] == 0

    def test_sheds_immediately_when_queue_is_full(self):
        admission = AdmissionController(max_concurrency=1, max_queue=0)
        admission.acquire()

        async def scenario():
            with pytest.raises(TooManyRequests, match="queue is full"):
                await admission.acquire_async()

        asyncio.run(scenario())
        snapshot = admission.snapshot()
        assert snapshot["shed"] == 1
        assert snapshot["accepted"] == 1
        admission.release()

    def test_queued_waiter_sheds_after_queue_timeout(self):
        admission = AdmissionController(
            max_concurrency=1, max_queue=4, queue_timeout=0.05
        )
        admission.acquire()

        async def scenario():
            started = time.monotonic()
            with pytest.raises(TooManyRequests, match="queued longer"):
                await admission.acquire_async()
            return time.monotonic() - started

        elapsed = asyncio.run(scenario())
        assert elapsed >= 0.05
        snapshot = admission.snapshot()
        assert snapshot["shed"] == 1
        assert snapshot["queue_depth"] == 0
        admission.release()

    def test_parked_waiter_gets_the_freed_slot(self):
        admission = AdmissionController(max_concurrency=1, max_queue=1)
        admission.acquire()

        async def scenario():
            waiter = asyncio.ensure_future(admission.acquire_async())
            await asyncio.sleep(0.05)
            assert not waiter.done()
            assert admission.snapshot()["queue_depth"] == 1
            # Release from another thread, like the executor callback path.
            threading.Thread(target=admission.release, daemon=True).start()
            await asyncio.wait_for(waiter, 2.0)

        asyncio.run(scenario())
        snapshot = admission.snapshot()
        assert snapshot["accepted"] == 2
        assert snapshot["queue_depth"] == 0
        assert snapshot["active"] == 1
        admission.release()


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


class TestGracefulDrain:
    def test_drain_completes_queued_work_and_refuses_new_arrivals(
        self, start_service, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        faults = FaultInjector(
            [FaultRule(site="latency", match="/quantify", skip=1, latency=2.0)]
        )
        server = start_service(
            registry=registry,
            request_timeout=30.0,
            max_concurrency=1,
            queue_depth=4,
            faults=faults,
        )
        harness = ServiceHarness(server)
        payload = {"dataset": "taskrabbit", "dimension": "group", "k": 3}
        assert harness.post("/v1/quantify", payload)[0] == 200  # warm-up, no delay

        outcomes: list[tuple[int, dict]] = []

        def slow_request():
            outcomes.append(harness.post("/v1/quantify", payload))

        # One request admitted (executing the stall), one queued.
        workers = [
            threading.Thread(target=slow_request, daemon=True) for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        admission = server.context.admission
        wait_for(
            lambda: admission.snapshot()["active"] == 1
            and admission.snapshot()["queue_depth"] == 1
        )

        drainer = threading.Thread(target=server.drain, args=(10.0,), daemon=True)
        drainer.start()
        wait_for(lambda: server.app.draining)

        # A new arrival while draining: refused, and told to hang up.
        request = urllib.request.Request(
            harness.base + "/v1/quantify",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 503
        assert excinfo.value.headers.get("Connection") == "close"
        body = json.loads(excinfo.value.read())
        assert body["error"]["kind"] == "shutting_down"

        # The admitted and the queued request both finish with answers.
        for worker in workers:
            worker.join(timeout=10)
        drainer.join(timeout=10)
        assert not drainer.is_alive(), "drain never finished"
        assert [status for status, _ in outcomes] == [200, 200]
        assert all(body["entries"] for _, body in outcomes)


# ----------------------------------------------------------------------
# Client keep-alive
# ----------------------------------------------------------------------


class TestClientKeepAlive:
    def test_many_requests_share_one_connection(
        self, start_service, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = start_service(registry=registry, request_timeout=60.0)
        with FBoxClient(server.url, retry=RetryPolicy(seed=5)) as client:
            client.healthz()
            client.quantify("taskrabbit", "group", k=3)
            client.quantify("taskrabbit", "group", k=3)  # cache hit
            client.datasets()
            text = client.metrics_text()
        assert client.connections_opened == 1
        assert "fbox_connections_total 1" in text

    def test_connection_is_reopened_after_the_server_drops_it(
        self, start_service, small_marketplace_dataset, small_search_dataset
    ):
        registry = _registry(small_marketplace_dataset, small_search_dataset)
        server = start_service(registry=registry, request_timeout=60.0)
        client = FBoxClient(server.url, retry=RetryPolicy(seed=5))
        assert client.healthz()["status"] == "ok"
        # Simulate an idled-out keep-alive: the connection is dead on the
        # wire but the client still holds the connection object.
        client._connection.sock.shutdown(socket.SHUT_RDWR)
        assert client.healthz()["status"] == "ok"
        assert client.connections_opened == 2
        # The silent replay consumed no retry-policy attempts.
        assert client.retries == 0
        assert client.sleeps == []

    def test_rejects_non_http_base_urls(self):
        with pytest.raises(ValueError, match="http://"):
            FBoxClient("ftp://example.org")
