"""Transport contention: cheap-request p50/p99 while slow work is in flight.

The question the asyncio transport exists to answer: what happens to a
*cheap* request (a warm ``/quantify`` cache hit on one keep-alive
connection) when the server is simultaneously doing *slow* CPU-bound
work?  Three conditions:

* **idle** — nothing else in flight; the floor.
* **builds in flight** — one background client cold-touches a chain of
  unbuilt datasets, so a dataset build (crawl + cube + index) is in
  flight for the whole window.  The registry's lock serializes builds,
  so the server faces exactly one GIL-holding builder and cannot do
  better than the interpreter allows.
* **cold-sweep streams** — six concurrent clients each hammer uncached
  top-k sweeps (distinct ``k`` → every request a cache miss).  With
  ``executor_workers=1`` the sweeps funnel through one executor thread,
  and the cheap hit is answered on the event loop's fast path without
  ever queueing behind them.

Caveat for reading the numbers: on a single-core box even ONE background
CPU burner puts a GIL-scheduling floor of several milliseconds under any
sub-millisecond request.  The claim the bench asserts is therefore
relative: the loaded p99 stays near that floor (bounded by
``max(2 x idle p99, GIL_FLOOR)``) however many sweep streams run.

Writes ``benchmarks/results/backend_contention.txt``.
"""

from __future__ import annotations

import itertools
import math
import threading
from time import monotonic, perf_counter

from _util import emit, provenance
from repro.client import FBoxClient, RetryPolicy
from repro.experiments.datasets import build_taskrabbit_dataset
from repro.service.registry import SMALL_CITIES, DatasetRegistry, DatasetSpec
from repro.service.server import make_server

IDLE_REQUESTS = 300
BUILD_DATASETS = 8  # serial cold builds ~0.3s each: the in-flight window
SWEEP_STREAMS = 6
SWEEP_SECONDS = 4.0
# Single-core GIL-scheduling floor for a cheap request sharing the
# interpreter with one CPU-bound thread (default switch interval 5ms,
# several wakeups per request).
GIL_FLOOR_SECONDS = 0.050

_CHEAP = {"dimension": "group", "k": 3}


def _client(server, timeout: float = 120.0) -> FBoxClient:
    return FBoxClient(
        server.url, timeout=timeout, retry=RetryPolicy(max_attempts=1)
    )


def _stats(latencies: list[float]) -> dict:
    ranked = sorted(latencies)

    def pctl(q: float) -> float:
        return ranked[max(0, math.ceil(q * len(ranked)) - 1)]

    return {"count": len(ranked), "p50": pctl(0.50), "p99": pctl(0.99)}


def _measure_until(client: FBoxClient, finished) -> list[float]:
    """Cheap warm hits on one keep-alive connection until ``finished()``."""
    latencies: list[float] = []
    while not finished() or not latencies:
        started = perf_counter()
        client.quantify("taskrabbit", **_CHEAP)
        latencies.append(perf_counter() - started)
    return latencies


def _registry(seed_base: int) -> DatasetRegistry:
    hot = build_taskrabbit_dataset(seed=7, cities=SMALL_CITIES)
    registry = DatasetRegistry()
    registry.register(
        DatasetSpec(name="taskrabbit", site="taskrabbit", loader=lambda: hot)
    )
    # Unbuilt datasets for the build phase; seeds distinct from the hot
    # dataset's so the builder's memoization never turns a build into a
    # cache hit.
    for index in range(BUILD_DATASETS):
        seed = seed_base + index
        registry.register(
            DatasetSpec(
                name=f"cold-{index}",
                site="taskrabbit",
                loader=lambda s=seed: build_taskrabbit_dataset(
                    seed=s, cities=SMALL_CITIES
                ),
            )
        )
    return registry


def _build_phase(server) -> list[float]:
    """Cheap latencies while a chain of dataset builds is in flight."""
    done = threading.Event()

    def builder() -> None:
        client = _client(server)
        try:
            for index in range(BUILD_DATASETS):
                client.quantify(f"cold-{index}", "group", k=3)
        finally:
            client.close()
            done.set()

    thread = threading.Thread(target=builder, daemon=True)
    cheap = _client(server)
    try:
        thread.start()
        latencies = _measure_until(cheap, done.is_set)
    finally:
        thread.join(timeout=60)
        cheap.close()
    return latencies


def _sweep_phase(server) -> list[float]:
    """Cheap latencies under ``SWEEP_STREAMS`` concurrent cold sweeps."""
    stop = threading.Event()

    def sweeper(stream: int) -> None:
        client = _client(server)
        dimensions = itertools.cycle(("group", "query", "location"))
        # Disjoint k sequences per stream: every request a cache miss.
        k = 1000 + stream
        try:
            while not stop.is_set():
                client.quantify("taskrabbit", next(dimensions), k=k)
                k += SWEEP_STREAMS
        finally:
            client.close()

    streams = [
        threading.Thread(target=sweeper, args=(index,), daemon=True)
        for index in range(SWEEP_STREAMS)
    ]
    deadline = monotonic() + SWEEP_SECONDS
    cheap = _client(server)
    try:
        for stream in streams:
            stream.start()
        latencies = _measure_until(cheap, lambda: monotonic() >= deadline)
    finally:
        stop.set()
        for stream in streams:
            stream.join(timeout=60)
        cheap.close()
    return latencies


def _run(seed_base: int) -> dict:
    server = make_server(
        registry=_registry(seed_base),
        port=0,
        request_timeout=60.0,
        max_concurrency=0,  # no shedding: measure raw contention
        executor_workers=1,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        cheap = _client(server)
        cheap.quantify("taskrabbit", **_CHEAP)  # build the hot cube + cache
        idle = []
        for _ in range(IDLE_REQUESTS):
            started = perf_counter()
            cheap.quantify("taskrabbit", **_CHEAP)
            idle.append(perf_counter() - started)
        cheap.close()
        build = _build_phase(server)
        sweeps = _sweep_phase(server)
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
    return {
        "idle": _stats(idle),
        "builds": _stats(build),
        "sweeps": _stats(sweeps),
    }


def test_backend_contention():
    result = _run(seed_base=200)

    lines = [
        "Transport contention — cheap /quantify p50/p99 while slow work runs",
        "(one keep-alive client; six-city TaskRabbit crawl; admission off;",
        f" executor_workers=1; {SWEEP_STREAMS} cold-sweep streams; {provenance()})",
        "=" * 68,
        "",
        f"{'phase':<22} {'requests':>8} {'p50 ms':>9} {'p99 ms':>9}",
        f"{'-' * 22} {'-' * 8} {'-' * 9} {'-' * 9}",
    ]
    for phase, label in (
        ("idle", "idle"),
        ("builds", "builds in flight"),
        ("sweeps", f"{SWEEP_STREAMS} sweep streams"),
    ):
        row = result[phase]
        lines.append(
            f"{label:<22} {row['count']:>8} "
            f"{row['p50'] * 1000.0:>9.3f} {row['p99'] * 1000.0:>9.3f}"
        )
    lines += [
        "",
        "Builds serialize on the registry lock, so the server faces one",
        "GIL-holding builder.  Under the sweep streams the executor caps",
        "CPU concurrency at one worker and the warm hit is answered on the",
        "event loop's fast path, so the cheap request never queues behind",
        "the sweeps.",
    ]
    emit("backend_contention", "\n".join(lines))

    # Sanity: the idle floor is below the GIL-scheduling floor.
    assert result["idle"]["p99"] < GIL_FLOOR_SECONDS
    # Under the sweep streams the cheap request stays near its idle p99
    # (up to the single-core GIL floor).
    assert result["sweeps"]["p99"] <= max(
        2.0 * result["idle"]["p99"], GIL_FLOOR_SECONDS
    )
