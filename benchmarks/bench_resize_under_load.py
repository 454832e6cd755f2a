"""Resize under load — what a live shard-pool resize costs the clients.

``POST /v1/admin/shards`` grows or shrinks the forked-worker pool while
the service keeps answering: moving datasets drain, migrate their full
write-path state, and flip routing atomically, while requests that land
inside a dataset's migration window wait a short grace period and then —
writes only — get a retryable 503 (``shard_resizing``).  This benchmark
prices that promise from the client's chair:

* ``STREAMS`` no-retry clients hammer ``/v1/quantify`` across the catalog
  while the pool resizes 2→4 and back 4→2 under them;
* every request is timed — the table reports p50/p99 both for the whole
  run and for requests that overlapped a resize;
* every 503 is timestamped — the "503 window" is the span from the first
  to the last one, i.e. how long the retryable blip actually lasts (the
  production client retries through it invisibly; retries are disabled
  here precisely to make the window measurable);
* any *other* failure is a hard failure, asserted to be zero.

Runnable two ways:

* ``pytest benchmarks/bench_resize_under_load.py`` (CI quick mode via
  ``BENCH_QUICK=1``);
* ``python benchmarks/bench_resize_under_load.py [--quick]`` directly.

Writes ``benchmarks/results/resize_under_load.txt``.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path
from time import monotonic

sys.path.insert(0, str(Path(__file__).parent))

from _util import emit, provenance  # noqa: E402

from repro.client import ClientError, FBoxClient, RetryPolicy  # noqa: E402
from repro.experiments.datasets import (  # noqa: E402
    build_taskrabbit_dataset,
    build_taskrabbit_site,
)
from repro.marketplace.crawl import emit_observations  # noqa: E402
from repro.service.registry import SMALL_CITIES, DatasetRegistry, DatasetSpec  # noqa: E402
from repro.service.server import make_server  # noqa: E402

DATASETS = 4
STREAMS = 3
BASE_SHARDS = 2
GROWN_SHARDS = 4
# Traffic runs the whole time; the resizes fire at these offsets so the
# table can split latency into quiet vs mid-resize populations.
WARM_SECONDS = 1.0
SETTLE_SECONDS = 1.0
QUICK_WARM_SECONDS = 0.4
QUICK_SETTLE_SECONDS = 0.4

_QUERY = {"dimension": "group", "k": 5}


def _catalog() -> dict[str, object]:
    # "cat-1" and "cat-2" change ring owner between 2 and 4 shards, so the
    # 2→4→2 round trip migrates real state in both directions (a catalog
    # whose names happen to keep their owners would price nothing).
    return {
        f"cat-{index}": build_taskrabbit_dataset(
            seed=500 + index, cities=SMALL_CITIES
        )
        for index in range(DATASETS)
    }


def _registry(datasets: dict[str, object]) -> DatasetRegistry:
    registry = DatasetRegistry()
    for name, dataset in datasets.items():
        registry.register(
            DatasetSpec(
                name=name,
                site="taskrabbit",
                loader=lambda d=dataset: d,
                description="seeded crawl for the resize bench",
            )
        )
    return registry


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _run(warm: float, settle: float) -> dict:
    """One full traffic run with a 2→4→2 resize in the middle of it."""
    datasets = _catalog()
    server = make_server(
        registry=_registry(datasets),
        port=0,
        request_timeout=120.0,
        max_concurrency=0,
        cache_size=0,  # every request exercises the owning worker
        shards=BASE_SHARDS,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    names = list(datasets)
    start = monotonic()
    # One (relative_time, latency) per success; one relative_time per 503.
    latencies: list[tuple[float, float]] = []
    blips: list[float] = []
    hard_failures: list[str] = []
    resize_spans: list[tuple[float, float, int]] = []
    stop = threading.Event()
    lock = threading.Lock()

    def no_retry_client() -> FBoxClient:
        return FBoxClient(
            server.url, timeout=120.0, retry=RetryPolicy(max_attempts=1)
        )

    def stream(index: int) -> None:
        client = no_retry_client()
        position = index
        try:
            while not stop.is_set():
                began = monotonic()
                try:
                    client.quantify(names[position % len(names)], **_QUERY)
                except ClientError as error:
                    with lock:
                        if error.status == 503:
                            blips.append(began - start)
                        else:
                            hard_failures.append(repr(error))
                else:
                    with lock:
                        latencies.append((began - start, monotonic() - began))
                position += 1
        finally:
            client.close()

    try:
        # Warm every dataset (cube + families build on first touch) and
        # seed the write path so the resize migrates a real journal.
        warm_client = FBoxClient(server.url, timeout=120.0)
        site = build_taskrabbit_site(seed=500)
        for position, name in enumerate(names):
            warm_client.quantify(name, **_QUERY)
            batch = next(
                emit_observations(
                    site, datasets[name], batches=1, batch_size=4, seed=position
                )
            )
            warm_client.ingest(name, batch, batch_id=f"bench-{name}")

        workers = [
            threading.Thread(target=stream, args=(index,), daemon=True)
            for index in range(STREAMS)
        ]
        for worker in workers:
            worker.start()
        stop.wait(warm)
        for count in (GROWN_SHARDS, BASE_SHARDS):
            began = monotonic()
            outcome = warm_client.resize(count)
            ended = monotonic()
            assert outcome["to"] == count and not outcome["noop"], outcome
            resize_spans.append(
                (began - start, ended - start, len(outcome["migrated"]))
            )
            stop.wait(settle)
        stop.set()
        for worker in workers:
            worker.join(timeout=30)
        # The migrated idempotency ledger must still answer the seeded
        # batches as replays after the round trip.
        for position, name in enumerate(names):
            batch = next(
                emit_observations(
                    site, datasets[name], batches=1, batch_size=4, seed=position
                )
            )
            document = warm_client.ingest(name, batch, batch_id=f"bench-{name}")
            assert document["replayed"] is True, (name, document)
        warm_client.close()
    finally:
        stop.set()
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()

    in_resize = [
        lat
        for when, lat in latencies
        if any(begin <= when <= end for begin, end, _ in resize_spans)
    ]
    overall = sorted(lat for _, lat in latencies)
    mid = sorted(in_resize)
    return {
        "requests": len(latencies),
        "p50_ms": _percentile(overall, 0.50) * 1e3,
        "p99_ms": _percentile(overall, 0.99) * 1e3,
        "mid_requests": len(mid),
        "mid_p50_ms": _percentile(mid, 0.50) * 1e3,
        "mid_p99_ms": _percentile(mid, 0.99) * 1e3,
        "blips": len(blips),
        "blip_window_ms": (max(blips) - min(blips)) * 1e3 if blips else 0.0,
        "resize_seconds": [end - begin for begin, end, _ in resize_spans],
        "migrated": [moved for _, _, moved in resize_spans],
        "hard_failures": hard_failures,
    }


def run_resize_under_load(quick: bool = False) -> dict:
    warm = QUICK_WARM_SECONDS if quick else WARM_SECONDS
    settle = QUICK_SETTLE_SECONDS if quick else SETTLE_SECONDS
    row = _run(warm, settle)

    mid = f"{row['mid_p50_ms']:.1f} / {row['mid_p99_ms']:.1f}"
    durations = ", ".join(f"{value:.3f}s" for value in row["resize_seconds"])
    lines = [
        "Resize under load — client-side cost of a live 2→4→2 pool resize",
        f"({STREAMS} no-retry client streams over {DATASETS} datasets; "
        f"cache off; {provenance()};",
        " '503 window' spans first→last shard_resizing blip"
        + ("; quick mode)" if quick else ")"),
        "=" * 70,
        "",
        f"{'reqs':>6} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'mid-resize p50/p99 ms':>22} {'503s':>5} {'window ms':>10}",
        f"{'-' * 6} {'-' * 8} {'-' * 8} {'-' * 22} {'-' * 5} {'-' * 10}",
        f"{row['requests']:>6} {row['p50_ms']:>8.1f} "
        f"{row['p99_ms']:>8.1f} {mid:>22} {row['blips']:>5} "
        f"{row['blip_window_ms']:>10.1f}",
        "",
        f"resize durations {durations}; datasets moved {row['migrated']}; "
        f"{row['mid_requests']} requests overlapped a resize",
        "",
        "Retries are disabled to expose the 503 window; the production",
        "FBoxClient retries those blips transparently (Retry-After led),",
        "so callers with the default policy observe zero failures — the",
        "property tests/test_service_resize.py asserts directly.",
    ]
    emit("resize_under_load", "\n".join(lines))

    # The availability contract: nothing but retryable 503s, ever.
    assert row["hard_failures"] == [], row["hard_failures"]
    assert row["requests"] > 0
    # Both resizes must have actually moved state (see _catalog).
    assert all(moved > 0 for moved in row["migrated"]), row["migrated"]
    return row


def test_resize_under_load():
    run_resize_under_load(quick=os.environ.get("BENCH_QUICK") == "1")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short warm/settle windows (the CI configuration)",
    )
    arguments = parser.parse_args()
    run_resize_under_load(quick=arguments.quick)
