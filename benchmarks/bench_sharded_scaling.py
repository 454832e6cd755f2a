"""Sharded scaling: cold-sweep throughput at ``--shards`` 0 / 2 / 4.

The question the shard pool exists to answer: once TA sweeps for distinct
datasets run in distinct *processes*, does aggregate cold-sweep throughput
scale past the GIL?  Four seeded TaskRabbit datasets are spread over the
shard ring, caching is disabled (every request is a full top-k sweep), and
``STREAMS`` concurrent clients hammer the pool for a fixed window at each
shard count.  Answers are also cross-checked across configurations — the
sharded backend must be answer-identical to the in-process one.  Sharded
``/quantify`` reads are answered front-side from the workers' published
shared-memory segments (no socket hop).

Reading the numbers: shard scaling is *CPU* scaling, so the headline
speedup only materializes on a multi-core runner.  The output therefore
leads with the visible CPU count; on a single-core container the 2x-at-4-
shards expectation is reported but not asserted (forked workers time-slice
one core, and process overhead makes sharding a small net loss there).

Runnable two ways:

* ``pytest benchmarks/bench_sharded_scaling.py`` (CI uses the quick mode
  via ``python benchmarks/bench_sharded_scaling.py --quick``);
* ``python benchmarks/bench_sharded_scaling.py [--quick]`` directly.

Writes ``benchmarks/results/sharded_scaling.txt``.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path
from time import monotonic

sys.path.insert(0, str(Path(__file__).parent))

from _util import emit, provenance
from repro.client import FBoxClient, RetryPolicy
from repro.experiments.datasets import build_taskrabbit_dataset
from repro.service.registry import SMALL_CITIES, DatasetRegistry, DatasetSpec
from repro.service.server import make_server
from repro.service.sharding import shard_for

DATASETS = 4
STREAMS = 4
SHARD_COUNTS = (0, 2, 4)
WINDOW_SECONDS = 6.0
QUICK_WINDOW_SECONDS = 1.5
QUICK_SHARD_COUNTS = (0, 2)
SPEEDUP_TARGET = 2.0  # --shards 4 vs --shards 0, on a 4+-core runner

_QUERY = {"dimension": "group", "k": 5}


def _datasets() -> dict[str, object]:
    return {
        f"tr-{index}": build_taskrabbit_dataset(
            seed=300 + index, cities=SMALL_CITIES
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
                description="seeded crawl for the scaling bench",
            )
        )
    return registry


def _client(server) -> FBoxClient:
    return FBoxClient(server.url, timeout=120.0, retry=RetryPolicy(max_attempts=1))


def _run_config(datasets: dict[str, object], shards: int, window: float) -> dict:
    """Throughput of ``STREAMS`` cold-sweep streams at one shard count."""
    server = make_server(
        registry=_registry(datasets),
        port=0,
        request_timeout=120.0,
        max_concurrency=0,  # no shedding: measure raw execution throughput
        cache_size=0,  # every request is a full TA sweep
        shards=shards,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    names = list(datasets)
    answers: dict[str, tuple] = {}
    counts = [0] * STREAMS
    try:
        warm = _client(server)
        for name in names:
            # First touch builds the cube + index family in whichever
            # process owns the dataset; the measured window is sweeps only.
            document = warm.quantify(name, **_QUERY)
            answers[name] = tuple(
                (entry["name"], entry["unfairness"])
                for entry in document["entries"]
            )
        warm.close()

        deadline = monotonic() + window

        def stream(index: int) -> None:
            client = _client(server)
            position = index  # stagger starting datasets across streams
            try:
                while monotonic() < deadline:
                    client.quantify(names[position % len(names)], **_QUERY)
                    counts[index] += 1
                    position += 1
            finally:
                client.close()

        workers = [
            threading.Thread(target=stream, args=(index,), daemon=True)
            for index in range(STREAMS)
        ]
        started = monotonic()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=window + 120.0)
        elapsed = monotonic() - started
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
    total = sum(counts)
    return {
        "shards": shards,
        "requests": total,
        "elapsed": elapsed,
        "throughput": total / elapsed if elapsed > 0 else 0.0,
        "answers": answers,
    }


def run_sharded_scaling(quick: bool = False) -> dict[int, dict]:
    cores = len(os.sched_getaffinity(0))
    window = QUICK_WINDOW_SECONDS if quick else WINDOW_SECONDS
    shard_counts = QUICK_SHARD_COUNTS if quick else SHARD_COUNTS
    datasets = _datasets()
    results = {
        shards: _run_config(datasets, shards, window) for shards in shard_counts
    }

    baseline = results[0]["throughput"]
    placement = {
        shards: [shard_for(name, shards) for name in datasets]
        for shards in shard_counts
        if shards > 0
    }
    lines = [
        "Sharded scaling — cold-sweep throughput by worker-process count",
        f"({provenance()}; {STREAMS} client streams; {DATASETS} "
        "datasets; cache off,",
        f" every request a full top-k sweep; {window:g}s window per config"
        + ("; quick mode)" if quick else ")"),
        "=" * 68,
        "",
        f"{'shards':>6} {'requests':>9} {'seconds':>8} "
        f"{'req/s':>9} {'vs shards=0':>12}",
        f"{'-' * 6} {'-' * 9} {'-' * 8} {'-' * 9} {'-' * 12}",
    ]
    for shards, row in results.items():
        speedup = row["throughput"] / baseline if baseline > 0 else 0.0
        lines.append(
            f"{shards:>6} {row['requests']:>9} "
            f"{row['elapsed']:>8.2f} {row['throughput']:>9.1f} "
            f"{speedup:>11.2f}x"
        )
    for shards, owners in placement.items():
        lines.append("")
        lines.append(
            f"placement at {shards} shards: "
            + ", ".join(
                f"{name}→{owner}" for name, owner in zip(datasets, owners)
            )
        )
    lines += [
        "",
        f"Shard scaling is CPU scaling: the {SPEEDUP_TARGET:g}x-at-4-shards "
        "target presumes a",
        "4+-core runner.  On fewer cores the forked workers time-slice the",
        "same silicon and the table above mostly prices the socket hop.",
    ]
    emit("sharded_scaling", "\n".join(lines))

    # Correctness is asserted everywhere: every shard count must produce
    # the exact same answers.
    reference = results[0]["answers"]
    for row in results.values():
        assert row["answers"] == reference
        assert row["requests"] > 0
    # The throughput claim only holds where the cores exist to back it.
    if not quick and cores >= 4 and 4 in results:
        assert results[4]["throughput"] >= SPEEDUP_TARGET * baseline
    return results


def test_sharded_scaling():
    run_sharded_scaling(quick=os.environ.get("BENCH_QUICK") == "1")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short windows, shards {0, 2} only (the CI configuration)",
    )
    arguments = parser.parse_args()
    run_sharded_scaling(quick=arguments.quick)
    print("sharded scaling bench: OK")
