"""The /v1/metrics exposition: one family table, in-process and sharded.

One scripted request sequence runs against an in-process server and a
two-worker shard pool.  Both expositions must follow the family table
(one ``# TYPE`` line per family, families in table order), carry the same
series, and agree on the counters whose truth does not depend on where a
request executed: requests, batches, ingest and cube builds.
"""

from __future__ import annotations

import re
import sys
import threading

import pytest

from repro.service.observability import FAMILIES, LatencyHistogram, ServiceMetrics
from repro.service.server import make_server

from tests.test_service import ServiceHarness, _registry
from tests.test_service_ingest import (
    _copy_marketplace,
    _copy_search,
    _market_batch,
    _trends_path,
)

_SERIES = re.compile(r"^([a-z_]+)(\{[^}]*\})? (\S+)$")

_EQUAL_FAMILIES = (
    "fbox_requests_total",
    "fbox_batches_total",
    "fbox_batch_items_total",
    "fbox_batch_sweep_groups_total",
    "fbox_ingest_batches_total",
    "fbox_ingest_observations_total",
    "fbox_ingest_replays_total",
    "fbox_cube_builds_total",
)


_HISTOGRAMS = {family.name for family in FAMILIES if family.type == "histogram"}


def _family(series_name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        base = series_name[: -len(suffix)]
        if series_name.endswith(suffix) and base in _HISTOGRAMS:
            return base
    return series_name


def _scripted_exposition(registry, shards, site, dataset) -> str:
    server = make_server(
        registry=registry, port=0, shards=shards, request_timeout=60.0
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        service = ServiceHarness(server)
        batch = _market_batch(site, dataset, seed=5, batch_size=2)
        steps = [
            ("/v1/datasets", {"name": "nb", "scenario": "null_no_bias"}, 200),
            ("/v1/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 3}, 200),
            ("/v1/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 3}, 200),
            (
                "/v1/compare",
                {
                    "dataset": "taskrabbit",
                    "dimension": "group",
                    "breakdown": "location",
                    "r1": "gender=Female",
                    "r2": "gender=Male",
                },
                200,
            ),
            (
                "/v1/batch",
                {
                    "requests": [
                        {"op": "quantify", "dataset": "taskrabbit", "dimension": "query"},
                        {"op": "quantify", "dataset": "taskrabbit", "dimension": "location"},
                    ]
                },
                200,
            ),
            (
                "/v1/observations",
                {"dataset": "taskrabbit", "batch_id": "m-1", "observations": batch},
                200,
            ),
            (
                "/v1/observations",
                {"dataset": "taskrabbit", "batch_id": "m-1", "observations": batch},
                200,
            ),
            ("/v1/quantify", {"dataset": "taskrabbit", "dimension": "nope"}, 422),
        ]
        for path, payload, expected in steps:
            status, body = service.post(path, payload)
            assert status == expected, (path, body)
        status, body = service.get(
            _trends_path(
                "taskrabbit",
                group="gender=Female",
                query=batch[0]["query"],
                location=batch[0]["location"],
            )
        )
        assert status == 200, body
        status, text = service.get("/v1/metrics")
        assert status == 200
        return text
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def _parse(text: str) -> tuple[list[str], dict[str, str]]:
    """The ``# TYPE`` family names in order, and series → value."""
    families: list[str] = []
    series: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            families.append(line.split()[2])
            continue
        match = _SERIES.match(line)
        assert match is not None, line
        name, labels, value = match.groups()
        assert _family(name) == families[-1], line
        series[name + (labels or "")] = value
    return families, series


@pytest.fixture(scope="module")
def expositions(site, small_marketplace_dataset, small_search_dataset):
    texts = {}
    for shards in (0, 2):
        registry = _registry(
            _copy_marketplace(small_marketplace_dataset),
            _copy_search(small_search_dataset),
        )
        texts[shards] = _scripted_exposition(
            registry, shards, site, small_marketplace_dataset
        )
    return {shards: _parse(text) for shards, text in texts.items()}


@pytest.mark.parametrize("shards", [0, 2], ids=["inproc", "shards2"])
def test_families_follow_the_table(expositions, shards):
    families, _ = expositions[shards]
    assert len(families) == len(set(families))
    order = [family.name for family in FAMILIES]
    assert families == [name for name in order if name in families]


def test_sharded_exposition_has_the_in_process_series(expositions):
    assert set(expositions[0][1]) == set(expositions[2][1])


def test_request_batch_ingest_and_build_counters_agree(expositions):
    inproc, sharded = expositions[0][1], expositions[2][1]
    for key, value in inproc.items():
        if _family(key.split("{")[0]) in _EQUAL_FAMILIES:
            assert sharded[key] == value, key
    assert inproc["fbox_ingest_replays_total{kind=\"ledger\"}"] == "1"
    assert inproc["fbox_batches_total"] == "1"


def test_histogram_bucket_is_the_first_bound_holding_the_value():
    histogram = LatencyHistogram((0.1, 0.5, 1.0))
    for seconds in (0.0, 0.1, 0.10001, 0.5, 2.0):
        histogram.observe(seconds)
    snap = histogram.snapshot()
    assert snap["counts"] == (2, 2, 0, 1)
    assert snap["count"] == 5


def test_concurrent_recorders_lose_no_update():
    metrics = ServiceMetrics()
    threads, rounds = 8, 2000

    def work():
        for _ in range(rounds):
            metrics.request_started("/quantify")
            metrics.request_finished("/quantify", 200, 0.003)
            metrics.count(connections=1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    total = threads * rounds
    snap = metrics.snapshot()
    assert snap["requests"] == {("/quantify", 200): total}
    assert snap["in_flight"] == {"/quantify": 0}
    assert snap["histograms"]["/quantify"]["count"] == total
    assert sum(snap["histograms"]["/quantify"]["counts"]) == total
    assert metrics.counters() == {"connections": total}
