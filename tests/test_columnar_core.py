"""The columnar shared-memory core: equivalence, segments, restart-attach.

The columnar engine (``repro.core.colstore``) must be *indistinguishable*
from the dict reference implementation: same top-k entries, rounds, access
accounting and early stops, same comparison reports, same delta counters
after live ingest — down to the byte over HTTP.  These tests pin that
contract at three layers:

* algorithm level — ``top_k`` / ``quantify_many`` over synthetic cubes
  (dense and NaN-sparse) with a dict family vs a columnar family;
* F-Box level — real crawl datasets, including incremental deltas, plus
  segment publish / attach / restart lifecycle and leak checks;
* service level — the served columnar core answers a request list
  exactly like the dict-FBox oracle cold-built in-process (in-process and
  sharded), and a respawned shard worker *attaches* to the published
  segment instead of rebuilding.
"""

from __future__ import annotations

import glob
import json
import os
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.colstore import (
    AttachedFBox,
    ColumnarFamily,
    ColumnarFBox,
    ColumnarStore,
    SegmentMiss,
    SegmentSpace,
)
from repro.core.fagin import top_k
from repro.core.fbox import FBox
from repro.core.indices import build_family
from repro.data.schema import MarketplaceDataset
from repro.marketplace.crawl import emit_observations as emit_marketplace
from repro.service.faults import FAULTS_ENV_VAR
from repro.service.ingest import decode_observations
from repro.service.registry import DatasetRegistry, DatasetSpec
from repro.service.server import make_server
from repro.service.sharding import shard_for

from tests.helpers import DictOracle, DictOracleRegistry, make_cube

DIMENSIONS = ("group", "query", "location")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _columnar_family(cube, dimension: str, order: str) -> ColumnarFamily:
    descending = order == "most"
    store = ColumnarStore.from_cube(cube, [(dimension, descending)])
    offsets, perm = store.families[(dimension, descending)]
    return ColumnarFamily(cube, dimension, descending, offsets, perm)


def _assert_results_match(columnar, reference) -> None:
    """Full TopKResult equality: payload, effort, and cost accounting."""
    assert columnar.entries == reference.entries
    assert columnar.order == reference.order
    assert columnar.rounds == reference.rounds
    assert columnar.early_stopped == reference.early_stopped
    assert columnar.stats.sorted_accesses == reference.stats.sorted_accesses
    assert columnar.stats.random_accesses == reference.stats.random_accesses
    assert columnar.stats.sorted_misses == reference.stats.sorted_misses
    assert columnar.stats.random_misses == reference.stats.random_misses


def _sparse_cube():
    """A cube with missing cells, an empty posting list, and a dead member."""
    cube = make_cube(n_groups=5, n_queries=4, n_locations=3, seed=7)
    cube.values[0, 0, 0] = np.nan  # drop one member from one list
    cube.values[:, 1, 2] = np.nan  # a fully-empty posting list
    cube.values[3, :, :] = np.nan  # a member defined nowhere
    cube.values[4, 2:, :] = np.nan  # a member defined only sometimes
    return cube


def _copy_marketplace(dataset: MarketplaceDataset) -> MarketplaceDataset:
    return MarketplaceDataset(
        workers=dataset.workers.values(), observations=dataset.observations()
    )


def _market_batch(site, dataset, seed=0, batch_size=3, swaps=2) -> list[dict]:
    return next(
        emit_marketplace(
            site, dataset, batches=1, batch_size=batch_size, seed=seed, swaps=swaps
        )
    )


def _get(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get_text(base: str, path: str) -> str:
    with urllib.request.urlopen(base + path) as response:
        return response.read().decode("utf-8")


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


def _metric(text: str, name: str) -> int:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return int(float(line.split()[-1]))
    raise AssertionError(f"metric {name!r} not in exposition")


def _registry(
    marketplace, search=None, registry_class=DatasetRegistry, **kwargs
) -> DatasetRegistry:
    registry = registry_class(**kwargs)
    registry.register(
        DatasetSpec(
            name="taskrabbit",
            site="taskrabbit",
            loader=lambda: marketplace,
            description="six-city category crawl",
        )
    )
    if search is not None:
        registry.register(
            DatasetSpec(
                name="google",
                site="google",
                loader=lambda: search,
                description="two-location study",
            )
        )
    return registry


@pytest.fixture
def space():
    """A uniquely-namespaced segment space, swept clean at teardown."""
    token = f"t{os.getpid():x}{os.urandom(3).hex()}"
    space = SegmentSpace(token)
    yield space
    space.close()
    leaked = glob.glob(f"/dev/shm/fbx{token}*")
    assert leaked == [], f"leaked shared-memory segments: {leaked}"


# ----------------------------------------------------------------------
# Algorithm level: dict family vs columnar family
# ----------------------------------------------------------------------


class TestTopKEquivalence:
    @pytest.mark.parametrize("dimension", DIMENSIONS)
    @pytest.mark.parametrize("order", ["most", "least"])
    def test_dense_cube(self, dimension, order):
        cube = make_cube(n_groups=6, n_queries=4, n_locations=5, seed=3)
        for k in (1, 2, 4, 99):
            reference = top_k(cube, dimension, k, order=order)
            columnar = top_k(
                cube,
                dimension,
                k,
                order=order,
                family=_columnar_family(cube, dimension, order),
            )
            _assert_results_match(columnar, reference)

    @pytest.mark.parametrize("dimension", DIMENSIONS)
    @pytest.mark.parametrize("order", ["most", "least"])
    def test_nan_sparse_cube(self, dimension, order):
        cube = _sparse_cube()
        for k in (1, 3, 99):
            reference = top_k(cube, dimension, k, order=order)
            columnar = top_k(
                cube,
                dimension,
                k,
                order=order,
                family=_columnar_family(cube, dimension, order),
            )
            _assert_results_match(columnar, reference)

    def test_columnar_family_dispatches_run_sweep(self):
        cube = make_cube()
        family = _columnar_family(cube, "group", "most")
        assert hasattr(family, "run_sweep")
        direct = family.run_sweep(2, "most")
        via_top_k = top_k(cube, "group", 2, family=family)
        assert via_top_k.entries == direct.entries

    def test_posting_lists_match_dict_family(self):
        cube = _sparse_cube()
        for dimension in DIMENSIONS:
            reference = build_family(cube, dimension)
            columnar = _columnar_family(cube, dimension, "most")
            assert columnar.pair_keys == reference.pair_keys
            for pair in reference.pair_keys:
                assert (
                    columnar.posting_list(pair).entries
                    == reference.posting_list(pair).entries
                )


class TestFBoxEquivalence:
    """Dict FBox vs ColumnarFBox over real crawl/study datasets."""

    @pytest.fixture
    def boxes(self, schema, small_marketplace_dataset):
        dataset = _copy_marketplace(small_marketplace_dataset)
        return (
            FBox.for_marketplace(dataset, schema),
            ColumnarFBox.for_marketplace(dataset, schema),
            dataset,
        )

    def test_quantify_and_compare(self, boxes):
        reference, columnar, _ = boxes
        for dimension in DIMENSIONS:
            for order in ("most", "least"):
                _assert_results_match(
                    columnar.quantify(dimension, k=3, order=order),
                    reference.quantify(dimension, k=3, order=order),
                )
        naive = reference.quantify("group", k=3, algorithm="naive")
        assert columnar.quantify("group", k=3, algorithm="naive").entries == (
            naive.entries
        )
        left, right = reference.locations[0], reference.locations[1]
        for algorithm in ("cube", "indices"):
            ours = columnar.compare("location", left, right, "query", algorithm)
            theirs = reference.compare("location", left, right, "query", algorithm)
            assert ours.reversed_members == theirs.reversed_members
            assert [
                (row.member, row.value_r1, row.value_r2) for row in ours.rows
            ] == [(row.member, row.value_r1, row.value_r2) for row in theirs.rows]

    def test_quantify_many_slices(self, boxes):
        reference, columnar, _ = boxes
        ours = columnar.quantify_many("group", [1, 2, 5])
        theirs = reference.quantify_many("group", [1, 2, 5])
        assert ours.keys() == theirs.keys()
        for k in ours:
            _assert_results_match(ours[k], theirs[k])

    def test_cubes_and_aggregates_identical(self, boxes):
        reference, columnar, _ = boxes
        assert np.array_equal(
            columnar.cube.values, reference.cube.values, equal_nan=True
        )
        query = reference.queries[0]
        assert columnar.aggregate(queries=[query]) == reference.aggregate(
            queries=[query]
        )

    def test_post_ingest_delta_stays_byte_identical(
        self, boxes, schema, site
    ):
        reference, columnar, dataset = boxes
        reference.cube, columnar.cube  # materialize both pre-delta
        reference.family("group"), columnar.family("group")
        batch = decode_observations(
            "taskrabbit", _market_batch(site, dataset, seed=5)
        )
        touched = dataset.upsert_observations(batch)
        ref_stats = reference.apply_observations(
            dataset.queries, dataset.locations, touched
        )
        col_stats = columnar.apply_observations(
            dataset.queries, dataset.locations, touched
        )
        # Same delta-work counters (the exact staleness predicate) ...
        assert col_stats == ref_stats
        # ... the same post-delta state as each other and as a cold rebuild
        cold = FBox.for_marketplace(dataset, schema)
        for other in (reference, cold):
            assert np.array_equal(
                columnar.cube.values, other.cube.values, equal_nan=True
            )
        for order in ("most", "least"):
            _assert_results_match(
                columnar.quantify("group", k=3, order=order),
                reference.quantify("group", k=3, order=order),
            )


# ----------------------------------------------------------------------
# Segment lifecycle: publish, attach, restart, leaks
# ----------------------------------------------------------------------


class TestSegmentLifecycle:
    def _bound_box(self, space, schema, dataset) -> ColumnarFBox:
        box = ColumnarFBox.for_marketplace(dataset, schema)
        box.bind_segment(space, "taskrabbit", "exposure")
        return box

    def test_cold_twin_attaches_in_place_of_building(
        self, space, schema, small_marketplace_dataset
    ):
        owner = self._bound_box(space, schema, small_marketplace_dataset)
        baseline = owner.quantify("group", k=3)
        assert owner.cube_builds == 1 and owner.segment_attaches == 0

        twin = self._bound_box(space, schema, small_marketplace_dataset)
        result = twin.quantify("group", k=3)
        _assert_results_match(result, baseline)
        # The restart contract: adopt the published segment, build nothing.
        assert twin.segment_attaches == 1
        assert twin.cube_builds == 0 and twin.family_builds == 0

    def test_attached_front_box_matches_owner(
        self, space, schema, small_marketplace_dataset
    ):
        owner = self._bound_box(space, schema, small_marketplace_dataset)
        owner.quantify("group", k=3)  # build + publish cube and family
        front = AttachedFBox.attach(space, "taskrabbit", "exposure")
        _assert_results_match(
            front.quantify("group", k=3), owner.quantify("group", k=3)
        )
        many_front = front.quantify_many("group", [1, 3])
        many_owner = owner.quantify_many("group", [1, 3])
        for k in many_owner:
            _assert_results_match(many_front[k], many_owner[k])
        left, right = owner.locations[0], owner.locations[1]
        assert (
            front.compare("location", left, right, "query").reversed_members
            == owner.compare("location", left, right, "query").reversed_members
        )
        query = owner.queries[0]
        assert front.aggregate(queries=[query]) == owner.aggregate(queries=[query])
        assert front.generation >= 1

    def test_attach_misses_on_empty_namespace(self, space):
        with pytest.raises(SegmentMiss):
            AttachedFBox.attach(space, "taskrabbit", "exposure")

    def test_delta_publishes_new_generation(
        self, space, schema, site, small_marketplace_dataset
    ):
        dataset = _copy_marketplace(small_marketplace_dataset)
        owner = self._bound_box(space, schema, dataset)
        owner.quantify("group", k=3)
        before = space.head_generation("taskrabbit", "exposure")
        batch = decode_observations("taskrabbit", _market_batch(site, dataset))
        touched = dataset.upsert_observations(batch)
        owner.apply_observations(dataset.queries, dataset.locations, touched)
        after = space.head_generation("taskrabbit", "exposure")
        assert after > before
        # A cold attach after the delta sees the post-ingest state.
        front = AttachedFBox.attach(space, "taskrabbit", "exposure")
        assert np.array_equal(
            front.cube.values, owner.cube.values, equal_nan=True
        )
        # Superseded payload generations were unlinked, not retained.
        live = glob.glob(f"/dev/shm/fbx{space.namespace}*-g*")
        assert len(live) == 1, live

    def test_registry_restart_attaches_and_close_sweeps(
        self, schema, small_marketplace_dataset
    ):
        token = f"t{os.getpid():x}{os.urandom(3).hex()}"
        front = _registry(
            small_marketplace_dataset,
            namespace=token,
            schema=schema,
        )
        try:
            front.fbox("taskrabbit").quantify("group", k=3)
            assert front.build_counts()["cube_builds"] == 1

            # A "restarted worker": same namespace, no segment ownership.
            revived = _registry(
                small_marketplace_dataset,
                namespace=token,
                schema=schema,
                owns_segments=False,
            )
            revived.fbox("taskrabbit").quantify("group", k=3)
            counts = revived.build_counts()
            assert counts["segment_attaches"] == 1
            assert counts["cube_builds"] == 0
            assert counts["family_builds"] == 0
            # The non-owner's close must leave the segments alone ...
            revived.close()
            assert glob.glob(f"/dev/shm/fbx{token}*")
        finally:
            # ... and the owner's close must sweep them all.
            front.close()
        assert glob.glob(f"/dev/shm/fbx{token}*") == []

    def test_reregistration_clears_stale_segments(
        self, schema, small_marketplace_dataset
    ):
        token = f"t{os.getpid():x}{os.urandom(3).hex()}"
        registry = _registry(
            small_marketplace_dataset,
            namespace=token,
            schema=schema,
        )
        try:
            registry.fbox("taskrabbit").quantify("group", k=3)
            assert glob.glob(f"/dev/shm/fbx{token}*")
            registry.register(
                DatasetSpec(
                    name="taskrabbit",
                    site="taskrabbit",
                    loader=lambda: small_marketplace_dataset,
                    description="replacement",
                )
            )
            # A replaced dataset's segments describe the old one: gone.
            assert glob.glob(f"/dev/shm/fbx{token}*") == []
        finally:
            registry.close()


    def test_fork_while_a_thread_opens_a_segment_leaves_the_child_unlocked(self):
        """Shard workers fork from a front whose threads open segments
        constantly; a child must not inherit the tracker lock held."""
        from repro.core import colstore

        held, release = threading.Event(), threading.Event()

        def holder():
            with colstore._untracked():
                held.set()
                release.wait(5.0)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(5.0)
        timer = threading.Timer(0.2, release.set)
        timer.start()
        pid = os.fork()
        if pid == 0:
            os._exit(0 if colstore._TRACKER_LOCK.acquire(timeout=2.0) else 1)
        _, status = os.waitpid(pid, 0)
        thread.join(timeout=5.0)
        timer.join(timeout=5.0)
        assert not thread.is_alive()
        assert os.waitstatus_to_exitcode(status) == 0


# ----------------------------------------------------------------------
# Service level: the served core answers like the dict oracle over HTTP
# ----------------------------------------------------------------------

PARITY_REQUESTS = (
    ("/v1/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 3}),
    (
        "/v1/quantify",
        {
            "dataset": "taskrabbit",
            "dimension": "query",
            "k": 2,
            "order": "least",
            "algorithm": "naive",
        },
    ),
    (
        "/v1/compare",
        {
            "dataset": "taskrabbit",
            "dimension": "group",
            "r1": "gender=Male",
            "r2": "gender=Female",
            "breakdown": "location",
        },
    ),
    (
        "/v1/compare",
        {
            "dataset": "taskrabbit",
            "dimension": "location",
            "r1": "Chicago, IL",
            "r2": "Boston, MA",
            "breakdown": "query",
            "algorithm": "indices",
        },
    ),
    ("/v1/quantify", {"dataset": "missing", "dimension": "group", "k": 1}),
    # A repeat of the first request: "cached" flags must agree too.
    ("/v1/quantify", {"dataset": "taskrabbit", "dimension": "group", "k": 3}),
)


class TestServiceParity:
    def test_columnar_server_matches_dict_server(
        self, start_service, site, small_marketplace_dataset
    ):
        registry = _registry(_copy_marketplace(small_marketplace_dataset))
        server = start_service(registry=registry, request_timeout=60.0)
        oracle_registry = _registry(
            _copy_marketplace(small_marketplace_dataset),
            registry_class=DictOracleRegistry,
        )
        with DictOracle(oracle_registry) as oracle:

            def both(path, payload):
                served = _post(server.url, path, payload)
                assert served == oracle.call(path, payload), (path, payload)
                return served

            for path, payload in PARITY_REQUESTS:
                both(path, payload)

            # Live ingest, its replay, and the post-ingest read must agree too.
            batch = _market_batch(site, small_marketplace_dataset)
            ingest = {
                "dataset": "taskrabbit",
                "batch_id": "parity-1",
                "sequence": 1,
                "observations": batch,
            }
            status, document = both("/v1/observations", ingest)
            assert status == 200 and document["replayed"] is False
            status, document = both("/v1/observations", ingest)
            assert status == 200 and document["replayed"] is True
            status, _ = both(
                "/v1/quantify",
                {"dataset": "taskrabbit", "dimension": "group", "k": 3},
            )
            assert status == 200


class TestIngestSequence:
    """Satellite: the bounded idempotency ledger's replay hole is closed."""

    @pytest.fixture
    def service(self, start_service, small_marketplace_dataset):
        registry = _registry(_copy_marketplace(small_marketplace_dataset))
        return start_service(registry=registry, request_timeout=60.0)

    def test_stale_sequence_with_unknown_batch_id_conflicts(
        self, service, site, small_marketplace_dataset
    ):
        first = {
            "dataset": "taskrabbit",
            "batch_id": "seq-1",
            "sequence": 7,
            "observations": _market_batch(site, small_marketplace_dataset),
        }
        status, document = _post(service.url, "/v1/observations", first)
        assert status == 200
        assert document["sequence"] == 7

        # Known batch_id: the ledger answers, whatever the sequence says.
        status, replay = _post(service.url, "/v1/observations", first)
        assert status == 200 and replay["replayed"] is True

        # Unknown batch_id at/below the high-water mark: refuse, don't apply.
        stale = {
            **first,
            "batch_id": "seq-0-evicted",
            "observations": _market_batch(site, small_marketplace_dataset, seed=9),
        }
        status, body = _post(service.url, "/v1/observations", stale)
        assert status == 409
        error = body["error"]
        assert error["code"] == "batch_conflict"
        assert error["retryable"] is False
        assert "high-water" in error["message"]

        # A fresh sequence from the same client applies normally.
        fresh = {**stale, "batch_id": "seq-2", "sequence": 8}
        status, document = _post(service.url, "/v1/observations", fresh)
        assert status == 200 and document["replayed"] is False

        metrics = _get_text(service.url, "/v1/metrics")
        assert 'fbox_ingest_replays_total{kind="ledger"} 1' in metrics
        assert 'fbox_ingest_replays_total{kind="conflict"} 1' in metrics

    def test_sequence_field_is_validated(self, service):
        for bad in (-1, "7", 1.5, True):
            status, body = _post(
                service.url,
                "/v1/observations",
                {
                    "dataset": "taskrabbit",
                    "sequence": bad,
                    "observations": [{}],
                },
            )
            assert status == 400, (bad, body)
            assert "sequence" in body["error"]["message"]

    def test_batch_conflict_is_catalogued(self, service):
        _, schema_doc = _get(service.url, "/v1/schema")
        errors = {entry["code"]: entry for entry in schema_doc["errors"]}
        assert errors["batch_conflict"]["status"] == 409
        assert errors["batch_conflict"]["retryable"] is False


class TestWorkerRestartAttach:
    def test_respawned_worker_attaches_without_rebuilding(
        self, monkeypatch, small_marketplace_dataset, small_search_dataset
    ):
        # Kill the worker that owns "taskrabbit" on its first /compare —
        # the same FBOX_FAULTS chaos knob the sharding suite uses.
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps(
                {"rules": [{"site": "worker_exit", "match": "/compare", "times": 1}]}
            ),
        )
        registry = _registry(
            _copy_marketplace(small_marketplace_dataset), small_search_dataset
        )
        server = make_server(
            registry=registry,
            port=0,
            shards=2,
            request_timeout=60.0,
            cache_size=0,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            quantify = {"dataset": "taskrabbit", "dimension": "group", "k": 3}
            status, _ = _post(server.url, "/v1/quantify", quantify)
            assert status == 200
            metrics = _get_text(server.url, "/v1/metrics")
            assert _metric(metrics, "fbox_cube_builds_total") == 1
            assert _metric(metrics, "fbox_segment_attaches_total") == 0

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
            assert body["error"]["code"] == "shard_unavailable"
            assert body["error"]["shard"] == shard_for("taskrabbit", 2)

            deadline = time.monotonic() + 20.0
            status, body = 0, {}
            while time.monotonic() < deadline:
                status, body = _post(server.url, "/v1/quantify", quantify)
                if status == 200:
                    break
                time.sleep(0.1)
            assert status == 200, body

            # The revived worker adopted the published segment: one attach,
            # zero rebuilds anywhere in the merged process family.
            metrics = _get_text(server.url, "/v1/metrics")
            assert _metric(metrics, "fbox_segment_attaches_total") == 1
            assert _metric(metrics, "fbox_cube_builds_total") == 0
            assert _metric(metrics, "fbox_index_family_builds_total") == 0
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()
