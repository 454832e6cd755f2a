"""Test helpers shared across modules."""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

from repro.core.cube import UnfairnessCube
from repro.core.fbox import FBox
from repro.core.groups import Group
from repro.data.schema import MarketplaceDataset, SearchDataset
from repro.service.app import Request, make_app
from repro.service.registry import DatasetRegistry


def make_cube(
    n_groups: int = 4, n_queries: int = 3, n_locations: int = 3, seed: int = 0
) -> UnfairnessCube:
    """A dense synthetic cube with deterministic pseudo-random values."""
    rng = np.random.default_rng(seed)
    genders = [f"g{i}" for i in range(n_groups)]
    schema_groups = [Group({"gender": gender}) for gender in genders]
    queries = [f"q{i}" for i in range(n_queries)]
    locations = [f"l{i}" for i in range(n_locations)]
    values = rng.uniform(0.0, 1.0, size=(n_groups, n_queries, n_locations))
    return UnfairnessCube(schema_groups, queries, locations, values)


def wait_for(condition, timeout: float = 10.0) -> None:
    """Poll until ``condition()`` holds: orders events without a sleep guess."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


# ----------------------------------------------------------------------
# The dict-FBox oracle behind the service's own application layer
# ----------------------------------------------------------------------


def copy_dataset(dataset):
    """A private copy, so live ingest never mutates a shared fixture."""
    if isinstance(dataset, MarketplaceDataset):
        return MarketplaceDataset(
            workers=dataset.workers.values(), observations=dataset.observations()
        )
    return SearchDataset(users=dataset.users.values(), observations=dataset.observations())


class DictOracleRegistry(DatasetRegistry):
    """A registry that cold-builds the dict reference :class:`FBox`.

    The service only serves the columnar core; this registry puts the
    paper's reference algorithm behind the very same handlers, so the two
    can be compared document for document.
    """

    def fbox(self, name, measure=None):
        spec = self.spec(name)
        measure = (measure or spec.default_measure).lower()
        dataset = self.dataset(name)
        with self._dataset_lock(name):
            fbox = self._fboxes.get((name, measure))
            if fbox is None:
                build = (
                    FBox.for_marketplace if spec.site == "taskrabbit" else FBox.for_search
                )
                fbox = build(dataset, self.schema, measure=measure)
                with self._lock:
                    self._fboxes[(name, measure)] = fbox
        return fbox


class DictOracle:
    """An in-process app over dict F-Boxes: the oracle a columnar server
    must match byte for byte.

    ``registry`` is a :class:`DictOracleRegistry` (its loaders should hand
    out private dataset copies when the test ingests).  :meth:`call` drives
    one request through the application layer with no sockets and returns
    ``(status, document)`` decoded exactly as a client would see it.  Use
    it as a context manager: closing releases the app and its registry.
    """

    def __init__(self, registry: DictOracleRegistry, **app_options) -> None:
        app_options.setdefault("request_timeout", None)
        self.app = make_app(registry=registry, **app_options)

    def call(self, path: str, payload=None):
        if payload is None:
            request = Request(method="GET", path=path)
        else:
            body = json.dumps(payload).encode("utf-8")
            request = Request(method="POST", path=path, body=body)
        response = asyncio.run(self.app.handle_async(request))
        return response.status, json.loads(response.body)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.app.close()
