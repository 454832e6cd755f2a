"""Shared fixtures: toy datasets, small crawls, and synthetic cubes.

Session-scoped fixtures keep the suite fast: the simulators run once on a
reduced scope (a handful of cities / two study locations) and every test
module reuses the result.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.attributes import default_schema
from repro.core.cube import UnfairnessCube
from repro.core.groups import Group
from repro.experiments.toy import table1_dataset, toy_marketplace_dataset
from repro.marketplace.crawl import run_crawl
from repro.marketplace.site import TaskRabbitSite
from repro.searchengine.engine import GoogleJobsEngine
from repro.searchengine.study import StudyDesign, run_study

SMALL_CITIES = (
    "Birmingham, UK",
    "Oklahoma City, OK",
    "Chicago, IL",
    "San Francisco, CA",
    "Boston, MA",
    "Seattle, WA",
)


@pytest.fixture(scope="session")
def schema():
    return default_schema()


@pytest.fixture(scope="session")
def toy_search_dataset():
    """The paper's Table 1 data as a search dataset."""
    return table1_dataset()


@pytest.fixture(scope="session")
def toy_market_dataset():
    """The paper's Tables 2–3 data as a marketplace dataset."""
    return toy_marketplace_dataset()


@pytest.fixture(scope="session")
def site():
    """A small deterministic marketplace."""
    return TaskRabbitSite(seed=11)


@pytest.fixture(scope="session")
def small_marketplace_dataset(site):
    """Category-level crawl over six cities (48 observations)."""
    return run_crawl(site, level="category", cities=list(SMALL_CITIES)).dataset


@pytest.fixture(scope="session")
def small_search_dataset():
    """A two-location, two-query Google study (20 observations)."""
    engine = GoogleJobsEngine(seed=11)
    design = StudyDesign(
        pairs=(
            ("yard work", "Boston, MA"),
            ("furniture assembly", "Boston, MA"),
            ("yard work", "Washington, DC"),
            ("furniture assembly", "Washington, DC"),
        )
    )
    return run_study(engine, design).dataset


from tests.helpers import make_cube


@pytest.fixture
def cube():
    return make_cube()


# ----------------------------------------------------------------------
# Service backends
# ----------------------------------------------------------------------


@pytest.fixture(params=[None, 1], ids=["threads", "asyncio"])
def executor_workers(request):
    """Every service test runs under two widths of the CPU executor behind
    the event loop.  ``threads`` is the shipped default: a pool sized by
    admission control, so admitted requests compute in parallel threads.
    ``asyncio`` pins one executor thread: the event loop is the only
    source of concurrency and every CPU job queues behind the one before,
    which surfaces any handler that waits on a second pool task."""
    return request.param


@pytest.fixture(params=[0, 2], ids=["inproc", "shards2"])
def shards(request):
    """Every service test also runs against both execution backends: the
    in-process executor and a two-worker shard pool.  Responses must be
    byte-compatible, so the whole suite doubles as the routing oracle."""
    return request.param


@pytest.fixture
def start_service(executor_workers, shards):
    """A factory booting a live server on the parameterized configuration.

    Returns the server (ephemeral port, ``server.url`` ready); every server
    started through the factory is shut down and closed at teardown, which
    also unlinks its registry's shared-memory segments.  The
    ``executor_workers`` and ``shards`` parameters are applied unless the
    test pins its own explicitly.
    """
    from repro.service.server import make_server

    running: list = []

    def _start(registry=None, **kwargs):
        kwargs.setdefault("executor_workers", executor_workers)
        kwargs.setdefault("shards", shards)
        server = make_server(registry=registry, port=0, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        running.append((server, thread))
        return server

    yield _start
    for server, thread in running:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


@pytest.fixture
def closing():
    """Registers registries built outside a server; closes them at teardown.

    Every registry publishes its F-Boxes as shared-memory segments that
    bypass the resource tracker, so one that is never closed leaks
    ``/dev/shm/fbx*`` files.  ``closing(registry)`` returns the registry.
    """
    registries: list = []

    def _closing(registry):
        registries.append(registry)
        return registry

    yield _closing
    for registry in registries:
        registry.close()
