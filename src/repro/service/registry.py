"""The dataset registry: load once, share F-Boxes across requests.

A :class:`DatasetSpec` describes how to obtain one named dataset (load a
saved JSONL file or synthesize from a seed); the :class:`DatasetRegistry`
materializes each dataset **once** and hands out one shared
:class:`~repro.core.colstore.ColumnarFBox` per ``(dataset, measure)`` pair,
published into a shared-memory :class:`~repro.core.colstore.SegmentSpace`
so sharded fronts and restarted workers can attach instead of rebuilding.
The dict :class:`~repro.core.fbox.FBox` stays the reference algorithm and
test oracle; the service never serves it.  Both levels
use double-checked locking **per dataset**: under concurrent first-touch
traffic every dataset is built by exactly one thread and every cube/index
family exactly once (the FBox itself locks its lazy builds), while builds of
*distinct* datasets proceed concurrently — the slow work never holds the
registry-wide lock, which only guards the bookkeeping dicts.

Every dataset additionally sits behind a per-dataset
:class:`~repro.service.resilience.CircuitBreaker`: a loader or F-Box build
that keeps crashing quarantines the dataset (requests get an instant
:class:`~repro.service.errors.CircuitOpen` instead of re-running the
expensive failing work), and a half-open probe retries after a backoff.
Validation failures (bad measure → 422) deliberately do **not** count
against the breaker — only genuine load/build crashes do.  An optional
:class:`~repro.service.faults.FaultInjector` is consulted right before the
loader runs, which is how chaos tests script "fails twice then recovers"
datasets deterministically.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..core.attributes import default_schema
from ..core.colstore import ColumnarFBox, SegmentSpace
from ..core.measures.base import default_measure_for_site
from ..data.io import load_marketplace_dataset, load_search_dataset
from ..exceptions import ReproError
from .errors import NotFound, ServiceError, Unprocessable
from .faults import FaultInjector
from .resilience import CLOSED, BreakerConfig, CircuitBreaker

__all__ = [
    "DatasetSpec",
    "DatasetRegistry",
    "default_registry",
    "SMALL_CITIES",
]


def _default_namespace() -> str:
    return f"{os.getpid():x}{os.urandom(4).hex()}"

_SITES = ("taskrabbit", "google")

SMALL_CITIES = (
    "Birmingham, UK",
    "Oklahoma City, OK",
    "Chicago, IL",
    "San Francisco, CA",
    "Boston, MA",
    "Seattle, WA",
)
"""Reduced crawl scope used by ``--scope small`` for fast boots."""


@dataclass(frozen=True)
class DatasetSpec:
    """How to obtain one named dataset.

    Parameters
    ----------
    name:
        Registry key, used as the ``dataset`` field of every request.
    site:
        ``"taskrabbit"`` (marketplace) or ``"google"`` (search engine);
        selects the FBox constructor and the default measure.
    loader:
        Zero-argument callable returning the dataset object.  Called at most
        once per registry.
    default_measure:
        Measure used when a request omits one; defaults to whichever
        registered measure declares itself ``default_for`` the site (see
        :func:`repro.core.measures.base.default_measure_for_site`).
    description:
        One line for the ``/datasets`` listing.
    scenario / overrides:
        Set when the spec was built from a named scenario (``repro generate
        --scenario``, ``POST /v1/datasets``): the preset name and the
        canonical ``(key, json_value)`` override pairs.  Plain JSON-safe
        strings on purpose — a sharded front broadcasts them over the frame
        protocol and each worker rebuilds the identical spec locally (see
        :func:`repro.scenarios.scenario_spec`).  Empty for file- or
        closure-backed specs.
    """

    name: str
    site: str
    loader: Callable[[], object] = field(compare=False)
    default_measure: str = ""
    description: str = ""
    scenario: str = ""
    overrides: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.site not in _SITES:
            raise ReproError(f"site must be one of {_SITES}, got {self.site!r}")
        if not self.default_measure:
            object.__setattr__(
                self, "default_measure", default_measure_for_site(self.site)
            )


class DatasetRegistry:
    """Thread-safe home of datasets and their shared F-Boxes.

    Every F-Box publishes shared-memory segments under ``/dev/shm``, which
    bypass Python's resource tracker: an owning registry (the default) must
    be closed (:meth:`close`) to unlink them.
    """

    def __init__(
        self,
        schema=None,
        breaker_config: BreakerConfig | None = None,
        faults: FaultInjector | None = None,
        clock=time.monotonic,
        namespace: str | None = None,
        owns_segments: bool = True,
    ) -> None:
        self.schema = schema if schema is not None else default_schema()
        self.breaker_config = (
            breaker_config if breaker_config is not None else BreakerConfig()
        )
        self.faults = faults
        self._clock = clock
        self._namespace = namespace
        self._segments: SegmentSpace | None = None
        # Shard workers publish into the front's namespace but must not
        # sweep it — the front owns end-of-life cleanup for everyone.
        self._owns_segments = owns_segments
        self._specs: dict[str, DatasetSpec] = {}
        self._datasets: dict[str, object] = {}
        # Migrated-in observations awaiting materialization: a shard-resize
        # import on a worker that never loaded the dataset stashes the
        # journal here (latest per (query, location)), and ``dataset()``
        # folds it in right after the base loader runs — the import itself
        # stays O(journal) instead of forcing an eager build.
        self._pending: dict[str, dict[tuple[str, str], object]] = {}
        self._fboxes: dict[tuple[str, str], ColumnarFBox] = {}
        self._generations: dict[str, int] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._building: set[str] = set()
        # The global lock only guards the dicts above (cheap, constant-time
        # mutations).  Loads and F-Box builds — the slow work — serialize on
        # a per-dataset lock instead, so builds of *distinct* datasets run
        # concurrently.  Lock order is always dataset lock → global lock.
        self._lock = threading.RLock()
        self._dataset_locks: dict[str, threading.RLock] = {}

    @property
    def segments(self) -> SegmentSpace:
        """The shared-memory segment space (created on first use)."""
        with self._lock:
            if self._segments is None:
                if self._namespace is None:
                    self._namespace = _default_namespace()
                self._segments = SegmentSpace(self._namespace)
            return self._segments

    @property
    def namespace(self) -> str | None:
        """The segment namespace token (None until the space exists)."""
        return self._namespace

    def close(self) -> None:
        """Release owned shared-memory segments.

        The space is closed even when nothing was published yet, so a build
        that finishes after this call (a request abandoned at its deadline)
        unlinks what it publishes instead of leaking it.
        """
        if self._owns_segments:
            self.segments.close()

    def _dataset_lock(self, name: str) -> threading.RLock:
        """The build lock for one dataset (created on first use, kept
        forever — re-registration must reuse it so an in-flight build of the
        old generation and the first build of the new one never interleave)."""
        with self._lock:
            lock = self._dataset_locks.get(name)
            if lock is None:
                lock = self._dataset_locks[name] = threading.RLock()
            return lock

    def register(self, spec: DatasetSpec) -> None:
        """Add (or replace) a dataset spec; drops any stale materializations.

        Each (re-)registration bumps the dataset's generation counter, which
        the service folds into result-cache keys so answers computed against
        a replaced dataset can never be served again (ROADMAP: cache
        invalidation on mid-flight re-registration).
        """
        # Wait out any in-flight build of the old generation (dataset lock)
        # before swapping the spec, so a stale build can never land *after*
        # its dataset was replaced.  Builds of other datasets are unaffected.
        with self._dataset_lock(spec.name):
            if self.generation(spec.name) > 0:
                # Published segments describe the *old* dataset; a cold
                # attach against the replacement must miss, not adopt them.
                self.segments.clear(dataset=spec.name)
            with self._lock:
                self._specs[spec.name] = spec
                self._datasets.pop(spec.name, None)
                for key in [k for k in self._fboxes if k[0] == spec.name]:
                    del self._fboxes[key]
                self._generations[spec.name] = (
                    self._generations.get(spec.name, 0) + 1
                )
                # A fresh spec deserves a fresh health record.
                self._breakers.pop(spec.name, None)

    def generation(self, name: str) -> int:
        """How many times ``name`` has been registered (0 when never)."""
        with self._lock:
            return self._generations.get(name, 0)

    def sync_generation(self, name: str, generation: int) -> None:
        """Raise ``name``'s generation to match a remote counter.

        Under sharding the owning worker applies ingests against its private
        registry; the front calls this after a routed write so its own
        ``/datasets`` listing reports the live generation.  Monotonic: a
        stale or replayed report never lowers the counter.
        """
        with self._lock:
            if generation > self._generations.get(name, 0):
                self._generations[name] = generation

    def apply_observations(self, name: str, observations: list) -> dict:
        """Fold already-decoded observations into a live dataset.

        Runs entirely under the dataset's build lock: the dataset is
        upserted in place, every live F-Box for ``name`` gets an incremental
        delta (dirty cube columns + dirty posting lists only), and the
        generation counter is bumped **last** so no answer computed against
        the pre-ingest state can ever be tagged with the post-ingest
        generation.  Returns the new generation, the touched pairs, and the
        delta-work counters.
        """
        self.spec(name)  # 404 before any work
        with self._dataset_lock(name):
            dataset = self.dataset(name)
            touched = dataset.upsert_observations(observations)
            delta = {"cells_recomputed": 0, "lists_rebuilt": 0}
            live = self.live_fboxes(name)
            for fbox in live.values():
                stats = fbox.apply_observations(
                    dataset.queries, dataset.locations, touched
                )
                delta["cells_recomputed"] += stats["cells_recomputed"]
                delta["lists_rebuilt"] += stats["lists_rebuilt"]
            # Live F-Boxes just republished their segments; any other
            # segment for this dataset (e.g. published before a process
            # restart) no longer reflects its state — drop it so a cold
            # attach rebuilds instead of adopting stale values.
            self.segments.clear(dataset=name, keep_measures=list(live))
            with self._lock:
                self._generations[name] = self._generations.get(name, 0) + 1
                generation = self._generations[name]
        return {"generation": generation, "touched": touched, **delta}

    def adopt_observations(
        self, name: str, observations: list, generation: int
    ) -> None:
        """Adopt a migrated dataset's observation journal (shard resize).

        If the dataset is already materialized the journal is applied
        immediately (one bulk incremental apply, so live F-Boxes and any
        columnar segments refresh); otherwise it wholesale-replaces the
        pending stash that the next :meth:`dataset` call folds in after the
        deterministic base load.  Either way the generation counter is
        raised to the source's, so the imported trend ring's generation
        tags stay truthful and the next local ingest continues the same
        sequence a cold boot would have produced.
        """
        self.spec(name)
        with self._dataset_lock(name):
            if self.is_loaded(name):
                if observations:
                    self.apply_observations(name, list(observations))
            else:
                with self._lock:
                    if observations:
                        self._pending[name] = {
                            (obs.query, obs.location): obs
                            for obs in observations
                        }
                    else:
                        self._pending.pop(name, None)
            self.sync_generation(name, generation)

    def _take_pending(self, name: str) -> list:
        with self._lock:
            pending = self._pending.pop(name, None)
        return list(pending.values()) if pending else []

    def live_fboxes(self, name: str) -> dict[str, ColumnarFBox]:
        """The live F-Boxes for ``name``, keyed by measure."""
        with self._lock:
            return {
                measure: fbox
                for (n, measure), fbox in self._fboxes.items()
                if n == name
            }

    def names(self) -> list[str]:
        """Registered dataset names, in registration order."""
        with self._lock:
            return list(self._specs)

    def spec(self, name: str) -> DatasetSpec:
        """The spec for ``name``; raises :class:`NotFound` when unregistered."""
        with self._lock:
            spec = self._specs.get(name)
        if spec is None:
            known = ", ".join(sorted(self.names())) or "none"
            raise NotFound(f"unknown dataset {name!r} (registered: {known})")
        return spec

    def breaker(self, name: str) -> CircuitBreaker:
        """The circuit breaker guarding ``name`` (created on first use)."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    name, self.breaker_config, clock=self._clock
                )
            return breaker

    def dataset(self, name: str):
        """The materialized dataset (loaded exactly once, double-checked).

        The load runs under the dataset's circuit breaker: a crashing
        loader counts toward opening the circuit, and an open circuit
        answers :class:`~repro.service.errors.CircuitOpen` *without*
        calling the loader at all.
        """
        spec = self.spec(name)
        loaded = self._datasets.get(name)
        if loaded is None:
            with self._dataset_lock(name):
                with self._lock:
                    loaded = self._datasets.get(name)
                if loaded is None:
                    breaker = self.breaker(name)
                    breaker.allow()
                    with self._lock:
                        self._building.add(name)
                    try:
                        if self.faults is not None:
                            self.faults.fail("dataset_load", name)
                        loaded = spec.loader()
                        pending = self._take_pending(name)
                        if pending:
                            loaded.upsert_observations(pending)
                    except BaseException:
                        breaker.record_failure()
                        raise
                    else:
                        breaker.record_success()
                    finally:
                        with self._lock:
                            self._building.discard(name)
                    with self._lock:
                        self._datasets[name] = loaded
        return loaded

    def is_loaded(self, name: str) -> bool:
        """True when the dataset has been materialized already."""
        with self._lock:
            return name in self._datasets

    def loaded_measures(self, name: str) -> list[str]:
        """Measures with a live FBox for ``name``."""
        with self._lock:
            return [measure for (n, measure) in self._fboxes if n == name]

    def fbox(self, name: str, measure: str | None = None) -> ColumnarFBox:
        """The shared FBox for ``(name, measure)``, built exactly once.

        An invalid measure surfaces as :class:`Unprocessable` so the HTTP
        layer answers 422 instead of 500.
        """
        spec = self.spec(name)
        measure = (measure or spec.default_measure).lower()
        key = (name, measure)
        fbox = self._fboxes.get(key)
        if fbox is None:
            dataset = self.dataset(name)
            with self._dataset_lock(name):
                with self._lock:
                    fbox = self._fboxes.get(key)
                if fbox is None:
                    breaker = self.breaker(name)
                    breaker.allow()
                    with self._lock:
                        self._building.add(name)
                    try:
                        if spec.site == "taskrabbit":
                            fbox = ColumnarFBox.for_marketplace(
                                dataset, self.schema, measure=measure
                            )
                        else:
                            fbox = ColumnarFBox.for_search(
                                dataset, self.schema, measure=measure
                            )
                        fbox.bind_segment(self.segments, name, measure)
                    except ServiceError:
                        breaker.record_bypass()
                        raise
                    except ReproError as error:
                        # A semantic problem with *this request* (e.g. an
                        # unknown measure), not evidence the dataset is
                        # sick — never feeds the breaker.
                        breaker.record_bypass()
                        raise Unprocessable(
                            f"cannot build an F-Box for dataset {name!r} with "
                            f"measure {measure!r}: {error}"
                        ) from error
                    except BaseException:
                        breaker.record_failure()
                        raise
                    else:
                        breaker.record_success()
                    finally:
                        with self._lock:
                            self._building.discard(name)
                    with self._lock:
                        self._fboxes[key] = fbox
        return fbox

    def preload(self) -> None:
        """Materialize every dataset and its default-measure FBox eagerly."""
        for name in self.names():
            self.fbox(name)

    def is_building(self, name: str) -> bool:
        """True while a thread is materializing ``name`` (load or build)."""
        with self._lock:
            return name in self._building

    def breaker_states(self) -> dict[str, dict]:
        """Breaker snapshot per registered dataset (closed when untouched)."""
        states = {}
        for name in self.names():
            states[name] = self.breaker(name).snapshot()
        return states

    def health_report(self) -> list[dict]:
        """Per-dataset readiness facts for ``/readyz``."""
        report = []
        for name in self.names():
            breaker = self.breaker(name)
            report.append(
                {
                    "name": name,
                    "loaded": self.is_loaded(name),
                    "building": self.is_building(name),
                    "breaker": breaker.state,
                    "retry_in": breaker.retry_in(),
                }
            )
        return report

    def quarantined(self) -> list[str]:
        """Datasets whose breaker is not closed (open or probing)."""
        return [
            name for name in self.names() if self.breaker(name).state != CLOSED
        ]

    def build_counts(self) -> dict[str, int]:
        """Cumulative cube and index-family builds across all live F-Boxes."""
        with self._lock:
            fboxes = list(self._fboxes.values())
        return {
            "cube_builds": sum(fbox.cube_builds for fbox in fboxes),
            "family_builds": sum(fbox.family_builds for fbox in fboxes),
            "fboxes": len(fboxes),
            "delta_applies": sum(fbox.delta_applies for fbox in fboxes),
            "delta_cells": sum(fbox.cells_recomputed for fbox in fboxes),
            "delta_lists": sum(fbox.lists_rebuilt for fbox in fboxes),
            "segment_attaches": sum(fbox.segment_attaches for fbox in fboxes),
        }

    def describe(self) -> list[dict]:
        """The ``/datasets`` listing: one entry per registered spec."""
        entries = []
        for name in self.names():
            spec = self.spec(name)
            entry = {
                "name": name,
                "site": spec.site,
                "default_measure": spec.default_measure,
                "description": spec.description,
                "loaded": self.is_loaded(name),
                "measures_ready": sorted(self.loaded_measures(name)),
            }
            if spec.scenario:
                entry["scenario"] = spec.scenario
                entry["overrides"] = {
                    key: json.loads(value) for key, value in spec.overrides
                }
            if self.is_loaded(name):
                dataset = self.dataset(name)
                entry["observations"] = len(dataset)
                entry["queries"] = len(dataset.queries)
                entry["locations"] = len(dataset.locations)
            entries.append(entry)
        return entries


def default_registry(
    seed: int | None = None,
    scope: str = "small",
    taskrabbit_path: str | None = None,
    google_path: str | None = None,
    breaker_config: BreakerConfig | None = None,
    faults: FaultInjector | None = None,
) -> DatasetRegistry:
    """The registry ``repro serve`` boots with: one TaskRabbit, one Google.

    ``scope="small"`` crawls six cities (fast boots, smoke tests);
    ``scope="full"`` runs the paper-scale category crawl and full study
    design.  A JSONL path replaces simulation for that dataset.
    """
    from ..experiments.datasets import (
        DEFAULT_SEED,
        build_google_dataset,
        build_taskrabbit_dataset,
    )

    if scope not in ("small", "full"):
        raise ReproError(f"scope must be 'small' or 'full', got {scope!r}")
    seed = DEFAULT_SEED if seed is None else seed
    cities = SMALL_CITIES if scope == "small" else None
    design = "paper" if scope == "small" else "full"

    if taskrabbit_path:
        taskrabbit_loader = lambda: load_marketplace_dataset(taskrabbit_path)
        taskrabbit_description = f"loaded from {taskrabbit_path}"
    else:
        taskrabbit_loader = lambda: build_taskrabbit_dataset(seed=seed, cities=cities)
        taskrabbit_description = f"simulated crawl (seed={seed}, scope={scope})"
    if google_path:
        google_loader = lambda: load_search_dataset(google_path)
        google_description = f"loaded from {google_path}"
    else:
        google_loader = lambda: build_google_dataset(seed=seed, design=design)
        google_description = f"simulated study (seed={seed}, design={design})"

    registry = DatasetRegistry(breaker_config=breaker_config, faults=faults)
    registry.register(
        DatasetSpec(
            name="taskrabbit",
            site="taskrabbit",
            loader=taskrabbit_loader,
            description=taskrabbit_description,
        )
    )
    registry.register(
        DatasetSpec(
            name="google",
            site="google",
            loader=google_loader,
            description=google_description,
        )
    )
    return registry
