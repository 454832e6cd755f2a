"""Deterministic fault injection for chaos-testing the service.

Every resilience behavior — breaker trips, shed requests, degraded stale
answers — is exercised by *reproducible* chaos rather than prayer: a
:class:`FaultInjector` holds an ordered list of :class:`FaultRule` entries
and one seeded :class:`random.Random`, so with a fixed seed and a fixed call
sequence the exact same faults fire in the exact same order on every run.

Injection sites (the strings the service passes to :meth:`FaultInjector.fail`
/ :meth:`FaultInjector.delay`):

``dataset_load``
    Checked by :class:`~repro.service.registry.DatasetRegistry` immediately
    before a dataset loader runs; a firing rule raises :class:`InjectedFault`
    as if the load itself crashed (this is what trips circuit breakers).
``handler``
    Checked by the HTTP layer before dispatching a POST handler; a firing
    rule raises :class:`InjectedFault`, surfacing as a 500.
``latency``
    Checked by the HTTP layer inside the request deadline; a firing rule
    sleeps ``latency`` seconds and/or burns ``busy`` seconds of CPU (the
    spin *contends* for the GIL, which is how overload benchmarks create
    realistic queueing without real datasets).  Shard workers also check
    it with the target ``status`` before answering the router's status
    poll (the worker-truth half of ``/datasets``, ``/readyz`` and
    ``/metrics``), which is how a test stalls a worker's status reply.
    Only a rule whose ``match`` is literally ``"status"`` fires there: a
    catch-all glob such as ``"*"`` keeps meaning every request path, and
    its skip/times/probability counts see no status polls.
``worker_exit``
    Checked by shard worker processes (:mod:`repro.service.shard_worker`)
    right before dispatching a request; a firing rule makes the worker
    ``os._exit`` mid-request — the front-end sees the connection die, which
    is how shard-crash chaos tests script a worker kill deterministically.
    Ignored by the in-process (``--shards 0``) execution path.  Besides
    request paths, workers also check this site around live-resize state
    migration with the targets ``/admin/export:<dataset>`` and
    ``/admin/import:<dataset>`` — matching rules kill the *source* or the
    *destination* worker mid-migration, the two chaos arcs a resize must
    survive.  (Respawned workers deduct the parent's observed crash count
    from every ``worker_exit`` rule, so scripts use one rule per kill.)

Configuration is either programmatic (tests build injectors directly) or via
the ``FBOX_FAULTS`` environment variable holding JSON::

    FBOX_FAULTS='{"seed": 7, "rules": [
        {"site": "dataset_load", "match": "google", "times": 2},
        {"site": "latency", "match": "/quantify", "skip": 1, "latency": 5.0}
    ]}'
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from random import Random
from threading import Lock

__all__ = [
    "FaultRule",
    "FaultInjector",
    "InjectedFault",
    "FAULTS_ENV_VAR",
    "faults_from_env",
]

FAULTS_ENV_VAR = "FBOX_FAULTS"

_SITES = ("dataset_load", "handler", "latency", "worker_exit")


class InjectedFault(RuntimeError):
    """An artificial failure raised by a firing fault rule.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: injected
    load/handler crashes must look like unexpected infrastructure failures
    (500s, breaker food), not like validation errors the service maps to
    4xx responses.
    """


@dataclass(frozen=True)
class FaultRule:
    """One injection rule.

    Parameters
    ----------
    site:
        Which injection point this rule watches (see the module docstring).
    match:
        Glob matched against the call's target — a dataset name for
        ``dataset_load``, an endpoint path for ``handler``/``latency``.
    probability:
        Chance a matching call fires, drawn from the injector's seeded RNG
        (1.0 = always, the deterministic default).
    times:
        Maximum number of firings (``None`` = unlimited); after that the
        rule goes inert, which is how "fails twice then recovers" scenarios
        are scripted.
    skip:
        Number of matching calls to leave unaffected before the rule arms —
        lets a scenario warm a cache with call one and fault call two.
    latency:
        Seconds to sleep when a ``latency`` rule fires.
    busy:
        Seconds of CPU to burn (GIL-contending spin) when a ``latency``
        rule fires.
    message:
        Text of the raised :class:`InjectedFault`.
    """

    site: str
    match: str = "*"
    probability: float = 1.0
    times: int | None = None
    skip: int = 0
    latency: float = 0.0
    busy: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.site not in _SITES:
            raise ValueError(f"fault site must be one of {_SITES}, got {self.site!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.skip < 0:
            raise ValueError(f"skip must be >= 0, got {self.skip}")
        if self.times is not None and self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times}")


class FaultInjector:
    """Seeded, counter-tracking evaluator of :class:`FaultRule` lists.

    Thread-safe; rule decisions (skip counters, firing caps, probability
    draws) happen under one lock so a fixed seed plus a deterministic call
    sequence reproduces the exact same fault sequence.  Sleeps and spins
    happen *outside* the lock so latency injection never serializes the
    server.
    """

    def __init__(
        self,
        rules: list[FaultRule] | tuple[FaultRule, ...] = (),
        seed: int = 0,
        sleeper=time.sleep,
    ) -> None:
        self.rules = tuple(rules)
        self.seed = seed
        self._rng = Random(seed)
        self._sleeper = sleeper
        self._lock = Lock()
        self._matched = [0] * len(self.rules)
        self._fired = [0] * len(self.rules)

    # ------------------------------------------------------------------
    # Decision core
    # ------------------------------------------------------------------

    def _firing_rules(self, site: str, target: str, exact=False) -> list[FaultRule]:
        """All rules that fire for this call (counters advance under lock)."""
        firing: list[FaultRule] = []
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.site != site or not (
                    rule.match == target if exact else fnmatchcase(target, rule.match)
                ):
                    continue
                self._matched[index] += 1
                if self._matched[index] <= rule.skip:
                    continue
                if rule.times is not None and self._fired[index] >= rule.times:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                self._fired[index] += 1
                firing.append(rule)
        return firing

    # ------------------------------------------------------------------
    # Injection points
    # ------------------------------------------------------------------

    def fail(self, site: str, target: str) -> None:
        """Raise :class:`InjectedFault` when a failure rule fires for ``target``."""
        for rule in self._firing_rules(site, target):
            raise InjectedFault(
                f"{rule.message} (site={site}, target={target})"
            )

    def delay(self, target: str, exact: bool = False) -> None:
        """Apply any firing ``latency`` rule: sleep and/or burn CPU
        (``exact``: only rules naming ``target`` literally match)."""
        for rule in self._firing_rules("latency", target, exact):
            if rule.latency > 0:
                self._sleeper(rule.latency)
            if rule.busy > 0:
                _burn_cpu(rule.busy)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Per-rule matched/fired counters (for /metrics and assertions)."""
        with self._lock:
            return [
                {
                    "site": rule.site,
                    "match": rule.match,
                    "matched": matched,
                    "fired": fired,
                }
                for rule, matched, fired in zip(self.rules, self._matched, self._fired)
            ]

    def fired_total(self) -> int:
        """How many faults have fired across every rule."""
        with self._lock:
            return sum(self._fired)


def _burn_cpu(seconds: float) -> None:
    """Burn ``seconds`` of *this thread's CPU time* — contends the GIL.

    The deadline is thread-CPU time, not wall clock, so N concurrent
    burners really do demand N × ``seconds`` of interpreter time and
    serialize through the GIL — exactly the saturation an admission
    controller exists to manage.  A wall-clock deadline would let every
    burner finish ``seconds`` after it started no matter the load,
    modeling sleep, not work.
    """
    deadline = time.thread_time() + seconds
    value = 0
    while time.thread_time() < deadline:
        value = (value + 1) % 1_000_003



def faults_from_env(environ: dict | None = None) -> FaultInjector | None:
    """Build an injector from ``FBOX_FAULTS`` (None when unset).

    The value is JSON: ``{"seed": int, "rules": [{rule fields...}]}``.
    A malformed value raises immediately — a chaos run with silently
    ignored faults would "pass" without testing anything.
    """
    environ = environ if environ is not None else os.environ
    raw = environ.get(FAULTS_ENV_VAR)
    if not raw:
        return None
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ValueError(f"{FAULTS_ENV_VAR} is not valid JSON: {error}") from None
    if not isinstance(spec, dict):
        raise ValueError(f"{FAULTS_ENV_VAR} must be a JSON object")
    rules = [FaultRule(**rule) for rule in spec.get("rules", [])]
    return FaultInjector(rules=rules, seed=int(spec.get("seed", 0)))
