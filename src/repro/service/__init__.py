"""The F-Box query service: a long-lived, concurrent fairness-query server.

The paper frames the F-Box (Figures 6 and 9) as a reusable component that
answers quantification and comparison queries on demand.  This package turns
the one-shot CLI into that component: a stdlib-only HTTP JSON API that

* loads or synthesizes each dataset **once** and shares columnar F-Boxes
  (:class:`~repro.core.colstore.ColumnarFBox`, published in shared memory)
  across requests (:mod:`repro.service.registry`),
* caches hot query results in a thread-safe LRU (:mod:`repro.service.cache`),
* records per-endpoint latency histograms, in-flight gauges, and cumulative
  index-access counts (:mod:`repro.service.observability`), and
* maps invalid inputs to structured 4xx JSON errors rather than stack traces
  (:mod:`repro.service.handlers`, :mod:`repro.service.server`),
* stays up under stress: bounded admission with fast 429 shedding, a
  per-dataset circuit breaker around loads/builds, and opt-in degraded
  (stale last-known-good) answers (:mod:`repro.service.resilience`), all
  exercised by deterministic chaos via :mod:`repro.service.faults`.

Start it with ``repro serve`` or programmatically::

    from repro.service import make_server
    server = make_server(port=0)          # ephemeral port
    server.serve_forever()
"""

from __future__ import annotations

from .app import FBoxApp, Request, Response, make_app
from .cache import LRUCache
from .encoding import (
    canonical_key,
    encode_comparison,
    encode_explanation,
    encode_topk,
    parse_member,
)
from .faults import FaultInjector, FaultRule, InjectedFault, faults_from_env
from .observability import ServiceMetrics
from .registry import DatasetRegistry, DatasetSpec, default_registry
from .resilience import AdmissionController, BreakerConfig, CircuitBreaker

# The transport stack (repro.service.server and repro.service.transports)
# is resolved lazily: importing the application layer — or any module it
# depends on — must never pull in http.server or asyncio streams.  The
# layering test asserts exactly that.
_SERVER_EXPORTS = ("FBoxHTTPServer", "make_server", "serve")


def __getattr__(name: str):
    if name in _SERVER_EXPORTS:
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FBoxApp",
    "Request",
    "Response",
    "make_app",
    "LRUCache",
    "ServiceMetrics",
    "DatasetRegistry",
    "DatasetSpec",
    "default_registry",
    "FBoxHTTPServer",
    "make_server",
    "serve",
    "canonical_key",
    "encode_topk",
    "encode_comparison",
    "encode_explanation",
    "parse_member",
    "AdmissionController",
    "BreakerConfig",
    "CircuitBreaker",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "faults_from_env",
]
