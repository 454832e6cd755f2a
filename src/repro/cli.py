"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands
--------
``generate``   build and save a dataset (TaskRabbit crawl or Google study)
``quantify``   Problem 1: top/bottom-k groups, queries, or locations
``compare``    Problem 2: breakdown members whose ordering reverses
``reproduce``  regenerate one of the paper's tables/figures by name
``toy``        print the paper's worked examples (Figures 1–5)
``batch``      answer a JSON file of sub-requests with shared index sweeps
``serve``      run the long-lived F-Box query service (HTTP JSON API)
``simulate``   stream live observation batches from a simulator (JSONL)
``ingest``     POST observation batches to a running service's /v1/observations
``whatif``     hypothetically re-rank one cell with a fairness intervention
``loadgen``    replay a seeded traffic mix against a running service

``quantify`` and ``compare`` accept ``--json`` to emit the same documents
the service returns (shared encoder: :mod:`repro.service.encoding`).

``generate`` and ``simulate`` accept ``--scenario NAME [--override k=v]``
as an alternative to the positional site: the named preset from
:mod:`repro.scenarios` fixes every generation knob (population, catalogs,
demographic mix, bias intensities, seed) so the artifact is reproducible
from its name alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .core.attributes import default_schema
from .core.fbox import FBox
from .core.measures.base import available_measures, default_measure_for_site
from .data.io import (
    load_marketplace_dataset,
    load_search_dataset,
    save_marketplace_dataset,
    save_search_dataset,
)
from .exceptions import ReproError
from .experiments import report as report_mod
from .experiments.datasets import (
    DEFAULT_SEED,
    build_google_dataset,
    build_taskrabbit_dataset,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fairness in online jobs: quantification and comparison (EDBT 2020 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="build and save a dataset")
    generate.add_argument(
        "site", nargs="?", choices=["taskrabbit", "google"],
        help="site to simulate (omit when --scenario names a preset)",
    )
    generate.add_argument("output", help="output JSONL path")
    generate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    generate.add_argument(
        "--level", choices=["category", "job"], default="category",
        help="TaskRabbit crawl granularity",
    )
    generate.add_argument(
        "--design", choices=["paper", "full"], default="full",
        help="Google study design",
    )
    _add_scenario_arguments(generate)

    quantify = subparsers.add_parser("quantify", help="Problem 1: top/bottom-k")
    _add_dataset_arguments(quantify)
    quantify.add_argument("dimension", choices=["group", "query", "location"])
    quantify.add_argument("-k", type=int, default=5)
    quantify.add_argument("--order", choices=["most", "least"], default="most")
    quantify.add_argument("--algorithm", choices=["fagin", "naive"], default="fagin")
    quantify.add_argument(
        "--json", action="store_true", help="emit the service's JSON document"
    )

    compare = subparsers.add_parser("compare", help="Problem 2: reversal breakdown")
    _add_dataset_arguments(compare)
    compare.add_argument("dimension", choices=["group", "query", "location"])
    compare.add_argument("r1", help="first member (group label as g=v,...; else literal)")
    compare.add_argument("r2", help="second member")
    compare.add_argument("breakdown", choices=["group", "query", "location"])
    compare.add_argument(
        "--json", action="store_true", help="emit the service's JSON document"
    )

    explain = subparsers.add_parser(
        "explain", help="decompose one unfairness value into contributions"
    )
    _add_dataset_arguments(explain)
    explain.add_argument("group", help="group label as attr=value[,attr=value]")
    explain.add_argument("query")
    explain.add_argument("location")

    whatif = subparsers.add_parser(
        "whatif",
        help="hypothetically re-rank one cell with a fairness intervention",
    )
    _add_dataset_arguments(whatif)
    whatif.add_argument("group", help="group label as attr=value[,attr=value]")
    whatif.add_argument("query")
    whatif.add_argument("location")
    whatif.add_argument(
        "--intervention", default="fair",
        help="registered re-ranker (see GET /v1/schema), e.g. fair|exposure_lp",
    )
    whatif.add_argument(
        "--alpha", type=float, default=None, help="FA*IR significance level"
    )
    whatif.add_argument(
        "--p", type=float, default=None,
        help="FA*IR null-hypothesis protected probability",
    )
    whatif.add_argument(
        "--url", default=None,
        help="POST to a running service instead of computing locally",
    )
    whatif.add_argument(
        "--json", action="store_true", help="emit the service's JSON document"
    )

    toy = subparsers.add_parser("toy", help="print the paper's worked examples")
    del toy  # no extra arguments

    reproduce = subparsers.add_parser("reproduce", help="regenerate a paper table")
    reproduce.add_argument(
        "target",
        help="table8|table9|table10|table11|google-groups|google-locations|google-queries",
    )
    reproduce.add_argument("--measure", default=None)
    reproduce.add_argument("--seed", type=int, default=DEFAULT_SEED)

    batch = subparsers.add_parser(
        "batch",
        help="answer a file of quantify/compare/explain requests in one run",
    )
    batch.add_argument(
        "requests",
        help='JSON file holding an array of sub-requests (or {"requests": [...]}); '
        'each item needs an "op" of quantify|compare|explain',
    )
    batch.add_argument(
        "--url", default=None,
        help="POST to a running service's /batch instead of computing locally",
    )
    batch.add_argument("--seed", type=int, default=DEFAULT_SEED)
    batch.add_argument(
        "--scope", choices=["small", "full"], default="small",
        help="dataset scope for local (no --url) execution",
    )
    batch.add_argument(
        "--taskrabbit-data", default=None,
        help="saved JSONL marketplace dataset for local execution",
    )
    batch.add_argument(
        "--google-data", default=None,
        help="saved JSONL search dataset for local execution",
    )

    serve = subparsers.add_parser(
        "serve", help="run the F-Box query service (HTTP JSON API)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--seed", type=int, default=DEFAULT_SEED)
    serve.add_argument(
        "--scope", choices=["small", "full"], default="small",
        help="small = six-city crawl / paper study design (fast boot); "
        "full = paper-scale simulation",
    )
    serve.add_argument(
        "--taskrabbit-data", default=None,
        help="saved JSONL marketplace dataset to serve instead of simulating",
    )
    serve.add_argument(
        "--google-data", default=None,
        help="saved JSONL search dataset to serve instead of simulating",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256,
        help="result-cache capacity (0 disables caching)",
    )
    serve.add_argument(
        "--cache-ttl", type=float, default=0.0,
        help="result-cache max age in seconds (0 = entries never expire)",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request deadline in seconds (0 disables)",
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=8,
        help="admission cap: POST queries executing at once (0 disables shedding)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="admission queue: requests allowed to wait for a slot; beyond "
        "this they are shed with 429 + Retry-After",
    )
    serve.add_argument(
        "--breaker-failures", type=int, default=3,
        help="consecutive load/build failures before a dataset's circuit opens",
    )
    serve.add_argument(
        "--breaker-reset", type=float, default=30.0,
        help="seconds an open circuit waits before its half-open probe",
    )
    serve.add_argument(
        "--preload", action="store_true",
        help="materialize datasets in the background; /readyz answers 503 "
        "until every one is built",
    )
    serve.add_argument(
        "--executor-workers", type=int, default=0,
        help="threads in the CPU executor behind the event loop "
        "(0 = match --max-concurrency)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds SIGTERM waits for admitted/queued requests to finish "
        "before the listener stops",
    )
    serve.add_argument(
        "--shards", type=int, default=0,
        help="worker processes owning dataset shards (0 = execute in-process); "
        "each dataset is pinned to one shard by consistent hashing",
    )
    serve.add_argument(
        "--alert-threshold", type=float, default=0.0,
        help="fairness-alert threshold: ingested cube cells at or above this "
        "unfairness count into fbox_fairness_alerts_total (0 disables)",
    )
    serve.add_argument(
        "--admin-token", default=None,
        help="arm the admin API (POST /v1/admin/shards): requests must carry "
        "this token in X-Admin-Token or Authorization: Bearer; unset leaves "
        "the endpoint open (local development)",
    )

    simulate = subparsers.add_parser(
        "simulate",
        help="stream live observation batches from a simulator (JSONL)",
    )
    simulate.add_argument(
        "site", nargs="?", choices=["taskrabbit", "google"],
        help="site to simulate (omit when --scenario names a preset)",
    )
    simulate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    simulate.add_argument(
        "--scope", choices=["small", "full"], default="small",
        help="must match the serving registry's scope so rankings reference "
        "known workers/users",
    )
    simulate.add_argument(
        "--stream", action="store_true",
        help="emit JSONL ingest batches on stdout (one batch per line, "
        "ready for 'repro ingest')",
    )
    simulate.add_argument("--batches", type=int, default=1)
    simulate.add_argument("--batch-size", type=int, default=8)
    simulate.add_argument(
        "--swaps", type=int, default=2,
        help="seeded adjacent transpositions per ranking (the drift between crawls)",
    )
    simulate.add_argument(
        "--dataset-name", default=None,
        help="dataset name stamped on each batch (defaults to the site name)",
    )
    _add_scenario_arguments(simulate)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="replay a seeded traffic mix against a running service",
    )
    loadgen.add_argument("url", help="service base URL, e.g. http://127.0.0.1:8080")
    loadgen.add_argument(
        "--dataset", default="taskrabbit",
        help="registered dataset name the operations target",
    )
    loadgen.add_argument(
        "--scenario", default="paper_taskrabbit",
        help="scenario preset the payload corpus is drawn from (must match "
        "what the target dataset serves)",
    )
    loadgen.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="scenario field override (repeatable)",
    )
    loadgen.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed = N workers in lockstep request loops; open = seeded "
        "Poisson arrivals at --rate (latency measured from the scheduled "
        "arrival, so queueing delay is not hidden)",
    )
    loadgen.add_argument("--workers", type=int, default=4)
    loadgen.add_argument("--requests", type=int, default=200)
    loadgen.add_argument(
        "--rate", type=float, default=50.0,
        help="open-loop target arrival rate (requests/second)",
    )
    loadgen.add_argument(
        "--warmup", type=int, default=0,
        help="leading requests excluded from the latency report",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--mix", default=None,
        help='operation mix as "op=weight,..." over '
        "quantify|compare|batch|whatif|observations "
        "(default 45/20/15/10/10)",
    )
    loadgen.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request client timeout in seconds",
    )
    loadgen.add_argument(
        "--quick", action="store_true",
        help="CI smoke settings: 40 requests, 2 workers, 8 warmup",
    )
    loadgen.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    ingest = subparsers.add_parser(
        "ingest",
        help="POST observation batches (JSONL) to a running service",
    )
    ingest.add_argument("url", help="service base URL, e.g. http://127.0.0.1:8080")
    ingest.add_argument(
        "batches",
        help="JSONL file of ingest batches ('-' reads stdin); each line is "
        '{"dataset": ..., "batch_id": ..., "observations": [...]} or a bare '
        "observation array (then --dataset names the target)",
    )
    ingest.add_argument(
        "--dataset", default=None,
        help="dataset name for bare-array lines",
    )
    return parser


def _add_scenario_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--scenario", default=None,
        help="named scenario preset (see repro.scenarios / GET /v1/scenarios)",
    )
    sub.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="scenario field override, e.g. seed=11 or "
        '"cities=Boston, MA;Chicago, IL" (repeatable)',
    )


def _parse_override_pairs(pairs: list[str]) -> dict:
    """``KEY=VALUE`` strings → an override mapping for ``with_overrides``."""
    overrides = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise ReproError(f"override {pair!r} is not KEY=VALUE")
        overrides[key.strip()] = value
    return overrides


def _scenario_config(args):
    """Resolve ``--scenario``/``--override`` into a ScenarioConfig."""
    from .scenarios import get_scenario

    config = get_scenario(args.scenario)
    overrides = _parse_override_pairs(args.override)
    return config.with_overrides(overrides) if overrides else config


def _add_dataset_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("site", choices=["taskrabbit", "google"])
    sub.add_argument(
        "--dataset", default=None, help="load a saved JSONL dataset instead of simulating"
    )
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument(
        "--measure", default=None,
        help="|".join(available_measures())
        + " (defaults to the site's registered default)",
    )


def _parse_member(dimension: str, text: str):
    from .service.encoding import parse_member

    return parse_member(dimension, text)


def _load_fbox(args) -> FBox:
    schema = default_schema()
    measure = args.measure or default_measure_for_site(args.site)
    if args.site == "taskrabbit":
        if args.dataset:
            dataset = load_marketplace_dataset(args.dataset)
        else:
            dataset = build_taskrabbit_dataset(seed=args.seed)
        return FBox.for_marketplace(dataset, schema, measure=measure)
    if args.dataset:
        dataset = load_search_dataset(args.dataset)
    else:
        dataset = build_google_dataset(seed=args.seed)
    return FBox.for_search(dataset, schema, measure=measure)


def _command_generate(args) -> int:
    if args.scenario:
        from .scenarios import build_scenario

        config = _scenario_config(args)
        dataset = build_scenario(config)
        if config.site == "taskrabbit":
            save_marketplace_dataset(dataset, args.output)
            detail = f"{len(dataset.workers)} workers"
        else:
            save_search_dataset(dataset, args.output)
            detail = f"{len(dataset.users)} users"
        print(
            f"wrote {len(dataset)} observations ({detail}) to {args.output} "
            f"[scenario {config.name}, seed {config.seed}]"
        )
        return 0
    if not args.site:
        raise ReproError("generate needs a site argument or --scenario NAME")
    if args.site == "taskrabbit":
        dataset = build_taskrabbit_dataset(seed=args.seed, level=args.level)
        save_marketplace_dataset(dataset, args.output)
        print(f"wrote {len(dataset)} observations ({len(dataset.workers)} workers) to {args.output}")
    else:
        dataset = build_google_dataset(seed=args.seed, design=args.design)
        save_search_dataset(dataset, args.output)
        print(f"wrote {len(dataset)} observations ({len(dataset.users)} users) to {args.output}")
    return 0


def _command_quantify(args) -> int:
    fbox = _load_fbox(args)
    result = fbox.quantify(args.dimension, k=args.k, order=args.order, algorithm=args.algorithm)
    if args.json:
        from .service.encoding import encode_topk

        document = encode_topk(result, args.dimension)
        document.update(dataset=args.site, k=args.k, algorithm=args.algorithm)
        print(json.dumps(document, sort_keys=True, indent=2))
        return 0
    title = f"{args.order}-unfair {args.dimension}s (k={args.k}, {args.algorithm})"
    rows = [(str(key), value) for key, value in result.entries]
    print(report_mod.render_table(title, (args.dimension, "unfairness"), rows))
    if result.stats.sorted_accesses or result.stats.random_accesses:
        print(
            f"\nsorted accesses: {result.stats.sorted_accesses}  "
            f"random accesses: {result.stats.random_accesses}  "
            f"rounds: {result.rounds}  early stop: {result.early_stopped}"
        )
    return 0


def _command_compare(args) -> int:
    fbox = _load_fbox(args)
    r1 = _parse_member(args.dimension, args.r1)
    r2 = _parse_member(args.dimension, args.r2)
    result = fbox.compare(args.dimension, r1, r2, args.breakdown)
    if args.json:
        from .service.encoding import encode_comparison

        document = encode_comparison(result)
        document.update(dataset=args.site)
        print(json.dumps(document, sort_keys=True, indent=2))
        return 0
    print(
        report_mod.render_comparison(
            f"{args.r1} vs {args.r2} by {args.breakdown}", result
        )
    )
    return 0


def _command_whatif(args) -> int:
    if args.url:
        from .client import FBoxClient

        params = {}
        if args.alpha is not None:
            params["alpha"] = args.alpha
        if args.p is not None:
            params["p"] = args.p
        with FBoxClient(args.url) as client:
            document = client.whatif(
                args.site, args.group, args.query, args.location,
                args.intervention, **params,
            )
    else:
        from .service.encoding import encode_whatif

        fbox = _load_fbox(args)
        group = _parse_member("group", args.group)
        result = fbox.whatif(
            group, args.query, args.location, args.intervention,
            alpha=args.alpha, p=args.p,
        )
        document = encode_whatif(result)
        document.update(
            dataset=args.site, group=str(group),
            query=args.query, location=args.location,
        )
    if args.json:
        print(json.dumps(document, sort_keys=True, indent=2))
        return 0
    print(
        f"{document['intervention']} on {document['group']} at "
        f"({document['query']!r}, {document['location']!r}): "
        f"{document['moved']} of {len(document['original'])} workers moved"
    )
    rows = [
        (name, entry["before"], entry["after"], entry["delta"])
        for name, entry in sorted(document["measures"].items())
    ]
    print(
        report_mod.render_table(
            "Per-measure fairness delta (negative = less unfair)",
            ("measure", "before", "after", "delta"),
            rows,
        )
    )
    return 0


def _command_explain(args) -> int:
    from .core.explain import explain_cell

    fbox = _load_fbox(args)
    group = _parse_member("group", args.group)
    explanation = explain_cell(fbox.engine, group, args.query, args.location)
    print(explanation.narrative())
    print()
    rows = [
        (
            str(contribution.comparable),
            contribution.distance,
            f"{contribution.group_size} vs {contribution.comparable_size}",
        )
        for contribution in explanation.contributions
    ]
    print(
        report_mod.render_table(
            "Per-comparable-group contributions",
            ("comparable group", "distance", "members"),
            rows,
        )
    )
    return 0


def _command_toy(args) -> int:
    from .experiments import toy

    print(f"Figure 1 (illustrative Kendall average): {toy.figure1_unfairness():.2f}")
    print(f"Figure 1 (measured on Table 1 data):     {toy.figure1_measured():.3f}")
    print(f"Figure 2 (illustrative EMD average):     {toy.figure2_unfairness():.2f}")
    print(f"Figure 3 (illustrative Jaccard average): {toy.figure3_partial_unfairness():.2f}")
    print(f"Figure 3 (measured on Table 1 data):     {toy.figure3_measured():.3f}")
    print(f"Figure 4 (illustrative EMD average):     {toy.figure4_unfairness():.2f}")
    fig5 = toy.figure5_exposure()
    print(
        "Figure 5 (exact): exposure "
        f"{fig5.group_exposure:.2f}/{fig5.group_exposure + fig5.comparable_exposure:.2f}"
        f" = {fig5.exposure_share:.2f}, relevance "
        f"{fig5.group_relevance:.2f}/{fig5.group_relevance + fig5.comparable_relevance:.2f}"
        f" = {fig5.relevance_share:.2f}, unfairness {fig5.unfairness:.3f}"
    )
    return 0


def _command_reproduce(args) -> int:
    from .experiments import quantification as quant

    target = args.target.lower()
    seed = args.seed
    if target in ("table8", "table9", "table10", "table11"):
        measure = args.measure or "emd"
        producer = {
            "table8": quant.table8_group_ranking,
            "table9": quant.table9_job_ranking,
            "table10": quant.table10_unfairest_locations,
            "table11": quant.table11_fairest_locations,
        }[target]
        rows = producer(measure=measure, seed=seed)
        label = {"table8": "group", "table9": "job", "table10": "city", "table11": "city"}[target]
    elif target in ("google-groups", "google-locations", "google-queries"):
        measure = args.measure or "kendall"
        producer = {
            "google-groups": quant.google_group_ranking,
            "google-locations": quant.google_location_ranking,
            "google-queries": quant.google_query_ranking,
        }[target]
        rows = producer(measure=measure, seed=seed)
        label = {"groups": "group", "locations": "location", "queries": "query"}[
            target.split("-")[1]
        ]
    else:
        raise ReproError(f"unknown reproduction target {args.target!r}")
    print(
        report_mod.render_table(
            f"{args.target} ({measure}, seed={seed})",
            (label, "unfairness"),
            [(row.member, row.value) for row in rows],
        )
    )
    return 0


def _command_batch(args) -> int:
    """Run a file of sub-requests through the batch planner, print the envelope.

    Exit code 1 only when *every* sub-request failed (a fully wasted run);
    partial failures exit 0 — item errors are data, reported in the
    envelope and counted on stderr — so audit pipelines keep the answers
    they did get.
    """
    with open(args.requests, encoding="utf-8") as handle:
        payload = json.load(handle)

    if args.url:
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            args.url.rstrip("/") + "/v1/batch",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as response:
                document = json.loads(response.read())
        except urllib.error.HTTPError as error:
            print(error.read().decode("utf-8", "replace"), file=sys.stderr)
            print(f"error: POST /v1/batch answered {error.code}", file=sys.stderr)
            return 1
    else:
        from .service.cache import LRUCache
        from .service.handlers import ServiceContext, handle_batch
        from .service.observability import ServiceMetrics
        from .service.registry import default_registry

        registry = default_registry(
            seed=args.seed,
            scope=args.scope,
            taskrabbit_path=args.taskrabbit_data,
            google_path=args.google_data,
        )
        context = ServiceContext(
            registry=registry, cache=LRUCache(256), metrics=ServiceMetrics()
        )
        try:
            document = handle_batch(context, payload)
        finally:
            registry.close()  # unlink the F-Boxes' /dev/shm segments

    print(json.dumps(document, sort_keys=True, indent=2))
    failed = document.get("failed", 0)
    count = document.get("count", 0)
    if failed:
        print(f"{failed} of {count} sub-requests failed", file=sys.stderr)
    return 1 if count and failed == count else 0


def _command_serve(args) -> int:
    from .service.faults import faults_from_env
    from .service.registry import default_registry
    from .service.resilience import BreakerConfig
    from .service.server import serve

    registry = default_registry(
        seed=args.seed,
        scope=args.scope,
        taskrabbit_path=args.taskrabbit_data,
        google_path=args.google_data,
        breaker_config=BreakerConfig(
            failure_threshold=args.breaker_failures,
            reset_timeout=args.breaker_reset,
        ),
        faults=faults_from_env(),
    )
    return serve(
        registry=registry,
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        cache_ttl=args.cache_ttl if args.cache_ttl > 0 else None,
        request_timeout=args.timeout if args.timeout > 0 else None,
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        preload=args.preload,
        executor_workers=args.executor_workers or None,
        drain_grace=args.drain_grace,
        shards=args.shards,
        alert_threshold=args.alert_threshold if args.alert_threshold > 0 else None,
        admin_token=args.admin_token,
    )


def _command_simulate(args) -> int:
    """Stream simulator batches shaped for ``POST /v1/observations``."""
    from .experiments.datasets import (
        build_google_dataset,
        build_taskrabbit_dataset,
        build_taskrabbit_site,
    )
    from .service.registry import SMALL_CITIES

    if args.scenario:
        from .scenarios import build_scenario, build_scenario_site

        config = _scenario_config(args)
        name = args.dataset_name or config.name
        dataset = build_scenario(config)
        if config.site == "taskrabbit":
            from .marketplace.crawl import emit_observations

            stream = emit_observations(
                build_scenario_site(config),
                dataset,
                batches=args.batches,
                batch_size=args.batch_size,
                seed=config.seed,
                swaps=args.swaps,
            )
        else:
            from .searchengine.study import emit_observations

            stream = emit_observations(
                dataset,
                batches=args.batches,
                batch_size=args.batch_size,
                seed=config.seed,
                swaps=args.swaps,
            )
        if not args.stream:
            print(
                f"{config.name} ({config.site}): {len(dataset)} observations "
                f"over {len(dataset.queries)} queries × "
                f"{len(dataset.locations)} locations; --stream emits "
                f"{args.batches} batches of {args.batch_size}"
            )
            return 0
        for position, batch in enumerate(stream):
            line = {
                "dataset": name,
                "batch_id": f"sim-{config.name}-{config.seed}-{position}",
                "observations": batch,
            }
            print(json.dumps(line, sort_keys=True))
        return 0
    if not args.site:
        raise ReproError("simulate needs a site argument or --scenario NAME")
    name = args.dataset_name or args.site
    if args.site == "taskrabbit":
        from .marketplace.crawl import emit_observations

        cities = SMALL_CITIES if args.scope == "small" else None
        dataset = build_taskrabbit_dataset(seed=args.seed, cities=cities)
        stream = emit_observations(
            build_taskrabbit_site(args.seed),
            dataset,
            batches=args.batches,
            batch_size=args.batch_size,
            seed=args.seed,
            swaps=args.swaps,
        )
    else:
        from .searchengine.study import emit_observations

        design = "paper" if args.scope == "small" else "full"
        dataset = build_google_dataset(seed=args.seed, design=design)
        stream = emit_observations(
            dataset,
            batches=args.batches,
            batch_size=args.batch_size,
            seed=args.seed,
            swaps=args.swaps,
        )
    if not args.stream:
        print(
            f"{args.site}: {len(dataset)} observations over "
            f"{len(dataset.queries)} queries × {len(dataset.locations)} "
            f"locations; --stream emits {args.batches} batches of "
            f"{args.batch_size}"
        )
        return 0
    for position, batch in enumerate(stream):
        line = {
            "dataset": name,
            "batch_id": f"sim-{args.site}-{args.seed}-{position}",
            "observations": batch,
        }
        print(json.dumps(line, sort_keys=True))
    return 0


def _command_loadgen(args) -> int:
    """Replay a seeded traffic mix against a running service, print a report.

    Exit code 1 when any *hard* failure occurred (non-backpressure client
    error, transport failure, or shed requests that exhausted retries) —
    429/503 answers that eventually succeeded are backpressure working as
    designed and do not fail the run.  This is the contract the smoke
    harness and CI gate rely on.
    """
    from .scenarios import format_report, run_loadgen

    config = _scenario_config(args)
    requests = args.requests
    workers = args.workers
    warmup = args.warmup
    if args.quick:
        requests, workers, warmup = 40, 2, 8
    mix = None
    if args.mix:
        mix = {}
        for pair in args.mix.split(","):
            op, separator, weight = pair.partition("=")
            if not separator:
                raise ReproError(f"mix entry {pair!r} is not op=weight")
            try:
                mix[op.strip()] = float(weight)
            except ValueError:
                raise ReproError(f"mix weight {weight!r} is not a number") from None
    report = run_loadgen(
        args.url,
        args.dataset,
        config,
        mode=args.mode,
        requests=requests,
        workers=workers,
        rate=args.rate,
        warmup=warmup,
        seed=args.seed,
        mix=mix,
        timeout=args.timeout,
    )
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(format_report(report))
    hard = report["errors"]["hard"]
    if hard:
        print(f"error: {hard} hard failures", file=sys.stderr)
    return 1 if hard else 0


def _command_ingest(args) -> int:
    """POST JSONL ingest batches to a live service, one request per line."""
    from .client import FBoxClient

    if args.batches == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.batches, encoding="utf-8") as handle:
            lines = handle.read().splitlines()

    applied = replayed = accepted = 0
    with FBoxClient(args.url) as client:
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            batch = json.loads(line)
            if isinstance(batch, list):
                batch = {"dataset": args.dataset, "observations": batch}
            dataset = batch.get("dataset") or args.dataset
            if not dataset:
                print(
                    f"error: line {number} names no dataset and --dataset "
                    "was not given",
                    file=sys.stderr,
                )
                return 1
            document = client.ingest(
                dataset,
                batch.get("observations") or [],
                batch_id=batch.get("batch_id"),
            )
            if document.get("replayed"):
                replayed += 1
            else:
                applied += 1
                accepted += document.get("accepted", 0)
            print(
                f"{dataset}: generation {document.get('generation')}, "
                f"accepted {document.get('accepted')}, "
                f"alerts {document.get('alerts')}"
                + (" (replayed)" if document.get("replayed") else "")
            )
    print(
        f"ingested {applied} batches ({accepted} observations), "
        f"{replayed} replayed"
    )
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "quantify": _command_quantify,
    "compare": _command_compare,
    "explain": _command_explain,
    "whatif": _command_whatif,
    "toy": _command_toy,
    "reproduce": _command_reproduce,
    "batch": _command_batch,
    "serve": _command_serve,
    "simulate": _command_simulate,
    "ingest": _command_ingest,
    "loadgen": _command_loadgen,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
