"""Scenario load harness: seeded traffic mixes vs a 2-shard columnar server.

Each preset is registered at runtime through ``POST /v1/datasets`` (the
scenario-first dataset API) on one shared server — two shard workers, the
columnar core, admission control on — and then hammered with the seeded
closed-loop mix from :mod:`repro.scenarios.loadgen` (quantify / compare /
batch / whatif / observations at the default 45/20/15/10/10 ratios).  The
report per preset: p50/p95/p99/mean latency, throughput, and per-operation
error counts.

The gate is the error budget: **zero hard failures** for every preset —
shed answers (429/503) that retries absorbed are backpressure working, but
any 4xx/5xx that survives retries means the payload corpus and the served
dataset disagree, which is exactly the drift the declarative scenario
framework exists to prevent.  ``mega_marketplace`` runs at its full
10^6-worker population: the lazily materializing site keeps the build
bounded by the crawl, not the roster.

Runnable two ways:

* ``pytest benchmarks/bench_loadgen_scenarios.py`` (CI uses
  ``python benchmarks/bench_loadgen_scenarios.py --quick``);
* ``python benchmarks/bench_loadgen_scenarios.py [--quick]`` directly.

Writes ``benchmarks/results/loadgen_scenarios.txt``.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path
from time import monotonic

sys.path.insert(0, str(Path(__file__).parent))

from _util import emit
from repro.client import FBoxClient, RetryPolicy
from repro.scenarios import build_scenario, get_scenario, run_loadgen
from repro.service.server import make_server

ADMIN_TOKEN = "bench-loadgen"
PRESETS = ("null_no_bias", "paper_taskrabbit", "mega_marketplace")
SHARDS = 2
SEED = 11

REQUESTS, WARMUP, WORKERS = 160, 16, 4
QUICK_REQUESTS, QUICK_WARMUP = 40, 8
OPEN_RATE = 120.0  # full mode only: one open-loop run on the first preset


def _boot_server():
    server = make_server(
        port=0,
        request_timeout=120.0,
        shards=SHARDS,
        admin_token=ADMIN_TOKEN,
        quiet=True,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _run_preset(server, name: str, quick: bool, mode: str = "closed") -> dict:
    config = get_scenario(name)
    dataset_name = f"lg-{name}"
    built_at = monotonic()
    dataset = build_scenario(config)  # the loadgen payload corpus
    build_seconds = monotonic() - built_at
    report = run_loadgen(
        server.url,
        dataset_name,
        config,
        mode=mode,
        requests=QUICK_REQUESTS if quick else REQUESTS,
        workers=WORKERS,
        rate=OPEN_RATE,
        warmup=QUICK_WARMUP if quick else WARMUP,
        seed=SEED,
        prebuilt=dataset,
    )
    report["preset"] = name
    report["population"] = config.population
    report["build_seconds"] = round(build_seconds, 2)
    return report


def run_loadgen_scenarios(quick: bool = False) -> list[dict]:
    server, thread = _boot_server()
    reports = []
    try:
        with FBoxClient(
            server.url, timeout=120.0, retry=RetryPolicy(max_attempts=1, seed=0)
        ) as client:
            for name in PRESETS:
                client.register_scenario(
                    f"lg-{name}", name, token=ADMIN_TOKEN
                )
        for name in PRESETS:
            reports.append(_run_preset(server, name, quick))
        if not quick:
            reports.append(
                _run_preset(server, PRESETS[0], quick, mode="open")
            )
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()

    lines = [
        "Scenario loadgen — seeded mixes vs a 2-shard columnar server",
        f"(shards={SHARDS}, core=columnar, runtime registration via "
        "POST /v1/datasets,",
        f" mix quantify/compare/batch/whatif/observations, seed={SEED}"
        + ("; quick mode)" if quick else ")"),
        "=" * 74,
        "",
        f"{'preset':>18} {'mode':>6} {'pop':>9} {'reqs':>5} "
        f"{'p50ms':>7} {'p95ms':>7} {'p99ms':>7} {'req/s':>7} "
        f"{'hard':>4} {'shed':>4}",
        f"{'-' * 18} {'-' * 6} {'-' * 9} {'-' * 5} {'-' * 7} {'-' * 7} "
        f"{'-' * 7} {'-' * 7} {'-' * 4} {'-' * 4}",
    ]
    for report in reports:
        latency = report["latency_ms"]
        lines.append(
            f"{report['preset']:>18} {report['mode']:>6} "
            f"{report['population']:>9} {report['requests']:>5} "
            f"{latency['p50']:>7.2f} {latency['p95']:>7.2f} "
            f"{latency['p99']:>7.2f} {report['throughput_rps']:>7.1f} "
            f"{report['errors']['hard']:>4} {report['errors']['shed']:>4}"
        )
    lines.append("")
    lines.append("per-operation error budget (hard/shed by mix entry):")
    for report in reports:
        ops = ", ".join(
            f"{op}={stats['requests']}r/{stats['hard']}h/{stats['shed']}s"
            for op, stats in sorted(report["mix"].items())
        )
        lines.append(f"  {report['preset']} ({report['mode']}): {ops}")
    lines += [
        "",
        "mega_marketplace serves a 10^6-worker roster; its corpus builds in",
        f"{reports[PRESETS.index('mega_marketplace')]['build_seconds']:.2f}s "
        "because only availability-sampled workers materialize "
        "(crawl-bounded memory).",
        "Gate: zero hard failures everywhere — shed answers absorbed by",
        "retries are backpressure, anything else is corpus/dataset drift.",
    ]
    emit("loadgen_scenarios", "\n".join(lines))

    for report in reports:
        assert report["errors"]["hard"] == 0, (
            f"{report['preset']} ({report['mode']}): "
            f"{report['errors']['hard']} hard failures — "
            f"{report['hard_failure_samples']}"
        )
        assert report["throughput_rps"] > 0
        assert report["measured"] > 0
    return reports


def test_loadgen_scenarios():
    run_loadgen_scenarios(quick=os.environ.get("BENCH_QUICK") == "1")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer requests per preset, closed loop only (the CI mode)",
    )
    arguments = parser.parse_args()
    run_loadgen_scenarios(quick=arguments.quick)
    print("loadgen scenarios bench: OK")
