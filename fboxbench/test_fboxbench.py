"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest fboxbench/test_fboxbench.py

The short runs start real servers, so the whole file takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def corpus():
    from repro.scenarios import get_scenario
    from repro.scenarios.build import build_scenario

    return wl.Corpus.from_dataset(build_scenario(get_scenario(wl.SCENARIO)))


def _head(stream, count=300):
    return json.dumps(list(itertools.islice(stream, count)), sort_keys=True)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_same_seed_gives_same_request_sequence(corpus, workload):
    for client in range(len(wl.WORKLOADS[workload]["clients"])):
        first = _head(wl.client_requests(workload, corpus, 7, client))
        again = _head(wl.client_requests(workload, corpus, 7, client))
        other = _head(wl.client_requests(workload, corpus, 8, client))
        assert first == again
        assert first != other


def test_request_streams_never_run_out(corpus):
    stream = wl.client_requests("audit_sweep", corpus, 1, 0)
    assert len(list(itertools.islice(stream, 20_000))) == 20_000


def test_declared_workloads_and_metrics_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER_UNITS


def _short_run(workload: str, trace: int) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_short_run_passes_every_check(workload):
    code, result = _short_run(workload, 0)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    code, result = _short_run("crawl_ingest", 1)
    assert code == 0 and result["correct"] is True
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert result["metrics"]["shard.routed_share"]["value"] > 0
    assert result["metrics"]["ingest.apply_p50_ms"]["value"] > 0


def test_canonical_ignores_cache_state_only():
    answer = {"cached": True, "generation": 4, "results": [{"cached": False, "k": 5}]}
    assert run.canonical(answer) == {"results": [{"k": 5}]}


def test_runs_fail_without_the_service(tmp_path):
    lone = tmp_path / "fboxbench"
    lone.mkdir()
    for path in HERE.glob("*.py"):
        (lone / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "fboxbench/run.py", "--workload", "audit_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
