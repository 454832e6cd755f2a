"""The F-Box service benchmark: one seeded workload against the real server.

    python3 fboxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A session launches the service (asyncio transport, columnar core) in a
process group of its own, registers the ``paper_taskrabbit`` preset through
``POST /v1/datasets``, warms both measures on every dimension, and drives
the workload with two closed-loop clients from one thread.  Read workloads
then post a fixed set of unchanged re-crawl batches from a single writer,
which gives every workload its write figures.  The session checks its
probe answers against an oracle cold-built in this process with the dict
F-Box and its acknowledged ingest generations for contiguity, stops the
server, and checks that no server process and no shared-memory segment is
left.

With ``--trace 0`` a run is three sessions of a third of ``--seconds`` each
and the last stdout line reports the end-to-end metrics pooled over them.
With ``--trace 1`` the run makes an untraced session and a traced one of
half the length each and reports the per-layer metrics.  The line before
it is the run record (git sha, nproc, Python, seed, host speed, steal).
The exit code is non-zero only when a check fails or the run could not
start.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

SESSIONS = 3
# Re-crawl batches a read workload posts after its timed reads: a fixed
# count, so every run times the same ingest work (batches differ in cost by
# the query whose cells they hold).
RECRAWL_BATCHES = 24
# Keys that depend on cache state or ingest history, not on the answer:
# ``sweep_groups``/``shared_items`` count the shared sweeps a batch planned,
# which cached items skip.
IGNORED_KEYS = frozenset({"cached", "generation", "sweep_groups", "shared_items"})
SHM = Path("/dev/shm")
ANSWER_TIMEOUT_S = 120
RUN_DIR = ROOT / ".fboxbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "read_rps": "req/s",
    "read_p50_ms": "ms",
    "write_rps": "batches/s",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "transport.overhead_p50_ms": "ms",
    "app.self_p50_ms": "ms",
    "app.admission_queued": "count",
    "handlers.self_p50_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "core.quantify_p50_ms": "ms",
    "core.compare_p50_ms": "ms",
    "core.accesses_per_answer": "count",
    "core.busy_share": "ratio",
    "interventions.fair_p50_ms": "ms",
    "interventions.lp_p50_ms": "ms",
    "interventions.lp_p99_ms": "ms",
    "ingest.apply_p50_ms": "ms",
    "ingest.cells_per_batch": "count",
    "ingest.lists_per_batch": "count",
    "colstore.publish_p50_ms": "ms",
    "colstore.attaches": "count",
    "shard.hop_p50_ms": "ms",
    "shard.hop_p99_ms": "ms",
    "shard.routed_share": "ratio",
    "setup.spawn_s": "s",
    "setup.build_scenario_s": "s",
    "setup.fbox_build_s": "s",
    "memory.segments_mb": "MB",
    "client.cpu_share": "ratio",
    "host.steal_share": "ratio",
    "trace.overhead": "ratio",
}


class CheckFailed(Exception):
    """A correctness or cleanup check failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# Small measurements
# ----------------------------------------------------------------------


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(share * len(ordered)) - 1))]


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies from the first line of /proc/stat."""
    fields = [int(value) for value in Path("/proc/stat").read_text().split()[1:9]]
    return fields[7], sum(fields)


def client_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def spin_s() -> float:
    """A fixed pure-Python loop, timed; shows how fast the host runs now."""
    started = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value
    return time.perf_counter() - started


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def group_pids(pgid: int) -> list[int]:
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry.name))
    return pids


def pss_mb(pids) -> float:
    """Proportional set size summed over ``pids``: shared pages count once."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def metric_values(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class Server:
    """One launched server: its own process group, read-back port."""

    def __init__(self, shards: int, trace_dir: Path | None = None) -> None:
        command = [sys.executable, str(HERE / "launcher.py"), "--shards", str(shards)]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True
        )
        self.pgid = self.process.pid
        ready, _, _ = select.select([self.process.stdout], [], [], 120)
        line = self.process.stdout.readline() if ready else b""
        if not line:
            self.stop()
            raise RuntimeError("the server did not report its port")
        info = json.loads(line)
        self.spawn_s = time.monotonic() - self.started
        self.port = info["port"]
        self.namespace = info["namespace"]

    def connection(self) -> "Connection":
        return Connection(self.port)

    def segments(self) -> list[Path]:
        if not self.namespace:
            return []
        return sorted(SHM.glob(f"fbx{self.namespace}-*"))

    def stop(self) -> None:
        """SIGTERM the launcher (it stops its shard workers itself), then
        SIGKILL whatever is left of the group; reap the launcher."""
        try:
            self.process.send_signal(signal.SIGTERM)
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 5
        while group_pids(self.pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if group_pids(self.pgid):
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait()
        self.process.stdout.close()

    def check_clean(self) -> None:
        check(not group_pids(self.pgid), "a server process outlived the run")
        check(not self.segments(), "a shared-memory segment outlived the run")


class Connection:
    """A minimal keep-alive HTTP/1.1 client: the load generator's own CPU
    cost per request stays small next to the server's."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), ANSWER_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send one request; ``(status, body)`` of its response."""
        self.sock.sendall(request)
        while (response := self.response()) is None:
            self.receive()
        return response

    def receive(self) -> None:
        """Append what the socket holds to the buffer."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("the server closed the connection")
        self.buffer += chunk

    def response(self) -> tuple[int, bytes] | None:
        """The next complete ``(status, body)`` in the buffer, or None."""
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        lines = self.buffer[:head_end].split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        end = head_end + 4 + length
        if len(self.buffer) < end:
            return None
        body = self.buffer[head_end + 4 : end]
        self.buffer = self.buffer[end:]
        return status, body

    def close(self) -> None:
        self.sock.close()


def encode(method: str, path: str, payload=None, request_id=None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    if payload is not None:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    if request_id is not None:
        head += f"X-Request-Id: {request_id}\r\n"
    return (head + "\r\n").encode("latin-1") + body


def call(connection: Connection, method: str, path: str, payload=None, request_id=None):
    """One request on a keep-alive connection: ``(status, body bytes)``."""
    return connection.exchange(encode(method, path, payload, request_id))


def set_up(shards: int, trace_dir: Path | None = None) -> tuple[Server, float, int]:
    """Spawn, register the preset, answer a first query per measure.

    Returns the server, the set-up time, and the shard owning the dataset.
    """
    server = Server(shards, trace_dir)
    try:
        connection = server.connection()
        status, body = call(
            connection,
            "POST",
            "/v1/datasets",
            {"name": wl.DATASET, "scenario": wl.SCENARIO},
        )
        check(status == 200, f"registration answered {status}: {body[:200]!r}")
        shard = json.loads(body).get("shard", 0)
        for measure in wl.MEASURES:
            status, body = call(
                connection, "POST", *wl.quantify(measure, "group", "most", 5)
            )
            check(status == 200, f"first {measure} query answered {status}")
        setup_s = time.monotonic() - server.started
        connection.close()
    except BaseException:
        server.stop()
        raise
    return server, setup_s, shard


# ----------------------------------------------------------------------
# Driving load
# ----------------------------------------------------------------------


def drive(server: Server, streams, seconds: float) -> list[list]:
    """Closed loop from one thread: one keep-alive connection per stream,
    each with one request in flight, until the deadline or until the
    streams run out.  Returns per-client ``[kind, start_ns, end_ns, status,
    request_id, write answer, path]`` records.  One thread, not one per
    client, so the clients never wait on each other for the interpreter
    lock."""
    deadline = time.monotonic() + seconds
    records: list[list] = [[] for _ in streams]
    connections = [server.connection() for _ in streams]
    inflight: list = [None] * len(streams)

    def send(index: int) -> None:
        request = next(streams[index], None)
        if request is None:
            return
        kind, path, payload = request
        request_id = f"{index}-{len(records[index])}"
        request = encode("POST", path, payload, request_id)
        inflight[index] = (kind, path, payload, request_id, time.monotonic_ns())
        connections[index].sock.sendall(request)

    def finish(index: int, status: int, body: bytes) -> None:
        ended = time.monotonic_ns()
        kind, path, payload, request_id, started = inflight[index]
        inflight[index] = None
        answer = None
        if kind == wl.WRITE and status == 200:
            answer = {**json.loads(body), "observations": payload["observations"]}
        records[index].append([kind, started, ended, status, request_id, answer, path])
        if time.monotonic() < deadline:
            send(index)

    # The generator's own garbage collections would stall every client at
    # once; collect before the phase and not during it.
    gc.collect()
    gc.disable()
    try:
        for index in range(len(streams)):
            send(index)
        while True:
            busy = [index for index, request in enumerate(inflight) if request]
            if not busy:
                break
            check(
                time.monotonic() < deadline + ANSWER_TIMEOUT_S,
                f"a request had no answer {ANSWER_TIMEOUT_S} s after the deadline",
            )
            sockets = [connections[index].sock for index in busy]
            readable, _, _ = select.select(sockets, [], [], 1.0)
            for index in busy:
                connection = connections[index]
                if connection.sock not in readable:
                    continue
                try:
                    connection.receive()
                    response = connection.response()
                except (OSError, ValueError, IndexError):
                    connection.close()
                    connections[index] = server.connection()
                    response = (0, b"")
                if response is not None:
                    finish(index, *response)
    finally:
        gc.enable()
        for connection in connections:
            connection.close()
    return records


def scrape(server: Server) -> dict[str, float]:
    connection = server.connection()
    status, body = call(connection, "GET", "/v1/metrics")
    connection.close()
    check(status == 200, f"/v1/metrics answered {status}")
    return metric_values(body.decode("utf-8"))


def ask(server: Server, requests) -> list[tuple[int, object]]:
    connection = server.connection()
    answers = []
    for path, payload in requests:
        status, body = call(connection, "POST", path, payload)
        answers.append((status, json.loads(body)))
    connection.close()
    return answers


def session(
    workload: str,
    corpus,
    seed: int,
    seconds: float,
    final_probes: bool,
    trace_dir: Path | None = None,
) -> dict:
    """One server from spawn to cleanup check; every raw figure it gave.

    Probe answers are kept with the number of batches acknowledged before
    them, so each set is checked against the oracle of that state.
    """
    spec = wl.WORKLOADS[workload]
    recrawl = wl.recrawl(corpus)
    server, setup_s, shard = set_up(spec["shards"], trace_dir)
    try:
        out: dict = {"setup_s": setup_s, "spawn_s": server.spawn_s, "shard": shard}
        # Warm: one write first (its generation bump would empty the cache),
        # then every probe (all panels, both interventions) once.
        connection = server.connection()
        _, path, payload = next(recrawl)
        status, body = call(connection, "POST", path, payload)
        connection.close()
        check(status == 200, f"warm-up write answered {status}")
        out["batches"] = [{**json.loads(body), "observations": payload["observations"]}]
        out["probe_answers"] = [(1, ask(server, wl.probes(corpus)))]

        streams = [
            wl.client_requests(workload, corpus, seed, client)
            for client in range(len(spec["clients"]))
        ]
        before = scrape(server)
        steal0, total0 = cpu_ticks()
        cpu0 = client_cpu()
        out["window"] = [time.monotonic_ns(), None]
        records = drive(server, streams, seconds)
        out["window"][1] = time.monotonic_ns()
        out["client_cpu_s"] = client_cpu() - cpu0
        steal1, total1 = cpu_ticks()
        out["steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
        after = scrape(server)
        out["counters"] = {
            name: after.get(name, 0.0) - value for name, value in before.items()
        }
        out["rss_mb"] = pss_mb(group_pids(server.pgid))
        out["segments_mb"] = sum(path.stat().st_size for path in server.segments()) / 2**20
        out["reads"] = [r for client in records for r in client if r[0] == wl.READ]
        out["writes"] = [r for client in records for r in client if r[0] == wl.WRITE]
        out["write_window_s"] = window_s(out)
        if not out["writes"]:
            # A read workload: its write figures come from a re-crawl burst.
            started = time.monotonic()
            batches = itertools.islice(recrawl, RECRAWL_BATCHES)
            out["writes"] = drive(server, [batches], math.inf)[0]
            out["write_window_s"] = time.monotonic() - started
        out["batches"] += [r[5] for r in out["writes"] if r[5] is not None]
        if final_probes:
            out["probe_answers"].append(
                (len(out["batches"]), ask(server, wl.probes(corpus)))
            )
    finally:
        server.stop()
    server.check_clean()
    return out


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def canonical(document):
    if isinstance(document, dict):
        return {
            key: canonical(value)
            for key, value in document.items()
            if key not in IGNORED_KEYS
        }
    if isinstance(document, list):
        return [canonical(item) for item in document]
    return document


def source_digest() -> str:
    """Digest of the service's source tree (keys the oracle cache)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def preset_dataset():
    """The ``paper_taskrabbit`` dataset, built in this process (memoized)."""
    from repro.scenarios import get_scenario
    from repro.scenarios.build import build_scenario

    return build_scenario(get_scenario(wl.SCENARIO))


def load_corpus(source: str):
    """The preset's corpus, cached in the run directory per source tree."""
    cached = RUN_DIR / f"corpus-{source}.json"
    if cached.exists():
        return wl.Corpus(json.loads(cached.read_text()))
    corpus = wl.Corpus.from_dataset(preset_dataset())
    partial = cached.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(corpus.observations))
    partial.replace(cached)
    return corpus


class Oracle:
    """Probe answers from a dict F-Box cold-built over preset + batches.

    Answers are kept in the run directory keyed by the source tree, the
    probes, and the dataset state they were computed for, so runs that end
    in a state already checked (every read workload ends in the preset's
    state) reuse them instead of rebuilding the reference cubes.
    """

    def __init__(self, corpus, source: str) -> None:
        self.corpus = corpus
        self.probes = wl.probes(corpus)
        self._key = hashlib.sha256(
            (source + json.dumps(self.probes, sort_keys=True)).encode("utf-8")
        )

    def answers(self, batches: list[list[dict]]) -> list:
        """The oracle's answers after ``batches`` were posted in order."""
        state = {(o["query"], o["location"]): o for o in self.corpus.observations}
        for items in batches:
            state.update({(o["query"], o["location"]): o for o in items})
        key = self._key.copy()
        key.update(json.dumps(sorted(state.items()), sort_keys=True).encode("utf-8"))
        cached = RUN_DIR / f"oracle-{key.hexdigest()}.json"
        if cached.exists():
            return json.loads(cached.read_text())
        answers = self._compute(batches)
        partial = cached.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps(answers))
        partial.replace(cached)
        return answers

    def _compute(self, batches: list[list[dict]]) -> list:
        import inspect

        from repro.data.schema import MarketplaceDataset
        from repro.service.app import Request, make_app
        from repro.service.ingest import decode_observations
        from repro.service.registry import DatasetRegistry, DatasetSpec

        preset = preset_dataset()
        state = MarketplaceDataset(
            workers=preset.workers.values(), observations=preset.observations()
        )
        for items in batches:
            state.upsert_observations(decode_observations("taskrabbit", items))

        options = {}
        if "core" in inspect.signature(DatasetRegistry).parameters:
            options["core"] = "dict"
        registry = DatasetRegistry(**options)
        registry.register(
            DatasetSpec(name=wl.DATASET, site="taskrabbit", loader=lambda: state)
        )
        app = make_app(
            registry=registry, cache_size=0, max_concurrency=0, request_timeout=None
        )
        answers = []
        for path, payload in self.probes:
            request = Request(
                method="POST",
                path=path[len("/v1"):],
                body=json.dumps(payload).encode("utf-8"),
            )
            # A JSON round trip, so cached and fresh answers compare alike.
            answers.append(json.loads(json.dumps(canonical(app.run_post(request)[1]))))
        app.close()
        return answers


def check_session(out: dict, oracle: Oracle) -> None:
    """Writes acknowledged once each at contiguous generations, and every
    probe answered exactly as the oracle over the batches acknowledged
    before it."""
    batches = out["batches"]
    check(
        not any(batch.get("replayed") for batch in batches),
        "a fresh batch_id was answered as a replay",
    )
    generations = [batch["generation"] for batch in batches]
    first = generations[0]
    check(
        generations == list(range(first, first + len(generations))),
        f"acknowledged generations are not contiguous: {generations[:8]}",
    )
    for acknowledged, answers in out["probe_answers"]:
        expected = oracle.answers(
            [batch["observations"] for batch in batches[:acknowledged]]
        )
        for (status, answer), want, probe in zip(answers, expected, oracle.probes):
            check(status == 200, f"probe {probe[0]} answered {status}")
            check(
                canonical(answer) == want,
                f"probe {probe[0]} {json.dumps(probe[1])[:120]} differs from the oracle",
            )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def ms(values_ns) -> list[float]:
    return [value / 1e6 for value in values_ns]


def latencies(records) -> list[float]:
    return ms(r[2] - r[1] for r in records if 200 <= r[3] < 300)


def window_s(out: dict) -> float:
    return (out["window"][1] - out["window"][0]) / 1e9


def read_rps(outs: list[dict]) -> float:
    """Completed reads per second over the timed phases."""
    reads = sum(1 for out in outs for r in out["reads"] if 200 <= r[3] < 300)
    return reads / sum(window_s(out) for out in outs)


def client_share(out: dict) -> float:
    """The load generator's CPU time over the host's CPU time available."""
    return out["client_cpu_s"] / window_s(out) / (os.cpu_count() or 1)


def end_to_end(outs: list[dict]) -> dict[str, float]:
    """User-facing figures pooled over the sessions of one run."""
    reads = [x for out in outs for x in latencies(out["reads"])]
    writes = [x for out in outs for x in latencies(out["writes"])]
    return {
        "setup_s": statistics.median(out["setup_s"] for out in outs),
        "read_rps": read_rps(outs),
        "read_p50_ms": percentile(reads, 0.50),
        "write_rps": len(writes) / sum(out["write_window_s"] for out in outs),
        "write_p50_ms": percentile(writes, 0.50),
        "write_p90_ms": percentile(writes, 0.90),
        "rss_mb": statistics.median(out["rss_mb"] for out in outs),
    }


def per_layer(plain: dict, traced: dict, trace_dir: Path) -> dict[str, float]:
    """Layer figures: counters from the untraced session, spans from the
    traced one (only spans that start inside its timed window count,
    except the set-up spans)."""
    all_spans, counters = spans.load(trace_dir)
    start, end = traced["window"]
    timed = [s for s in all_spans if start <= s[4] < end]
    after = [s for s in all_spans if s[4] >= start]
    own = spans.self_ns(all_spans)

    def durations(name, pool=timed, tag=None):
        return ms(
            s[5] - s[4] for s in pool if s[3] == name and (tag is None or s[6] == tag)
        )

    app_spans = {s[6]: s for s in timed if s[3] == "app" and s[6]}
    layer_self: dict[int, int] = {}
    for s in timed:
        if s[3].startswith(("handler/", "parse/")):
            layer_self[s[2]] = layer_self.get(s[2], 0) + own[s[0]]
    overhead, app_self, handler_self = [], [], []
    for r in traced["reads"]:
        s = app_spans.get(r[4])
        if s is None or not 200 <= r[3] < 300:
            continue
        overhead.append((r[2] - r[1]) - (s[5] - s[4]))
        app_self.append(own[s[0]])
        handler_self.append(layer_self.get(s[0], 0))

    core = [s for s in timed if s[3].startswith("core.")]
    accesses = sum(
        value
        for name, value in traced["counters"].items()
        if name.startswith("fbox_index_accesses_total")
    )
    workers = [s for s in timed if s[3] == "shard.worker"]
    hops = []
    routed = [s for s in timed if s[3] == "shard.execute"]
    for s in routed:
        inside = [
            w[5] - w[4]
            for w in workers
            if w[6] == s[6] and s[4] <= w[4] and w[5] <= s[5]
        ]
        if inside:
            hops.append(s[5] - s[4] - max(inside))
    lp = durations("interventions", tag="exposure_lp")
    requests = len(traced["reads"]) + sum(
        1 for r in traced["writes"] if start <= r[1] < end
    )
    hits = plain["counters"].get('fbox_cache_events_total{event="hits"}', 0.0)
    misses = plain["counters"].get('fbox_cache_events_total{event="misses"}', 0.0)
    acknowledged = [r[5] for r in plain["writes"] if r[5] is not None]
    return {
        "transport.overhead_p50_ms": percentile(ms(overhead), 0.5),
        "app.self_p50_ms": percentile(ms(app_self), 0.5),
        "app.admission_queued": counters.get("admission_queued", 0),
        "handlers.self_p50_ms": percentile(ms(handler_self), 0.5),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": plain["counters"].get(
            'fbox_cache_events_total{event="evictions"}', 0.0
        ),
        "core.quantify_p50_ms": percentile(durations("core.quantify"), 0.5),
        "core.compare_p50_ms": percentile(durations("core.compare"), 0.5),
        "core.accesses_per_answer": accesses / len(core) if core else 0.0,
        "core.busy_share": sum(s[5] - s[4] for s in core) / 1e9 / window_s(traced),
        "interventions.fair_p50_ms": percentile(
            durations("interventions", tag="fair"), 0.5
        ),
        "interventions.lp_p50_ms": percentile(lp, 0.5),
        "interventions.lp_p99_ms": percentile(lp, 0.99),
        "ingest.apply_p50_ms": percentile(durations("ingest.apply", after), 0.5),
        "ingest.cells_per_batch": statistics.fmean(
            [a["cells_recomputed"] for a in acknowledged] or [0]
        ),
        "ingest.lists_per_batch": statistics.fmean(
            [a["lists_rebuilt"] for a in acknowledged] or [0]
        ),
        "colstore.publish_p50_ms": percentile(
            durations("colstore.publish", after), 0.5
        ),
        "colstore.attaches": sum(1 for s in timed if s[3] == "colstore.attach"),
        "shard.hop_p50_ms": percentile(ms(hops), 0.5),
        "shard.hop_p99_ms": percentile(ms(hops), 0.99),
        "shard.routed_share": len(routed) / requests if requests else 0.0,
        "setup.spawn_s": traced["spawn_s"],
        "setup.build_scenario_s": sum(
            durations("setup.build_scenario", all_spans)
        ) / 1e3,
        "setup.fbox_build_s": sum(
            durations("setup.cube_build", all_spans)
            + durations("setup.fbox_construct", all_spans)
        ) / 1e3,
        "memory.segments_mb": plain["segments_mb"],
        "client.cpu_share": client_share(plain),
        "host.steal_share": plain["steal_share"],
        "trace.overhead": read_rps([traced]) / read_rps([plain]),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    record = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "shards": wl.WORKLOADS[workload]["shards"],
        "spin_start_s": spin_s(),
    }
    started = time.monotonic()
    RUN_DIR.mkdir(exist_ok=True)
    source = source_digest()
    corpus = load_corpus(source)
    oracle = Oracle(corpus, source)
    trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=RUN_DIR))
    try:
        if trace:
            sessions = [
                session(workload, corpus, seed, seconds / 2, True),
                session(workload, corpus, seed, seconds / 2, True, trace_dir),
            ]
        else:
            # One set-up per session for setup_s, and timed phases that
            # sample the host at moments a set-up apart; only the last state
            # is probed after its writes (the crawl oracle is a cold build).
            sessions = [
                session(workload, corpus, seed, seconds / SESSIONS, last)
                for last in [False] * (SESSIONS - 1) + [True]
            ]
        checks_started = time.monotonic()
        for out in sessions:
            check_session(out, oracle)
        record["check_s"] = time.monotonic() - checks_started
        if trace:
            metrics = per_layer(sessions[0], sessions[1], trace_dir)
        else:
            metrics = end_to_end(sessions)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    attempted = sum(len(out["reads"]) + len(out["writes"]) for out in sessions)
    failed = sum(
        1
        for out in sessions
        for r in out["reads"] + out["writes"]
        if not 200 <= r[3] < 300
    )
    record.update(
        setup_samples_s=[out["setup_s"] for out in sessions],
        owning_shard=[out["shard"] for out in sessions],
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted if attempted else 0.0,
        read_samples=sum(len(out["reads"]) for out in sessions),
        read_rps_sessions=[read_rps([out]) for out in sessions],
        # Not metrics: read tails follow the host's steal (see README).
        read_p90_ms=percentile(
            [x for out in sessions for x in latencies(out["reads"])], 0.90
        ),
        read_p99_ms=percentile(
            [x for out in sessions for x in latencies(out["reads"])], 0.99
        ),
        write_samples=sum(len(out["writes"]) for out in sessions),
        client_cpu_share=[client_share(out) for out in sessions],
        steal_share=[out["steal_share"] for out in sessions],
        spin_end_s=spin_s(),
        run_s=time.monotonic() - started,
    )
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its servers (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        import repro
    except ImportError as error:
        print(f"cannot import the service from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"the service imported from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as error:
        print(f"check failed: {error}", file=sys.stderr)
        print(
            json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
        )
        return 1
    print("run record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
