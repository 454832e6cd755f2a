#!/usr/bin/env bash
# Smoke test for the F-Box query service, in seven passes:
#
#   1. plain boot: /healthz, /readyz, /quantify, /batch, /metrics;
#   2. chaos (breaker): boot with FBOX_FAULTS making the google loader crash
#      twice — watch the circuit open (503 circuit_open), then recover
#      through a half-open probe after the backoff;
#   3. chaos (degraded): boot with an injected /quantify stall longer than
#      the request deadline — a warm `allow_stale` request must round-trip
#      a last-known-good answer marked `"degraded": true`;
#   4. live ingest: boot sharded with a tiny --alert-threshold, stream a
#      simulated re-crawl batch through `repro ingest`, replay it (must be
#      idempotent), then read the per-generation trend points from
#      /v1/trends and the fairness alerts from /v1/metrics + /v1/datasets;
#   5. sharded + shared memory: boot with `--shards 2`, answer queries on
#      both workers and from the published shared-memory segments, run a
#      cross-shard /batch, check worker build counts merged into /metrics,
#      walk the live /v1/schema (no published endpoint may answer 404, and
#      the unpublished POST /v1/trends must), ingest a batch through the
#      write path, and — after shutdown — assert no fbx* segment survives
#      in /dev/shm (the leak check);
#   6. live resize: boot with `--shards 2 --admin-token`, ingest, then
#      resize the pool to 4 and back to 2 through POST /v1/admin/shards
#      while a background FBoxClient query loop hammers both datasets —
#      the loop must see zero failures (only transparent retries), the
#      post-resize answers must match the pre-resize ones, and the replayed
#      batch must still answer from the migrated idempotency ledger;
#   7. scenarios: boot sharded with an admin token, list the preset
#      catalog via GET /v1/scenarios, check that an unauthorized
#      POST /v1/datasets is a 403, then register the `null_no_bias`
#      scenario at runtime and check it is listed but not yet loaded.
#
# Unversioned paths are retired; pass 1 asserts the 410 pointer.
#
# Exits nonzero on any failure.
#
# Usage: scripts/smoke_service.sh [timeout-seconds]
set -u

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
TIMEOUT="${1:-120}"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

LOG="$(mktemp)"
SERVER_PID=""

pick_port() {
    python3 - <<'EOF'
import socket
with socket.socket() as s:
    s.bind(("127.0.0.1", 0))
    print(s.getsockname()[1])
EOF
}

cleanup() {
    stop_server
    rm -f "$LOG"
}
trap cleanup EXIT

fail() {
    echo "smoke: $1" >&2
    echo "--- server log ---" >&2
    cat "$LOG" >&2
    exit 1
}

# http GET|POST <url> [json-body] -> prints "<status> <body>"
http() {
    python3 - "$@" <<'EOF'
import json, sys, urllib.error, urllib.request
method, url = sys.argv[1], sys.argv[2]
data = sys.argv[3].encode() if len(sys.argv) > 3 else None
request = urllib.request.Request(
    url, data=data, method=method,
    headers={"Content-Type": "application/json"} if data else {},
)
try:
    with urllib.request.urlopen(request, timeout=30) as response:
        print(response.status, response.read().decode())
except urllib.error.HTTPError as error:
    print(error.code, error.read().decode())
except Exception as error:
    print(0, error)
EOF
}

# boot_server <extra serve args...> — starts `repro serve` on a fresh port,
# waits for /healthz, and sets BASE/SERVER_PID.  FBOX_FAULTS is inherited
# from the caller's environment.
boot_server() {
    PORT="$(pick_port)" || fail "could not pick a free port"
    BASE="http://127.0.0.1:${PORT}"
    : >"$LOG"
    python3 -m repro serve --port "$PORT" --scope small "$@" >"$LOG" 2>&1 &
    SERVER_PID=$!
    local deadline=$((SECONDS + TIMEOUT))
    while true; do
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server process died during boot"
        local result status
        result="$(http GET "$BASE/v1/healthz")"
        status="${result%% *}"
        if [ "$status" = "200" ]; then
            break
        fi
        [ "$SECONDS" -lt "$deadline" ] || fail "healthz did not answer 200 within ${TIMEOUT}s (last: $result)"
        sleep 0.5
    done
}

stop_server() {
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null
        wait "$SERVER_PID" 2>/dev/null
        SERVER_PID=""
    fi
}

# expect <status> <label> <method> <url> [body] — one checked request;
# prints the body on stdout for follow-up greps.
expect() {
    local want="$1" label="$2"
    shift 2
    local result status
    result="$(http "$@")"
    status="${result%% *}"
    [ "$status" = "$want" ] || fail "$label answered $result (wanted $want)"
    printf '%s\n' "${result#* }"
}

# ----------------------------------------------------------------------
# Pass 1: plain service
# ----------------------------------------------------------------------

boot_server
expect 200 "readyz" GET "$BASE/v1/readyz" >/dev/null
echo "smoke: healthz + readyz ok"

# The unversioned mount is retired: a known legacy path answers 410 with a
# machine-readable pointer to its /v1 home.
BODY="$(expect 410 "retired legacy path" GET "$BASE/healthz")"
case "$BODY" in
    *'"v1_path": "/v1/healthz"'*|*'"v1_path":"/v1/healthz"'*) ;;
    *) fail "410 body lacks the v1_path pointer: $BODY" ;;
esac
echo "smoke: legacy 410 pointer ok"

BODY="$(expect 200 "quantify" POST "$BASE/v1/quantify" '{"dataset": "taskrabbit", "dimension": "group", "k": 3}')"
case "$BODY" in
    *'"unfairness"'*) ;;
    *) fail "quantify body lacks unfairness values: $BODY" ;;
esac
echo "smoke: quantify ok"

BODY="$(expect 200 "batch" POST "$BASE/v1/batch" '[{"op": "quantify", "dataset": "taskrabbit", "dimension": "group", "k": 2}, {"op": "quantify", "dataset": "taskrabbit", "dimension": "group", "k": 4}]')"
case "$BODY" in
    *'"sweep_groups": 1'*|*'"sweep_groups":1'*) ;;
    *) fail "batch envelope lacks a shared sweep group: $BODY" ;;
esac
echo "smoke: batch ok"

BODY="$(expect 200 "metrics" GET "$BASE/v1/metrics")"
case "$BODY" in
    *fbox_requests_total*) ;;
    *) fail "metrics exposition lacks fbox_requests_total" ;;
esac
case "$BODY" in
    *fbox_breaker_state*) ;;
    *) fail "metrics exposition lacks fbox_breaker_state" ;;
esac
echo "smoke: metrics ok"
stop_server

# ----------------------------------------------------------------------
# Pass 2: circuit breaker opens on a crashing loader, then recovers
# ----------------------------------------------------------------------

GOOGLE='{"dataset": "google", "dimension": "location", "k": 2}'

export FBOX_FAULTS='{"seed": 7, "rules": [{"site": "dataset_load", "match": "google", "times": 2}]}'
boot_server --breaker-failures 2 --breaker-reset 1
unset FBOX_FAULTS

# Two injected load crashes surface as 500s and open the circuit ...
expect 500 "chaos quantify #1" POST "$BASE/v1/quantify" "$GOOGLE" >/dev/null
expect 500 "chaos quantify #2" POST "$BASE/v1/quantify" "$GOOGLE" >/dev/null
# ... so the next request is rejected instantly with the breaker state ...
BODY="$(expect 503 "quarantined quantify" POST "$BASE/v1/quantify" "$GOOGLE")"
case "$BODY" in
    *circuit_open*) ;;
    *) fail "quarantined response lacks circuit_open: $BODY" ;;
esac
BODY="$(expect 503 "readyz while quarantined" GET "$BASE/v1/readyz")"
case "$BODY" in
    *'"unavailable"'*) ;;
    *) fail "readyz should be unavailable while quarantined: $BODY" ;;
esac
echo "smoke: breaker opened ok"

# ... and after the 1s backoff a half-open probe (fault budget spent) heals it.
sleep 1.2
BODY="$(expect 200 "recovered quantify" POST "$BASE/v1/quantify" "$GOOGLE")"
case "$BODY" in
    *'"unfairness"'*) ;;
    *) fail "recovered quantify lacks unfairness values: $BODY" ;;
esac
expect 200 "readyz after recovery" GET "$BASE/v1/readyz" >/dev/null
echo "smoke: breaker recovered ok"
stop_server

# ----------------------------------------------------------------------
# Pass 3: degraded (stale) answers under an injected stall
# ----------------------------------------------------------------------

STALE='{"dataset": "taskrabbit", "dimension": "group", "k": 3, "allow_stale": true}'

export FBOX_FAULTS='{"seed": 7, "rules": [{"site": "latency", "match": "/quantify", "skip": 1, "latency": 30.0}]}'
boot_server --timeout 2
unset FBOX_FAULTS

# The first request is exempt (skip=1) and warms the last-known-good store.
expect 200 "warming quantify" POST "$BASE/v1/quantify" "$STALE" >/dev/null
# The second stalls past the 2s deadline; allow_stale must round-trip the
# stale answer, loudly marked.
BODY="$(expect 200 "degraded quantify" POST "$BASE/v1/quantify" "$STALE")"
case "$BODY" in
    *'"degraded": true'*|*'"degraded":true'*) ;;
    *) fail "stalled quantify was not served degraded: $BODY" ;;
esac
BODY="$(expect 200 "metrics after degraded" GET "$BASE/v1/metrics")"
case "$BODY" in
    *'fbox_degraded_responses_total 1'*) ;;
    *) fail "metrics do not count the degraded response" ;;
esac
echo "smoke: degraded answer ok"
stop_server

# ----------------------------------------------------------------------
# Pass 4: live ingest + trends on the sharded /v1 write path
# ----------------------------------------------------------------------

boot_server --shards 2 --alert-threshold 0.0001

# Warm the taskrabbit cube so the ingest applies a delta, not a no-op.
expect 200 "pre-ingest quantify" POST "$BASE/v1/quantify" '{"dataset": "taskrabbit", "dimension": "group", "k": 3}' >/dev/null

# Stream one simulated re-crawl batch (same seed/scope as the serving
# registry) through the CLI's ingest client.
INGEST_FILE="$(mktemp)"
python3 -m repro simulate taskrabbit --scope small --stream \
    --batches 1 --batch-size 2 >"$INGEST_FILE" 2>>"$LOG" \
    || fail "simulate --stream failed"
OUT="$(python3 -m repro ingest "$BASE" "$INGEST_FILE" 2>&1)" \
    || fail "repro ingest failed: $OUT"
case "$OUT" in
    *'generation 2'*) ;;
    *) fail "ingest did not bump the taskrabbit generation: $OUT" ;;
esac

# Replaying the same file must be idempotent: same batch_id, no new
# generation, counted as a replay.
OUT="$(python3 -m repro ingest "$BASE" "$INGEST_FILE" 2>&1)" \
    || fail "repro ingest replay failed: $OUT"
case "$OUT" in
    *'1 replayed'*) ;;
    *) fail "replayed batch was not deduplicated: $OUT" ;;
esac
rm -f "$INGEST_FILE"
echo "smoke: ingest + idempotent replay ok"

# The streamed batch touched (Handyman, Birmingham) first, so that cell has
# a recorded trend point for the new generation.
BODY="$(expect 200 "trends" GET "$BASE/v1/trends?dataset=taskrabbit&group=gender%3DFemale&query=Handyman&location=Birmingham%2C%20UK")"
case "$BODY" in
    *'"points"'*) ;;
    *) fail "trends body lacks points: $BODY" ;;
esac
case "$BODY" in
    *'"generation": 2'*|*'"generation":2'*) ;;
    *) fail "trends lack a generation-2 point: $BODY" ;;
esac
echo "smoke: trends ok"

# The perturbed crawl crosses the tiny threshold: alerts must surface in
# the merged /v1/metrics and in the /v1/datasets ingest overlay.
BODY="$(expect 200 "metrics after ingest" GET "$BASE/v1/metrics")"
ALERTS="$(printf '%s\n' "$BODY" | grep -o 'fbox_fairness_alerts_total [0-9]*' | awk '{print $2}')"
[ -n "$ALERTS" ] && [ "$ALERTS" -gt 0 ] || fail "no fairness alerts in metrics (got '${ALERTS:-missing}')"
BODY="$(expect 200 "datasets after ingest" GET "$BASE/v1/datasets")"
case "$BODY" in
    *'"ingest_batches": 1'*|*'"ingest_batches":1'*) ;;
    *) fail "datasets overlay lacks the ingest batch count: $BODY" ;;
esac
echo "smoke: fairness alerts ok"
stop_server

# ----------------------------------------------------------------------
# Pass 5: sharded execution over shared-memory segments + leak check
# ----------------------------------------------------------------------

# Segments from anything else running on this machine are not ours to
# judge: snapshot /dev/shm before boot and diff after shutdown.
SHM_BEFORE="$(ls /dev/shm 2>/dev/null | grep '^fbx' | sort)"

boot_server --shards 2 --alert-threshold 0.0001
expect 200 "sharded readyz" GET "$BASE/v1/readyz" >/dev/null

BODY="$(expect 200 "sharded quantify (taskrabbit)" POST "$BASE/v1/quantify" '{"dataset": "taskrabbit", "dimension": "group", "k": 3}')"
case "$BODY" in
    *'"unfairness"'*) ;;
    *) fail "sharded quantify body lacks unfairness values: $BODY" ;;
esac
expect 200 "sharded quantify (google)" POST "$BASE/v1/quantify" '{"dataset": "google", "dimension": "location", "k": 2}' >/dev/null
echo "smoke: sharded quantify ok (both workers answering)"

# The workers published their cubes: segments must be live in /dev/shm now.
SHM_LIVE="$(ls /dev/shm 2>/dev/null | grep '^fbx' | sort)"
[ "$SHM_LIVE" != "$SHM_BEFORE" ] || fail "sharded server published no /dev/shm segment"

BODY="$(expect 200 "cross-shard batch" POST "$BASE/v1/batch" '[{"op": "quantify", "dataset": "taskrabbit", "dimension": "group", "k": 2}, {"op": "quantify", "dataset": "google", "dimension": "location", "k": 2}]')"
case "$BODY" in
    *'"succeeded": 2'*|*'"succeeded":2'*) ;;
    *) fail "cross-shard batch did not succeed on both items: $BODY" ;;
esac
echo "smoke: cross-shard batch ok"

BODY="$(expect 200 "sharded metrics" GET "$BASE/v1/metrics")"
case "$BODY" in
    *'fbox_cube_builds_total 2'*) ;;
    *) fail "sharded metrics do not merge worker build counts: $BODY" ;;
esac
echo "smoke: sharded metrics merge ok"

BODY="$(expect 200 "schema" GET "$BASE/v1/schema")"
case "$BODY" in
    *'"shard_unavailable"'*) ;;
    *) fail "schema lacks the shard_unavailable error code: $BODY" ;;
esac

# Routing agrees with the published table: every endpoint in /v1/schema
# answers something other than 404, and POST /v1/trends (not published)
# is a 404.
OUT="$(python3 - "$BASE" 2>&1 <<'EOF'
import json, sys, urllib.error, urllib.request
base = sys.argv[1]


def status(method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    headers = {"Content-Type": "application/json"} if data else {}
    request = urllib.request.Request(base + path, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


with urllib.request.urlopen(base + "/v1/schema", timeout=30) as response:
    endpoints = json.load(response)["endpoints"]
for endpoint in endpoints:
    body = {} if endpoint["method"] == "POST" else None
    if status(endpoint["method"], endpoint["path"], body) == 404:
        sys.exit(f"{endpoint['method']} {endpoint['path']} answered 404")
got = status("POST", "/v1/trends", {})
if got != 404:
    sys.exit(f"POST /v1/trends answered {got} (wanted 404)")
print(len(endpoints))
EOF
)" || fail "schema walk: $OUT"
echo "smoke: schema walk ok ($OUT published endpoints route; POST /v1/trends is 404)"

# The write path: ingest must publish a new generation, and the
# post-ingest read must reflect it.
INGEST_FILE="$(mktemp)"
python3 -m repro simulate taskrabbit --scope small --stream \
    --batches 1 --batch-size 2 >"$INGEST_FILE" 2>>"$LOG" \
    || fail "simulate --stream failed (shared memory)"
OUT="$(python3 -m repro ingest "$BASE" "$INGEST_FILE" 2>&1)" \
    || fail "sharded ingest failed: $OUT"
case "$OUT" in
    *'generation 2'*) ;;
    *) fail "sharded ingest did not bump the generation: $OUT" ;;
esac
rm -f "$INGEST_FILE"
expect 200 "post-ingest quantify" POST "$BASE/v1/quantify" '{"dataset": "taskrabbit", "dimension": "group", "k": 3}' >/dev/null
echo "smoke: ingest over shared memory ok"

BODY="$(expect 200 "metrics after ingest" GET "$BASE/v1/metrics")"
case "$BODY" in
    *fbox_segment_attaches_total*) ;;
    *) fail "metrics lack fbox_segment_attaches_total" ;;
esac
echo "smoke: segment metrics ok"

# Graceful shutdown must sweep every segment this server created.
stop_server
SHM_AFTER="$(ls /dev/shm 2>/dev/null | grep '^fbx' | sort)"
[ "$SHM_AFTER" = "$SHM_BEFORE" ] || fail "leaked /dev/shm segments after shutdown: $(printf '%s' "$SHM_AFTER" | tr '\n' ' ')"
echo "smoke: segment sweep ok"

# ----------------------------------------------------------------------
# Pass 6: live shard-pool resize under a background query loop
# ----------------------------------------------------------------------

boot_server --shards 2 --admin-token smoke-token

# Seed the write path so the resize has real state to migrate.
INGEST_FILE="$(mktemp)"
python3 -m repro simulate taskrabbit --scope small --stream \
    --batches 1 --batch-size 2 >"$INGEST_FILE" 2>>"$LOG" \
    || fail "simulate --stream failed (resize)"
python3 -m repro ingest "$BASE" "$INGEST_FILE" >/dev/null 2>&1 \
    || fail "pre-resize ingest failed"

PRE_RESIZE="$(expect 200 "pre-resize quantify" POST "$BASE/v1/quantify" '{"dataset": "taskrabbit", "dimension": "group", "k": 3}')"

# The admin endpoint is armed: no token (or a wrong one) must be a 403.
BODY="$(expect 403 "unauthorized resize" POST "$BASE/v1/admin/shards" '{"count": 4}')"
case "$BODY" in
    *forbidden*) ;;
    *) fail "unauthorized resize lacks the forbidden error kind: $BODY" ;;
esac
echo "smoke: admin token gate ok"

# Background open-loop traffic: FBoxClient retries 429/503 transparently,
# so any surfaced exception is a non-retryable failure — the resize must
# produce none.  The loop records its failures for the post-resize check.
TRAFFIC_LOG="$(mktemp)"
python3 - "$BASE" >"$TRAFFIC_LOG" 2>&1 <<'EOF' &
import sys
from repro.client import FBoxClient, RetryPolicy

base = sys.argv[1]
queries = 0
with FBoxClient(base, retry=RetryPolicy(seed=5)) as client:
    try:
        while True:
            client.quantify("taskrabbit", "group", k=3)
            client.quantify("google", "location", k=2)
            queries += 2
    except BaseException as error:  # noqa: BLE001 - reported to the smoke
        print(f"FAILED after {queries} queries: {error!r}", flush=True)
        raise SystemExit(1)
EOF
TRAFFIC_PID=$!

resize() {
    local count="$1"
    python3 - "$BASE" "$count" <<'EOF'
import sys
from repro.client import FBoxClient, RetryPolicy

base, count = sys.argv[1], int(sys.argv[2])
with FBoxClient(base, retry=RetryPolicy(seed=5)) as client:
    outcome = client.resize(count, token="smoke-token")
    print(f"resized {outcome['from']} -> {outcome['to']} "
          f"(moved {len(outcome['migrated'])})")
EOF
}

resize 4 || { kill "$TRAFFIC_PID" 2>/dev/null; fail "resize to 4 failed"; }
resize 2 || { kill "$TRAFFIC_PID" 2>/dev/null; fail "resize back to 2 failed"; }

kill "$TRAFFIC_PID" 2>/dev/null
wait "$TRAFFIC_PID" 2>/dev/null
case "$(cat "$TRAFFIC_LOG")" in
    *FAILED*) fail "background traffic saw a non-retryable failure: $(cat "$TRAFFIC_LOG")" ;;
esac
rm -f "$TRAFFIC_LOG"
echo "smoke: resize under traffic ok (zero client failures)"

# State survived the round trip: same answer, and the migrated ledger
# still recognizes the original batch as a replay.
POST_RESIZE="$(expect 200 "post-resize quantify" POST "$BASE/v1/quantify" '{"dataset": "taskrabbit", "dimension": "group", "k": 3}')"
PRE_NORM="$(printf '%s' "$PRE_RESIZE" | python3 -c 'import json,sys; d=json.load(sys.stdin); d.pop("cached", None); print(json.dumps(d, sort_keys=True))')"
POST_NORM="$(printf '%s' "$POST_RESIZE" | python3 -c 'import json,sys; d=json.load(sys.stdin); d.pop("cached", None); print(json.dumps(d, sort_keys=True))')"
[ "$PRE_NORM" = "$POST_NORM" ] || fail "post-resize answer diverged: $POST_NORM vs $PRE_NORM"
OUT="$(python3 -m repro ingest "$BASE" "$INGEST_FILE" 2>&1)" \
    || fail "post-resize replay failed: $OUT"
case "$OUT" in
    *'1 replayed'*) ;;
    *) fail "post-resize replay was not deduplicated: $OUT" ;;
esac
rm -f "$INGEST_FILE"

BODY="$(expect 200 "metrics after resize" GET "$BASE/v1/metrics")"
case "$BODY" in
    *'fbox_resizes_total 2'*) ;;
    *) fail "metrics do not count both resizes: $BODY" ;;
esac
echo "smoke: resize state + metrics ok"
stop_server

# ----------------------------------------------------------------------
# Pass 7: the scenario catalog + runtime scenario registration
# ----------------------------------------------------------------------

boot_server --shards 2 --admin-token smoke-token

# GET /v1/scenarios advertises the preset catalog (paginated).
BODY="$(expect 200 "scenario catalog" GET "$BASE/v1/scenarios")"
case "$BODY" in
    *'"null_no_bias"'*) ;;
    *) fail "scenario catalog lacks null_no_bias: $BODY" ;;
esac
echo "smoke: scenario catalog ok"

# Register the null scenario at runtime; the admin gate must hold first.
BODY="$(expect 403 "unauthorized dataset registration" POST "$BASE/v1/datasets" '{"name": "nb", "scenario": "null_no_bias"}')"
case "$BODY" in
    *forbidden*) ;;
    *) fail "unauthorized registration lacks the forbidden error kind: $BODY" ;;
esac
python3 - "$BASE" <<'EOF' || fail "scenario registration via POST /v1/datasets failed"
import sys
from repro.client import FBoxClient, RetryPolicy

with FBoxClient(sys.argv[1], retry=RetryPolicy(max_attempts=1, seed=0)) as client:
    document = client.register_scenario("nb", "null_no_bias", token="smoke-token")
    assert document["dataset"] == "nb", document
    assert document["scenario"] == "null_no_bias", document
    listing = {entry["name"]: entry for entry in client.datasets()["datasets"]}
    assert listing["nb"]["loaded"] is False, listing["nb"]  # lazy until queried
EOF
echo "smoke: runtime dataset registration ok"
stop_server

echo "smoke: PASS"
exit 0
