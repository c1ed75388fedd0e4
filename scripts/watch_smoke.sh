#!/bin/sh
# watch_smoke.sh — end-to-end change-feed smoke test.
#
# Builds nepal, starts a WAL-backed primary over the demo topology plus
# one -follow read replica (which logs what it applies into its own
# -wal-dir and serves the feed off that log), then checks the watch subsystem's promises:
#   1. nepal -connect -watch tails the feed from index 0: one JSON line
#      per demo mutation, indexes dense from 0;
#   2. -watch-from resumes mid-stream at exactly that index;
#   3. an SSE subscription on the REPLICA sees a mutation ingested on
#      the primary, with the right class, name, stream index, and epoch;
#   4. a -watch tail parked at the primary's log end wakes on the next
#      ingest (the client's resubscribe loop over the server's long-poll);
#   5. a standing pathway query (/v1/watch/query) pushes its initial
#      full snapshot and then an incremental delta when a matching
#      node is ingested;
#   6. a resume token older than the oldest retained position answers
#      410 watch_compacted with the fresh base;
#   7. watch.* metrics appear in the Prometheus dump.
# Finally both nodes are shut down with SIGTERM and must exit cleanly,
# which also proves the drain broadcast unparks streaming handlers.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
PRIMARY_PID=""; R1_PID=""; SSE_PID=""; SQ_PID=""; TAIL_PID=""
trap 'kill $PRIMARY_PID $R1_PID $SSE_PID $SQ_PID $TAIL_PID 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "watch-smoke: building nepal..."
go build -o "$TMP/nepal" ./cmd/nepal

# wait_addr LOGFILE PID — scrape the bound address from a server log.
wait_addr() {
    _addr=""
    for _ in $(seq 1 100); do
        _addr="$(sed -n 's|.*serving on http://\([0-9.:]*\).*|\1|p' "$1" | head -n 1)"
        [ -n "$_addr" ] && break
        kill -0 "$2" 2>/dev/null || { echo "watch-smoke: server died during startup:" >&2; cat "$1" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$_addr" ] || { echo "watch-smoke: server never logged its address" >&2; cat "$1" >&2; exit 1; }
    echo "$_addr"
}

# wait_grep PATTERN FILE — poll until PATTERN appears in FILE.
# wait_grep PATTERN FILE [TENTHS]: poll FILE for PATTERN, every 0.1 s,
# for TENTHS tenths of a second (default 100).
wait_grep() {
    for _ in $(seq 1 "${3:-100}"); do
        grep -q "$1" "$2" 2>/dev/null && return 0
        sleep 0.1
    done
    echo "watch-smoke: never saw '$1' in $2:" >&2
    cat "$2" >&2
    return 1
}

"$TMP/nepal" -demo -wal-dir "$TMP/primary-wal" -serve 127.0.0.1:0 2>"$TMP/primary.log" &
PRIMARY_PID=$!
PRIMARY="$(wait_addr "$TMP/primary.log" "$PRIMARY_PID")"
echo "watch-smoke: primary up at $PRIMARY"

"$TMP/nepal" -serve 127.0.0.1:0 -follow "http://$PRIMARY" -wal-dir "$TMP/r1-wal" 2>"$TMP/r1.log" &
R1_PID=$!
R1="$(wait_addr "$TMP/r1.log" "$R1_PID")"
READY=""
for _ in $(seq 1 100); do
    READY="$(curl -fsS "http://$R1/readyz" 2>/dev/null || true)"
    case "$READY" in *'"status":"ready"'*) break ;; esac
    sleep 0.1
done
case "$READY" in
    *'"status":"ready"'*) echo "watch-smoke: replica up at $R1" ;;
    *) echo "watch-smoke: replica never became ready: $READY"; exit 1 ;;
esac

# 1. CLI tail from the log start: the demo build's mutations, one JSON
# line each, dense from index 0. The -timeout bound ends the tail.
"$TMP/nepal" -connect "http://$PRIMARY" -watch -timeout 2s >"$TMP/tail.jsonl"
LINES="$(wc -l < "$TMP/tail.jsonl")"
[ "$LINES" -ge 10 ] || { echo "watch-smoke: -watch printed only $LINES lines"; exit 1; }
head -n 1 "$TMP/tail.jsonl" | grep -q '"index":0' || {
    echo "watch-smoke: first event is not index 0: $(head -n 1 "$TMP/tail.jsonl")"; exit 1; }
echo "watch-smoke: -watch tailed $LINES events from index 0"

# 2. -watch-from resumes mid-stream.
"$TMP/nepal" -connect "http://$PRIMARY" -watch -watch-from 5 -timeout 2s >"$TMP/resume.jsonl"
head -n 1 "$TMP/resume.jsonl" | grep -q '"index":5' || {
    echo "watch-smoke: resumed stream starts with $(head -n 1 "$TMP/resume.jsonl"); want index 5"; exit 1; }
echo "watch-smoke: -watch-from resumed at index 5"

# 3. Subscribe on the REPLICA over SSE at its current tail, ingest on
# the primary, and check the event crosses the replication hop with the
# right class, name, stream index, and epoch.
DURABLE="$(curl -fsS "http://$R1/v1/watch?from=0&max_events=1" | sed -n 's|.*"durable":\([0-9]*\).*|\1|p')"
[ -n "$DURABLE" ] || { echo "watch-smoke: replica watch poll carried no durable index"; exit 1; }
curl -fsSN "http://$R1/v1/watch?stream=sse&from=$DURABLE" >"$TMP/sse.out" 2>/dev/null &
SSE_PID=$!
sleep 0.3
curl -fsS -X POST "http://$PRIMARY/v1/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"ops":[{"op":"insert-node","class":"ComputeHost","fields":{"id":515151,"name":"watch-smoke","rack":"rz","status":"Active"}}]}' >/dev/null
wait_grep '"name":"watch-smoke"' "$TMP/sse.out"
grep -q 'event: mutation' "$TMP/sse.out" || { echo "watch-smoke: SSE frame missing event: mutation"; cat "$TMP/sse.out"; exit 1; }
EVLINE="$(grep '"name":"watch-smoke"' "$TMP/sse.out" | head -n 1)"
case "$EVLINE" in
    *'"op":"insert_node"'*'"class":"ComputeHost"'*) ;;
    *) echo "watch-smoke: replica event mistyped: $EVLINE"; exit 1 ;;
esac
echo "$EVLINE" | grep -q "\"index\":$DURABLE" || {
    echo "watch-smoke: replica event index != subscribed tail $DURABLE: $EVLINE"; exit 1; }
echo "$EVLINE" | grep -q '"epoch":[1-9]' || {
    echo "watch-smoke: replica event carries no epoch: $EVLINE"; exit 1; }
echo "watch-smoke: replica SSE delivered the primary's mutation at index $DURABLE"

# 4. A -watch tail parked at the primary's log end: the long-poll must
# wake on the next append and print that event. Each of the tail's
# polls holds for 10 s, so the event must arrive within 3 s of the
# ingest: a poll that missed the append and timed out would only read
# it on the next poll. The tail logs "watching" after its health check,
# just before its first poll.
PDURABLE="$(curl -fsS "http://$PRIMARY/v1/watch?from=0&max_events=1" | sed -n 's|.*"durable":\([0-9]*\).*|\1|p')"
[ -n "$PDURABLE" ] || { echo "watch-smoke: primary watch poll carried no durable index"; exit 1; }
"$TMP/nepal" -connect "http://$PRIMARY" -watch -watch-from "$PDURABLE" -timeout 30s >"$TMP/woken.jsonl" 2>"$TMP/woken.log" &
TAIL_PID=$!
wait_grep "watching http://$PRIMARY from stream index $PDURABLE" "$TMP/woken.log"
sleep 0.5
[ ! -s "$TMP/woken.jsonl" ] || {
    echo "watch-smoke: tail at the log end printed before any ingest: $(cat "$TMP/woken.jsonl")"; exit 1; }
curl -fsS -X POST "http://$PRIMARY/v1/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"ops":[{"op":"insert-node","class":"ComputeHost","fields":{"id":535353,"name":"woken-poll","rack":"rz","status":"Active"}}]}' >/dev/null
wait_grep '"name":"woken-poll"' "$TMP/woken.jsonl" 30
grep '"name":"woken-poll"' "$TMP/woken.jsonl" | grep -q "\"index\":$PDURABLE" || {
    echo "watch-smoke: woken tail's event is not at index $PDURABLE: $(cat "$TMP/woken.jsonl")"; exit 1; }
kill "$TAIL_PID" 2>/dev/null || true
TAIL_PID=""
echo "watch-smoke: a -watch tail parked at index $PDURABLE woke on the next ingest"

# 5. Standing query: initial full snapshot, then an incremental delta
# when a matching ComputeHost lands.
curl -fsSNG "http://$PRIMARY/v1/watch/query" \
    --data-urlencode 'name=smoke-hosts' \
    --data-urlencode 'q=Select source(P).name From PATHS P Where P MATCHES ComputeHost()' \
    >"$TMP/sq.out" 2>/dev/null &
SQ_PID=$!
wait_grep '"full":true' "$TMP/sq.out"
echo "watch-smoke: standing query pushed its initial snapshot"
curl -fsS -X POST "http://$PRIMARY/v1/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"ops":[{"op":"insert-node","class":"ComputeHost","fields":{"id":525252,"name":"standing-delta","rack":"rz","status":"Active"}}]}' >/dev/null
wait_grep 'standing-delta' "$TMP/sq.out"
echo "watch-smoke: standing query pushed an incremental delta"

# 6. Compaction: checkpoint the primary's WAL, then a from=0 resume
# must answer 410 watch_compacted with the fresh base.
curl -fsS -X POST "http://$PRIMARY/v1/checkpoint" >/dev/null
GONE="$(curl -sS "http://$PRIMARY/v1/watch?from=0&max_events=1")"
case "$GONE" in
    *'"code":"watch_compacted"'*) echo "watch-smoke: pre-checkpoint token rejected watch_compacted" ;;
    *) echo "watch-smoke: compacted resume not rejected: $GONE"; exit 1 ;;
esac

# 7. watch.* metrics are visible in the Prometheus dump.
METRICS="$(curl -fsS -H 'Accept: text/plain' "http://$PRIMARY/metrics")"
for M in watch_events watch_standing_evals watch_standing_deltas watch_standing_queries; do
    case "$METRICS" in
        *"$M"*) ;;
        *) echo "watch-smoke: /metrics missing $M"; exit 1 ;;
    esac
done
echo "watch-smoke: watch metrics exported"

# Shut everything down; SIGTERM must drain the parked SSE streams and
# exit zero.
kill "$SSE_PID" "$SQ_PID" 2>/dev/null || true
SSE_PID=""; SQ_PID=""
for PAIR in "replica:$R1_PID" "primary:$PRIMARY_PID"; do
    NAME="${PAIR%%:*}"; PID="${PAIR##*:}"
    kill -TERM "$PID"
    if wait "$PID"; then
        echo "watch-smoke: $NAME graceful shutdown ok"
    else
        echo "watch-smoke: $NAME exited nonzero on SIGTERM"; exit 1
    fi
done
echo "watch-smoke: ok"
