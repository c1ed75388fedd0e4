#!/bin/sh
# obs_smoke.sh — end-to-end observability smoke test.
#
# Starts the nepal server over the demo topology with an access log,
# runs a query over the wire, and then checks all three telemetry
# surfaces from the outside:
#   1. /metrics with Accept: text/plain parses as Prometheus exposition
#      (# HELP/# TYPE headers, histogram _bucket{le=...}/_sum/_count)
#      with a live runtime heap gauge (go_heap_inuse_bytes > 0).
#   2. /debug/traces lists the just-run query, and its trace ID
#      resolves at /debug/traces/{id} to a span tree with the server
#      phases and the engine operator spans.
#   3. An EXPLAIN ANALYZE query is a traced run like any other: its
#      trace holds the engine's Query span and operator spans.
#   4. The access log holds one JSON line per request, tagged with a
#      trace ID.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
LOG="$TMP/server.log"
ACCESS="$TMP/access.log"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "obs-smoke: building nepal..."
go build -o "$TMP/nepal" ./cmd/nepal

"$TMP/nepal" -demo -serve 127.0.0.1:0 -access-log "$ACCESS" 2>"$LOG" &
SERVER_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's|.*serving on http://\([0-9.:]*\).*|\1|p' "$LOG" | head -n 1)"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "obs-smoke: server died during startup:"; cat "$LOG"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] && echo "obs-smoke: server up at $ADDR" || { echo "obs-smoke: server never logged its address"; cat "$LOG"; exit 1; }

Q="Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)"
"$TMP/nepal" -connect "http://$ADDR" -q "$Q" >/dev/null
echo "obs-smoke: query over the wire ok"

# 1. Prometheus exposition.
PROM="$(curl -sf -H 'Accept: text/plain' "http://$ADDR/metrics")"
for want in "# HELP " "# TYPE server_requests counter" \
    "# TYPE server_request_latency_ms histogram" \
    "server_request_latency_ms_bucket{le=" \
    "server_request_latency_ms_sum" "server_request_latency_ms_count" \
    "nepal_build_info{" "nepal_uptime_seconds" \
    "# TYPE go_heap_inuse_bytes gauge"; do
    case "$PROM" in
        *"$want"*) ;;
        *) echo "obs-smoke: /metrics exposition missing: $want"; echo "$PROM" | head -40; exit 1 ;;
    esac
done
# No sample line may keep the registry's dotted spelling.
if echo "$PROM" | grep -v '^#' | grep -q '^[a-zA-Z_:][a-zA-Z0-9_:]*\.'; then
    echo "obs-smoke: /metrics leaked unsanitized metric names"; exit 1
fi
# The runtime heap gauge is read at scrape time: a live server's is > 0.
HEAP="$(echo "$PROM" | sed -n 's/^go_heap_inuse_bytes \([0-9.e+]*\)$/\1/p')"
awk -v h="${HEAP:-0}" 'BEGIN {exit !(h > 0)}' || { echo "obs-smoke: go_heap_inuse_bytes is '$HEAP', want > 0"; exit 1; }
echo "obs-smoke: /metrics Prometheus exposition ok (heap in use $HEAP bytes)"

# 2. Trace store: the query we just ran is listed, and its ID resolves
# to a span tree with the server phases and engine spans.
TRACES="$(curl -sf "http://$ADDR/debug/traces")"
case "$TRACES" in
    *"Retrieve P From PATHS P"*) ;;
    *) echo "obs-smoke: /debug/traces does not list the query"; echo "$TRACES"; exit 1 ;;
esac
TRACE_ID="$(echo "$TRACES" | tr ',' '\n' | sed -n 's|.*"trace_id":"\([0-9a-f]\{32\}\)".*|\1|p' | head -n 1)"
[ -n "$TRACE_ID" ] || { echo "obs-smoke: no trace id in /debug/traces"; exit 1; }
DETAIL="$(curl -sf "http://$ADDR/debug/traces/$TRACE_ID")"
for want in '"name":"Request"' '"name":"Execute"' '"name":"Query"' "rendered"; do
    case "$DETAIL" in
        *"$want"*) ;;
        *) echo "obs-smoke: trace detail missing $want"; echo "$DETAIL"; exit 1 ;;
    esac
done
echo "obs-smoke: /debug/traces span tree ok (trace $TRACE_ID)"

# 3. EXPLAIN ANALYZE: the response's trace ID resolves to a span tree
# with the engine's operator DAG, not just the server phases.
ANALYZE="$(curl -sf "http://$ADDR/v1/query" -d "{\"query\":\"$Q\",\"explain\":\"analyze\"}")"
ANALYZE_ID="$(echo "$ANALYZE" | tr ',' '\n' | sed -n 's|.*"trace_id":"\([0-9a-f]\{32\}\)".*|\1|p' | head -n 1)"
[ -n "$ANALYZE_ID" ] || { echo "obs-smoke: no trace id in the explain analyze response"; echo "$ANALYZE"; exit 1; }
DETAIL="$(curl -sf "http://$ADDR/debug/traces/$ANALYZE_ID")"
case "$DETAIL" in
    *'"name":"Query"'*) ;;
    *) echo "obs-smoke: explain analyze trace has no Query span"; echo "$DETAIL"; exit 1 ;;
esac
case "$DETAIL" in
    *'"name":"Select"'* | *'"name":"Extend"'*) ;;
    *) echo "obs-smoke: explain analyze trace has no operator span"; echo "$DETAIL"; exit 1 ;;
esac
echo "obs-smoke: explain analyze trace holds the operator DAG (trace $ANALYZE_ID)"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "obs-smoke: server exited nonzero:"; cat "$LOG"; exit 1; }

# 4. Access log: one JSON line per request, every line trace-tagged.
[ -s "$ACCESS" ] || { echo "obs-smoke: access log is empty"; exit 1; }
LINES="$(wc -l < "$ACCESS")"
BAD="$(grep -cv '"trace_id":"' "$ACCESS" || true)"
[ "$BAD" -eq 0 ] || { echo "obs-smoke: $BAD access-log lines lack a trace id"; cat "$ACCESS"; exit 1; }
echo "obs-smoke: access log ok ($LINES lines, all trace-tagged)"
echo "obs-smoke: PASS"
