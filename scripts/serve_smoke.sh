#!/bin/sh
# serve_smoke.sh — end-to-end serving smoke test.
#
# Builds the nepal binary, starts it as a server over the demo topology
# on an ephemeral port, waits until /healthz answers through the Go
# client (-connect checks health before querying), runs one pathway
# query over the wire, checks that a request asking for more paths than
# the server's -max-paths bound still answers 422 "limit" (a request may
# tighten the server's limits, never loosen them), checks that an
# integer above 2^53 ingested as JSON is stored exactly (a query by that
# id finds the host) and reads back with every digit, and shuts the server
# down with SIGTERM, checking it exits cleanly (graceful drain + store
# close).
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
LOG="$TMP/server.log"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "serve-smoke: building nepal..."
go build -o "$TMP/nepal" ./cmd/nepal

"$TMP/nepal" -demo -max-paths 2 -serve 127.0.0.1:0 2>"$LOG" &
SERVER_PID=$!

# The server logs its bound address once the listener is up.
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's|.*serving on http://\([0-9.:]*\).*|\1|p' "$LOG" | head -n 1)"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "serve-smoke: server died during startup:"; cat "$LOG"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] && echo "serve-smoke: server up at $ADDR" || { echo "serve-smoke: server never logged its address"; cat "$LOG"; exit 1; }

Q="Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)"
OUT="$("$TMP/nepal" -connect "http://$ADDR" -q "$Q")"
echo "$OUT"
case "$OUT" in
    *"rows)"*) echo "serve-smoke: query over the wire ok" ;;
    *) echo "serve-smoke: unexpected query output"; exit 1 ;;
esac

# The unanchored query binds 3 pathways, over the server's bound of 2:
# the request's own, larger max_paths must not lift it.
BODY='{"query": "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()", "limits": {"max_paths": 1000000}}'
STATUS="$(curl -s -o "$TMP/limit.json" -w '%{http_code}' -d "$BODY" "http://$ADDR/v1/query")"
cat "$TMP/limit.json"; echo
if [ "$STATUS" = 422 ] && grep -q '"code":"limit"' "$TMP/limit.json"; then
    echo "serve-smoke: request limits cannot loosen the server's ok"
else
    echo "serve-smoke: looser request limits answered $STATUS, want 422 limit"; exit 1
fi

# 2^53 + 1 has no float64: the JSON ingest path must keep it an integer,
# or the lookup by id finds nothing.
BIG=9007199254740993
BODY="{\"ops\": [{\"op\": \"insert-node\", \"class\": \"ComputeHost\", \"fields\": {\"id\": $BIG, \"name\": \"hbig\", \"rack\": \"r9\", \"status\": \"Active\"}}]}"
STATUS="$(curl -s -o "$TMP/ingest.json" -w '%{http_code}' -d "$BODY" "http://$ADDR/v1/ingest")"
[ "$STATUS" = 200 ] || { echo "serve-smoke: ingest answered $STATUS:"; cat "$TMP/ingest.json"; exit 1; }
OUT="$("$TMP/nepal" -connect "http://$ADDR" -q "Select source(H).name From PATHS H Where H MATCHES Host(id=$BIG)")"
echo "$OUT"
case "$OUT" in
    *"(1 rows)"*) echo "serve-smoke: integer above 2^53 stored exactly ok" ;;
    *) echo "serve-smoke: Host(id=$BIG) did not find the ingested host"; exit 1 ;;
esac
# Read back over the wire, the id keeps every digit: the client decodes
# an answer's numbers by the rule the ingest path applies.
OUT="$("$TMP/nepal" -connect "http://$ADDR" -q "Select source(H).id From PATHS H Where H MATCHES Host(id=$BIG)")"
echo "$OUT"
case "$OUT" in
    *"$BIG"*) echo "serve-smoke: integer above 2^53 read back exactly ok" ;;
    *) echo "serve-smoke: Host(id=$BIG).id did not read back as $BIG"; exit 1 ;;
esac

kill -TERM "$SERVER_PID"
if wait "$SERVER_PID"; then
    echo "serve-smoke: graceful shutdown ok"
else
    echo "serve-smoke: server exited nonzero on SIGTERM:"; cat "$LOG"; exit 1
fi
