#!/bin/sh
# repl_smoke.sh — end-to-end replication smoke test.
#
# Builds nepal, starts a WAL-backed primary over the demo topology plus
# two -follow read replicas on ephemeral ports, then checks the cluster
# behaviors the replication layer promises:
#   1. both replicas answer /readyz with role=replica once caught up;
#   2. a query against a replica returns replicated demo data and
#      carries the applied-through staleness watermark;
#   3. writes against a replica are rejected with the typed read_only
#      error;
#   4. replication lag metrics appear in the replica's /metrics;
#   5. a replica killed with SIGKILL and restarted on its -wal-dir,
#      while the primary checkpoints and takes a write, resumes the
#      feed from its own log: it catches up with no bootstrap;
#   6. -connect -promote turns a replica into a writable primary;
#   7. failover: the primary is killed, replica 1 is promoted and acks
#      writes under a higher epoch, and when the old primary restarts
#      from its WAL a write carrying the new epoch fences it — the
#      write is rejected stale_primary and /readyz reports fenced.
# Finally every node is shut down with SIGTERM and must exit cleanly.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
PRIMARY_PID=""; R1_PID=""; R2_PID=""; OLD_PID=""
trap 'kill $PRIMARY_PID $R1_PID $R2_PID $OLD_PID 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "repl-smoke: building nepal..."
go build -o "$TMP/nepal" ./cmd/nepal

# wait_addr LOGFILE PID — scrape the bound address from a server log.
wait_addr() {
    _addr=""
    for _ in $(seq 1 100); do
        _addr="$(sed -n 's|.*serving on http://\([0-9.:]*\).*|\1|p' "$1" | head -n 1)"
        [ -n "$_addr" ] && break
        kill -0 "$2" 2>/dev/null || { echo "repl-smoke: server died during startup:" >&2; cat "$1" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$_addr" ] || { echo "repl-smoke: server never logged its address" >&2; cat "$1" >&2; exit 1; }
    echo "$_addr"
}

"$TMP/nepal" -demo -wal-dir "$TMP/primary-wal" -serve 127.0.0.1:0 2>"$TMP/primary.log" &
PRIMARY_PID=$!
PRIMARY="$(wait_addr "$TMP/primary.log" "$PRIMARY_PID")"
echo "repl-smoke: primary up at $PRIMARY"

"$TMP/nepal" -serve 127.0.0.1:0 -follow "http://$PRIMARY" -wal-dir "$TMP/r1-wal" 2>"$TMP/r1.log" &
R1_PID=$!
"$TMP/nepal" -serve 127.0.0.1:0 -follow "http://$PRIMARY" -wal-dir "$TMP/r2-wal" 2>"$TMP/r2.log" &
R2_PID=$!
R1="$(wait_addr "$TMP/r1.log" "$R1_PID")"
R2="$(wait_addr "$TMP/r2.log" "$R2_PID")"
echo "repl-smoke: replicas up at $R1, $R2"

# 1. Both replicas must reach ready (caught up within lag tolerance).
for R in "$R1" "$R2"; do
    READY=""
    for _ in $(seq 1 100); do
        READY="$(curl -fsS "http://$R/readyz" 2>/dev/null || true)"
        case "$READY" in *'"status":"ready"'*) break ;; esac
        sleep 0.1
    done
    case "$READY" in
        *'"status":"ready"'*'"role":"replica"'*|*'"role":"replica"'*'"status":"ready"'*)
            echo "repl-smoke: $R ready as replica" ;;
        *) echo "repl-smoke: $R never became ready: $READY"; exit 1 ;;
    esac
done

# 2. Replicated reads answer on a replica, stamped with the watermark.
Q="Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)"
OUT="$("$TMP/nepal" -connect "http://$R1" -q "$Q")"
echo "$OUT"
case "$OUT" in
    *"rows)"*) echo "repl-smoke: replicated query ok" ;;
    *) echo "repl-smoke: unexpected replica query output"; exit 1 ;;
esac
BODY="$(curl -fsS -D "$TMP/headers" -X POST "http://$R1/v1/query" \
    -H 'Content-Type: application/json' \
    -d '{"query":"Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)"}')"
grep -qi '^X-Nepal-Applied-Through:' "$TMP/headers" || {
    echo "repl-smoke: replica response missing X-Nepal-Applied-Through header"; exit 1; }
case "$BODY" in
    *'"applied_through"'*) echo "repl-smoke: staleness watermark stamped" ;;
    *) echo "repl-smoke: replica response missing applied_through"; exit 1 ;;
esac

# 3. Writes against a replica fail typed read_only.
WRITE="$(curl -sS -X POST "http://$R1/v1/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"ops":[{"op":"insert-node","class":"ComputeHost","fields":{"id":424242,"name":"smoke","rack":"rz","status":"Active"}}]}')"
case "$WRITE" in
    *'"code":"read_only"'*) echo "repl-smoke: replica rejected write as read_only" ;;
    *) echo "repl-smoke: replica accepted a write (or wrong error): $WRITE"; exit 1 ;;
esac

# 4. Replication lag metrics are visible in the Prometheus dump.
METRICS="$(curl -fsS -H 'Accept: text/plain' "http://$R1/metrics")"
for M in repl_follower_applied_index repl_follower_lag_records repl_follower_lag_seconds; do
    case "$METRICS" in
        *"$M"*) ;;
        *) echo "repl-smoke: /metrics missing $M"; exit 1 ;;
    esac
done
echo "repl-smoke: lag metrics exported"

# 5. Kill replica 1 outright, checkpoint the primary past everything the
# replica logged, write once more, and restart the replica on its WAL
# directory: it recovers its log and resumes the feed where the log
# ends, so it catches up with zero bootstraps (a fresh replica would
# need the snapshot now).
kill -KILL "$R1_PID"
wait "$R1_PID" 2>/dev/null || true
curl -fsS -X POST "http://$PRIMARY/v1/checkpoint" >/dev/null
curl -fsS -X POST "http://$PRIMARY/v1/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"ops":[{"op":"insert-node","class":"ComputeHost","fields":{"id":414141,"name":"while-down","rack":"rz","status":"Active"}}]}' >/dev/null
"$TMP/nepal" -serve 127.0.0.1:0 -follow "http://$PRIMARY" -wal-dir "$TMP/r1-wal" 2>"$TMP/r1-restart.log" &
R1_PID=$!
R1="$(wait_addr "$TMP/r1-restart.log" "$R1_PID")"
READY=""
for _ in $(seq 1 100); do
    READY="$(curl -fsS "http://$R1/readyz" 2>/dev/null || true)"
    case "$READY" in *'"caught_up":true'*) break ;; esac
    sleep 0.1
done
# /readyz omits a zero bootstrap count.
case "$READY" in
    *'"bootstraps":'*) echo "repl-smoke: restarted replica bootstrapped: $READY"; exit 1 ;;
    *'"status":"ready"'*'"caught_up":true'*) echo "repl-smoke: restarted replica at $R1 resumed from its log: caught up, bootstraps 0" ;;
    *) echo "repl-smoke: restarted replica never caught up: $READY"; exit 1 ;;
esac
OUT="$("$TMP/nepal" -connect "http://$R1" -q "Select source(H).name From PATHS H Where H MATCHES ComputeHost(id=414141)")"
case "$OUT" in
    *while-down*) echo "repl-smoke: restarted replica serves the write it missed" ;;
    *) echo "repl-smoke: restarted replica lacks the write it missed: $OUT"; exit 1 ;;
esac

# 6. Promote replica 2; it must flip to role=primary and accept writes.
"$TMP/nepal" -connect "http://$R2" -promote
READY="$(curl -fsS "http://$R2/readyz")"
case "$READY" in
    *'"role":"primary"'*) echo "repl-smoke: promoted replica reports role=primary" ;;
    *) echo "repl-smoke: promoted replica still a replica: $READY"; exit 1 ;;
esac
WRITE="$(curl -fsS -X POST "http://$R2/v1/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"ops":[{"op":"insert-node","class":"ComputeHost","fields":{"id":434343,"name":"post-promote","rack":"rz","status":"Active"}}]}')"
case "$WRITE" in
    *'"applied":1'*) echo "repl-smoke: promoted replica acks writes" ;;
    *) echo "repl-smoke: promoted replica rejected a write: $WRITE"; exit 1 ;;
esac

# 7. Failover with fencing: kill the primary, promote replica 1, write
# to the new primary, restart the old primary from its WAL, and check
# that a write carrying the new epoch fences it.
kill -TERM "$PRIMARY_PID"
wait "$PRIMARY_PID" || true
PRIMARY_PID=""
echo "repl-smoke: primary killed for failover"

"$TMP/nepal" -connect "http://$R1" -promote
EPOCH="$(curl -fsS "http://$R1/readyz" | sed -n 's|.*"epoch":\([0-9]*\).*|\1|p')"
[ -n "$EPOCH" ] && [ "$EPOCH" -ge 2 ] || {
    echo "repl-smoke: promoted node did not mint a higher epoch: $(curl -fsS "http://$R1/readyz")"; exit 1; }
echo "repl-smoke: replica 1 promoted at epoch $EPOCH"
WRITE="$(curl -fsS -X POST "http://$R1/v1/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"ops":[{"op":"insert-node","class":"ComputeHost","fields":{"id":454545,"name":"post-failover","rack":"rz","status":"Active"}}]}')"
case "$WRITE" in
    *'"applied":1'*) echo "repl-smoke: new primary acks writes after failover" ;;
    *) echo "repl-smoke: new primary rejected a write: $WRITE"; exit 1 ;;
esac

# The old primary comes back from its WAL still believing it is the
# primary at the old epoch. A write stamped with the cluster's current
# epoch — what internal/client sends automatically — must teach it the
# truth: the write is rejected stale_primary and the node fences.
"$TMP/nepal" -wal-dir "$TMP/primary-wal" -serve 127.0.0.1:0 2>"$TMP/old.log" &
OLD_PID=$!
OLD="$(wait_addr "$TMP/old.log" "$OLD_PID")"
echo "repl-smoke: old primary restarted at $OLD"
STALE="$(curl -sS -X POST "http://$OLD/v1/ingest" \
    -H 'Content-Type: application/json' \
    -H "X-Nepal-Epoch: $EPOCH" \
    -d '{"ops":[{"op":"insert-node","class":"ComputeHost","fields":{"id":464646,"name":"split-brain","rack":"rz","status":"Active"}}]}')"
case "$STALE" in
    *'"code":"stale_primary"'*) echo "repl-smoke: stale primary rejected the write as stale_primary" ;;
    *) echo "repl-smoke: stale primary accepted a write (or wrong error): $STALE"; exit 1 ;;
esac
READY="$(curl -sS "http://$OLD/readyz")"
case "$READY" in
    *'"status":"fenced"'*) echo "repl-smoke: stale primary reports fenced in /readyz" ;;
    *) echo "repl-smoke: stale primary not fenced: $READY"; exit 1 ;;
esac

for PAIR in "old-primary:$OLD_PID" "replica1:$R1_PID" "replica2:$R2_PID"; do
    NAME="${PAIR%%:*}"; PID="${PAIR##*:}"
    kill -TERM "$PID"
    if wait "$PID"; then
        echo "repl-smoke: $NAME graceful shutdown ok"
    else
        echo "repl-smoke: $NAME exited nonzero on SIGTERM"; exit 1
    fi
done
echo "repl-smoke: ok"
