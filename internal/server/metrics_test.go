package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// wantMetricKeys is the /metrics key set of a WAL-backed gremlin server
// after one query, one ingest, one standing-query registration and one
// checkpoint. db.queries_aborted is resolved when the DB opens, so it is
// listed (at 0) before any query aborts.
var wantMetricKeys = []string{
	"backend.gremlin.anchor_probes", "backend.gremlin.edge_probes", "backend.gremlin.unique_lookups",
	"db.queries", "db.queries_aborted", "db.query_edges_scanned", "db.query_latency_ms",
	"engine.gremlin.anchor_records", "engine.gremlin.edges_scanned", "engine.gremlin.eval_latency_ms",
	"engine.gremlin.evals", "engine.gremlin.partials_explored", "engine.gremlin.paths_emitted",
	"nepal.build_info", "nepal.uptime_seconds",
	"repl.epoch", "repl.source.batches", "repl.source.bytes_shipped", "repl.source.diverged_requests",
	"repl.source.poll_waiters", "repl.source.records_shipped", "repl.source.snapshots_served",
	"repl.source.stale_epoch_requests", "repl.source.truncated_requests",
	"server.admission_wait_ms", "server.admitted", "server.fenced", "server.in_flight",
	"server.plan_cache_evictions", "server.plan_cache_hits", "server.plan_cache_misses",
	"server.plan_cache_size", "server.queued", "server.rejected", "server.request_latency_ms",
	"server.requests",
	"stats.statements_evicted", "stats.statements_tracked",
	"store.class_scans", "store.live_objects", "store.snapshot_apply_ms", "store.snapshots_applied",
	"store.versions",
	"wal.append_bytes", "wal.append_errors", "wal.appends", "wal.base_index", "wal.checkpoint_ms",
	"wal.checkpoints", "wal.fsync_ms", "wal.fsyncs", "wal.next_index", "wal.recovered_records",
	"wal.recoveries", "wal.recovery_skipped_records", "wal.stream_read_bytes",
	"watch.events", "watch.standing.deltas", "watch.standing.errors", "watch.standing.evals",
	"watch.standing.lagged", "watch.standing.queries", "watch.standing.skipped",
}

// TestMetricsKeySet: every component's metrics reach /metrics, whichever
// registry they were built on — the DB's own (store, backend, engine,
// WAL, db.*) or the server's (admission, cache, statistics, watch,
// replication source).
func TestMetricsKeySet(t *testing.T) {
	s, _, url, c := newWatchServer(t, server.Config{})
	ctx := context.Background()
	if _, err := c.Query(ctx, selectQ, nil); err != nil {
		t.Fatal(err)
	}
	if err := ingestHost(ctx, c, 4242); err != nil {
		t.Fatal(err)
	}
	sub, err := s.Hub().Register("hosts", "Select source(H).name From PATHS H Where H MATCHES ComputeHost()", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := c.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest("GET", url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range snap {
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, wantMetricKeys) {
		t.Errorf("/metrics keys:\n got %q\nwant %q", got, wantMetricKeys)
	}
}

// TestRecoveryCountedOnce: the WAL records its recovery once, when the
// DB opens, however many servers publish the DB's metrics.
func TestRecoveryCountedOnce(t *testing.T) {
	_, db, _, _ := newWatchServer(t, server.Config{})
	reg := obs.NewRegistry()
	for range 2 {
		s := server.New(db, server.Config{Registry: reg})
		t.Cleanup(s.Hub().Close)
	}
	if n := reg.Counter("wal.recoveries").Value(); n != 1 {
		t.Errorf("wal.recoveries = %d after two servers over one DB; want 1", n)
	}
}
