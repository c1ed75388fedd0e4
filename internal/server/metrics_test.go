package server_test

import (
	"context"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
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
	"go.gc_cycles", "go.gc_pause_cpu_seconds", "go.goroutines", "go.heap_inuse_bytes",
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
	"wal.checkpoints", "wal.fsync_ms", "wal.fsyncs", "wal.group_records", "wal.next_index", "wal.recovered_records",
	"wal.recoveries", "wal.recovery_skipped_records", "wal.stream_read_bytes",
	"watch.events", "watch.standing.deltas", "watch.standing.errors", "watch.standing.evals",
	"watch.standing.lagged", "watch.standing.patched", "watch.standing.queries", "watch.standing.skipped",
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

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Every family the registry writes, leaving out the per-digest
	// statement series written after it.
	var got []string
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && !strings.HasPrefix(f[2], "statement_") {
			got = append(got, f[2])
		}
	}
	want := make([]string, len(wantMetricKeys))
	for i, k := range wantMetricKeys {
		want[i] = obs.PromName(k)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("/metrics families:\n got %q\nwant %q", got, want)
	}
}

// scrape reads reg's Prometheus exposition into a map from each sample's
// series (its name, with labels if any) to its value.
func scrape(reg *obs.Registry) map[string]float64 {
	var sb strings.Builder
	obs.WritePrometheus(&sb, reg)
	out := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
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
