package server_test

// Workload-introspection tests over the full stack: a concurrent mixed
// workload through real HTTP must aggregate under stable literal-masked
// digests with correct counts and percentiles, the per-digest series
// must ride /metrics, reset must clear the table, and /debug/cluster
// must map a primary/replica pair.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/wal"
)

func TestStatementStatsConcurrentWorkload(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	ctx := context.Background()

	// Two statement shapes: literal variants of selectQ must collapse to
	// one digest; retrieveQ is a second digest.
	selectVariant := func(id int) string {
		return fmt.Sprintf("Select source(P).name From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=%d)", id)
	}

	const workers = 8
	const perWorker = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var err error
				if i%2 == 0 {
					_, err = c.Query(ctx, selectVariant(1001+(w+i)%4), nil)
				} else {
					_, err = c.Query(ctx, retrieveQ, nil)
				}
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()

	// One limit-tripped execution: the outcome must land in the digest's
	// limit bucket, not the ok count.
	_, err := c.Query(ctx, retrieveQ, &client.QueryOptions{Limits: &server.Limits{MaxEdgesScanned: 1}})
	if !errors.Is(err, client.ErrLimit) {
		t.Fatalf("expected limit error, got %v", err)
	}

	resp, err := c.StatementStats(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sort != stats.SortTotalTime {
		t.Errorf("default sort = %q, want %q", resp.Sort, stats.SortTotalTime)
	}
	if resp.Tracked != 2 || len(resp.Statements) != 2 {
		t.Fatalf("tracked %d digests (%d rows), want 2: %+v", resp.Tracked, len(resp.Statements), resp.Statements)
	}

	byStmt := map[string]stats.StatementStats{}
	for _, row := range resp.Statements {
		if row.Digest == "" || row.Statement == "" {
			t.Fatalf("row missing digest or normalized text: %+v", row)
		}
		byStmt[row.Statement] = row
	}
	var sel, ret stats.StatementStats
	for text, row := range byStmt {
		if strings.Contains(text, "SELECT") || strings.Contains(text, "Select") {
			sel = row
		} else {
			ret = row
		}
	}
	wantSel := int64(workers * perWorker / 2)
	wantRet := int64(workers*perWorker/2) + 1 // + the limit-tripped call
	if sel.Calls != wantSel || sel.OK != wantSel {
		t.Errorf("select digest: calls=%d ok=%d, want %d/%d", sel.Calls, sel.OK, wantSel, wantSel)
	}
	if ret.Calls != wantRet || ret.OK != wantRet-1 || ret.LimitHits != 1 {
		t.Errorf("retrieve digest: calls=%d ok=%d limit=%d, want %d/%d/1", ret.Calls, ret.OK, ret.LimitHits, wantRet, wantRet-1)
	}
	for _, row := range []stats.StatementStats{sel, ret} {
		if row.TotalMS <= 0 || row.MeanMS <= 0 || row.EdgesScanned <= 0 {
			t.Errorf("digest %s: totals not accumulated: %+v", row.Digest, row)
		}
		if row.P50MS <= 0 || row.P95MS < row.P50MS || row.P99MS < row.P95MS {
			t.Errorf("digest %s: percentiles not monotone positive: p50=%v p95=%v p99=%v",
				row.Digest, row.P50MS, row.P95MS, row.P99MS)
		}
	}
	// Literal variants of selectQ hit distinct plan-cache entries but the
	// same digest; re-running one exact text produces a plan-cache hit
	// attributed to that digest.
	if _, err := c.Query(ctx, selectVariant(1001), nil); err != nil {
		t.Fatal(err)
	}
	resp, err = c.StatementStats(ctx, stats.SortCalls, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hits int64
	for _, row := range resp.Statements {
		hits += row.PlanCacheHits
	}
	if hits == 0 {
		t.Error("no plan-cache hits attributed to any digest")
	}

	// The wire response carries the digest, and it matches the stats row.
	res, err := c.Query(ctx, retrieveQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != ret.Digest {
		t.Errorf("query response digest %q != stats digest %q", res.Digest, ret.Digest)
	}

	// sort=calls orders by call count; limit truncates rows, not Tracked.
	resp, err = c.StatementStats(ctx, stats.SortCalls, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Statements) != 1 || resp.Tracked != 2 {
		t.Errorf("limit=1: got %d rows, tracked %d, want 1 rows / 2 tracked", len(resp.Statements), resp.Tracked)
	}

	// Unknown sort is a typed 400.
	if _, err := c.StatementStats(ctx, "bogus", 0); err == nil {
		t.Error("unknown sort accepted")
	}

	// Per-digest series ride the Prometheus exposition, bounded.
	prom, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom, `statement_calls_total{digest="`+ret.Digest+`"}`) {
		t.Error("per-digest statement_calls_total series missing from /metrics")
	}
	if !strings.Contains(prom, "stats_statements_tracked 2") {
		t.Error("stats_statements_tracked gauge missing from /metrics")
	}

	// The digest is stamped on retained request traces.
	traces, err := c.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range traces.Traces {
		if tr.Digest == ret.Digest {
			found = true
			break
		}
	}
	if !found {
		t.Error("no retained trace carries the statement digest")
	}

	// Reset clears the table.
	if err := c.ResetStats(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = c.StatementStats(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tracked != 0 || len(resp.Statements) != 0 || resp.Evicted != 0 {
		t.Errorf("reset left residue: %+v", resp)
	}
}

func TestStatementStatsDisabled(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{StatementStatsSize: -1})
	ctx := context.Background()
	if _, err := c.Query(ctx, retrieveQ, nil); err != nil {
		t.Fatal(err)
	}
	var ae *client.APIError
	if _, err := c.StatementStats(ctx, "", 0); !errors.As(err, &ae) || ae.Code != "not_found" {
		t.Fatalf("disabled stats endpoint should 404 typed, got %v", err)
	}
	if err := c.ResetStats(ctx); !errors.As(err, &ae) || ae.Code != "not_found" {
		t.Fatalf("disabled stats reset should 404 typed, got %v", err)
	}
}

// TestClusterView stands up a WAL-backed primary and a replica whose
// Peers list names the primary plus a dead endpoint, then asserts the
// replica's /debug/cluster maps all three: itself, the reachable
// primary with role/epoch, and the unreachable peer with an error.
func TestClusterView(t *testing.T) {
	pdb := newDemoDB(t, core.WithWALOptions(t.TempDir(), wal.Options{NoSync: true}))
	t.Cleanup(func() { pdb.Close() })
	_, pc := newTestServer(t, pdb, server.Config{})

	deadPeer := "http://127.0.0.1:1"
	fs, rc := newTestServer(t, openReplicaDB(t), server.Config{
		Follow: &repl.FollowerConfig{
			Primary:      pc.Base(),
			PollWait:     200 * time.Millisecond,
			ReconnectMin: 5 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
		},
		Peers: []string{pc.Base(), deadPeer},
	})
	t.Cleanup(fs.Follower().Stop)
	waitCaughtUp(t, fs.Follower())

	view, err := rc.ClusterView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Nodes) != 3 {
		t.Fatalf("cluster view has %d nodes, want 3: %+v", len(view.Nodes), view.Nodes)
	}
	self := view.Nodes["self"]
	if !self.Self || !self.Reachable || self.Ready == nil || self.Ready.Role != "replica" {
		t.Errorf("self entry wrong: %+v", self)
	}
	prim := view.Nodes[pc.Base()]
	if !prim.Reachable || prim.Ready == nil {
		t.Fatalf("primary peer not probed: %+v", prim)
	}
	if prim.Ready.Role != "primary" || prim.Ready.Status != "ready" || prim.Ready.Epoch == 0 {
		t.Errorf("primary readyz wrong: %+v", prim.Ready)
	}
	if prim.Ready.AppliedIndex == 0 {
		t.Errorf("primary applied index missing from cluster view: %+v", prim.Ready)
	}
	if self.Ready.Epoch != prim.Ready.Epoch {
		t.Errorf("replica pinned to epoch %d, primary serves %d", self.Ready.Epoch, prim.Ready.Epoch)
	}
	dead := view.Nodes[deadPeer]
	if dead.Reachable || dead.Error == "" {
		t.Errorf("dead peer should be unreachable with an error: %+v", dead)
	}

	// The client-side cluster view (no server Peers needed) sees both
	// endpoints with their roles.
	cl, err := client.NewCluster(client.ClusterConfig{Primary: pc.Base(), Replicas: []string{rc.Base()}})
	if err != nil {
		t.Fatal(err)
	}
	cv := cl.Stats(context.Background())
	if len(cv.Nodes) != 2 {
		t.Fatalf("client cluster stats has %d nodes, want 2", len(cv.Nodes))
	}
	if n := cv.Nodes[pc.Base()]; !n.Reachable || n.Ready == nil || n.Ready.Role != "primary" {
		t.Errorf("client view primary wrong: %+v", n)
	}
	if n := cv.Nodes[rc.Base()]; !n.Reachable || n.Ready == nil || n.Ready.Role != "replica" {
		t.Errorf("client view replica wrong: %+v", n)
	}
}
