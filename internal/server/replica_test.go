package server_test

// Full-stack replica tests: a WAL-backed primary server streams to a
// follower server over real HTTP, and the replica surface — read-only
// enforcement, bounded-staleness reads, /readyz, /v1/promote — is
// exercised through the client.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/query"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

// openReplicaDB opens the empty WAL-backed store a replica serves: it
// logs what it applies.
func openReplicaDB(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.Open(netmodel.MustSchema(), core.WithWALOptions(t.TempDir(), wal.Options{NoSync: true}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// newReplicaPair stands up a WAL-backed primary with demo data and a
// follower server replicating from it. Returns both clients plus the
// follower handle for status polling.
func newReplicaPair(t *testing.T) (primary, replica *client.Client, f *repl.Follower) {
	t.Helper()
	pdb := newDemoDB(t, core.WithWALOptions(t.TempDir(), wal.Options{NoSync: true}))
	t.Cleanup(func() { pdb.Close() })
	_, pc := newTestServer(t, pdb, server.Config{})

	fs, rc := newTestServer(t, openReplicaDB(t), server.Config{
		Follow: &repl.FollowerConfig{
			Primary:      pc.Base(),
			PollWait:     200 * time.Millisecond,
			ReconnectMin: 5 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
		},
		MaxStalenessWait: 250 * time.Millisecond,
	})
	t.Cleanup(fs.Follower().Stop)
	return pc, rc, fs.Follower()
}

// TestFollowRequiresWAL: a replica logs what it applies, so a follower
// over an in-memory DB is refused at construction.
func TestFollowRequiresWAL(t *testing.T) {
	db, err := core.Open(netmodel.MustSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	defer func() {
		if recover() == nil {
			t.Fatal("server.New accepted Follow over an in-memory DB")
		}
	}()
	server.New(db, server.Config{Follow: &repl.FollowerConfig{Primary: "http://127.0.0.1:1"}})
}

func waitCaughtUp(t *testing.T, f *repl.Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := f.Status(); st.CaughtUp {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never caught up: %+v", f.Status())
}

func TestReplicaServesReads(t *testing.T) {
	pc, rc, f := newReplicaPair(t)
	waitCaughtUp(t, f)
	ctx := context.Background()

	want, err := pc.Query(ctx, selectQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rc.Query(ctx, selectQ, nil)
	if err != nil {
		t.Fatalf("replica query: %v", err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("replica returned %d rows; primary %d", len(got.Rows), len(want.Rows))
	}
	if got.AppliedThrough == "" {
		t.Fatal("replica answer missing applied_through watermark")
	}
	if _, err := time.Parse(repl.ClockFormat, got.AppliedThrough); err != nil {
		t.Fatalf("applied_through %q unparseable: %v", got.AppliedThrough, err)
	}
	if want.AppliedThrough != "" {
		t.Fatalf("primary answer carries applied_through %q; want empty", want.AppliedThrough)
	}
}

func TestReplicaRejectsWrites(t *testing.T) {
	_, rc, f := newReplicaPair(t)
	waitCaughtUp(t, f)
	ctx := context.Background()

	_, err := rc.Ingest(ctx, []server.IngestOp{{Op: "insert-node", Class: "Host", Fields: map[string]any{"id": int64(999999), "name": "h"}}})
	if !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("ingest on replica: %v; want ErrReadOnly", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 403 {
		t.Fatalf("ingest rejection status: %v; want 403", err)
	}
	if err := rc.Checkpoint(ctx); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("checkpoint on replica: %v; want ErrReadOnly", err)
	}
}

// TestReplicaBoundedStaleness pins the min_timestamp contract: a caught-
// up replica satisfies it, a stalled one answers typed replica_lagging
// with a Retry-After hint.
func TestReplicaBoundedStaleness(t *testing.T) {
	pc, rc, f := newReplicaPair(t)
	waitCaughtUp(t, f)
	ctx := context.Background()

	// Caught up: a min_timestamp at the primary's current watermark is
	// satisfied within the staleness wait.
	now := time.Now().UTC().Format(time.RFC3339Nano)
	if _, err := rc.Query(ctx, selectQ, &client.QueryOptions{MinTimestamp: now}); err != nil {
		t.Fatalf("caught-up replica rejected min_timestamp=now: %v", err)
	}

	// Garbage min_timestamp is a 400, not a wait.
	_, err := rc.Query(ctx, selectQ, &client.QueryOptions{MinTimestamp: "not-a-time"})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("bad min_timestamp: %v; want 400", err)
	}

	// Stall replication, write through the primary, and demand a
	// timestamp the replica can no longer reach.
	f.Stop()
	if _, err := pc.Ingest(ctx, []server.IngestOp{{Op: "insert-node", Class: "Host", Fields: map[string]any{"id": int64(888888), "name": "late"}}}); err != nil {
		t.Fatal(err)
	}
	future := time.Now().UTC().Add(time.Hour).Format(time.RFC3339Nano)
	_, err = rc.Query(ctx, selectQ, &client.QueryOptions{MinTimestamp: future})
	if !errors.Is(err, client.ErrReplicaLagging) {
		t.Fatalf("stalled replica: %v; want ErrReplicaLagging", err)
	}
	if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
		t.Fatalf("replica_lagging missing Retry-After hint: %v", err)
	}

	// The primary ignores min_timestamp waits entirely — it is always
	// current.
	if _, err := pc.Query(ctx, selectQ, &client.QueryOptions{MinTimestamp: future}); err != nil {
		t.Fatalf("primary rejected min_timestamp: %v", err)
	}
}

func TestReadyzRolesAndLag(t *testing.T) {
	pc, rc, f := newReplicaPair(t)
	ctx := context.Background()

	ready, st, err := pc.Ready(ctx)
	if err != nil || !ready {
		t.Fatalf("primary /readyz: ready=%v st=%+v err=%v", ready, st, err)
	}
	if st.Role != "primary" {
		t.Fatalf("primary role = %q", st.Role)
	}

	waitCaughtUp(t, f)
	ready, st, err = rc.Ready(ctx)
	if err != nil || !ready {
		t.Fatalf("caught-up replica /readyz: ready=%v err=%v", ready, err)
	}
	if st.Role != "replica" || !st.CaughtUp {
		t.Fatalf("replica status: %+v", st)
	}
	if st.AppliedThrough == "" {
		t.Fatal("replica /readyz missing applied_through")
	}

	// Replication lag is visible in the metrics registry.
	metrics, err := rc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"repl_follower_applied_index", "repl_follower_lag_records", "repl_follower_lag_seconds", "repl_follower_reconnects"} {
		if !strings.Contains(metrics, key) {
			t.Errorf("/metrics missing %s", key)
		}
	}
}

// TestFollowerOfReplicaPinsNothing points a fresh follower at a
// WAL-backed replica that was never promoted. The replica's WAL is its
// own empty log, not the stream it follows, so its feed answers 503
// not_primary: the chained follower must pin no log, never report itself
// caught up, and refuse a min_timestamp read instead of answering it
// from an empty store.
func TestFollowerOfReplicaPinsNothing(t *testing.T) {
	_, rc, f := newReplicaPair(t)
	waitCaughtUp(t, f)

	cs, cc := newTestServer(t, openReplicaDB(t), server.Config{
		Follow: &repl.FollowerConfig{
			Primary:      rc.Base(),
			PollWait:     200 * time.Millisecond,
			ReconnectMin: 5 * time.Millisecond,
			ReconnectMax: 20 * time.Millisecond,
		},
		MaxStalenessWait: 250 * time.Millisecond,
	})
	chained := cs.Follower()
	t.Cleanup(chained.Stop)

	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(chained.Status().LastError, "not_primary") {
		if time.Now().After(deadline) {
			t.Fatalf("chained follower never saw not_primary: %+v", chained.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // a few more polls against the replica
	if st := chained.Status(); st.CaughtUp || st.Applied != 0 || st.Pinned {
		t.Fatalf("follower of an unpromoted replica: %+v; want no progress and no pinned log", st)
	}
	now := time.Now().UTC().Format(time.RFC3339Nano)
	if _, err := cc.Query(context.Background(), selectQ, &client.QueryOptions{MinTimestamp: now}); !errors.Is(err, client.ErrReplicaLagging) {
		t.Fatalf("min_timestamp read on the chained follower: %v; want ErrReplicaLagging", err)
	}
}

func TestPromoteTurnsReplicaWritable(t *testing.T) {
	pc, rc, f := newReplicaPair(t)
	waitCaughtUp(t, f)
	ctx := context.Background()

	// Promote on the primary is a 400 — it is not a replica.
	if _, err := pc.Promote(ctx); err == nil {
		t.Fatal("promote on primary succeeded")
	}
	// The replica stamps its watermark in the body and the header; once
	// promoted, it stamps neither.
	if body, hdr := appliedThrough(t, rc.Base()); body == "" || hdr != body {
		t.Fatalf("replica applied_through: body %q, header %q; want equal and set", body, hdr)
	}
	// A watch token past the replica's end is history it has yet to apply:
	// 503, which a cluster subscriber answers by reading another node.
	if status := watchPastEnd(t, rc); status != http.StatusServiceUnavailable {
		t.Fatalf("replica watch past its end: HTTP %d; want 503", status)
	}

	resp, err := rc.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !resp.Promoted {
		t.Fatalf("promote response: %+v", resp)
	}
	// Idempotent.
	if _, err := rc.Promote(ctx); err != nil {
		t.Fatalf("second promote: %v", err)
	}

	// The ex-replica now acks writes and reports itself primary.
	if _, err := rc.Ingest(ctx, []server.IngestOp{{Op: "insert-node", Class: "Host", Fields: map[string]any{"id": int64(777777), "name": "post-promote"}}}); err != nil {
		t.Fatalf("ingest after promote: %v", err)
	}
	ready, st, err := rc.Ready(ctx)
	if err != nil || !ready {
		t.Fatalf("promoted /readyz: ready=%v err=%v", ready, err)
	}
	if st.Role != "primary" {
		t.Fatalf("promoted role = %q", st.Role)
	}
	res, err := rc.Query(ctx, "Select source(P).name From PATHS P Where P MATCHES Host(id=777777)", nil)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("read-your-write after promote: rows=%v err=%v", res, err)
	}
	if body, hdr := appliedThrough(t, rc.Base()); body != "" || hdr != "" {
		t.Fatalf("promoted node stamps applied_through: body %q, header %q; want neither", body, hdr)
	}
	// A primary never applies history it did not log: the token is bad.
	if status := watchPastEnd(t, rc); status != http.StatusBadRequest {
		t.Fatalf("promoted node watch past its end: HTTP %d; want 400", status)
	}
}

// watchPastEnd polls c's change feed far past its end and returns the
// HTTP status of the typed refusal.
func watchPastEnd(t *testing.T, c *client.Client) int {
	t.Helper()
	var apiErr *client.APIError
	if _, err := c.WatchPoll(context.Background(), 1<<40, nil); !errors.As(err, &apiErr) {
		t.Fatalf("watch past the end: %v; want an API error", err)
	}
	return apiErr.Status
}

// appliedThrough runs one query against base over raw HTTP and returns
// the applied_through watermark from the body and from the header.
func appliedThrough(t *testing.T, base string) (body, header string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(`{"query": "`+selectQ+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr server.QueryResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&qr) != nil {
		t.Fatalf("query on %s: HTTP %d", base, resp.StatusCode)
	}
	return qr.AppliedThrough, resp.Header.Get(repl.HeaderAppliedThrough)
}

// TestTimestampSpellings: one parser reads every timestamp at the edge,
// so an AT clause, a request's min_timestamp and a timestamp field
// accept and refuse the same spellings.
func TestTimestampSpellings(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	ctx := context.Background()
	for i, tc := range []struct {
		spelling string
		ok       bool
	}{
		{"2017-02-15 10:00:00", true},
		{"2017-02-15 10:00", true},
		{"2017-02-15", true},
		{"2017-02-15T10:00:00Z", true},
		{"2017-02-15T10:00:00.123456789+02:00", true},
		{"9999-99-99", false},
		{"2017-02-15 25:00:00", false},
		{"2017-99-99 garbage", false},
		{"yesterday", false},
	} {
		_, atErr := query.Parse("AT '" + tc.spelling + "' " + retrieveQ)
		_, minErr := c.Query(ctx, selectQ, &client.QueryOptions{MinTimestamp: tc.spelling})
		_, fieldErr := c.Ingest(ctx, []server.IngestOp{{Op: "insert-node", Class: "ComputeHost",
			Fields: map[string]any{"id": int64(7000 + i), "name": "h", "rack": "r", "status": "Active",
				"alarms": []any{map[string]any{"code": "c", "raisedAt": tc.spelling}}}}})
		for what, err := range map[string]error{"AT": atErr, "min_timestamp": minErr, "a timestamp field": fieldErr} {
			if (err == nil) != tc.ok {
				t.Errorf("%s %q: err = %v, want accepted = %v", what, tc.spelling, err, tc.ok)
			}
		}
	}
}
