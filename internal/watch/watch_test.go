package watch

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/wal"
)

func openWALDB(t *testing.T, extra ...core.Option) *core.DB {
	t.Helper()
	db, err := core.Open(netmodel.MustSchema(), append([]core.Option{core.WithWALOptions(t.TempDir(), wal.Options{NoSync: true})}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func openMemDB(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.Open(netmodel.MustSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func insertHost(t *testing.T, db *core.DB, id int64, name string) graph.UID {
	t.Helper()
	uid, err := db.InsertNode("ComputeHost", graph.Fields{"id": id, "name": name, "rack": "rw", "status": "Active"})
	if err != nil {
		t.Fatal(err)
	}
	return uid
}

func insertTOR(t *testing.T, db *core.DB, id int64, name string) graph.UID {
	t.Helper()
	uid, err := db.InsertNode("TORSwitch", graph.Fields{"id": id, "name": name, "status": "Active"})
	if err != nil {
		t.Fatal(err)
	}
	return uid
}

// TestWALFeedDecodesAndEnriches proves the primary feed turns raw WAL
// frames into typed, schema-enriched events at their stream indexes.
func TestWALFeedDecodesAndEnriches(t *testing.T) {
	db := openWALDB(t)
	h1 := insertHost(t, db, 1, "host-a")
	h2 := insertHost(t, db, 2, "host-b")
	tor := insertTOR(t, db, 3, "tor-a")
	if _, err := db.InsertEdge(netmodel.PhysicalLink, h1, tor, graph.Fields{"id": int64(900)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(h1, graph.Fields{"id": int64(1), "name": "host-a", "rack": "rw", "status": "Down"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(h2); err != nil {
		t.Fatal(err)
	}

	feed := NewWALFeed(db.WAL(), db.Store())
	events, next, err := feed.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != feed.NextIndex() || len(events) != int(next) {
		t.Fatalf("read %d events, next=%d, feed end %d", len(events), next, feed.NextIndex())
	}
	for i, ev := range events {
		if ev.Index != uint64(i) {
			t.Fatalf("event %d carries index %d", i, ev.Index)
		}
		if ev.At.IsZero() {
			t.Fatalf("event %d missing tx timestamp", i)
		}
	}
	if events[0].Op != "insert_node" || events[0].Class != "ComputeHost" || events[0].Kind != "node" {
		t.Fatalf("insert event not enriched: %+v", events[0])
	}
	edge := events[3]
	if edge.Op != "insert_edge" || edge.Kind != "edge" || edge.Src != int64(h1) || edge.Dst != int64(tor) {
		t.Fatalf("edge event not enriched: %+v", edge)
	}
	// Updates and deletes carry no class on the wire; enrichment resolves
	// it from the store's (dead-object-retaining) object table.
	if events[4].Op != "update" || events[4].Class != "ComputeHost" {
		t.Fatalf("update event not enriched: %+v", events[4])
	}
	if events[5].Op != "delete" || events[5].Class != "ComputeHost" || events[5].UID != int64(h2) {
		t.Fatalf("delete event not enriched: %+v", events[5])
	}

	// Caught up: same position, no events, and Changed wakes on append.
	ch := feed.Changed()
	if evs, n, err := feed.Read(next, 0); err != nil || len(evs) != 0 || n != next {
		t.Fatalf("caught-up read: %d events, next %d, err %v", len(evs), n, err)
	}
	insertHost(t, db, 4, "host-c")
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("Changed never fired on append")
	}
	if evs, _, err := feed.Read(next, 0); err != nil || len(evs) != 1 {
		t.Fatalf("incremental read after append: %d events, err %v", len(evs), err)
	}
}

// TestWALFeedCheckpointBoundary proves resume-token semantics across a
// checkpoint: a token exactly at BaseIndex serves, one before it
// answers typed compacted with the fresh base.
func TestWALFeedCheckpointBoundary(t *testing.T) {
	db := openWALDB(t)
	for i := int64(0); i < 5; i++ {
		insertHost(t, db, i, "pre-checkpoint")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feed := NewWALFeed(db.WAL(), db.Store())
	base := feed.BaseIndex()
	if base == 0 {
		t.Fatal("checkpoint did not advance the base; boundary test proves nothing")
	}

	// Exactly at the boundary: fine, resumes with whatever follows.
	insertHost(t, db, 100, "post-checkpoint")
	events, _, err := feed.Read(base, 0)
	if err != nil {
		t.Fatalf("read at base: %v", err)
	}
	if len(events) != 1 || events[0].Index != base {
		t.Fatalf("read at base returned %+v", events)
	}

	// One before the boundary: typed compacted carrying the fresh token.
	_, _, err = feed.Read(base-1, 0)
	var ce *CompactedError
	if !errors.As(err, &ce) || !IsCompacted(err) {
		t.Fatalf("read below base returned %v; want CompactedError", err)
	}
	if ce.Base != base {
		t.Fatalf("compacted error carries base %d; want %d", ce.Base, base)
	}
}

// TestFollowerFeedRing proves the replica-side ring: contiguous appends
// serve by index, overflow advances the base (old tokens answer
// compacted), and an index gap — a snapshot bootstrap — resets cleanly.
func TestFollowerFeedRing(t *testing.T) {
	db := openMemDB(t)
	f := repl.NewFollower(db.Store(), repl.FollowerConfig{Primary: "http://127.0.0.1:0"})
	feed := NewFollowerFeed(repl.NewNode(db.Store(), nil, f), db.Store(), nil, 4)
	defer feed.Close()

	mut := func(i int64) *graph.Mutation {
		return &graph.Mutation{Op: graph.OpInsertNode, UID: graph.UID(1000 + i), Class: "ComputeHost",
			Fields: graph.Fields{"id": i}, At: time.Unix(i, 0)}
	}
	for i := int64(0); i < 3; i++ {
		feed.Observe(uint64(i), mut(i))
	}
	events, next, err := feed.Read(1, 0)
	if err != nil || len(events) != 2 || next != 3 {
		t.Fatalf("ring read: %d events next %d err %v", len(events), next, err)
	}
	if events[0].Index != 1 || events[0].Class != "ComputeHost" || events[0].Kind != "node" {
		t.Fatalf("ring event not enriched: %+v", events[0])
	}

	// Overflow the 4-slot ring: base must advance, old tokens compact.
	for i := int64(3); i < 10; i++ {
		feed.Observe(uint64(i), mut(i))
	}
	if base := feed.BaseIndex(); base != 6 {
		t.Fatalf("ring base after overflow = %d; want 6", base)
	}
	_, _, err = feed.Read(2, 0)
	var ce *CompactedError
	if !errors.As(err, &ce) || ce.Base != 6 {
		t.Fatalf("overflowed read returned %v; want compacted at 6", err)
	}
	if events, _, err := feed.Read(6, 0); err != nil || len(events) != 4 {
		t.Fatalf("read from new base: %d events err %v", len(events), err)
	}

	// A non-contiguous index (snapshot bootstrap jumped the position)
	// resets the ring there; the skipped prefix is compacted history.
	feed.Observe(50, mut(50))
	if base, nxt := feed.BaseIndex(), feed.NextIndex(); base != 50 || nxt != 51 {
		t.Fatalf("gap reset: base %d next %d; want 50/51", base, nxt)
	}
}

// TestPromotedFeedSurvivesCheckpoint: a promoted replica's feed pump
// that falls behind a checkpoint must restart its ring at the WAL's base
// and keep reading, not stall at the contracted position forever.
func TestPromotedFeedSurvivesCheckpoint(t *testing.T) {
	db := openWALDB(t)
	f := repl.NewFollower(db.Store(), repl.FollowerConfig{Primary: "http://127.0.0.1:0"})
	node := repl.NewNode(db.Store(), db.WAL(), f)
	// No pump goroutine: syncWAL is driven by hand below.
	feed := NewFollowerFeed(node, db.Store(), nil, 0)
	feed.mgr = db.WAL()
	defer feed.Close()
	if _, _, err := feed.Read(feed.NextIndex()+1, 0); !errors.Is(err, ErrBehind) {
		t.Fatalf("replica read past its end: %v; want ErrBehind", err)
	}
	if _, _, err := node.Promote(0); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		insertHost(t, db, i, "pre-checkpoint")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := int64(3); i < 5; i++ {
		insertHost(t, db, i, "post-checkpoint")
	}

	feed.syncWAL()
	mgr := db.WAL()
	if feed.BaseIndex() != mgr.BaseIndex() || feed.NextIndex() != mgr.NextIndex() {
		t.Fatalf("wal base %d next %d; feed base %d next %d",
			mgr.BaseIndex(), mgr.NextIndex(), feed.BaseIndex(), feed.NextIndex())
	}
	events, _, err := feed.Read(feed.BaseIndex(), 0)
	if err != nil || len(events) != 2 || events[0].Index != mgr.BaseIndex() {
		t.Fatalf("read after the reset: %+v, %v; want the two post-checkpoint events", events, err)
	}
	if _, _, err := feed.Read(0, 0); !IsCompacted(err) {
		t.Fatalf("read of a contracted position: %v; want compacted", err)
	}

	insertHost(t, db, 5, "later")
	feed.syncWAL()
	if feed.NextIndex() != mgr.NextIndex() {
		t.Fatalf("feed next %d after a later append; wal next %d", feed.NextIndex(), mgr.NextIndex())
	}
	// Promoted, the node logs its own history: a token past the end is an
	// error, not history still to come.
	if _, _, err := feed.Read(feed.NextIndex()+1, 0); err == nil || errors.Is(err, ErrBehind) {
		t.Fatalf("promoted read past its end: %v; want a plain error", err)
	}
}

// TestStandingQueryIncrementality is the footprint-filter proof: a
// mutation outside a standing query's class footprint triggers zero
// re-evaluations (watch.standing.skipped advances instead), and one
// inside it produces exactly the delta the subscriber sees.
func TestStandingQueryIncrementality(t *testing.T) {
	db := openWALDB(t)
	insertHost(t, db, 1, "host-a")

	feed := NewWALFeed(db.WAL(), db.Store())
	reg := obs.NewRegistry()
	hub := NewHub(db, feed, reg)
	defer hub.Close()
	evals := reg.Counter("watch.standing.evals")
	skipped := reg.Counter("watch.standing.skipped")

	sub, err := hub.Register("hosts", "Select source(P).name From PATHS P Where P MATCHES ComputeHost()", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	fp := sub.Footprint()
	if len(fp) == 0 {
		t.Fatal("empty footprint; the filter would never skip")
	}
	for _, c := range fp {
		if c == "TORSwitch" {
			t.Fatal("TORSwitch leaked into a ComputeHost query's footprint")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n, err := sub.Next(ctx)
	if err != nil || n.Kind != KindDelta || !n.Delta.Full {
		t.Fatalf("initial notification = %+v, %v; want full delta", n, err)
	}
	if len(n.Delta.Added) != 1 {
		t.Fatalf("initial snapshot holds %d rows; want 1", len(n.Delta.Added))
	}

	// Out-of-footprint churn: TORSwitch inserts must all be skipped.
	for i := int64(0); i < 5; i++ {
		insertTOR(t, db, 100+i, "tor")
	}
	waitCounter(t, skipped, 1)
	if got := evals.Value(); got != 0 {
		t.Fatalf("out-of-footprint mutations triggered %d re-evaluations; want 0", got)
	}

	// In-footprint mutation: re-evaluated, delta delivered.
	insertHost(t, db, 2, "host-b")
	n, err = sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != KindDelta || n.Delta.Full || len(n.Delta.Added) != 1 {
		t.Fatalf("in-footprint delta = %+v", n.Delta)
	}
	if evals.Value() == 0 {
		t.Fatal("in-footprint mutation did not advance watch.standing.evals")
	}

	// Removal: delete the host, the delta reports the row leaving.
	res, err := db.Query("Select source(P).name From PATHS P Where P MATCHES ComputeHost(name='host-b')")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("lookup before delete: %v rows=%v", err, res)
	}
	uid, err := db.InsertNode("ComputeHost", graph.Fields{"id": int64(3), "name": "host-c", "rack": "rw", "status": "Active"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(ctx); err != nil { // consume host-c's delta
		t.Fatal(err)
	}
	if err := db.Delete(uid); err != nil {
		t.Fatal(err)
	}
	n, err = sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Delta.Removed) != 1 {
		t.Fatalf("delete delta = %+v; want one removed row", n.Delta)
	}
}

// TestStandingQueryFailureIsSurfaced makes a standing query fail after
// registration — an ingest grows its result past the DB's MaxPaths — and
// proves the subscriber is told, typed, exactly once, and keeps its
// subscription: once a delete brings the result back under the limit,
// deltas resume relative to the last result it was sent.
func TestStandingQueryFailureIsSurfaced(t *testing.T) {
	db := openWALDB(t, core.WithLimits(exec.Limits{MaxPaths: 1}))
	hostA := insertHost(t, db, 1, "host-a")
	reg := obs.NewRegistry()
	hub := NewHub(db, NewWALFeed(db.WAL(), db.Store()), reg)
	defer hub.Close()

	sub, err := hub.Register("hosts", "Select source(P).name From PATHS P Where P MATCHES ComputeHost()", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if n, err := sub.Next(ctx); err != nil || !n.Delta.Full {
		t.Fatalf("initial notification = %+v, %v; want full delta", n, err)
	}

	insertHost(t, db, 2, "host-b")
	n, err := sub.Next(ctx)
	if err != nil || n.Kind != KindFailed || n.Outcome != "limit" || n.Error == "" || n.Resume != db.WAL().NextIndex() {
		t.Fatalf("notification after the limit was crossed = %+v, %v; want watch_query_failed, outcome limit", n, err)
	}
	if got := reg.Counter("watch.standing.errors").Value(); got != 1 {
		t.Fatalf("watch.standing.errors = %d; want 1", got)
	}

	if err := db.Delete(hostA); err != nil {
		t.Fatal(err)
	}
	n, err = sub.Next(ctx)
	if err != nil || n.Kind != KindDelta || n.Delta.Full ||
		!slices.Equal(n.Delta.Added, []string{"host-b"}) || !slices.Equal(n.Delta.Removed, []string{"host-a"}) {
		t.Fatalf("delta back under the limit = %+v, %v; want host-b added and host-a removed", n, err)
	}
}

// countingFeed counts the Reads a hub makes of its feed.
type countingFeed struct {
	Feed
	reads atomic.Int64
}

func (f *countingFeed) Read(from uint64, maxEvents int) ([]Event, uint64, error) {
	f.reads.Add(1)
	return f.Feed.Read(from, maxEvents)
}

// TestIdleHubReadsNothing: a hub with no standing query registered reads
// nothing from its feed however many writes land, and a query registered
// after them still gets a delta for the next write, at an index covering
// that write.
func TestIdleHubReadsNothing(t *testing.T) {
	db := openWALDB(t)
	feed := &countingFeed{Feed: NewWALFeed(db.WAL(), db.Store())}
	hub := NewHub(db, feed, obs.NewRegistry())
	defer hub.Close()

	for i := int64(1); i <= 20; i++ {
		insertHost(t, db, i, "idle-"+strconv.FormatInt(i, 10))
	}
	// Let the pump see the writes: its cursor reaches the feed's end.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hub.mu.Lock()
		cursor := hub.cursor
		hub.mu.Unlock()
		if cursor == feed.NextIndex() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle pump's cursor stuck at %d; feed end %d", cursor, feed.NextIndex())
		}
		time.Sleep(time.Millisecond)
	}
	if n := feed.reads.Load(); n != 0 {
		t.Fatalf("idle hub made %d feed reads; want 0", n)
	}

	sub, err := hub.Register("hosts", "Select source(P).name From PATHS P Where P MATCHES ComputeHost()", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n, err := sub.Next(ctx)
	if err != nil || !n.Delta.Full || len(n.Delta.Added) != 20 {
		t.Fatalf("initial notification = %+v, %v; want a full delta of 20 rows", n, err)
	}

	insertHost(t, db, 21, "late")
	n, err = sub.Next(ctx)
	if err != nil || n.Kind != KindDelta || !slices.Equal(n.Delta.Added, []string{"late"}) {
		t.Fatalf("delta after registering = %+v, %v; want host late added", n, err)
	}
	if want := db.WAL().NextIndex(); n.Delta.Index != want {
		t.Fatalf("delta index %d; want %d, covering the write", n.Delta.Index, want)
	}
}

// waitCounter waits for a counter to reach at least want.
func waitCounter(t *testing.T, c *obs.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d; want ≥ %d", c.Value(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubscriberOverflowLags is the bounded-queue proof: a subscriber
// that stops consuming gets a typed lagging notification (with the
// resume token) instead of unbounded buffering, and the first delta
// after it is a full snapshot.
func TestSubscriberOverflowLags(t *testing.T) {
	db := openWALDB(t)
	insertHost(t, db, 1, "host-0")

	feed := NewWALFeed(db.WAL(), db.Store())
	reg := obs.NewRegistry()
	hub := NewHub(db, feed, reg)
	defer hub.Close()
	lagged := reg.Counter("watch.standing.lagged")

	// Queue of 1: the initial full snapshot fills it; every further delta
	// overflows until the subscriber drains.
	sub, err := hub.Register("hosts", "Select source(P).name From PATHS P Where P MATCHES ComputeHost()", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	for i := int64(1); i <= 8; i++ {
		insertHost(t, db, 100+i, "burst")
	}
	waitCounter(t, lagged, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Queued-before-overflow deltas drain first (the initial snapshot),
	// then the lagging marker, then a fresh full snapshot.
	var sawLagging, sawFullAfter bool
	for i := 0; i < 32 && !sawFullAfter; i++ {
		n, err := sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case n.Kind == KindLagging:
			if !sawLagging {
				sawLagging = true
				// The burst is already consumed; trigger one more eval so
				// the post-lag snapshot materializes.
				insertHost(t, db, 300+int64(i), "post-lag")
			}
		case sawLagging && n.Kind == KindDelta:
			if !n.Delta.Full {
				t.Fatalf("first delta after lagging is not a full snapshot: %+v", n.Delta)
			}
			sawFullAfter = true
		}
	}
	if !sawLagging || !sawFullAfter {
		t.Fatalf("lagging=%v fullAfter=%v; want both", sawLagging, sawFullAfter)
	}
}

// TestRenderRowsReusesPrev pins the standing-query render cache: a row
// whose key the previous result already holds takes its rendering from
// there, and only new rows go through the store.
func TestRenderRowsReusesPrev(t *testing.T) {
	db := openMemDB(t)
	a := insertHost(t, db, 1, "host-a")
	b := insertHost(t, db, 2, "host-b")
	res, err := db.Query("Retrieve P From PATHS P Where P MATCHES ComputeHost()")
	if err != nil {
		t.Fatal(err)
	}
	h := &Hub{db: db}
	first := h.renderRows(res, nil)
	keyA, keyB := strconv.FormatInt(int64(a), 10), strconv.FormatInt(int64(b), 10)
	if first[keyA] != "ComputeHost#"+keyA || first[keyB] != "ComputeHost#"+keyB || len(first) != 2 {
		t.Fatalf("fresh rendering = %v", first)
	}
	// A sentinel in prev proves reuse: a re-render would overwrite it.
	next := h.renderRows(res, map[string]string{keyA: "cached"})
	if next[keyA] != "cached" || next[keyB] != first[keyB] {
		t.Fatalf("rendering with prev = %v; want host-a reused, host-b rendered", next)
	}
}
