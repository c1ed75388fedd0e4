package watch

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
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

// replicaOf starts a follower of the primary db into a fresh WAL-backed
// replica and returns the replica's database, follower and node.
func replicaOf(t *testing.T, pdb *core.DB) (*core.DB, *repl.Follower, *repl.Node) {
	t.Helper()
	src := repl.NewSource(repl.NewNode(pdb.Store(), pdb.WAL(), nil), nil, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/wal", src.ServeWAL)
	mux.HandleFunc("GET /v1/wal/snapshot", src.ServeSnapshot)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	db := openWALDB(t)
	f := repl.NewFollower(db.Store(), db.WAL(), repl.FollowerConfig{Primary: srv.URL, PollWait: 50 * time.Millisecond})
	node := repl.NewNode(db.Store(), db.WAL(), f)
	f.Start()
	t.Cleanup(f.Stop)
	return db, f, node
}

// waitApplied polls until the replica's feed reaches the stream end want.
func waitApplied(t *testing.T, feed *WALFeed, f *repl.Follower, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); feed.NextIndex() < want; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("replica feed at %d; want %d: %+v", feed.NextIndex(), want, f.Status())
		}
	}
}

// TestFollowerFeedRing: a replica's WAL holds its primary's records at
// the primary's indexes, so a WALFeed over it serves the primary's resume
// tokens. A replica that bootstraps from a checkpoint snapshot starts its
// feed at the primary's checkpoint base (tokens below it answer compacted
// with that base), streamed records extend it contiguously, and a token
// past what the replica has applied is ErrBehind.
func TestFollowerFeedRing(t *testing.T) {
	pdb := openWALDB(t)
	for i := int64(0); i < 3; i++ {
		insertHost(t, pdb, i, "pre-checkpoint")
	}
	if err := pdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := pdb.WAL().BaseIndex()
	if base == 0 {
		t.Fatal("checkpoint did not advance the primary's base; bootstrap test proves nothing")
	}
	insertHost(t, pdb, 3, "post-checkpoint")
	insertHost(t, pdb, 4, "post-checkpoint")

	db, f, _ := replicaOf(t, pdb)
	feed := NewWALFeed(db.WAL(), db.Store())
	waitApplied(t, feed, f, base+2)
	if got := feed.BaseIndex(); got != base {
		t.Fatalf("replica feed base %d after bootstrap; want the primary's checkpoint base %d", got, base)
	}
	_, _, err := feed.Read(base-1, 0)
	var ce *CompactedError
	if !errors.As(err, &ce) || ce.Base != base {
		t.Fatalf("read below the bootstrap base: %v; want compacted at %d", err, base)
	}
	events, token, err := feed.Read(base, 0)
	if err != nil || len(events) != 2 || token != base+2 {
		t.Fatalf("replica feed read: %+v, token %d, %v; want the primary's 2 post-checkpoint events", events, token, err)
	}
	if events[0].Index != base || events[0].Class != "ComputeHost" || events[0].Kind != "node" {
		t.Fatalf("replica event not enriched at the primary's index: %+v", events[0])
	}
	if _, _, err := feed.Read(token+1, 0); !errors.Is(err, ErrBehind) {
		t.Fatalf("replica read past its end: %v; want ErrBehind", err)
	}

	ch := feed.Changed()
	insertHost(t, pdb, 5, "streamed")
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("replica feed never woke on a streamed record: %+v", f.Status())
	}
	waitApplied(t, feed, f, token+1)
	events, next, err := feed.Read(token, 0)
	if err != nil || len(events) != 1 || events[0].Index != token || next != token+1 {
		t.Fatalf("streamed read: %+v, next %d, %v; want one event at %d", events, next, err, token)
	}
}

// TestPromotedFeedSurvivesCheckpoint: a subscriber's token on a replica
// survives the replica's promotion (its own writes continue the same
// index sequence) and then a checkpoint after the promotion, below which
// tokens answer compacted.
func TestPromotedFeedSurvivesCheckpoint(t *testing.T) {
	pdb := openWALDB(t)
	for i := int64(0); i < 3; i++ {
		insertHost(t, pdb, i, "replicated")
	}
	db, f, node := replicaOf(t, pdb)
	feed := NewWALFeed(db.WAL(), db.Store())
	waitApplied(t, feed, f, 3)
	events, token, err := feed.Read(0, 0)
	if err != nil || len(events) != 3 || token != 3 || events[2].Class != "ComputeHost" {
		t.Fatalf("replica feed read: %+v, token %d, %v; want the primary's 3 enriched events", events, token, err)
	}

	if _, _, err := node.Promote(0); err != nil {
		t.Fatal(err)
	}
	insertHost(t, db, 10, "promoted")
	events, token, err = feed.Read(token, 0)
	if err != nil || len(events) != 1 || events[0].Index != 3 || token != 4 {
		t.Fatalf("read after promotion: %+v, token %d, %v; want the new primary's write at index 3", events, token, err)
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertHost(t, db, 11, "post-checkpoint")
	if base := feed.BaseIndex(); base != token {
		t.Fatalf("checkpoint base %d; want the subscriber's token %d", base, token)
	}
	events, token, err = feed.Read(token, 0)
	if err != nil || len(events) != 1 || events[0].Index != 4 || token != 5 {
		t.Fatalf("read across the checkpoint: %+v, token %d, %v; want index 4", events, token, err)
	}
	if _, _, err := feed.Read(0, 0); !IsCompacted(err) {
		t.Fatalf("read of a contracted position: %v; want compacted", err)
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
	first := h.renderRows(res, nil, "").rows
	keyA, keyB := strconv.FormatInt(int64(a), 10), strconv.FormatInt(int64(b), 10)
	if first[keyA].text != "ComputeHost#"+keyA || first[keyB].text != "ComputeHost#"+keyB || len(first) != 2 {
		t.Fatalf("fresh rendering = %v", first)
	}
	// A sentinel in prev proves reuse: a re-render would overwrite it.
	next := h.renderRows(res, map[string]*resultRow{keyA: {text: "cached"}}, "").rows
	if next[keyA].text != "cached" || next[keyB].text != first[keyB].text {
		t.Fatalf("rendering with prev = %v; want host-a reused, host-b rendered", next)
	}
}

// TestClosedSubscriptionUnreachable: closing a subscription leaves no
// slot of the hub's list, spare capacity included, pointing at it — its
// queue and answer are garbage once the subscriber lets go.
func TestClosedSubscriptionUnreachable(t *testing.T) {
	db := openWALDB(t)
	insertHost(t, db, 1, "host-a")
	hub := NewHub(db, NewWALFeed(db.WAL(), db.Store()), obs.NewRegistry())
	defer hub.Close()
	var subs []*Subscription
	for i := range 3 {
		sub, err := hub.Register(strconv.Itoa(i), "Select source(P).name From PATHS P Where P MATCHES ComputeHost()", 8)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	// The last one, whose slot becomes spare capacity, then the first.
	for i, closed := range []*Subscription{subs[2], subs[0]} {
		closed.Close()
		hub.mu.Lock()
		n, held := len(hub.subs), slices.Contains(hub.subs[:cap(hub.subs)], closed)
		hub.mu.Unlock()
		if n != 2-i {
			t.Fatalf("%d subscriptions enrolled after closing %d of 3", n, i+1)
		}
		if held {
			t.Fatalf("a slot of the hub's list still holds closed subscription %s", closed.Name())
		}
	}
}

// TestQueriesGaugeDoesNotWaitForPump: the watch.standing.queries gauge
// reads while the pump holds the hub's lock, as it does across a batch's
// evaluations.
func TestQueriesGaugeDoesNotWaitForPump(t *testing.T) {
	db := openWALDB(t)
	reg := obs.NewRegistry()
	hub := NewHub(db, NewWALFeed(db.WAL(), db.Store()), reg)
	defer hub.Close()
	sub, err := hub.Register("hosts", "Select source(P).name From PATHS P Where P MATCHES ComputeHost()", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	hub.mu.Lock()
	got := make(chan float64, 1)
	go func() { got <- sample(reg, "watch.standing.queries") }()
	select {
	case v := <-got:
		hub.mu.Unlock()
		if v != 1 {
			t.Fatalf("watch.standing.queries = %v; want 1", v)
		}
	case <-time.After(5 * time.Second):
		hub.mu.Unlock()
		t.Fatal("reading watch.standing.queries waited on the hub's lock")
	}
}

// sample reads the unlabeled metric name from reg's Prometheus
// exposition; -1 when it is absent.
func sample(reg *obs.Registry, name string) float64 {
	var sb strings.Builder
	obs.WritePrometheus(&sb, reg)
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, obs.PromName(name)+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return -1
			}
			return f
		}
	}
	return -1
}
