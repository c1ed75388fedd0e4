package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/temporal"
	"repro/internal/wal"
)

var t0 = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s := schema.New()
	if _, err := s.DefineNode("Host", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DefineEdge("ConnectsTo", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func newStore(t testing.TB) *graph.Store {
	t.Helper()
	return graph.NewStore(testSchema(t), temporal.NewManualClock(t0), nil)
}

// openReplica recovers a WAL-backed store from dir the way a serving
// node opens one: the WAL is its mutation hook, and a replica's link logs
// into it.
func openReplica(t testing.TB, dir string) (*graph.Store, *wal.Manager) {
	t.Helper()
	st := newStore(t)
	mgr, _, err := wal.Open(dir, st, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	st.SetMutationHook(mgr.Append)
	return st, mgr
}

// newFollower returns an unstarted link over a fresh WAL-backed store.
func newFollower(t testing.TB, cfg FollowerConfig) *Follower {
	t.Helper()
	st, mgr := openReplica(t, t.TempDir())
	return NewFollower(st, mgr, cfg)
}

// primary is a WAL-backed store serving the replication feed over a real
// HTTP listener.
type primary struct {
	st    *graph.Store
	mgr   *wal.Manager
	node  *Node
	src   *Source
	srv   *httptest.Server
	clock *temporal.Clock
	seq   int
}

func newPrimary(t *testing.T) *primary {
	t.Helper()
	st := newStore(t)
	mgr, _, err := wal.Open(t.TempDir(), st, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	st.SetMutationHook(mgr.Append)
	node := NewNode(st, mgr, nil)
	src := NewSource(node, nil, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/wal", src.ServeWAL)
	mux.HandleFunc("GET /v1/wal/snapshot", src.ServeSnapshot)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &primary{st: st, mgr: mgr, node: node, src: src, srv: srv, clock: st.Clock()}
}

// write lands n acked mutations on the primary.
func (p *primary) write(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p.clock.Advance(time.Second)
		p.seq++
		if _, err := p.st.InsertNode("Host", graph.Fields{"id": p.seq}); err != nil {
			t.Fatal(err)
		}
	}
}

func history(t testing.TB, st *graph.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func testFollowerConfig(url string) FollowerConfig {
	return FollowerConfig{
		Primary:      url,
		PollWait:     250 * time.Millisecond,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	}
}

// TestFollowerReplicates is the basic link: a follower joining an active
// primary converges to a byte-identical history and keeps up with new
// writes via the long-poll.
func TestFollowerReplicates(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 30)

	f := newFollower(t, testFollowerConfig(p.srv.URL))
	defer f.Stop()
	f.Start()
	waitFor(t, "initial catch-up", func() bool { return f.Status().Applied == 30 })
	if !bytes.Equal(history(t, f.st), history(t, p.st)) {
		t.Fatal("replica history differs from primary after catch-up")
	}

	p.write(t, 12)
	waitFor(t, "long-poll delivery", func() bool { return f.Status().Applied == 42 })
	if !bytes.Equal(history(t, f.st), history(t, p.st)) {
		t.Fatal("replica history differs from primary after incremental writes")
	}
	s := f.Status()
	if s.Bootstraps != 0 {
		t.Fatalf("follower bootstrapped %d times; the feed alone should have sufficed", s.Bootstraps)
	}
	if !s.CaughtUp || s.LagRecords != 0 {
		t.Fatalf("caught-up follower reports CaughtUp=%v lag=%d", s.CaughtUp, s.LagRecords)
	}
}

// TestFollowerBootstrap joins a follower after the primary's early
// history was contracted into a checkpoint: it must load the snapshot,
// resume the feed mid-stream, and converge.
func TestFollowerBootstrap(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 25)
	if err := p.mgr.Checkpoint(p.st); err != nil {
		t.Fatal(err)
	}
	p.write(t, 10)

	f := newFollower(t, testFollowerConfig(p.srv.URL))
	defer f.Stop()
	f.Start()
	waitFor(t, "bootstrap + catch-up", func() bool { return f.Status().Applied == 35 })
	if got := f.Status().Bootstraps; got != 1 {
		t.Fatalf("bootstraps = %d, want 1", got)
	}
	if !bytes.Equal(history(t, f.st), history(t, p.st)) {
		t.Fatal("bootstrapped replica history differs from primary")
	}
}

// TestRestartedReplicaResumesFromItsLog: a replica logs what it applies,
// byte for byte at its primary's indexes, so a restart recovers its own
// WAL and resumes the feed where the log ends — no bootstrap, even though
// the primary's early history exists only in a checkpoint.
func TestRestartedReplicaResumesFromItsLog(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 10)
	if err := p.mgr.Checkpoint(p.st); err != nil {
		t.Fatal(err)
	}
	p.write(t, 5)

	dir := t.TempDir()
	st, mgr := openReplica(t, dir)
	f := NewFollower(st, mgr, testFollowerConfig(p.srv.URL))
	f.Start()
	waitFor(t, "bootstrap + catch-up", func() bool { return f.Status().Applied == 15 })
	f.Stop()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	p.write(t, 5)

	st2, mgr2 := openReplica(t, dir)
	if mgr2.NextIndex() != 15 || mgr2.LogID() != p.mgr.LogID() {
		t.Fatalf("recovered replica log at %d under %q; want 15 under the primary's %q", mgr2.NextIndex(), mgr2.LogID(), p.mgr.LogID())
	}
	f2 := NewFollower(st2, mgr2, testFollowerConfig(p.srv.URL))
	defer f2.Stop()
	if !f2.Status().Pinned {
		t.Fatal("a restarted replica whose log holds records is not pinned")
	}
	f2.Start()
	waitFor(t, "resumed catch-up", func() bool { return f2.Status().Applied == 20 })
	if got := f2.Status().Bootstraps; got != 0 {
		t.Fatalf("restarted replica bootstrapped %d times; want a resume from its log", got)
	}
	if !bytes.Equal(history(t, st2), history(t, p.st)) {
		t.Fatal("restarted replica's history differs from the primary's")
	}
	// The log is the primary's over the range both hold.
	base := max(mgr2.BaseIndex(), p.mgr.BaseIndex())
	mine, _, err := mgr2.ReadRecords(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	theirs, _, err := p.mgr.ReadRecords(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mine) == 0 || !bytes.Equal(mine, theirs) {
		t.Fatalf("replica WAL from %d (%d bytes) differs from the primary's (%d bytes)", base, len(mine), len(theirs))
	}
}

// TestWaitUntilBoundedStaleness pins the read contract: a read demanding
// a timestamp the replica has not reached waits, and fails typed when
// the deadline beats the replication.
func TestWaitUntilBoundedStaleness(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 5)

	f := newFollower(t, testFollowerConfig(p.srv.URL))
	defer f.Stop()

	// Not started: any future timestamp must fail with ErrLagging.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	err := f.WaitUntil(ctx, p.st.Now())
	cancel()
	if !errors.Is(err, ErrLagging) {
		t.Fatalf("WaitUntil on a stalled replica = %v, want ErrLagging", err)
	}

	f.Start()
	waitFor(t, "catch-up", func() bool { return f.Status().CaughtUp })
	// Caught up: the watermark adopted the primary's clock, so the
	// primary's own now is satisfiable without further writes.
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.WaitUntil(ctx, p.st.Now()); err != nil {
		t.Fatalf("WaitUntil on a caught-up replica: %v", err)
	}
	if err := f.WaitUntil(ctx, time.Time{}); err != nil {
		t.Fatalf("WaitUntil with zero timestamp: %v", err)
	}
}

// TestWaitUntilWakesOnCatchUp parks a reader behind a timestamp the
// replica reaches moments later; the reader must wake, not time out.
func TestWaitUntilWakesOnCatchUp(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 3)
	target := p.st.Now()

	f := newFollower(t, testFollowerConfig(p.srv.URL))
	defer f.Stop()
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		errc <- f.WaitUntil(ctx, target)
	}()
	time.Sleep(20 * time.Millisecond) // let the reader park
	f.Start()
	if err := <-errc; err != nil {
		t.Fatalf("parked reader: %v", err)
	}
}

// TestPromoteDurable promotes a caught-up follower: the replicated state
// is durable in its WAL before promotion, and writes taken as the new
// primary must land in the same log — proven by recovering the
// follower's WAL directory into a fresh store.
func TestPromoteDurable(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 20)

	fdir := t.TempDir()
	fst, fmgr := openReplica(t, fdir)
	f := NewFollower(fst, fmgr, testFollowerConfig(p.srv.URL))
	node := NewNode(fst, fmgr, f)
	f.Start()
	waitFor(t, "catch-up", func() bool { return f.Status().Applied == 20 })

	pos, _, err := node.Promote(0)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 20 {
		t.Fatalf("promoted at %d, want 20", pos)
	}
	if !f.Promoted() {
		t.Fatal("Promoted() = false after Promote")
	}
	// Idempotent.
	if pos2, _, err := node.Promote(0); err != nil || pos2 != 20 {
		t.Fatalf("second Promote = (%d, %v), want (20, nil)", pos2, err)
	}

	// The node is primary now: it acks writes of its own.
	for i := 1000; i < 1005; i++ {
		if _, err := fst.InsertNode("Host", graph.Fields{"id": i}); err != nil {
			t.Fatal(err)
		}
	}
	want := history(t, fst)
	if err := fmgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-restart the promoted node: recovery must reproduce both the
	// replicated prefix and its own writes.
	st2, _ := openReplica(t, fdir)
	if !bytes.Equal(history(t, st2), want) {
		t.Fatal("recovered promoted node differs from its pre-restart state")
	}
}

// TestFollowerSurvivesPrimaryRestartURL exercises reconnect accounting:
// kill the primary's listener mid-stream, verify the follower records
// reconnect attempts and a sticky last error, then confirm WaitUntil
// fails typed while the link is down.
func TestFollowerReconnectAccounting(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 4)

	f := newFollower(t, testFollowerConfig(p.srv.URL))
	defer f.Stop()
	f.Start()
	waitFor(t, "catch-up", func() bool { return f.Status().Applied == 4 })

	p.srv.CloseClientConnections()
	p.srv.Close()
	waitFor(t, "reconnect attempts", func() bool { return f.Status().Reconnects > 0 })
	if f.Status().LastError == "" {
		t.Fatal("downed link left no LastError")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := f.WaitUntil(ctx, p.st.Now().Add(time.Hour))
	if !errors.Is(err, ErrLagging) {
		t.Fatalf("WaitUntil over a dead link = %v, want ErrLagging", err)
	}
}

// TestSourceRejectsBadRequests pins the feed's error contract.
func TestSourceRejectsBadRequests(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 3)
	for _, tc := range []struct {
		path   string
		status int
	}{
		{"/v1/wal", http.StatusBadRequest},          // missing from
		{"/v1/wal?from=abc", http.StatusBadRequest}, // non-numeric
		{"/v1/wal?from=99", http.StatusBadRequest},  // beyond end
		{"/v1/wal/snapshot", http.StatusNotFound},   // no checkpoint yet
		{"/v1/wal?from=0&wait_ms=-1", http.StatusBadRequest},
	} {
		resp, err := http.Get(p.srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
	}

	// After a checkpoint, pre-base positions answer 410 with the base.
	if err := p.mgr.Checkpoint(p.st); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(p.srv.URL + "/v1/wal?from=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("pre-base read = %d, want 410", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderBase); got != "3" {
		t.Fatalf("%s = %q, want 3", HeaderBase, got)
	}
}

// TestTruncatedBatchAdvertisesDurableEnd pins the max_bytes contract: a
// capped batch ships fewer records than exist, but X-Nepal-Wal-Next must
// still carry the log's durable end — a follower that applied only the
// batch must know it is lagging, not mark itself caught up and adopt the
// primary's clock as its watermark.
func TestTruncatedBatchAdvertisesDurableEnd(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 10)

	resp, err := http.Get(p.srv.URL + "/v1/wal?from=0&max_bytes=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(HeaderNext); got != "10" {
		t.Fatalf("%s = %q on a capped batch, want the durable end 10", HeaderNext, got)
	}
	count, err := strconv.Atoi(resp.Header.Get(HeaderCount))
	if err != nil || count < 1 || count >= 10 {
		t.Fatalf("%s = %q, want a partial batch in [1,10)", HeaderCount, resp.Header.Get(HeaderCount))
	}
	if resp.Header.Get(HeaderLogID) == "" {
		t.Fatalf("feed response missing %s", HeaderLogID)
	}
}

// TestFollowerConvergesWithTinyBatches replicates through a 1-byte batch
// cap: every exchange ships a single record, so catch-up takes many
// round trips and the follower must keep pulling until it truly reaches
// the durable end.
func TestFollowerConvergesWithTinyBatches(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 20)

	cfg := testFollowerConfig(p.srv.URL)
	cfg.MaxBatchBytes = 1
	f := newFollower(t, cfg)
	defer f.Stop()
	f.Start()
	waitFor(t, "catch-up through capped batches", func() bool { return f.Status().Applied == 20 })
	if !bytes.Equal(history(t, f.st), history(t, p.st)) {
		t.Fatal("replica history differs from primary after capped-batch catch-up")
	}
	waitFor(t, "caught-up status", func() bool { return f.Status().CaughtUp })
}

// TestBootstrapRetriesAfterSeveredSnapshot severs the first snapshot
// download halfway: the partial load must leave the store untouched so
// the retry bootstraps cleanly, instead of parking fatal on a
// store-not-empty error after one transient failure.
func TestBootstrapRetriesAfterSeveredSnapshot(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 25)
	if err := p.mgr.Checkpoint(p.st); err != nil {
		t.Fatal(err)
	}
	p.write(t, 5)

	var cut atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/wal", p.src.ServeWAL)
	mux.HandleFunc("GET /v1/wal/snapshot", func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		p.src.ServeSnapshot(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		body := rec.Body.Bytes()
		w.WriteHeader(rec.Code)
		if cut.CompareAndSwap(false, true) {
			w.Write(body[:len(body)/2]) // severed mid-stream: clean EOF, half the objects
			return
		}
		w.Write(body)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	f := newFollower(t, testFollowerConfig(srv.URL))
	defer f.Stop()
	f.Start()
	waitFor(t, "bootstrap retry + catch-up", func() bool { return f.Status().Applied == 30 })
	if got := f.Status().Bootstraps; got != 1 {
		t.Fatalf("successful bootstraps = %d, want 1", got)
	}
	if !bytes.Equal(history(t, f.st), history(t, p.st)) {
		t.Fatal("replica history differs from primary after severed bootstrap")
	}
}

// TestBootstrapRefusesRetiredFormat: a snapshot in the retired JSON
// checkpoint format parks the link with a format error naming the
// snapshot's URL, after one download: no retry can make it loadable.
func TestBootstrapRefusesRetiredFormat(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 5)
	if err := p.mgr.Checkpoint(p.st); err != nil {
		t.Fatal(err)
	}
	var downloads atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/wal", p.src.ServeWAL)
	mux.HandleFunc("GET /v1/wal/snapshot", func(w http.ResponseWriter, r *http.Request) {
		downloads.Add(1)
		rec := httptest.NewRecorder()
		p.src.ServeSnapshot(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		io.WriteString(w, `{"format":"nepal-history/1","objects":0,"next_uid":1}`+"\n")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	f := newFollower(t, testFollowerConfig(srv.URL))
	defer f.Stop()
	f.Start()
	waitFor(t, "the format error", func() bool { return f.Status().LastError != "" })
	f.Stop()
	msg := f.Status().LastError
	if !strings.Contains(msg, srv.URL+"/v1/wal/snapshot") || !strings.Contains(msg, `"nepal-history/1"`) {
		t.Fatalf("LastError = %q, want a format error naming the snapshot URL", msg)
	}
	if n := downloads.Load(); n != 1 || f.Status().Bootstraps != 0 {
		t.Fatalf("%d snapshot downloads, %d bootstraps; want one download and none", n, f.Status().Bootstraps)
	}
}

// TestFollowerRejectsForeignLog repoints a follower's address at an
// unrelated primary mid-link: the pinned log identity must park the link
// fatally instead of resuming its offset against a foreign stream and
// applying misaligned records.
func TestFollowerRejectsForeignLog(t *testing.T) {
	a := newPrimary(t)
	a.write(t, 5)
	b := newPrimary(t)
	b.write(t, 9)

	// One address whose backend silently changes — a DNS flip, a VIP
	// takeover, an operator mistake.
	var backend atomic.Pointer[primary]
	backend.Store(a)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/wal", func(w http.ResponseWriter, r *http.Request) {
		backend.Load().src.ServeWAL(w, r)
	})
	mux.HandleFunc("GET /v1/wal/snapshot", func(w http.ResponseWriter, r *http.Request) {
		backend.Load().src.ServeSnapshot(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	f := newFollower(t, testFollowerConfig(srv.URL))
	defer f.Stop()
	f.Start()
	waitFor(t, "catch-up on the real primary", func() bool { return f.Status().Applied == 5 })

	backend.Store(b)
	waitFor(t, "foreign-log detection", func() bool {
		return strings.Contains(f.Status().LastError, "pinned to log")
	})
	if got := f.Status().Applied; got != 5 {
		t.Fatalf("follower applied %d records; it must not consume a foreign log past its pinned 5", got)
	}
}

// TestSourceLongPollDelivers holds a poll open and lands a write: the
// poll stays parked until then, and the response carries the record well
// before the wait expires. A wait_ms past what a Duration holds is
// clamped to the cap, not overflowed into no wait.
func TestSourceLongPollDelivers(t *testing.T) {
	for _, wait := range []string{"10000", "9223372036854775807"} {
		p := newPrimary(t)
		done := make(chan error, 1)
		go func() {
			resp, err := http.Get(p.srv.URL + "/v1/wal?from=0&wait_ms=" + wait)
			if err != nil {
				done <- err
				return
			}
			defer resp.Body.Close()
			if got := resp.Header.Get(HeaderCount); got != "1" {
				done <- fmt.Errorf("%s = %q, want 1", HeaderCount, got)
				return
			}
			done <- nil
		}()
		select {
		case err := <-done:
			t.Fatalf("wait_ms=%s: the poll answered before any append (%v)", wait, err)
		case <-time.After(300 * time.Millisecond):
		}
		start := time.Now()
		p.write(t, 1)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("wait_ms=%s: %v", wait, err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("wait_ms=%s: long-poll took %v; the append should have woken it", wait, elapsed)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("wait_ms=%s: long-poll never returned", wait)
		}
	}
}

// TestSourceStampsEpochAfterRead re-promotes the primary while a
// follower's long-poll is parked on it, then logs a record under the new
// epoch: the answer that ships the record must carry the new epoch, not
// the one current when the poll started.
func TestSourceStampsEpochAfterRead(t *testing.T) {
	st := newStore(t)
	mgr, _, err := wal.Open(t.TempDir(), st, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	st.SetMutationHook(mgr.Append)
	node, reg := NewNode(st, mgr, nil), obs.NewRegistry()
	src := NewSource(node, reg, nil)
	srv := httptest.NewServer(http.HandlerFunc(src.ServeWAL))
	t.Cleanup(srv.Close)
	if _, err := st.InsertNode("Host", graph.Fields{"id": 1}); err != nil {
		t.Fatal(err)
	}
	before := node.Epoch()

	type answer struct{ count, epoch string }
	done := make(chan answer, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/wal?from=1&wait_ms=10000")
		if err != nil {
			done <- answer{err.Error(), ""}
			return
		}
		resp.Body.Close()
		done <- answer{resp.Header.Get(HeaderCount), resp.Header.Get(HeaderEpoch)}
	}()
	waiters := reg.Gauge("repl.source.poll_waiters")
	waitFor(t, "the poll to park", func() bool { return waiters.Value() == 1 })
	if err := node.Demote(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := node.Promote(0); err != nil {
		t.Fatal(err)
	}
	after := node.Epoch()
	if after <= before {
		t.Fatalf("re-promotion moved the epoch from %d to %d", before, after)
	}
	if _, err := st.InsertNode("Host", graph.Fields{"id": 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-done:
		if want := strconv.FormatUint(after, 10); a.count != "1" || a.epoch != want {
			t.Fatalf("held poll answered %s=%q %s=%q; want 1 record at epoch %s (the poll began at %d)",
				HeaderCount, a.count, HeaderEpoch, a.epoch, want, before)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("long-poll never returned")
	}
}

// TestPromoteRacingBootstrap promotes a follower while its checkpoint
// bootstrap download is still in flight. Until the snapshot is grafted
// onto its log the replica is unpinned, so Promote refuses it and the
// link keeps running; once grafted, Promote stops the pull loop before
// reading the stream position. Either way the node must end with the
// empty store at position 0 (the canceled download installed nothing) or
// the fully loaded one at the resume index — never half-staged state at a
// stale position, in memory or in its WAL directory. Run under -race this
// also pins the Stop-before-read ordering inside Promote.
func TestPromoteRacingBootstrap(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 40)
	if err := p.mgr.Checkpoint(p.st); err != nil {
		t.Fatal(err)
	}
	want := history(t, p.st)
	empty := history(t, newStore(t))

	for round := 0; round < 3; round++ {
		// The snapshot handler writes half the body, signals, then holds
		// the rest until released. Round 0 releases only after Promote
		// returns (the promote deterministically lands mid-download);
		// later rounds release immediately, racing Promote against the
		// tail of the bootstrap so either outcome can win.
		var started, release = make(chan struct{}), make(chan struct{})
		var once sync.Once
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/wal", p.src.ServeWAL)
		mux.HandleFunc("GET /v1/wal/snapshot", func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			p.src.ServeSnapshot(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			body := rec.Body.Bytes()
			w.WriteHeader(rec.Code)
			w.Write(body[:len(body)/2])
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
			once.Do(func() { close(started) })
			<-release
			w.Write(body[len(body)/2:])
		})
		srv := httptest.NewServer(mux)

		fdir := t.TempDir()
		fst, fmgr := openReplica(t, fdir)
		f := NewFollower(fst, fmgr, testFollowerConfig(srv.URL))
		node := NewNode(fst, fmgr, f)
		f.Start()
		<-started
		if round > 0 {
			close(release)
		}
		_, _, perr := node.Promote(0)
		if round == 0 {
			if !errors.Is(perr, ErrUnpinned) {
				t.Fatalf("round 0: Promote mid-download = %v; want ErrUnpinned", perr)
			}
			close(release)
		}
		f.Stop()
		srv.Close()
		if perr != nil && !errors.Is(perr, ErrUnpinned) {
			t.Fatalf("round %d: Promote: %v", round, perr)
		}

		applied := fmgr.NextIndex()
		got := history(t, fst)
		switch applied {
		case 0:
			if !bytes.Equal(got, empty) {
				t.Fatalf("round %d: promoted at 0 but the store is not empty — half-staged bootstrap leaked", round)
			}
		case 40:
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: promoted at 40 but the store differs from the primary", round)
			}
		default:
			t.Fatalf("round %d: promoted at %d, want 0 (canceled) or 40 (complete)", round, applied)
		}

		// The node's WAL directory must reproduce exactly the state it
		// observed: a crash-restart lands on the same history and
		// position, whichever side of the race won.
		if err := fmgr.Close(); err != nil {
			t.Fatal(err)
		}
		st2, mgr2 := openReplica(t, fdir)
		if !bytes.Equal(history(t, st2), got) || mgr2.NextIndex() != applied {
			t.Fatalf("round %d: recovered node (position %d) differs from its pre-restart state (position %d)",
				round, mgr2.NextIndex(), applied)
		}
	}
}

// TestSourceRejectsStaleEpoch: a feed request pinned to a higher epoch
// proves this primary was superseded. The source must refuse to ship
// (409 wal_stale_epoch) and the node must fence itself, learning the
// superseding epoch.
func TestSourceRejectsStaleEpoch(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 3)

	resp, err := http.Get(p.srv.URL + "/v1/wal?from=0&epoch=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("feed with higher epoch = %s, want 409", resp.Status)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "wal_stale_epoch") {
		t.Fatalf("409 body missing wal_stale_epoch: %s", body)
	}
	if fenced, got := p.node.Fenced(); !fenced || got != 5 {
		t.Fatalf("node learned %d (fenced=%v), want 5", got, fenced)
	}

	// An equal or lower pinned epoch ships normally.
	resp2, err := http.Get(p.srv.URL + "/v1/wal?from=0&epoch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("feed with matching epoch = %s, want 200", resp2.Status)
	}
}

// TestFollowerAdoptsHigherEpoch: the primary re-promoting into a newer
// era (same log, higher epoch, unchanged history) is legitimate — the
// follower must adopt the higher pin and keep applying, not park.
func TestFollowerAdoptsHigherEpoch(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 6)
	f := newFollower(t, testFollowerConfig(p.srv.URL))
	defer f.Stop()
	f.Start()
	waitFor(t, "catch-up", func() bool { return f.Status().Applied == 6 })
	if got := f.Status().Epoch; got != 1 {
		t.Fatalf("pinned epoch = %d, want 1", got)
	}

	if err := p.mgr.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	p.write(t, 4)
	waitFor(t, "new-era records", func() bool { return f.Status().Applied == 10 })
	// The poll that shipped the batch may have been parked before the
	// epoch bump (its header snapshots the old era); the very next poll
	// round adopts the new pin.
	waitFor(t, "epoch adoption", func() bool { return f.Status().Epoch == 3 })
	st := f.Status()
	if st.Diverged {
		t.Fatal("higher epoch with a matching history parked the link")
	}
	if !bytes.Equal(history(t, f.st), history(t, p.st)) {
		t.Fatal("replica history differs after epoch adoption")
	}
}

// TestFollowerParksDivergedOnForgedFork builds a real fork: a stopped
// replica's WAL takes one record of its own at the position where its
// primary then logs a different one — the on-disk shape of a replica that
// applied a forked history. Resumed over that directory, the link offers
// its prefix hash; the source must refuse before shipping a single
// record and the follower must park with the typed ErrDiverged, applying
// nothing.
func TestFollowerParksDivergedOnForgedFork(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 8)

	fst, fmgr := openReplica(t, t.TempDir())
	f := NewFollower(fst, fmgr, testFollowerConfig(p.srv.URL))
	f.Start()
	waitFor(t, "catch-up", func() bool { return f.Status().Applied == 8 })
	f.Stop()
	if _, err := fst.InsertNode("Host", graph.Fields{"id": 9999}); err != nil {
		t.Fatal(err)
	}
	p.write(t, 4)

	forked := NewFollower(fst, fmgr, testFollowerConfig(p.srv.URL))
	defer forked.Stop()
	forked.Start()
	waitFor(t, "diverged park", func() bool { return forked.Status().Diverged })
	st := forked.Status()
	if st.Applied != 9 {
		t.Fatalf("diverged link applied %d records past the fork, want none (still at 9)", st.Applied-9)
	}
	if !strings.Contains(st.LastError, ErrDiverged.Error()) {
		t.Fatalf("LastError = %q, want it to carry ErrDiverged", st.LastError)
	}
}

// TestPromotedNodeServesFreshFollower closes the failover loop: a
// follower promotes (its WAL already the dead primary's log, at the same
// positions under the same identity), keeps writing, and a brand-new
// replica following it converges to the full history — replicated
// prefix plus post-promotion writes — under the bumped epoch.
func TestPromotedNodeServesFreshFollower(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 10)

	fst, fmgr := openReplica(t, t.TempDir())
	f := NewFollower(fst, fmgr, testFollowerConfig(p.srv.URL))
	node := NewNode(fst, fmgr, f)
	f.Start()
	waitFor(t, "catch-up", func() bool { return f.Status().Applied == 10 })
	if _, _, err := node.Promote(0); err != nil {
		t.Fatal(err)
	}
	if got := fmgr.Epoch(); got != 2 {
		t.Fatalf("promoted WAL epoch = %d, want 2", got)
	}
	if got := fmgr.LogID(); got != p.mgr.LogID() {
		t.Fatalf("promoted WAL log id = %q, want the adopted %q", got, p.mgr.LogID())
	}
	// The new primary writes under its own era.
	for i := 5000; i < 5005; i++ {
		if _, err := fst.InsertNode("Host", graph.Fields{"id": i}); err != nil {
			t.Fatal(err)
		}
	}

	src := NewSource(node, nil, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/wal", src.ServeWAL)
	mux.HandleFunc("GET /v1/wal/snapshot", src.ServeSnapshot)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	f2 := newFollower(t, testFollowerConfig(srv.URL))
	defer f2.Stop()
	f2.Start()
	waitFor(t, "fresh follower catch-up", func() bool { return f2.Status().Applied == 15 })
	st := f2.Status()
	if st.Epoch != 2 {
		t.Fatalf("fresh follower pinned epoch = %d, want 2", st.Epoch)
	}
	if !bytes.Equal(history(t, f2.st), history(t, fst)) {
		t.Fatal("fresh follower history differs from the promoted node")
	}
}

// TestNodeRoleAndEpochRule walks one node through every role: a
// WAL-backed replica (feed answers not_primary, a higher epoch never
// fences it), its promotion (one mint above the followed era), a fence
// by a higher epoch, and the re-promotion above the fencing era; then an
// in-memory primary, which has no epoch to mint.
func TestNodeRoleAndEpochRule(t *testing.T) {
	p := newPrimary(t)
	p.write(t, 4)
	fst, fmgr := openReplica(t, t.TempDir())
	f := NewFollower(fst, fmgr, testFollowerConfig(p.srv.URL))
	node := NewNode(fst, fmgr, f)
	f.Start()
	waitFor(t, "catch-up", func() bool { return f.Status().Applied == 4 })

	src := NewSource(node, nil, nil)
	for _, path := range []string{"/v1/wal?from=0&epoch=9", "/v1/wal/snapshot"} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if path == "/v1/wal/snapshot" {
			src.ServeSnapshot(rec, req)
		} else {
			src.ServeWAL(rec, req)
		}
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "not_primary") || rec.Header().Get(HeaderLogID) != "" {
			t.Fatalf("GET %s on a replica = %d %q (log %q); want 503 not_primary naming no log",
				path, rec.Code, rec.Body.String(), rec.Header().Get(HeaderLogID))
		}
	}
	if !node.Replica() || node.Epoch() != 1 || node.LogID() != p.mgr.LogID() {
		t.Fatalf("replica node: replica=%v epoch=%d log=%q", node.Replica(), node.Epoch(), node.LogID())
	}
	if !node.Observe(9) {
		t.Fatal("epoch 9 does not supersede a replica pinned to 1")
	}
	if fenced, _ := node.Fenced(); fenced {
		t.Fatal("a replica was fenced")
	}
	if !errors.Is(node.CheckWrite(0), ErrReadOnly) || node.Demote() == nil {
		t.Fatal("a replica accepted a write or a demote")
	}

	pos, epoch, err := node.Promote(0)
	if err != nil || pos != 4 || epoch != 2 {
		t.Fatalf("promote = (%d, %d, %v); want (4, 2, nil)", pos, epoch, err)
	}
	if node.Replica() || node.Epoch() != 2 || fmgr.Epoch() != 2 || node.CheckWrite(0) != nil {
		t.Fatalf("promoted node: replica=%v epoch=%d wal epoch=%d", node.Replica(), node.Epoch(), fmgr.Epoch())
	}

	if !node.Observe(7) || !errors.Is(node.CheckWrite(0), ErrStalePrimary) {
		t.Fatal("epoch 7 did not fence the epoch-2 primary")
	}
	if _, epoch, err = node.Promote(0); err != nil || epoch != 8 || node.CheckWrite(0) != nil {
		t.Fatalf("re-promote = (%d, %v); want epoch 8 and an open write gate", epoch, err)
	}

	mem := NewNode(newStore(t), nil, nil)
	if mem.Observe(5) || mem.Epoch() != 0 {
		t.Fatal("an epoch-less node was superseded")
	}
	if err := mem.Demote(); err != nil || !errors.Is(mem.CheckWrite(0), ErrStalePrimary) {
		t.Fatalf("demoted in-memory primary: %v", err)
	}
	if _, epoch, err := mem.Promote(0); err != nil || epoch != 0 || mem.CheckWrite(0) != nil {
		t.Fatalf("re-promoted in-memory primary: epoch %d, %v", epoch, err)
	}
	if _, _, err := mem.Promote(0); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("promote of an unfenced primary: %v; want ErrNotReplica", err)
	}
}
