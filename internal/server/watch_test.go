package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/temporal"
	"repro/internal/wal"
	"repro/internal/watch"
)

// newWatchServer stands a WAL-backed demo server up and returns it with
// its DB, base URL, and client.
func newWatchServer(t testing.TB, cfg server.Config) (*server.Server, *core.DB, string, *client.Client) {
	t.Helper()
	db := newDemoDB(t, core.WithWALOptions(t.TempDir(), wal.Options{NoSync: true}))
	s := server.New(db, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, db, ts.URL, client.New(ts.URL)
}

func insertWatchHost(t testing.TB, db *core.DB, id int64, name string) {
	t.Helper()
	if _, err := db.InsertNode("ComputeHost", graph.Fields{"id": id, "name": name, "rack": "rw", "status": "Active"}); err != nil {
		t.Fatal(err)
	}
}

func TestWatchLongPoll(t *testing.T) {
	_, db, _, c := newWatchServer(t, server.Config{})
	ctx := context.Background()

	// From the log start: the demo build's mutations, enriched and in order.
	resp, err := c.WatchPoll(ctx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) == 0 {
		t.Fatal("no events from the log start")
	}
	for i, ev := range resp.Events {
		if ev.Index != uint64(i) {
			t.Fatalf("event %d carries index %d", i, ev.Index)
		}
	}
	if resp.Events[0].Op != "insert_node" || resp.Events[0].Class == "" {
		t.Fatalf("first event not enriched: %+v", resp.Events[0])
	}
	if resp.Next != uint64(len(resp.Events)) || resp.Durable < resp.Next {
		t.Fatalf("cursor bookkeeping: next %d durable %d events %d", resp.Next, resp.Durable, len(resp.Events))
	}
	if resp.LogID == "" {
		t.Fatal("batch missing log identity")
	}

	// At the tail with a short wait: empty batch, token unchanged.
	tail := resp.Next
	resp, err = c.WatchPoll(ctx, tail, &client.WatchOptions{PollWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) != 0 || resp.Next != tail {
		t.Fatalf("tail poll returned %d events next %d", len(resp.Events), resp.Next)
	}

	// Parked long-poll wakes on the next durable append.
	type pollOut struct {
		resp *server.WatchResponse
		err  error
	}
	done := make(chan pollOut, 1)
	go func() {
		r, err := c.WatchPoll(ctx, tail, &client.WatchOptions{PollWait: 10 * time.Second})
		done <- pollOut{r, err}
	}()
	time.Sleep(50 * time.Millisecond)
	insertWatchHost(t, db, 9001, "wake-up")
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if len(out.resp.Events) != 1 || out.resp.Events[0].Index != tail {
			t.Fatalf("woken poll returned %+v", out.resp.Events)
		}
		if out.resp.Events[0].Class != "ComputeHost" || out.resp.Events[0].Fields["name"] != "wake-up" {
			t.Fatalf("woken event not enriched: %+v", out.resp.Events[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke on append")
	}
}

// TestIngestEveryOpReachesWALFeed posts one batch holding all four wire
// ops: inserts answer their new UIDs, update and delete answer 0, and the
// WAL-fed watch stream carries one event per op under the store's names.
func TestIngestEveryOpReachesWALFeed(t *testing.T) {
	_, db, _, c := newWatchServer(t, server.Config{})
	ctx := context.Background()
	uidOf := func(id int64) int64 {
		uid, ok := db.Store().LookupUnique(schema.NodeRoot, "id", id)
		if !ok {
			t.Fatalf("demo id %d missing", id)
		}
		return int64(uid)
	}
	// The demo numbers its nodes from 1001: host-1, host-2, tor-1, tor-2,
	// spine-1, vm-1.
	host1, host2, tor2, vm1 := uidOf(1001), uidOf(1002), uidOf(1004), uidOf(1006)
	from := db.WAL().NextIndex()

	resp, err := c.Ingest(ctx, []server.IngestOp{
		{Op: "insert-node", Class: "ComputeHost", Fields: map[string]any{"id": 9101, "name": "all-ops", "rack": "r9", "status": "Active"}},
		{Op: "insert-edge", Class: netmodel.OnServer, Src: vm1, Dst: host2, Fields: map[string]any{"id": 9102}},
		{Op: "update", UID: host1, Fields: map[string]any{"id": 1001, "name": "host-1", "rack": "r1", "status": "Maintenance"}},
		{Op: "delete", UID: tor2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 4 || len(resp.UIDs) != 4 || resp.UIDs[0] == 0 || resp.UIDs[1] == 0 || resp.UIDs[2] != 0 || resp.UIDs[3] != 0 {
		t.Fatalf("ingest answered applied %d, uids %v; want 4 with uids for the inserts only", resp.Applied, resp.UIDs)
	}

	poll, err := c.WatchPoll(ctx, from, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		op    string
		uid   int64
		class string
	}{
		{"insert_node", resp.UIDs[0], "ComputeHost"},
		{"insert_edge", resp.UIDs[1], netmodel.OnServer},
		{"update", host1, "ComputeHost"},
		{"delete", tor2, "TORSwitch"},
	}
	if len(poll.Events) != len(want) {
		t.Fatalf("watch returned %d events after the batch, want %d: %+v", len(poll.Events), len(want), poll.Events)
	}
	for i, ev := range poll.Events {
		if ev.Index != from+uint64(i) || ev.Op != want[i].op || ev.UID != want[i].uid || ev.Class != want[i].class {
			t.Errorf("event %d = {index %d op %s uid %d class %s}, want {index %d op %s uid %d class %s}",
				i, ev.Index, ev.Op, ev.UID, ev.Class, from+uint64(i), want[i].op, want[i].uid, want[i].class)
		}
	}
	if got := poll.Events[1]; got.Src != vm1 || got.Dst != host2 {
		t.Errorf("edge event endpoints %d -> %d, want %d -> %d", got.Src, got.Dst, vm1, host2)
	}
	if got := poll.Events[2].Fields["status"]; got != "Maintenance" {
		t.Errorf("update event status = %v, want Maintenance", got)
	}
}

// TestWatchCompactedResume proves the typed re-sync path: a token below
// the checkpointed base answers 410 watch_compacted carrying the fresh
// base, the token at the base serves, and the streaming client surfaces
// the gap as a synthetic watch_compacted event before resuming there.
func TestWatchCompactedResume(t *testing.T) {
	_, db, _, c := newWatchServer(t, server.Config{})
	ctx := context.Background()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := db.WAL().BaseIndex()
	if base == 0 {
		t.Fatal("checkpoint did not advance the base")
	}

	_, err := c.WatchPoll(ctx, 0, nil)
	if !errors.Is(err, client.ErrWatchCompacted) {
		t.Fatalf("poll below base returned %v; want ErrWatchCompacted", err)
	}
	var ce *client.WatchCompactedError
	if !errors.As(err, &ce) || ce.Base != base {
		t.Fatalf("compacted error carries %+v; want base %d", ce, base)
	}

	// Resuming exactly at the advertised base works.
	insertWatchHost(t, db, 9002, "after-checkpoint")
	resp, err := c.WatchPoll(ctx, ce.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) != 1 || resp.Events[0].Index != base {
		t.Fatalf("resume at base returned %+v", resp.Events)
	}

	// The streaming client sees the gap as a typed synthetic event and
	// then the real mutation stream from the fresh base.
	stream := c.Watch(ctx, 0, nil)
	defer stream.Close()
	first, err := stream.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.Op != watch.OpCompacted || first.Index != base {
		t.Fatalf("stream's first event = %+v; want %s at %d", first, watch.OpCompacted, base)
	}
	second, err := stream.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if second.Index != base || second.Fields["name"] != "after-checkpoint" {
		t.Fatalf("stream did not resume at the base: %+v", second)
	}
}

// TestWatchStaleEpochRejected proves a diverged-epoch resume is refused:
// a subscriber pinning a higher epoch than the node's own proves the
// node was superseded, so the node self-fences and answers 409.
func TestWatchStaleEpochRejected(t *testing.T) {
	_, db, base, _ := newWatchServer(t, server.Config{})
	if err := db.WAL().SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Same epoch: served normally.
	sameEpoch := client.New(base, client.WithEpochExchange(func() uint64 { return 3 }, func(uint64) {}))
	if _, err := sameEpoch.WatchPoll(ctx, 0, nil); err != nil {
		t.Fatalf("same-epoch poll rejected: %v", err)
	}

	// Higher epoch: typed rejection.
	ahead := client.New(base, client.WithEpochExchange(func() uint64 { return 5 }, func(uint64) {}))
	_, err := ahead.WatchPoll(ctx, 0, nil)
	if !errors.Is(err, client.ErrWatchStaleEpoch) {
		t.Fatalf("diverged-epoch poll returned %v; want ErrWatchStaleEpoch", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("stale-epoch rejection = %+v; want 409", err)
	}
}

func TestWatchUnavailableWithoutStream(t *testing.T) {
	// No WAL, no follower: nothing to tail.
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	_, err := c.WatchPoll(context.Background(), 0, nil)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "watch_unavailable" || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("in-memory watch returned %v; want 503 watch_unavailable", err)
	}
}

// sseReader drains SSE frames off a stream on one background goroutine
// so tests can wait for named events more than once per connection.
type sseReader struct {
	lines chan string
}

func newSSEReader(body interface{ Read([]byte) (int, error) }) *sseReader {
	sr := &sseReader{lines: make(chan string)}
	r := bufio.NewReader(body)
	go func() {
		defer close(sr.lines)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			sr.lines <- strings.TrimRight(line, "\n")
		}
	}()
	return sr
}

// wait blocks until every wanted event name was seen; returns
// name -> first data payload seen for it during this call.
func (sr *sseReader) wait(t *testing.T, want ...string) map[string]string {
	t.Helper()
	got := map[string]string{}
	pending := ""
	deadline := time.After(10 * time.Second)
	remaining := map[string]bool{}
	for _, w := range want {
		remaining[w] = true
	}
	for len(remaining) > 0 {
		select {
		case line, ok := <-sr.lines:
			if !ok {
				t.Fatalf("SSE stream closed; still waiting for %v (got %v)", remaining, got)
			}
			switch {
			case strings.HasPrefix(line, "event: "):
				pending = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if pending != "" {
					if _, seen := got[pending]; !seen {
						got[pending] = strings.TrimPrefix(line, "data: ")
					}
					delete(remaining, pending)
				}
			}
		case <-deadline:
			t.Fatalf("timed out; still waiting for %v (got %v)", remaining, got)
		}
	}
	return got
}

func TestWatchSSEStream(t *testing.T) {
	_, _, base, _ := newWatchServer(t, server.Config{})
	resp, err := http.Get(base + "/v1/watch?stream=sse&from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	frames := newSSEReader(resp.Body).wait(t, "mutation")
	if !strings.Contains(frames["mutation"], `"insert_node"`) {
		t.Fatalf("mutation frame = %s", frames["mutation"])
	}
}

func TestWatchQuerySSEDeltas(t *testing.T) {
	_, db, base, _ := newWatchServer(t, server.Config{})
	q := url.QueryEscape("Select source(P).name From PATHS P Where P MATCHES ComputeHost()")
	resp, err := http.Get(base + "/v1/watch/query?name=hosts&q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sse := newSSEReader(resp.Body)
	frames := sse.wait(t, "delta")
	if !strings.Contains(frames["delta"], `"full":true`) {
		t.Fatalf("initial delta is not a full snapshot: %s", frames["delta"])
	}

	// An in-footprint insert pushes an incremental delta with the new row.
	insertWatchHost(t, db, 9100, "delta-host")
	frames = sse.wait(t, "delta")
	if !strings.Contains(frames["delta"], "delta-host") {
		t.Fatalf("incremental delta missing the new row: %s", frames["delta"])
	}

	// A malformed standing query is a 400, not a stream.
	bad, err := http.Get(base + "/v1/watch/query?q=" + url.QueryEscape("Select ???"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query answered %d", bad.StatusCode)
	}
}

// TestShutdownUnblocksWatch proves the generalized drain: a parked
// /v1/watch long-poll, a standing-query SSE stream, a follower's /v1/wal
// long-poll parked at the log end and a /v1/watch SSE stream all return
// promptly when the server shuts down, instead of pinning the drain
// until their timers fire.
func TestShutdownUnblocksWatch(t *testing.T) {
	reg := obs.NewRegistry()
	s, db, base, c := newWatchServer(t, server.Config{Registry: reg})
	ctx := context.Background()

	// The two feeds whose drain signals are one: the replication feed and
	// the change feed's SSE form.
	walPolled := make(chan error, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v1/wal?from=%d&wait_ms=25000", base, db.WAL().NextIndex()))
		if err != nil {
			walPolled <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get(repl.HeaderCount) != "0" {
			walPolled <- fmt.Errorf("status %d, %s records; want an empty 200 batch",
				resp.StatusCode, resp.Header.Get(repl.HeaderCount))
			return
		}
		walPolled <- nil
	}()
	sse, err := http.Get(base + "/v1/watch?stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	sseEnded := make(chan struct{})
	go func() {
		defer close(sseEnded)
		defer sse.Body.Close()
		_, _ = io.Copy(io.Discard, sse.Body)
	}()
	waiters := reg.Gauge("repl.source.poll_waiters")
	for deadline := time.Now().Add(5 * time.Second); waiters.Value() != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the /v1/wal long-poll never parked")
		}
	}

	tail, err := c.WatchPoll(ctx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	polled := make(chan error, 1)
	go func() {
		_, err := c.WatchPoll(ctx, tail.Next, &client.WatchOptions{PollWait: 25 * time.Second})
		polled <- err
	}()
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		q := url.QueryEscape("Select source(P).name From PATHS P Where P MATCHES ComputeHost()")
		resp, err := http.Get(base + "/v1/watch/query?q=" + q)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		for {
			if _, err := r.ReadString('\n'); err != nil {
				return // server ended the stream
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-polled:
		if err != nil {
			t.Fatalf("drained long-poll errored: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll still parked after Shutdown")
	}
	select {
	case <-streamed:
	case <-time.After(5 * time.Second):
		t.Fatal("standing-query stream still parked after Shutdown")
	}
	select {
	case err := <-walPolled:
		if err != nil {
			t.Fatalf("drained /v1/wal long-poll: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/v1/wal long-poll still parked after Shutdown")
	}
	select {
	case <-sseEnded:
	case <-time.After(5 * time.Second):
		sse.Body.Close() // hang up, so the test server can close
		t.Fatal("/v1/watch SSE stream still open after Shutdown")
	}
}

// TestNodeDeleteFeedsOneEvent pins the change feed's contract for a
// node delete: the store closes the node's live incident edges at the
// delete's timestamp, but the feed carries one delete event, of the
// node's class. A consumer derives the edge closes from it.
func TestNodeDeleteFeedsOneEvent(t *testing.T) {
	_, db, _, c := newWatchServer(t, server.Config{})
	ctx := context.Background()
	vm, ok := db.Store().LookupUnique(schema.NodeRoot, "id", int64(1006))
	if !ok {
		t.Fatal("demo vm-1 missing")
	}
	resp, err := c.Ingest(ctx, []server.IngestOp{
		{Op: "insert-node", Class: "ComputeHost", Fields: map[string]any{"id": 9201, "name": "doomed", "rack": "r9", "status": "Active"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	host := resp.UIDs[0]
	resp, err = c.Ingest(ctx, []server.IngestOp{
		{Op: "insert-edge", Class: netmodel.OnServer, Src: int64(vm), Dst: host, Fields: map[string]any{"id": 9202}},
	})
	if err != nil {
		t.Fatal(err)
	}
	edge := resp.UIDs[0]
	from := db.WAL().NextIndex()
	if _, err := c.Ingest(ctx, []server.IngestOp{{Op: "delete", UID: host}}); err != nil {
		t.Fatal(err)
	}

	poll, err := c.WatchPoll(ctx, from, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(poll.Events) != 1 {
		t.Fatalf("deleting a node with one live edge fed %d events, want 1: %+v", len(poll.Events), poll.Events)
	}
	ev := poll.Events[0]
	if ev.Op != "delete" || ev.UID != host || ev.Class != "ComputeHost" {
		t.Fatalf("event = {op %s uid %d class %s}, want {op delete uid %d class ComputeHost}", ev.Op, ev.UID, ev.Class, host)
	}
	e := db.Store().Elem(graph.UID(edge))
	last := e.Period(len(e.Versions) - 1)
	if last.IsCurrent() || last.End != temporal.Nanos(ev.At) {
		t.Fatalf("incident edge's last period %v; want closed at the delete's At %v", last, ev.At)
	}
}

// TestWatchQueryQueueCapped: a standing query's queue is allocated whole
// when its stream opens, so a queue= past repl.MaxQueue — the largest
// integer, or one past the cap — answers 400 bad_request, and the cap
// itself opens the stream.
func TestWatchQueryQueueCapped(t *testing.T) {
	_, _, base, _ := newWatchServer(t, server.Config{})
	q := url.QueryEscape("Select source(P).name From PATHS P Where P MATCHES ComputeHost()")
	for _, tc := range []struct {
		queue string
		want  int
	}{
		{"9223372036854775807", http.StatusBadRequest},
		{strconv.Itoa(repl.MaxQueue + 1), http.StatusBadRequest},
		{strconv.Itoa(repl.MaxQueue), http.StatusOK},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/watch/query?q="+q+"&queue="+tc.queue, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatalf("queue=%s: %v", tc.queue, err)
		}
		cancel()
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("queue=%s: status %d, want %d", tc.queue, resp.StatusCode, tc.want)
		}
	}
}

// TestWatchExactIntegers: an integer field past 2^53, ingested over the
// wire, comes back through Client.Watch as the same int64.
func TestWatchExactIntegers(t *testing.T) {
	_, _, _, c := newWatchServer(t, server.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const id = int64(9007199254740993)
	resp, err := c.Ingest(ctx, []server.IngestOp{{Op: "insert-node", Class: "ComputeHost",
		Fields: map[string]any{"id": id, "name": "past-2^53", "rack": "r9", "status": "Active"}}})
	if err != nil {
		t.Fatal(err)
	}
	stream := c.Watch(ctx, 0, nil)
	defer stream.Close()
	for {
		ev, err := stream.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ev.UID != resp.UIDs[0] {
			continue
		}
		if got, ok := ev.Fields["id"].(int64); !ok || got != id {
			t.Fatalf("id came back as %T %v, want int64 %d", ev.Fields["id"], ev.Fields["id"], id)
		}
		return
	}
}

// TestWatchRejectsBadParams: a malformed or negative count or wait on
// either watch endpoint answers 400 bad_request, as /v1/wal does, rather
// than being read as 0 (the default).
func TestWatchRejectsBadParams(t *testing.T) {
	_, _, base, _ := newWatchServer(t, server.Config{})
	q := url.QueryEscape("Select source(P).name From PATHS P Where P MATCHES ComputeHost()")
	for _, path := range []string{
		"/v1/watch?from=0&wait_ms=abc",
		"/v1/watch?from=0&wait_ms=-5",
		"/v1/watch?from=0&wait_ms=1.5",
		"/v1/watch?from=0&max_events=x",
		"/v1/watch?from=0&max_events=-3",
		"/v1/watch?from=0&stream=sse&max_events=-1",
		"/v1/watch/query?q=" + q + "&queue=-1",
		"/v1/watch/query?q=" + q + "&queue=many",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"code":"bad_request"`) {
			t.Errorf("GET %s: %d %s; want 400 bad_request", path, resp.StatusCode, body)
		}
	}
}
