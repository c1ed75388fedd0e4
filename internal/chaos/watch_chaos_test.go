package chaos_test

// The watch subsystem under injected faults: a subscriber whose stream
// connection is severed mid-delivery, and whose serving cluster then
// loses its primary outright, must — resuming only by its token —
// observe every acknowledged mutation at least once, in stream order,
// with no event from a fenced epoch interleaved. Delivered payloads are
// checked field-for-field against the records decoded straight out of
// the authoritative WALs.

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/watch"
)

// decodeWAL decodes mgr's records at [from, to) into mutations.
func decodeWAL(t *testing.T, mgr *wal.Manager, from, to uint64) []*graph.Mutation {
	t.Helper()
	var muts []*graph.Mutation
	for idx := from; idx < to; {
		raw, _, err := mgr.ReadRecords(idx, 1<<20)
		if err != nil {
			t.Fatalf("reading WAL at %d: %v", idx, err)
		}
		if len(raw) == 0 {
			t.Fatalf("WAL dry at %d; want records through %d", idx, to)
		}
		for len(raw) > 0 && idx < to {
			m, n, err := wal.DecodeRecord(raw)
			if err != nil {
				t.Fatalf("decoding WAL record %d: %v", idx, err)
			}
			muts = append(muts, m)
			raw = raw[n:]
			idx++
		}
	}
	return muts
}

// fieldsEq compares field maps across a JSON round-trip (the wire turns
// int64 into float64; canonical JSON bytes equalize them).
func fieldsEq(a, b graph.Fields) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return reflect.DeepEqual(ja, jb)
}

// TestWatchSurvivesSeverAndFailover is the watch subsystem's headline
// chaos proof. The subscriber tails the cluster through a replica whose
// listener cuts every connection after a small write budget, so watch
// batches die mid-delivery over and over; mid-stream the primary is
// killed abruptly and the cluster fails over to that replica. The
// subscriber — resuming purely by its token through Cluster.Watch —
// must still observe every acknowledged mutation at least once, in
// stream order, under a non-decreasing epoch, matching the WAL records
// byte-derived field for field.
func TestWatchSurvivesSeverAndFailover(t *testing.T) {
	pdb := openWALDB(t)
	if _, err := netmodel.BuildDemo(pdb.Store(), 1000); err != nil {
		t.Fatal(err)
	}
	ps := server.New(pdb, server.Config{})
	purl := serveOn(t, ps, listen(t))

	// The replica — the node actually serving the watch stream — sits
	// behind a listener that severs every connection after ~8KB written:
	// long-poll responses die mid-JSON, the SSE path never gets a whole
	// batch out, and the subscriber only makes progress by resuming.
	fdb := openWALDB(t)
	fs := server.New(fdb, server.Config{Follow: &repl.FollowerConfig{
		Primary:      purl,
		PollWait:     50 * time.Millisecond,
		ReconnectMin: time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
	}})
	f := fs.Follower()
	t.Cleanup(f.Stop)
	flaky := chaos.NewFlakyListener(listen(t), 8*1024, 0)
	furl := serveOn(t, fs, flaky)

	cl, err := client.NewCluster(client.ClusterConfig{
		Primary:    purl,
		Replicas:   []string{furl},
		BackoffMin: time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The subscriber: one stream from index 0, resumed by token across
	// every sever and the failover. Short polls keep batches small so the
	// write budget cuts many of them mid-flight.
	ws := cl.Watch(ctx, 0, &client.WatchOptions{PollWait: 100 * time.Millisecond, MaxEvents: 8})
	defer ws.Close()
	var mu sync.Mutex
	var delivered []watch.Event
	go func() {
		for {
			ev, err := ws.Next(ctx)
			if err != nil {
				return
			}
			mu.Lock()
			delivered = append(delivered, ev)
			mu.Unlock()
		}
	}()
	covered := func() uint64 { // first index not yet observed
		mu.Lock()
		defer mu.Unlock()
		seen := make(map[uint64]bool, len(delivered))
		for _, ev := range delivered {
			if !ev.Control() {
				seen[ev.Index] = true
			}
		}
		var n uint64
		for seen[n] {
			n++
		}
		return n
	}

	// Acked writes against the live primary while the watch stream is
	// being cut: each nil-error ingest is durable and must reach the
	// subscriber.
	const ackedBeforeKill = 30
	for i := 0; i < ackedBeforeKill; i++ {
		if _, err := cl.Ingest(ctx, []server.IngestOp{{
			Op: "insert-node", Class: "ComputeHost",
			Fields: map[string]any{"id": int64(50000 + i), "name": fmt.Sprintf("acked-%d", i), "rack": "rw", "status": "Active"},
		}}); err != nil {
			t.Fatalf("acked write %d: %v", i, err)
		}
	}

	// Snapshot the authoritative pre-kill history off the primary's WAL
	// while it is still alive.
	killPoint := pdb.WAL().NextIndex()
	expected := decodeWAL(t, pdb.WAL(), 0, killPoint)

	// Let the replica drain, then kill the primary abruptly — no drain,
	// no goodbye — and fail over. The promote call itself rides the flaky
	// listener, so it may need several attempts.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if applied, _ := f.Applied(); applied >= killPoint {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never drained: %+v", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	var nc *client.Client
	for attempt := 0; ; attempt++ {
		nc, err = cl.Failover(ctx)
		if err == nil {
			break
		}
		if attempt > 50 {
			t.Fatalf("failover never succeeded through the flaky listener: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if nc.Base() != furl {
		t.Fatalf("failover promoted %s; want %s", nc.Base(), furl)
	}
	promotedEpoch := fdb.WAL().Epoch()
	if promotedEpoch == 0 {
		t.Fatal("promotion did not establish a positive epoch")
	}

	// Acked writes against the new primary — through the flaky listener,
	// so retry each until an ack lands. A torn ack may have applied
	// anyway; that is fine (and exactly the at-least-once contract): the
	// coverage check below runs over the WAL, which holds whatever truly
	// committed. Distinct ids per attempt keep retries from tripping the
	// unique-field check.
	acked := 0
	for attempt := 0; acked < 10; attempt++ {
		if attempt > 500 {
			t.Fatal("could not land post-failover writes through the flaky listener")
		}
		_, err := cl.Ingest(ctx, []server.IngestOp{{
			Op: "insert-node", Class: "ComputeHost",
			Fields: map[string]any{"id": int64(60000 + attempt), "name": fmt.Sprintf("post-failover-%d", attempt), "rack": "rw", "status": "Active"},
		}})
		if err == nil {
			acked++
		}
	}

	// The full acknowledged history now ends at the promoted node's WAL
	// end. Promotion checkpointed at the adoption point, so its WAL holds
	// exactly the post-failover tail; the prefix was captured above.
	end := fdb.WAL().NextIndex()
	adopted := fdb.WAL().BaseIndex()
	if adopted != killPoint {
		t.Fatalf("promoted WAL base %d; want the adoption point %d", adopted, killPoint)
	}
	expected = append(expected, decodeWAL(t, fdb.WAL(), adopted, end)...)

	// The subscriber must converge on full coverage purely by resuming.
	deadline = time.Now().Add(30 * time.Second)
	for covered() < end {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber stuck at %d of %d after 30s (severed %d times)", covered(), end, flaky.Severed())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ws.Close()
	if flaky.Severed() == 0 {
		t.Fatal("fault never fired; test proves nothing")
	}

	mu.Lock()
	defer mu.Unlock()

	// Stream order: at-least-once allows re-delivery of a suffix after a
	// sever, but never a forward jump past unseen history; and the epoch
	// stamped on deliveries never decreases — once the subscriber has
	// seen the promoted era, nothing from the fenced one interleaves.
	maxSeen := int64(-1)
	var maxEpoch uint64
	for i, ev := range delivered {
		if ev.Control() {
			t.Fatalf("delivery %d is a %s control event; the ring must have retained the whole run", i, ev.Op)
		}
		if int64(ev.Index) > maxSeen+1 {
			t.Fatalf("delivery %d jumped to index %d past unseen %d", i, ev.Index, maxSeen+1)
		}
		if int64(ev.Index) > maxSeen {
			maxSeen = int64(ev.Index)
		}
		if ev.Epoch < maxEpoch {
			t.Fatalf("delivery %d carries epoch %d after epoch %d was seen: fenced-era event interleaved", i, ev.Epoch, maxEpoch)
		}
		maxEpoch = ev.Epoch

		// Field-for-field fidelity against the record decoded from the
		// authoritative WAL at the same index.
		want := expected[ev.Index]
		if ev.Op != want.Op.String() || ev.UID != int64(want.UID) {
			t.Fatalf("delivery %d: got %s uid %d at index %d; WAL says %s uid %d", i, ev.Op, ev.UID, ev.Index, want.Op, want.UID)
		}
		if want.Op == graph.OpInsertEdge && (ev.Src != int64(want.Src) || ev.Dst != int64(want.Dst)) {
			t.Fatalf("delivery %d: edge endpoints %d->%d; WAL says %d->%d", i, ev.Src, ev.Dst, want.Src, want.Dst)
		}
		if !fieldsEq(ev.Fields, want.Fields) {
			t.Fatalf("delivery %d (index %d): fields %v; WAL says %v", i, ev.Index, ev.Fields, want.Fields)
		}
		if !ev.At.Equal(want.At) {
			t.Fatalf("delivery %d (index %d): tx time %v; WAL says %v", i, ev.Index, ev.At, want.At)
		}
	}
	if uint64(maxSeen+1) < end {
		t.Fatalf("subscriber finished at %d; acknowledged history ends at %d", maxSeen+1, end)
	}
	if maxEpoch != promotedEpoch {
		t.Fatalf("final deliveries carry epoch %d; promoted epoch is %d", maxEpoch, promotedEpoch)
	}
}
