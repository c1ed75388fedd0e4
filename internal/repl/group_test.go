package repl

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/wal"
)

// writeBatches lands n batches of size inserts on the primary, each one
// Mutate call and so one WAL group.
func (p *primary) writeBatches(t *testing.T, n, size int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p.clock.Advance(time.Second)
		ms := make([]*graph.Mutation, size)
		for j := range ms {
			p.seq++
			ms[j] = &graph.Mutation{Op: graph.OpInsertNode, Class: "Host", Fields: graph.Fields{"id": p.seq}}
		}
		if err := p.st.Mutate(context.Background(), ms...); err != nil {
			t.Fatal(err)
		}
	}
}

// countWatcher polls a replica's live count until stopped and remembers
// every count that is not a whole number of batches.
func countWatcher(st *graph.Store, batch int) (stop func() []int) {
	var torn []int
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if live, _ := st.Counts(); live%batch != 0 {
				torn = append(torn, live)
			}
		}
	}()
	return func() []int {
		close(done)
		wg.Wait()
		return torn
	}
}

// TestReplicaAppliesWholeGroups: while the primary ingests batches of ten
// inserts, a reader on the replica only ever sees a multiple of ten live
// objects — the feed ships whole groups even under a 1-byte batch cap,
// and the follower applies each group under one store write lock hold.
func TestReplicaAppliesWholeGroups(t *testing.T) {
	p := newPrimary(t)
	cfg := testFollowerConfig(p.srv.URL)
	cfg.MaxBatchBytes = 1
	f := newFollower(t, cfg)
	defer f.Stop()
	stop := countWatcher(f.st, 10)
	f.Start()
	p.writeBatches(t, 15, 10)
	waitFor(t, "catch-up", func() bool { return f.Status().Applied == 150 })
	if torn := stop(); len(torn) > 0 {
		t.Fatalf("a replica reader saw part of a group: live counts %v", torn)
	}
	if !bytes.Equal(history(t, f.st), history(t, p.st)) {
		t.Fatal("replica history differs from primary")
	}
}

// TestSeveredBodyAppliesWholeGroups cuts feed bodies inside a group — on a
// frame boundary between two of its records, and mid-frame — and the
// follower must apply only the whole groups before the cut, then resume
// from the first group it did not apply and converge.
func TestSeveredBodyAppliesWholeGroups(t *testing.T) {
	p := newPrimary(t)
	p.writeBatches(t, 6, 10)

	var severed atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		p.src.ServeWAL(rec, r)
		body := rec.Body.Bytes()
		cut := len(body)
		// The first two answers holding more than one group are cut:
		// first after the third frame of the second group, then in the
		// middle of that frame.
		if n := severed.Load(); n < 2 && len(body) > 0 {
			_, ends, err := wal.DecodeGroup(body)
			if err == nil && ends[len(ends)-1] < len(body) {
				_, second, err := wal.DecodeGroup(body[ends[len(ends)-1]:])
				if err == nil {
					cut = ends[len(ends)-1] + second[2]
					if n == 1 {
						cut -= 7
					}
					severed.Add(1)
				}
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body[:cut])
		if cut < len(body) {
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
	}))
	defer proxy.Close()

	f := newFollower(t, testFollowerConfig(proxy.URL))
	defer f.Stop()
	stop := countWatcher(f.st, 10)
	f.Start()
	waitFor(t, "catch-up through severed bodies", func() bool { return f.Status().Applied == 60 })
	if torn := stop(); len(torn) > 0 {
		t.Fatalf("a severed body applied part of a group: live counts %v", torn)
	}
	if severed.Load() != 2 {
		t.Fatalf("severed %d bodies, want 2", severed.Load())
	}
	if !bytes.Equal(history(t, f.st), history(t, p.st)) {
		t.Fatal("replica history differs from primary after severed bodies")
	}
	if s := f.Status(); s.Diverged || s.Reconnects < 2 {
		t.Fatalf("status %+v, want two reconnects and no divergence", s)
	}
}
