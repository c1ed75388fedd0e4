package stats

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStoreObserveAndSnapshot(t *testing.T) {
	s := NewStore(10, nil)
	for i := 0; i < 5; i++ {
		s.Observe("aaa", "Host ( id = ? )", Observation{Duration: 10 * time.Millisecond, Outcome: "ok", Edges: 100, Rows: 2})
	}
	s.Observe("bbb", "VM -> Host", Observation{Duration: 200 * time.Millisecond, Outcome: "limit", Edges: 5000, Rows: 0})
	s.Observe("bbb", "VM -> Host", Observation{Duration: 100 * time.Millisecond, Outcome: "error", Edges: 50, Rows: 0})
	s.CacheHit("aaa", "Host ( id = ? )")

	snap := s.Snapshot(SortTotalTime, 0)
	if snap.Tracked != 2 || len(snap.Statements) != 2 {
		t.Fatalf("tracked = %d, rows = %d, want 2", snap.Tracked, len(snap.Statements))
	}
	// bbb has 300ms total vs aaa's 50ms: total_time sort puts it first.
	if snap.Statements[0].Digest != "bbb" {
		t.Fatalf("total_time sort: first digest = %s, want bbb", snap.Statements[0].Digest)
	}
	b := snap.Statements[0]
	if b.Calls != 2 || b.LimitHits != 1 || b.Errors != 1 || b.OK != 0 {
		t.Fatalf("bbb outcomes wrong: %+v", b)
	}
	if b.EdgesScanned != 5050 {
		t.Fatalf("bbb edges = %d, want 5050", b.EdgesScanned)
	}
	a := snap.Statements[1]
	if a.Calls != 5 || a.OK != 5 || a.PlanCacheHits != 1 || a.Rows != 10 {
		t.Fatalf("aaa aggregates wrong: %+v", a)
	}
	if a.MeanMS < 9 || a.MeanMS > 11 {
		t.Fatalf("aaa mean = %v, want ~10", a.MeanMS)
	}
	if a.P50MS <= 0 || a.P95MS < a.P50MS || a.P99MS < a.P95MS {
		t.Fatalf("percentiles not monotone: p50=%v p95=%v p99=%v", a.P50MS, a.P95MS, a.P99MS)
	}

	// calls sort flips the order.
	snap = s.Snapshot(SortCalls, 0)
	if snap.Statements[0].Digest != "aaa" {
		t.Fatalf("calls sort: first digest = %s, want aaa", snap.Statements[0].Digest)
	}
	// limit truncates rows but Tracked reports the full cardinality.
	snap = s.Snapshot(SortCalls, 1)
	if len(snap.Statements) != 1 || snap.Tracked != 2 {
		t.Fatalf("limit=1: rows=%d tracked=%d", len(snap.Statements), snap.Tracked)
	}
}

func TestStoreEvictionFoldsIntoOther(t *testing.T) {
	s := NewStore(3, nil)
	// Three digests with clearly ordered total time.
	s.Observe("cold", "q0", Observation{Duration: 1 * time.Millisecond, Outcome: "ok", Edges: 1, Rows: 1})
	s.Observe("warm", "q1", Observation{Duration: 50 * time.Millisecond, Outcome: "ok"})
	s.Observe("hot", "q2", Observation{Duration: 500 * time.Millisecond, Outcome: "ok"})
	// Admitting a fourth evicts the coldest.
	s.Observe("new", "q3", Observation{Duration: 5 * time.Millisecond, Outcome: "error", Edges: 7})

	snap := s.Snapshot(SortTotalTime, 0)
	if snap.Tracked != 3 {
		t.Fatalf("tracked = %d, want 3", snap.Tracked)
	}
	for _, row := range snap.Statements {
		if row.Digest == "cold" {
			t.Fatalf("cold digest should have been evicted, still present: %+v", snap.Statements)
		}
	}
	if snap.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", snap.Evicted)
	}
	if snap.Other == nil {
		t.Fatalf("other bucket missing after eviction")
	}
	if snap.Other.Digest != OtherDigest || snap.Other.Calls != 1 || snap.Other.EdgesScanned != 1 || snap.Other.Rows != 1 {
		t.Fatalf("other bucket did not absorb the victim: %+v", snap.Other)
	}
	// The evicted digest coming back is re-admitted as a fresh entry
	// (evicting the new coldest), so hot statements always resurface.
	s.Observe("cold", "q0", Observation{Duration: 1 * time.Second, Outcome: "ok"})
	snap = s.Snapshot(SortTotalTime, 0)
	if snap.Statements[0].Digest != "cold" || snap.Statements[0].Calls != 1 {
		t.Fatalf("re-admitted digest should start fresh at the top: %+v", snap.Statements)
	}
	if snap.Evicted != 2 || snap.Other.Calls != 2 {
		t.Fatalf("second eviction not folded: evicted=%d other=%+v", snap.Evicted, snap.Other)
	}
}

func TestStoreReset(t *testing.T) {
	s := NewStore(2, nil)
	s.Observe("a", "qa", Observation{Duration: time.Millisecond, Outcome: "ok"})
	s.Observe("b", "qb", Observation{Duration: time.Millisecond, Outcome: "ok"})
	s.Observe("c", "qc", Observation{Duration: time.Millisecond, Outcome: "ok"}) // forces an eviction
	s.Reset()
	snap := s.Snapshot("", 0)
	if snap.Tracked != 0 || snap.Other != nil || snap.Evicted != 0 {
		t.Fatalf("reset left state behind: %+v", snap)
	}
	// Store keeps working after reset.
	s.Observe("a", "qa", Observation{Duration: time.Millisecond, Outcome: "ok"})
	if got := s.Snapshot("", 0).Tracked; got != 1 {
		t.Fatalf("tracked after reset+observe = %d, want 1", got)
	}
}

func TestStoreNilSafe(t *testing.T) {
	var s *Store
	s.Observe("a", "q", Observation{})
	s.CacheHit("a", "q")
	s.Reset()
	if snap := s.Snapshot("", 0); snap.Tracked != 0 {
		t.Fatalf("nil store snapshot: %+v", snap)
	}
}

// TestStoreConcurrency hammers the store from writers (many more
// digests than capacity, forcing constant admit/evict churn), readers,
// and periodic resets; run under -race -count=2 this is the digest-store
// half of the concurrency satellite.
func TestStoreConcurrency(t *testing.T) {
	s := NewStore(8, nil)
	const writers = 8
	const perWriter = 500
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				d := fmt.Sprintf("digest-%d", (w*perWriter+i)%32) // 32 digests into 8 slots
				s.Observe(d, "q "+d, Observation{Duration: time.Duration(i) * time.Microsecond, Outcome: "ok", Edges: 1})
				if i%7 == 0 {
					s.CacheHit(d, "q "+d)
				}
			}
		}(w)
	}
	// Periodic resets race the writers.
	writeWG.Add(1)
	go func() {
		defer writeWG.Done()
		for i := 0; i < 10; i++ {
			time.Sleep(time.Millisecond)
			s.Reset()
		}
	}()
	// Concurrent readers run until the writers are done.
	for r := 0; r < 4; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot(SortTotalTime, 0)
				if len(snap.Statements) > 8 {
					t.Errorf("cardinality cap violated: %d tracked", len(snap.Statements))
					return
				}
				WritePrometheus(&strings.Builder{}, s, 5)
			}
		}()
	}

	writeWG.Wait()
	close(stop)
	readWG.Wait()
}
