package graph

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/temporal"
)

// TestConcurrentReadersAndWriters exercises the store under parallel
// mutation and temporal reads; run with -race. Readers must always
// observe internally consistent objects (versions ordered, at most one
// current) while writers insert, update, and delete.
func TestConcurrentReadersAndWriters(t *testing.T) {
	st, _ := newTestStore(t)
	host, err := st.InsertNode("Host", Fields{"id": 1})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const vmsPerWriter = 30
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < vmsPerWriter; i++ {
				id := int64(1000 + w*1000 + i)
				vm, err := st.InsertNode("VM", Fields{"id": id, "status": "Green"})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := st.InsertEdge("HostedOn", vm, host, Fields{"id": id + 100000}); err != nil {
					t.Error(err)
					return
				}
				if err := st.Update(vm, Fields{"id": id, "status": "Red"}); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if err := st.Delete(vm); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	// Readers scan class indexes and version histories concurrently.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 50; pass++ {
				for _, uid := range st.ByClass("VM") {
					obj := st.Object(uid)
					if obj == nil {
						t.Error("indexed uid without object")
						return
					}
					current := 0
					for i, v := range obj.Versions {
						if v.Period.IsCurrent() {
							current++
						}
						if i > 0 && v.Period.Start < obj.Versions[i-1].Period.Start {
							t.Error("versions out of order")
							return
						}
					}
					if current > 1 {
						t.Error("object with two current versions")
						return
					}
				}
				_ = st.Stats()
				_, _ = st.Counts()
				_ = st.InEdges(host)
			}
		}()
	}
	wg.Wait()

	live, versions := st.Counts()
	wantLive := 1 + writers*vmsPerWriter*2 - writers*(vmsPerWriter/3+1)*2
	if live <= 0 || versions < live {
		t.Fatalf("counts inconsistent: live=%d versions=%d (rough expectation %d live)", live, versions, wantLive)
	}
}

// TestConcurrentUniqueClaims: two writers fighting over the same unique
// id — exactly one must win per id.
func TestConcurrentUniqueClaims(t *testing.T) {
	st := NewStore(testSchema(t), temporal.NewManualClock(t0), nil)
	const ids = 50
	var wg sync.WaitGroup
	wins := make([][]bool, 2)
	for w := 0; w < 2; w++ {
		wins[w] = make([]bool, ids)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				if _, err := st.InsertNode("Host", Fields{"id": int64(i), "name": fmt.Sprintf("w%d-%d", w, i)}); err == nil {
					wins[w][i] = true
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < ids; i++ {
		if wins[0][i] == wins[1][i] {
			t.Errorf("id %d: winner count != 1 (w0=%v w1=%v)", i, wins[0][i], wins[1][i])
		}
	}
}
