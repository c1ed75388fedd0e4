package graph

import (
	"context"
	"errors"
	"maps"
	"sync"
	"testing"
)

// freshCounts counts the store's live objects per concrete class from
// its objects, the way Stats would with no snapshot kept.
func freshCounts(st *Store) map[string]int {
	counts := map[string]int{}
	for uid := UID(1); uid < st.nextUID; uid++ {
		if obj := st.Object(uid); obj != nil && obj.Current() != nil {
			counts[obj.Class.Name]++
		}
	}
	return counts
}

// sameCounts compares two per-class count maps, treating a missing class
// as zero.
func sameCounts(a, b map[string]int) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// TestStatsSnapshotFollowsWrites: the kept statistics snapshot is handed
// out unchanged while no write moves a class count, and after an insert,
// a delete cascade, and a batch the undo journal rolls back it gives the
// same counts as a fresh count of the live objects.
func TestStatsSnapshotFollowsWrites(t *testing.T) {
	st, nodes, _ := batchBase(t)
	check := func(step string) {
		t.Helper()
		if got, want := st.Stats().ClassCount, freshCounts(st); !sameCounts(got, want) {
			t.Errorf("%s: Stats() = %v, fresh count %v", step, got, want)
		}
	}
	check("fixture")
	kept := st.Stats()
	if err := st.Update(nodes[0], Fields{"id": 1, "status": "Red"}); err != nil {
		t.Fatal(err)
	}
	if st.Stats() != kept {
		t.Error("an update, which moves no class count, rebuilt the snapshot")
	}

	mustInsertNode(t, st, "VNF", Fields{"id": 100})
	check("insert")
	if kept.ClassCount["VNF"] != 0 {
		t.Errorf("the insert wrote into a snapshot already handed out: %v", kept.ClassCount)
	}

	if err := st.Delete(nodes[1]); err != nil { // a Host and its HostedOn edge
		t.Fatal(err)
	}
	check("delete cascade")

	st.SetMutationHook(func(context.Context, []*Mutation) error { return errors.New("disk full") })
	before := st.Stats()
	err := st.Mutate(context.Background(),
		&Mutation{Op: OpInsertNode, Class: "Appliance", Fields: Fields{"id": 500}},
		&Mutation{Op: OpDelete, UID: nodes[2]},
		&Mutation{Op: OpInsertNode, Class: "Host", Fields: Fields{"id": 501}},
	)
	if err == nil {
		t.Fatal("a batch the hook refused was applied")
	}
	check("rolled-back batch")
	if got := st.Stats().ClassCount; !sameCounts(got, before.ClassCount) {
		t.Errorf("rolled-back batch: Stats() = %v, before the batch %v", got, before.ClassCount)
	}
}

// TestStatsBesideConcurrentWriter reads the snapshot beside a writer that
// inserts and deletes nodes (run it under -race): a snapshot, once handed
// out, never changes, and once the writer stops Stats matches a fresh
// count.
func TestStatsBesideConcurrentWriter(t *testing.T) {
	st, _, _ := batchBase(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			uid, err := st.InsertNode("VNF", Fields{"id": 1000 + i})
			if err != nil {
				t.Error(err)
				break
			}
			if i%2 == 0 {
				if err := st.Delete(uid); err != nil {
					t.Error(err)
					break
				}
			}
		}
		close(stop)
	}()
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := st.Stats()
				held := maps.Clone(s.ClassCount)
				if s.ClassCount["VNF"] < 0 || s.ClassCount["VNF"] > 100 {
					t.Errorf("snapshot counts %d VNFs", s.ClassCount["VNF"])
				}
				_ = st.Stats()
				if !sameCounts(s.ClassCount, held) {
					t.Errorf("a snapshot changed after it was handed out: %v, then %v", held, s.ClassCount)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	if got, want := st.Stats().ClassCount, freshCounts(st); !sameCounts(got, want) || want["VNF"] != 100 {
		t.Errorf("after the writer: Stats() = %v, fresh count %v (want 100 VNFs)", got, want)
	}
}
