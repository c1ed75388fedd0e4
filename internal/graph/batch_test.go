package graph

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/temporal"
)

// batchBase returns a store holding four VMs and four Hosts with a
// HostedOn edge from each VM, plus the UIDs of its nodes and a counter of
// the hook calls made after the fixture was built.
func batchBase(t *testing.T) (*Store, []UID, *int) {
	t.Helper()
	st := NewStore(writeSchema(t), temporal.NewManualClock(t0), nil)
	var nodes []UID
	for i := 0; i < 4; i++ {
		vm := mustInsertNode(t, st, "VM", Fields{"id": 1 + i, "status": "Green"})
		host := mustInsertNode(t, st, "Host", Fields{"id": 11 + i})
		mustInsertEdge(t, st, "HostedOn", vm, host, Fields{"id": 21 + i})
		nodes = append(nodes, vm, host)
	}
	calls := new(int)
	st.SetMutationHook(func(context.Context, []*Mutation) error {
		*calls++
		return nil
	})
	return st, nodes, calls
}

// batchModel draws a random valid batch against the base store: each op
// is valid given the ops before it, including ops that act on a node an
// earlier op of the batch inserted (a fresh batch numbers its inserts
// from the store's next UID), so the batch only applies in order.
type batchModel struct {
	rng      *rand.Rand
	next     UID            // the UID the next insert takes
	live     []UID          // live nodes
	class    map[UID]string // node classes
	id       map[UID]int    // node ids
	inserted map[UID]bool   // nodes the batch inserted so far
	deleted  []UID          // nodes the batch deleted so far
	nextID   int
}

func (bm *batchModel) op() *Mutation {
	pick := func() UID { return bm.live[bm.rng.Intn(len(bm.live))] }
	switch p := bm.rng.Intn(10); {
	case p < 3 || len(bm.live) < 3:
		class, f := "Host", Fields{"id": bm.nextID}
		if bm.rng.Intn(2) == 0 {
			class, f = "VM", Fields{"id": bm.nextID, "status": "Green"}
		}
		uid := bm.next
		bm.next++
		bm.live = append(bm.live, uid)
		bm.class[uid], bm.id[uid], bm.inserted[uid] = class, bm.nextID, true
		bm.nextID++
		return &Mutation{Op: OpInsertNode, Class: class, Fields: f}
	case p < 5:
		src, dst := pick(), pick()
		bm.next++
		bm.nextID++
		return &Mutation{Op: OpInsertEdge, Class: "ConnectsTo", Src: src, Dst: dst, Fields: Fields{"id": 1000 + bm.nextID}}
	case p < 8:
		uid := pick()
		f := Fields{"id": bm.id[uid]}
		if bm.class[uid] == "VM" {
			f["status"] = "Red"
		}
		return &Mutation{Op: OpUpdate, UID: uid, Fields: f}
	default:
		i := bm.rng.Intn(len(bm.live))
		uid := bm.live[i]
		bm.live = append(bm.live[:i], bm.live[i+1:]...)
		bm.deleted = append(bm.deleted, uid)
		return &Mutation{Op: OpDelete, UID: uid}
	}
}

// plant returns an op that fails at this point of the batch, and its
// kind: one that fails only because of an earlier op of the batch when
// the batch so far allows it, one that fails on its own otherwise.
func (bm *batchModel) plant() (*Mutation, string) {
	var claimed []int // ids the batch's live inserts hold
	for _, uid := range bm.live {
		if bm.inserted[uid] {
			claimed = append(claimed, bm.id[uid])
		}
	}
	kinds := []string{"unknown uid"}
	if len(bm.deleted) > 0 {
		kinds = append(kinds, "update of a deleted uid", "edge to a deleted node")
	}
	if len(claimed) > 0 {
		kinds = append(kinds, "claimed unique id")
	}
	switch kind := kinds[bm.rng.Intn(len(kinds))]; kind {
	case "update of a deleted uid":
		return &Mutation{Op: OpUpdate, UID: bm.deleted[bm.rng.Intn(len(bm.deleted))], Fields: Fields{"id": 9999}}, kind
	case "edge to a deleted node":
		gone := bm.deleted[bm.rng.Intn(len(bm.deleted))]
		return &Mutation{Op: OpInsertEdge, Class: "ConnectsTo", Src: bm.live[0], Dst: gone, Fields: Fields{"id": 9999}}, kind
	case "claimed unique id":
		return &Mutation{Op: OpInsertNode, Class: "Host", Fields: Fields{"id": claimed[bm.rng.Intn(len(claimed))]}}, kind
	default:
		return &Mutation{Op: OpUpdate, UID: 1 << 40, Fields: Fields{"id": 9999}}, kind
	}
}

func cloneBatch(ms []*Mutation) []*Mutation {
	out := make([]*Mutation, len(ms))
	for i, m := range ms {
		c := *m
		out[i] = &c
	}
	return out
}

// TestMutateBatchAllOrNothing plants one failing op at every position of
// random 10-op batches — some fail only because an earlier op of the
// same batch deleted their target or claimed their unique id — and holds
// Mutate to all-or-nothing: the hook is never called, the stored history
// is byte-identical to before, and the invariants hold. The same batch
// without the planted op applies exactly as its ops sent one Mutate call
// at a time do.
func TestMutateBatchAllOrNothing(t *testing.T) {
	planted := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		for k := 0; k < 10; k++ {
			st, nodes, calls := batchBase(t)
			_, next := st.UIDRange()
			bm := &batchModel{rng: rand.New(rand.NewSource(seed*100 + int64(k))), next: next,
				live: append([]UID(nil), nodes...), class: map[UID]string{}, id: map[UID]int{},
				inserted: map[UID]bool{}, nextID: 100}
			for _, uid := range nodes {
				obj := st.Object(uid)
				bm.class[uid], bm.id[uid] = obj.Class.Name, obj.Current().Fields["id"].(int)
			}
			var batch []*Mutation
			var bad *Mutation
			var kind string
			for i := 0; i < 10; i++ {
				if i == k {
					bad, kind = bm.plant()
				}
				batch = append(batch, bm.op())
			}
			planted[kind]++
			withBad := append(append(cloneBatch(batch[:k]), bad), cloneBatch(batch[k:])...)

			before := historyOf(t, st)
			err := st.Mutate(context.Background(), withBad...)
			var be *BatchError
			if !errors.As(err, &be) || be.Index != k {
				t.Fatalf("seed %d, %s planted at %d: err = %v, want a BatchError at op %d", seed, kind, k, err, k)
			}
			if *calls != 0 {
				t.Fatalf("seed %d, %s planted at %d: the hook was called %d times", seed, kind, k, *calls)
			}
			if !bytes.Equal(historyOf(t, st), before) {
				t.Fatalf("seed %d, %s planted at %d: a rejected batch changed the history", seed, kind, k)
			}
			if vs := st.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("seed %d, %s planted at %d: invariants violated: %v", seed, kind, k, vs)
			}

			whole, _, wholeCalls := batchBase(t)
			if err := whole.Mutate(context.Background(), cloneBatch(batch)...); err != nil {
				t.Fatalf("seed %d: the batch without its planted op: %v", seed, err)
			}
			oneByOne, _, _ := batchBase(t)
			for i, m := range cloneBatch(batch) {
				if err := oneByOne.Mutate(context.Background(), m); err != nil {
					t.Fatalf("seed %d: op %d sent alone: %v", seed, i, err)
				}
			}
			if !bytes.Equal(historyOf(t, whole), historyOf(t, oneByOne)) {
				t.Fatalf("seed %d: the batch and its ops sent one at a time stored different histories", seed)
			}
			if *wholeCalls != 1 {
				t.Fatalf("seed %d: the hook saw the batch in %d calls, want 1", seed, *wholeCalls)
			}
			if vs := whole.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("seed %d: invariants violated after the batch: %v", seed, vs)
			}
		}
	}
	for _, kind := range []string{"unknown uid", "update of a deleted uid", "edge to a deleted node", "claimed unique id"} {
		if planted[kind] == 0 {
			t.Errorf("no batch planted a %q op: %v", kind, planted)
		}
	}
}

// TestMutateBatchRollsBackHookRejection: when the log refuses a batch's
// group, every op the batch applied before the hook ran is undone.
func TestMutateBatchRollsBackHookRejection(t *testing.T) {
	st, nodes, _ := batchBase(t)
	st.SetMutationHook(func(context.Context, []*Mutation) error { return errors.New("disk full") })
	before := historyOf(t, st)
	err := st.Mutate(context.Background(),
		&Mutation{Op: OpInsertNode, Class: "Host", Fields: Fields{"id": 500}},
		&Mutation{Op: OpUpdate, UID: nodes[0], Fields: Fields{"id": 1, "status": "Red"}},
		&Mutation{Op: OpDelete, UID: nodes[1]},
		&Mutation{Op: OpInsertEdge, Class: "HostedOn", Src: nodes[2], Dst: nodes[3], Fields: Fields{"id": 501}},
	)
	if err == nil {
		t.Fatal("a batch the hook refused was applied")
	}
	if !bytes.Equal(historyOf(t, st), before) {
		t.Error("a refused batch changed the history")
	}
	if _, ok := st.LookupUnique("Node", "id", 500); ok {
		t.Error("a refused insert still holds its unique id")
	}
	if vs := st.CheckInvariants(); len(vs) != 0 {
		t.Errorf("invariants violated: %v", vs)
	}
}

// TestMutateOneOpAllocations pins what a one-op write allocates: the
// batch path (the group slice, the undo log) must cost a single write
// nothing, since every fixture load is a run of one-op writes. The
// bounds are the counts measured before writes became batches.
func TestMutateOneOpAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds an allocation to every write")
	}
	st, nodes, _ := batchBase(t)
	f := Fields{"id": 1, "status": "Red"}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := st.Update(nodes[0], f); err != nil {
			t.Fatal(err)
		}
	}); allocs > 12 {
		t.Errorf("a one-op update allocates %.0f times, want at most 12", allocs)
	}
	id := 1000
	if allocs := testing.AllocsPerRun(200, func() {
		id++
		if _, err := st.InsertNode("Host", Fields{"id": id}); err != nil {
			t.Fatal(err)
		}
	}); allocs > 15 {
		t.Errorf("a one-op insert allocates %.0f times, want at most 15", allocs)
	}
}

// raceEnabled reports a -race build; race_test.go sets it.
var raceEnabled bool
