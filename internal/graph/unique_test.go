package graph

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/temporal"
)

// anyScalar is a field type that admits every scalar kind, so one unique
// field can hold ints, floats, strings and bools side by side.
type anyScalar struct{}

func (anyScalar) String() string { return "any" }

func (anyScalar) Validate(v any) error {
	switch v.(type) {
	case int, int32, int64, float64, string, bool:
		return nil
	}
	return fmt.Errorf("not a scalar: %T", v)
}

// taggedStore returns a store whose Tagged nodes carry a unique tag of
// any scalar kind, beside the root's unique id.
func taggedStore(t testing.TB) *Store {
	t.Helper()
	s := schema.New()
	if _, err := s.DefineNode("Tagged", "", schema.Field{Name: "tag", Type: anyScalar{}, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	return NewStore(s, temporal.NewManualClock(t0), nil)
}

// uniqueValues mixes every kind a unique value can take: integer-valued
// numerics of four kinds, which collide, other floats, NaN, strings
// (among them "5", which is not 5) and bools.
var uniqueValues = []any{
	5, int64(5), 5.0, int32(5), int64(-3), -3.0, 0, -0.0, int64(math.MinInt64),
	2.5, -2.5, 0.1, math.NaN(), math.Inf(1), 1e21,
	"5", "", "a", "i5", "s",
	true, false,
}

// TestUniqueKindEquivalence pins which values the unique index treats as
// one: exactly those that share a valueKey.
func TestUniqueKindEquivalence(t *testing.T) {
	for _, held := range uniqueValues {
		st := taggedStore(t)
		uid, err := st.InsertNode("Tagged", Fields{"id": 1, "tag": held})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range uniqueValues {
			same := valueKey(v) == valueKey(held)
			if got, ok := st.LookupUnique("Tagged", "tag", v); ok != same || ok && got != uid {
				t.Errorf("holding %#v: LookupUnique(%#v) = %d, %v; want found %v", held, v, got, ok, same)
			}
			_, err := st.InsertNode("Tagged", Fields{"id": 2, "tag": v})
			if (err != nil) != same {
				t.Errorf("holding %#v: inserting %#v: err %v, want a duplicate %v", held, v, err, same)
			}
			if err == nil {
				if uid2, _ := st.LookupUnique(schema.NodeRoot, "id", 2); st.Delete(uid2) != nil {
					t.Fatal("deleting the second holder")
				}
			}
		}
	}
	st := taggedStore(t)
	if _, err := st.InsertNode("Tagged", Fields{"id": 1, "tag": 5.0}); err != nil {
		t.Fatal(err)
	}
	_, err := st.InsertNode("Tagged", Fields{"id": 2, "tag": int32(5)})
	if want := "graph: duplicate value 5 for unique field Tagged.tag (held by uid 1)"; err == nil || err.Error() != want {
		t.Errorf("duplicate error = %v, want %q", err, want)
	}
}

// TestLookupUniqueAllocations pins the typed index's lookups: an integer
// and a string value are found without allocating.
func TestLookupUniqueAllocations(t *testing.T) {
	st := taggedStore(t)
	for i, tag := range []any{int64(70001), "host-7"} {
		if _, err := st.InsertNode("Tagged", Fields{"id": int64(i), "tag": tag}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []any{int64(70001), "host-7"} {
		var found bool
		allocs := testing.AllocsPerRun(100, func() {
			_, found, _ = st.LookupUniqueSince("Tagged", "tag", v, 0)
		})
		if !found || allocs != 0 {
			t.Errorf("LookupUniqueSince(%#v): found %v, %v allocations, want found with none", v, found, allocs)
		}
	}
}

// TestReleaseHashKinds checks the release hash separates the kinds the
// index separates, and agrees where it merges them.
func TestReleaseHashKinds(t *testing.T) {
	key := uniqueKey{class: "Tagged", field: "tag"}
	seen := map[uint64]string{}
	for _, v := range uniqueValues {
		k := keyOf(v)
		h := releaseHash(key, k)
		if vk, ok := seen[h]; ok && vk != k.String() {
			t.Errorf("%q and %q share release hash %x", vk, k, h)
		}
		seen[h] = k.String()
		if k.String() != valueKey(v) {
			t.Errorf("keyOf(%#v) renders %q, valueKey %q", v, k, valueKey(v))
		}
	}
}

// uniqueModel is FuzzUniqueIndex's reference: every tagged element's
// current tag and liveness, and per value key the latest time an element
// gave that value up.
type uniqueModel struct {
	tag      map[UID]any // absent: the element holds no tag
	id       map[UID]int64
	live     map[UID]bool
	released map[string]int64
	order    []UID
}

type fuzzOp struct {
	op  MutationOp
	uid UID
	tag any // nil: the new version holds no tag
}

// apply runs ops on a copy of the model as the store would, reporting
// whether every op is admitted; on success the copy replaces the model,
// with inserts at the UIDs and releases at the times the store stamped.
func (m *uniqueModel) apply(ops []fuzzOp, ms []*Mutation, stamped bool) bool {
	tag, live := cloneMap(m.tag), cloneMap(m.live)
	holder := func(v any, self UID) bool {
		for uid, t := range tag {
			if live[uid] && uid != self && valueKey(t) == valueKey(v) {
				return true
			}
		}
		return false
	}
	var released [][2]any
	release := func(uid UID, next any, at int64) {
		if was, ok := tag[uid]; ok && (next == nil || valueKey(was) != valueKey(next)) {
			released = append(released, [2]any{valueKey(was), at})
		}
	}
	for i, o := range ops {
		switch o.op {
		case OpInsertNode:
			if o.tag != nil && holder(o.tag, 0) {
				return false
			}
			uid := ms[i].UID
			live[uid] = true
			if o.tag != nil {
				tag[uid] = o.tag
			}
		case OpUpdate:
			if !live[o.uid] || o.tag != nil && holder(o.tag, o.uid) {
				return false
			}
			release(o.uid, o.tag, ms[i].At)
			delete(tag, o.uid)
			if o.tag != nil {
				tag[o.uid] = o.tag
			}
		case OpDelete:
			if live[o.uid] {
				release(o.uid, nil, ms[i].At)
				live[o.uid] = false
			}
		}
	}
	if !stamped {
		return true
	}
	m.tag, m.live = tag, live
	for i, o := range ops {
		if o.op == OpInsertNode {
			m.id[ms[i].UID] = ms[i].Fields["id"].(int64)
			m.order = append(m.order, ms[i].UID)
		}
	}
	for _, r := range released {
		if vk, at := r[0].(string), r[1].(int64); at > m.released[vk] {
			m.released[vk] = at
		}
	}
	return true
}

func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// check compares st's answers for every value with the model's. The
// live store may report a lookup inexact after a rolled-back release,
// which only sends a reader to history sooner, so strict says whether
// exact must equal the model's (a store loaded from history) or only
// never claim more.
func (m *uniqueModel) check(t *testing.T, st *Store, froms []int64, strict bool) {
	t.Helper()
	if vs := st.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("%d invariant violations, first: %s", len(vs), vs[0])
	}
	for _, v := range uniqueValues {
		var want UID
		for uid, tag := range m.tag {
			if m.live[uid] && valueKey(tag) == valueKey(v) {
				want = uid
			}
		}
		if got, ok := st.LookupUnique("Tagged", "tag", v); got != want || ok != (want != 0) {
			t.Fatalf("LookupUnique(%#v) = %d, %v; want %d", v, got, ok, want)
		}
		last, released := m.released[valueKey(v)]
		for _, from := range froms {
			uid, found, exact := st.LookupUniqueSince("Tagged", "tag", v, from)
			wantExact := !released || last <= from
			if uid != want || found != (want != 0) || exact && !wantExact || strict && exact != wantExact {
				t.Fatalf("LookupUniqueSince(%#v, %d) = %d, %v, exact %v; want %d, exact %v",
					v, from, uid, found, exact, want, wantExact)
			}
		}
	}
	for uid, live := range m.live {
		if got, ok := st.LookupUnique(schema.NodeRoot, "id", m.id[uid]); ok != live || live && got != uid {
			t.Fatalf("LookupUnique(id %d) = %d, %v; want uid %d live %v", m.id[uid], got, ok, uid, live)
		}
	}
}

var errRefused = errors.New("refused")

// FuzzUniqueIndex drives random batches of inserts, updates and deletes
// of elements whose unique tag mixes every value kind, against a
// reference keyed by valueKey. Three bytes make an op: its kind, the
// element it targets and the tag it writes. A batch ends at a closing
// op, whose second byte can have the log refuse the batch once its ops
// but the last are applied, so it rolls back; a batch with a duplicate
// tag rolls back at the op that repeats it. After every batch the
// lookups and invariants agree with the reference, and at the end so do
// those of a store loaded from the history the first one writes.
func FuzzUniqueIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 4, 1, 0, 0, 0, 2, 1, 0, 4, 4, 0, 0})
	f.Add([]byte{0, 0, 4, 0, 0, 15, 1, 0, 19, 4, 1, 0, 0, 0, 12, 0, 0, 12, 1, 1, 12, 4, 4, 0})
	f.Add([]byte{0, 0, 20, 0, 0, 9, 2, 0, 0, 3, 1, 0, 0, 0, 20, 4, 1, 0, 3, 0, 0, 0, 0, 21, 4, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		st := taggedStore(t)
		refuse := false
		st.SetMutationHook(func(context.Context, []*Mutation) error {
			if refuse {
				return errRefused
			}
			return nil
		})
		m := &uniqueModel{tag: map[UID]any{}, id: map[UID]int64{}, live: map[UID]bool{}, released: map[string]int64{}}
		froms := []int64{math.MinInt64}
		nextID := int64(0)
		var ops []fuzzOp
		for n := 0; len(in) >= 3 && n < 64; in, n = in[3:], n+1 {
			kind, target, val := in[0]%5, int(in[1]), uniqueValues[int(in[2])%len(uniqueValues)]
			o := fuzzOp{op: OpInsertNode, tag: val}
			if kind >= 1 && kind <= 3 && len(m.order) > 0 {
				o.uid = m.order[target%len(m.order)]
				switch kind {
				case 1:
					o.op = OpUpdate
				case 2:
					o.op, o.tag = OpUpdate, nil
				case 3:
					o.op, o.tag = OpDelete, nil
				}
			}
			if kind < 4 {
				ops = append(ops, o)
				if len(in) >= 6 && n < 63 {
					continue // the batch goes on
				}
			}
			refuse = kind == 4 && target%3 == 0
			ms := make([]*Mutation, len(ops))
			for i, o := range ops {
				ms[i] = &Mutation{Op: o.op, UID: o.uid}
				if o.op == OpInsertNode {
					nextID++
					ms[i].Class, ms[i].Fields = "Tagged", Fields{"id": nextID}
				} else if o.op == OpUpdate {
					ms[i].Fields = Fields{"id": m.id[o.uid]}
				}
				if o.tag != nil {
					ms[i].Fields["tag"] = o.tag
				}
			}
			err := st.Mutate(context.Background(), ms...)
			admissible := m.apply(ops, ms, false)
			switch {
			case err == nil:
				if !admissible || refuse && len(ops) > 0 && !m.noop(ops) {
					t.Fatalf("batch %v committed; the reference refuses it", ops)
				}
				m.apply(ops, ms, true)
			case admissible && !errors.Is(err, errRefused):
				t.Fatalf("batch %v refused (%v); the reference admits it", ops, err)
			}
			froms = append(froms, st.clock.Now()-1)
			m.check(t, st, froms, false)
			ops = ops[:0]
			st.clock.Advance(time.Second)
		}

		var buf bytes.Buffer
		if err := st.WriteHistory(&buf); err != nil {
			t.Fatal(err)
		}
		loaded := NewStore(st.Schema(), temporal.NewManualClock(t0), nil)
		if err := loaded.LoadHistory(&buf); err != nil {
			t.Fatal(err)
		}
		m.check(t, loaded, froms, true)
	})
}

// noop reports whether ops apply nothing: deletes of deleted elements
// only, a batch the hook never sees.
func (m *uniqueModel) noop(ops []fuzzOp) bool {
	for _, o := range ops {
		if o.op != OpDelete || m.live[o.uid] {
			return false
		}
	}
	return true
}
