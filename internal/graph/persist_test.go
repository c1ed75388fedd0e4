package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/temporal"
)

// buildHistoryFixture creates a store with inserts, updates, deletes, and
// a migration so that the history stream carries every structural case.
func buildHistoryFixture(t testing.TB) (*Store, *temporal.Clock) {
	t.Helper()
	st, clock := newTestStore(t)
	vm1, _ := st.InsertNode("VM", Fields{"id": 1, "status": "Green"})
	vm2, _ := st.InsertNode("VM", Fields{"id": 2, "status": "Green"})
	h1, _ := st.InsertNode("Host", Fields{"id": 10})
	h2, _ := st.InsertNode("Host", Fields{"id": 11})
	e1, _ := st.InsertEdge("HostedOn", vm1, h1, Fields{"id": 100})
	_, _ = st.InsertEdge("HostedOn", vm2, h1, Fields{"id": 101})

	clock.Advance(time.Hour)
	_ = st.Update(vm1, Fields{"id": 1, "status": "Red"})
	clock.Advance(time.Hour)
	_ = st.Delete(e1)
	_, _ = st.InsertEdge("HostedOn", vm1, h2, Fields{"id": 102})
	clock.Advance(time.Hour)
	_ = st.Delete(vm2)
	return st, clock
}

func TestHistoryRoundTrip(t *testing.T) {
	st, _ := buildHistoryFixture(t)
	var buf bytes.Buffer
	if err := st.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}

	st2 := NewStore(testSchema(t), temporal.NewManualClock(t0), nil)
	if err := st2.LoadHistory(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Counts match exactly.
	l1, v1 := st.Counts()
	l2, v2 := st2.Counts()
	if l1 != l2 || v1 != v2 {
		t.Fatalf("counts: (%d,%d) vs (%d,%d)", l1, v1, l2, v2)
	}

	// Every object's full version history survives.
	lo, hi := st.UIDRange()
	for uid := lo; uid < hi; uid++ {
		a, b := st.Object(uid), st2.Object(uid)
		if (a == nil) != (b == nil) {
			t.Fatalf("uid %d presence differs", uid)
		}
		if a == nil {
			continue
		}
		if a.Class.Name != b.Class.Name || a.Src != b.Src || a.Dst != b.Dst {
			t.Fatalf("uid %d identity differs", uid)
		}
		if len(a.Versions) != len(b.Versions) {
			t.Fatalf("uid %d versions %d vs %d", uid, len(a.Versions), len(b.Versions))
		}
		for i := range a.Versions {
			if !a.Versions[i].Period.Equal(b.Versions[i].Period) {
				t.Fatalf("uid %d version %d period differs", uid, i)
			}
			if !sameFields(a.Versions[i].Fields, b.Versions[i].Fields) {
				t.Fatalf("uid %d version %d fields differ", uid, i)
			}
		}
	}

	// Temporal queries behave identically: visibility at a mid-history
	// instant matches the original.
	mid := t0.Add(90 * time.Minute)
	for uid := lo; uid < hi; uid++ {
		a, b := st.Object(uid), st2.Object(uid)
		if a == nil {
			continue
		}
		av, bv := a.VersionAt(mid), b.VersionAt(mid)
		if (av == nil) != (bv == nil) {
			t.Fatalf("uid %d visibility at mid differs", uid)
		}
	}

	// Unique indexes rebuilt: live ids stay claimed, dead ids are free.
	if _, err := st2.InsertNode("VM", Fields{"id": 1}); err == nil {
		t.Fatal("live id re-claimable after restore")
	}
	if _, err := st2.InsertNode("VM", Fields{"id": 2}); err != nil {
		t.Fatalf("deleted id not released after restore: %v", err)
	}

	// Adjacency rebuilt; post-restore writes keep monotonic timestamps.
	vm1, _ := st2.LookupUnique("Node", "id", 1)
	if len(st2.OutEdges(vm1)) != 2 {
		t.Fatalf("restored adjacency = %d out edges, want 2", len(st2.OutEdges(vm1)))
	}
	if err := st2.Update(vm1, Fields{"id": 1, "status": "Blue"}); err != nil {
		t.Fatal(err)
	}
	obj := st2.Object(vm1)
	last := obj.Versions[len(obj.Versions)-1]
	prev := obj.Versions[len(obj.Versions)-2]
	if !last.Period.Start.After(prev.Period.Start) {
		t.Fatal("post-restore write broke timestamp monotonicity")
	}
}

// history is a decoded history stream, for tests that edit a valid
// checkpoint into a damaged one: decode it, change it, encode it.
type history struct {
	nextUID uint64
	objs    []objectDoc
}

func decodeHistory(t testing.TB, b []byte) *history {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(b))
	n, next, err := readHistoryHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	h := &history{nextUID: next}
	var buf []byte
	var rd codec.Reader
	for i := uint64(0); i < n; i++ {
		if buf, err = readObject(br, buf); err != nil {
			t.Fatal(err)
		}
		rd.Reset(buf)
		doc := decodeObject(&rd, h.lastUID())
		if err := rd.Err(); err != nil {
			t.Fatal(err)
		}
		h.objs = append(h.objs, doc)
	}
	return h
}

func (h *history) lastUID() UID {
	if len(h.objs) == 0 {
		return 0
	}
	return h.objs[len(h.objs)-1].UID
}

// encode writes the stream back, declaring len(h.objs) objects.
func (h *history) encode(t testing.TB) []byte {
	t.Helper()
	out := codec.AppendString(nil, HistoryFormat)
	out = binary.AppendUvarint(out, uint64(len(h.objs)))
	out = binary.AppendUvarint(out, h.nextUID)
	prev := UID(0)
	for i := range h.objs {
		obj, err := appendObject(nil, &h.objs[i], prev)
		if err != nil {
			t.Fatal(err)
		}
		out = append(binary.AppendUvarint(out, uint64(len(obj))), obj...)
		prev = h.objs[i].UID
	}
	return out
}

// editHistory returns the history stream b changed by fn.
func editHistory(t testing.TB, b []byte, fn func(h *history)) []byte {
	t.Helper()
	h := decodeHistory(t, b)
	fn(h)
	return h.encode(t)
}

// version returns the first version, over all objects, whose field key
// holds want.
func (h *history) version(t testing.TB, key string, want any) *Version {
	t.Helper()
	for i := range h.objs {
		for j := range h.objs[i].Versions {
			if v := &h.objs[i].Versions[j]; valueKey(v.Fields[key]) == valueKey(want) {
				return v
			}
		}
	}
	t.Fatalf("fixture has no version with %s = %v", key, want)
	return nil
}

// object returns the object with the given UID.
func (h *history) object(t testing.TB, uid UID) *objectDoc {
	t.Helper()
	for i := range h.objs {
		if h.objs[i].UID == uid {
			return &h.objs[i]
		}
	}
	t.Fatalf("fixture has no object %d", uid)
	return nil
}

func TestLoadHistoryValidation(t *testing.T) {
	st, _ := buildHistoryFixture(t)
	var buf bytes.Buffer
	if err := st.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if again := decodeHistory(t, good).encode(t); !bytes.Equal(again, good) {
		t.Fatal("decoding and re-encoding the fixture's history changed it")
	}
	edit := func(fn func(h *history)) []byte { return editHistory(t, good, fn) }
	// reopen drops the end of the first version whose field key holds
	// val, which must be closed. Edge 101's endpoint vm2 was deleted at t0+3h and the
	// cascade closed the edge with it, so reopening the edge makes it
	// outlive its endpoint; reopening vm1's first version (the first
	// "Green" one) leaves an open version before the last.
	reopen := func(key string, val any) []byte {
		return edit(func(h *history) {
			v := h.version(t, key, val)
			if v.Period.IsCurrent() {
				t.Fatalf("fixture version %v is already open", v.Fields)
			}
			v.Period = temporal.Current(v.Period.Start)
		})
	}

	cases := map[string][]byte{
		"edge outlives endpoint": reopen("id", 101),
		"open non-final version": reopen("status", "Green"),
		"garbage header":         []byte("not a history\n"),
		"wrong format":           append(codec.AppendString(nil, "other/9"), 0, 1),
		"truncated":              good[:len(good)/2],
		"unknown class":          edit(func(h *history) { h.objs[0].Class = "Blob" }),
		"ill-typed field":        edit(func(h *history) { h.version(t, "status", "Green").Fields["status"] = 7 }),
	}
	for name, doc := range cases {
		st2 := NewStore(testSchema(t), temporal.NewManualClock(t0), nil)
		if err := st2.LoadHistory(bytes.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Loading into a non-empty store is refused.
	st3 := NewStore(testSchema(t), temporal.NewManualClock(t0), nil)
	if _, err := st3.InsertNode("Host", Fields{"id": 5}); err != nil {
		t.Fatal(err)
	}
	if err := st3.LoadHistory(bytes.NewReader(good)); err == nil {
		t.Error("load into non-empty store accepted")
	}
}

// TestLoadHistoryAtomicOnFailure pins the staging contract: a load that
// fails partway (a snapshot download severed mid-stream) must leave the
// store exactly as it was — empty — so a retry with an intact stream
// succeeds instead of tripping ErrStoreNotEmpty on leftover state.
func TestLoadHistoryAtomicOnFailure(t *testing.T) {
	st, _ := buildHistoryFixture(t)
	var buf bytes.Buffer
	if err := st.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	st2 := NewStore(testSchema(t), temporal.NewManualClock(t0), nil)
	if err := st2.LoadHistory(bytes.NewReader(full[:len(full)-20])); err == nil {
		t.Fatal("truncated history load succeeded")
	}
	if live, versions := st2.Counts(); live != 0 || versions != 0 {
		t.Fatalf("failed load left state behind: live=%d versions=%d", live, versions)
	}
	if err := st2.LoadHistory(bytes.NewReader(full)); err != nil {
		t.Fatalf("retry after a failed load: %v", err)
	}
	l1, v1 := st.Counts()
	l2, v2 := st2.Counts()
	if l1 != l2 || v1 != v2 {
		t.Fatalf("counts after retried load: (%d,%d) vs (%d,%d)", l1, v1, l2, v2)
	}
}
