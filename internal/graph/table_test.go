package graph

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestTablePages(t *testing.T) {
	var tab table[int]
	for _, uid := range []UID{-1, 0, 1, 1 << 62} {
		if v := tab.at(uid); v != 0 {
			t.Fatalf("empty table: at(%d) = %d", uid, v)
		}
	}
	*tab.slot(3*pageSize + 5) = 7
	if tab.at(3*pageSize+5) != 7 || tab.at(3*pageSize+6) != 0 || tab.at(5) != 0 {
		t.Fatal("a written entry reads back wrong, or its neighbours do")
	}
	if len(tab.dir) != 4 || tab.dir[0] != nil || tab.dir[3] == nil || tab.end() != 4*pageSize {
		t.Fatalf("one write into page 3: directory %d long, end %d; want the page alone allocated", len(tab.dir), tab.end())
	}
	page := tab.dir[3]
	*tab.slot(40 * pageSize) = 1
	if tab.dir[3] != page || tab.at(3*pageSize+5) != 7 {
		t.Fatal("directory growth moved an allocated page")
	}
}

// tableSizes is the directory length of each of the store's tables.
func tableSizes(st *Store) [3]int {
	return [3]int{len(st.objects.dir), len(st.out.dir), len(st.in.dir)}
}

// TestReplayUIDFrontier: a replayed insert may name a UID past the
// store's allocation frontier by less than maxUIDGap, and one beyond
// that — 1<<62 — is rejected before any table grows for it, as is an
// edge naming such an endpoint.
func TestReplayUIDFrontier(t *testing.T) {
	st, _ := newTestStore(t)
	vm := mustInsertNode(t, st, "VM", Fields{"id": 1})
	before := tableSizes(st)
	at := st.Clock().Now() + 1
	for _, m := range []*Mutation{
		{Op: OpInsertNode, UID: 1 << 62, Class: "Host", Fields: Fields{"id": 2}, At: at},
		{Op: OpInsertNode, UID: st.nextUID + maxUIDGap, Class: "Host", Fields: Fields{"id": 2}, At: at},
		{Op: OpInsertEdge, UID: st.nextUID, Class: "HostedOn", Src: vm, Dst: 1 << 62, Fields: Fields{"id": 3}, At: at},
	} {
		if _, err := st.ApplyMutation(m); err == nil {
			t.Fatalf("replayed %s of uid %d (dst %d) was applied", m.Op, m.UID, m.Dst)
		}
		if got := tableSizes(st); got != before {
			t.Fatalf("rejected %s of uid %d grew the tables' directories from %v to %v", m.Op, m.UID, before, got)
		}
	}
	near := st.nextUID + maxUIDGap - 1
	if _, err := st.ApplyMutation(&Mutation{Op: OpInsertNode, UID: near, Class: "Host", Fields: Fields{"id": 2}, At: at}); err != nil {
		t.Fatalf("replayed insert of uid %d, inside the frontier's bound: %v", near, err)
	}
	if st.Object(near) == nil || st.nextUID != near+1 {
		t.Fatalf("uid %d not installed, or frontier %d not moved past it", near, st.nextUID)
	}
	if vs := st.CheckInvariants(); len(vs) != 0 {
		t.Fatal(vs)
	}
}

// TestLoadHistoryUIDFrontier: a checkpoint naming a UID far past the
// allocation frontier — as an object, an edge endpoint or the header's
// next_uid — fails to load, allocating next to nothing on the way.
func TestLoadHistoryUIDFrontier(t *testing.T) {
	st, _ := buildHistoryFixture(t)
	var buf bytes.Buffer
	if err := st.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	const far = 1 << 62
	for name, bad := range map[string][]byte{
		"object":   editHistory(t, good, func(h *history) { h.object(t, 7).UID = far }),
		"endpoint": editHistory(t, good, func(h *history) { h.object(t, 7).Dst = far }),
		"next_uid": editHistory(t, good, func(h *history) { h.nextUID = far }),
	} {
		fresh, _ := newTestStore(t)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := fresh.LoadHistory(bytes.NewReader(bad))
		runtime.ReadMemStats(&m1)
		if err == nil || !strings.Contains(err.Error(), "allocation frontier") {
			t.Errorf("%s naming uid 1<<62: err = %v, want an allocation-frontier error", name, err)
		}
		if n := m1.TotalAlloc - m0.TotalAlloc; n > 1<<20 {
			t.Errorf("%s naming uid 1<<62: the failed load allocated %d bytes", name, n)
		}
		if fresh.objectCount() != 0 || tableSizes(fresh) != [3]int{} {
			t.Errorf("%s: the failed load left the store non-empty", name)
		}
	}
}
