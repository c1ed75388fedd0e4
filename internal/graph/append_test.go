package graph

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/temporal"
)

// elemCopy is a deep enough copy of a published header to tell whether
// anything it covers was written since: its length, End, and each row's
// start and record.
type elemCopy struct {
	end    int64
	starts []int64
	recs   []*any
}

func copyElem(e *Elem) elemCopy {
	c := elemCopy{end: e.End}
	for _, r := range e.Versions {
		c.starts = append(c.starts, r.Start)
		c.recs = append(c.recs, &r.Rec[0])
	}
	return c
}

// same reports what in e differs from the copy, or "".
func (c elemCopy) same(e *Elem) string {
	switch {
	case len(e.Versions) != len(c.starts):
		return "its length changed"
	case e.End != c.end:
		return "its End changed"
	}
	for i, r := range e.Versions {
		if r.Start != c.starts[i] || &r.Rec[0] != c.recs[i] {
			return "a row it covers was written"
		}
	}
	return ""
}

// TestRetainedElemsAcrossAppends pins the append-only rule (run it under
// -race, as make test-race does ten times). Readers that hold headers
// published earlier keep reading them while a writer appends versions
// into the same arrays and closes the element: every header still reads
// exactly what it read when it was taken. Then a batch whose hook fails
// after an update appended a row rolls back; the element's earlier
// header is back, the next update appends into the slot the rolled-back
// row took, and no header published before changes.
func TestRetainedElemsAcrossAppends(t *testing.T) {
	st, clock := newTestStore(t)
	vm := mustInsertNode(t, st, "VM", Fields{"id": 1, "status": "v0"})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var once sync.Once
	halt := func() { // stops the readers and waits for their checks
		once.Do(func() { close(stop) })
		wg.Wait()
	}
	defer halt()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []*Elem
			var copies []elemCopy
			for {
				select {
				case <-stop:
					for i, e := range held {
						if diff := copies[i].same(e); diff != "" {
							t.Errorf("a header taken at %d versions: %s", len(copies[i].starts), diff)
						}
					}
					return
				default:
				}
				e := st.Elem(vm)
				if len(held) == 0 || held[len(held)-1] != e {
					held, copies = append(held, e), append(copies, copyElem(e))
				}
				for i := range e.Versions { // read every row the header covers
					_ = e.VersionAt(e.Versions[i].Start)
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		clock.Advance(time.Second)
		if err := st.Update(vm, Fields{"id": 1, "status": "v"}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Second)
	if err := st.Delete(vm); err != nil {
		t.Fatal(err)
	}
	halt()

	// Rollback: host has spare capacity past its published length, so
	// the failed batch's update appends in place.
	host := mustInsertNode(t, st, "Host", Fields{"id": 2})
	var headers []*Elem
	var copies []elemCopy
	publish := func() *Elem {
		e := st.Elem(host)
		headers, copies = append(headers, e), append(copies, copyElem(e))
		return e
	}
	publish()
	for len(st.Elem(host).Versions) == cap(st.Elem(host).Versions) {
		clock.Advance(time.Second)
		if err := st.Update(host, Fields{"id": 2}); err != nil {
			t.Fatal(err)
		}
		publish()
	}
	before := publish()
	n := len(before.Versions)

	st.SetMutationHook(func(context.Context, []*Mutation) error { return errors.New("disk full") })
	clock.Advance(time.Second)
	err := st.Mutate(context.Background(),
		&Mutation{Op: OpUpdate, UID: host, Fields: Fields{"id": 2}},
		&Mutation{Op: OpInsertNode, Class: "Host", Fields: Fields{"id": 3}})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("batch under a failing hook: %v", err)
	}
	if st.Elem(host) != before {
		t.Fatal("the rollback did not restore the element's header")
	}
	rolledBack := before.Versions[:n+1][n]
	if rolledBack.Start == 0 {
		t.Fatal("the failed update did not append in place: the test exercises nothing")
	}

	st.SetMutationHook(nil)
	clock.Advance(time.Second)
	if err := st.Update(host, Fields{"id": 2}); err != nil {
		t.Fatal(err)
	}
	after := st.Elem(host)
	if len(after.Versions) != n+1 || &after.Versions[0] != &before.Versions[0] {
		t.Fatalf("the next update did not append into the rolled-back slot: %d versions, shared array %v",
			len(after.Versions), &after.Versions[0] == &before.Versions[0])
	}
	if after.Versions[n].Start == rolledBack.Start {
		t.Fatal("the slot still holds the rolled-back row")
	}
	for i, e := range headers {
		if diff := copies[i].same(e); diff != "" {
			t.Errorf("header %d, published before the rollback: %s", i, diff)
		}
	}
	if vs := st.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("invariants: %v", vs)
	}
}

// TestUpdateBytesFlatInHistory: averaged over 64 updates, what one
// Update allocates does not grow with the element's history. An
// element with 200 versions costs at most 10% more per update than one
// with 2. (It may cost less: the 2-version element's 64 updates pay its
// array's amortized growth from two rows, which the deeper array's
// spare capacity can absorb.) Copying the history on every update, as
// publishing a whole fresh version list would, costs the deep element
// thousands of bytes per update.
func TestUpdateBytesFlatInHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes what a write allocates")
	}
	st, clock := newTestStore(t)
	shallow := mustInsertNode(t, st, "VM", Fields{"id": 1, "status": "v"})
	deep := mustInsertNode(t, st, "VM", Fields{"id": 2, "status": "v"})
	for uid, versions := range map[UID]int{shallow: 2, deep: 200} {
		for len(st.Elem(uid).Versions) < versions {
			clock.Advance(time.Second)
			if err := st.Update(uid, Fields{"id": int(uid), "status": "v"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	perUpdate := func(uid UID) float64 {
		fields := make([]Fields, 64)
		for i := range fields {
			fields[i] = Fields{"id": int(uid), "status": "w"}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, f := range fields {
			clock.Advance(time.Second)
			if err := st.Update(uid, f); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(fields))
	}
	s, d := perUpdate(shallow), perUpdate(deep)
	t.Logf("an update allocates %.0f B at 2 versions, %.0f B at 200", s, d)
	if d > 1.1*s {
		t.Errorf("an update of a 200-version element allocates %.0f B, more than 110%% of the %.0f B at 2 versions", d, s)
	}
}

// TestElemHeaderSize: every update and delete publishes a fresh Elem
// header, which must stay within the 64-byte size class.
func TestElemHeaderSize(t *testing.T) {
	if n := unsafe.Sizeof(Elem{}); n > 64 {
		t.Errorf("an Elem header takes %d bytes, past the 64-byte size class", n)
	}
}

// TestCheckVersionsNamesEachBreach hand-breaks an element once per rule
// of the version representation and wants the checker to name that
// rule: starts ascend, only the last version is open, and the header's
// End is not before the last start.
func TestCheckVersionsNamesEachBreach(t *testing.T) {
	row := func(start int64) Row { return Row{Start: start} }
	cases := []struct {
		name, kind, msg string
		e               *Elem
	}{
		{"starts descend", "version-order", "version 2 starts before version 1",
			&Elem{Versions: []Row{row(10), row(30), row(20)}, End: temporal.Forever}},
		{"non-final open", "open-version", "non-final version 1 is open",
			&Elem{Versions: []Row{row(10), row(20), row(temporal.Forever)}, End: temporal.Forever}},
		{"end before last start", "version-order", "end 25 precedes the last version's start 30",
			&Elem{Versions: []Row{row(10), row(30)}, End: 25}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := checkVersions(tc.e)
			for _, v := range vs {
				if v.Kind == tc.kind && strings.Contains(v.Msg, tc.msg) {
					return
				}
			}
			t.Errorf("no [%s] %q among %v", tc.kind, tc.msg, vs)
		})
	}
	healthy := &Elem{Versions: []Row{row(10), row(20), row(30)}, End: 40}
	if vs := checkVersions(healthy); len(vs) != 0 {
		t.Errorf("healthy element: %v", vs)
	}
}
