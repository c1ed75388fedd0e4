package graph

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

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

func TestLoadHistoryValidation(t *testing.T) {
	st, _ := buildHistoryFixture(t)
	var buf bytes.Buffer
	if err := st.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	// reopen drops the end of the closed version carrying fields. Edge
	// 101's endpoint vm2 was deleted at t0+3h and the cascade closed the
	// edge with it, so reopening the edge makes it outlive its endpoint;
	// reopening vm1's first version leaves an open version before the last.
	reopen := func(fields string) string {
		doc := regexp.MustCompile(`("fields":`+regexp.QuoteMeta(fields)+`,"start":"[^"]*"),"end":"[^"]*"`).
			ReplaceAllString(good, "$1")
		if doc == good {
			t.Fatalf("fixture has no closed version with fields %s", fields)
		}
		return doc
	}

	cases := map[string]string{
		"edge outlives endpoint": reopen(`{"id":101}`),
		"open non-final version": reopen(`{"id":1,"status":"Green"}`),
		"garbage header":         "not json\n",
		"wrong format":           `{"format":"other/9","objects":0,"next_uid":1}` + "\n",
		"truncated":              good[:len(good)/2],
		"unknown class":          strings.Replace(good, `"class":"VM"`, `"class":"Blob"`, 1),
		"ill-typed field":        strings.Replace(good, `"status":"Green"`, `"status":7`, 1),
	}
	for name, doc := range cases {
		st2 := NewStore(testSchema(t), temporal.NewManualClock(t0), nil)
		if err := st2.LoadHistory(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Loading into a non-empty store is refused.
	st3 := NewStore(testSchema(t), temporal.NewManualClock(t0), nil)
	if _, err := st3.InsertNode("Host", Fields{"id": 5}); err != nil {
		t.Fatal(err)
	}
	if err := st3.LoadHistory(strings.NewReader(good)); err == nil {
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
