package graph

import (
	"math"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/temporal"
)

var t0 = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s := schema.New()
	must := func(_ *schema.Class, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.DefineNode("VM", "", schema.Field{Name: "status", Type: schema.TypeString}))
	must(s.DefineNode("Host", ""))
	must(s.DefineNode("VNF", ""))
	must(s.DefineEdge("HostedOn", ""))
	must(s.DefineEdge("ConnectsTo", ""))
	s.AllowEdge("HostedOn", "VM", "Host")
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestStore(t testing.TB) (*Store, *temporal.Clock) {
	t.Helper()
	clock := temporal.NewManualClock(t0)
	return NewStore(testSchema(t), clock, nil), clock
}

func TestInsertAndLookup(t *testing.T) {
	st, _ := newTestStore(t)
	uid, err := st.InsertNode("VM", Fields{"id": 55, "status": "Green"})
	if err != nil {
		t.Fatal(err)
	}
	obj := st.Object(uid)
	if obj == nil || obj.Class.Name != "VM" {
		t.Fatalf("Object(%d) = %v", uid, obj)
	}
	if got := obj.Current().Fields["status"]; got != "Green" {
		t.Errorf("status = %v", got)
	}
	if found, ok := st.LookupUnique(schema.NodeRoot, "id", 55); !ok || found != uid {
		t.Errorf("LookupUnique = %v, %v", found, ok)
	}
	// Numeric representations must collide in the unique index.
	if _, err := st.InsertNode("Host", Fields{"id": float64(55)}); err == nil {
		t.Error("duplicate id across classes accepted")
	}
}

func TestInsertValidates(t *testing.T) {
	st, _ := newTestStore(t)
	if _, err := st.InsertNode("VM", Fields{"status": "Green"}); err == nil {
		t.Error("missing required id accepted")
	}
	if _, err := st.InsertNode("VM", Fields{"id": 1, "bogus": true}); err == nil {
		t.Error("undeclared field accepted")
	}
	if _, err := st.InsertNode("HostedOn", Fields{"id": 1}); err == nil {
		t.Error("edge class accepted as node")
	}
}

func TestEdgeRules(t *testing.T) {
	st, _ := newTestStore(t)
	vm, _ := st.InsertNode("VM", Fields{"id": 1, "status": "Green"})
	host, _ := st.InsertNode("Host", Fields{"id": 2})
	vnf, _ := st.InsertNode("VNF", Fields{"id": 3})

	if _, err := st.InsertEdge("HostedOn", vm, host, Fields{"id": 10}); err != nil {
		t.Errorf("allowed edge rejected: %v", err)
	}
	if _, err := st.InsertEdge("HostedOn", vnf, host, Fields{"id": 11}); err == nil {
		t.Error("schema-forbidden edge accepted (VNF cannot be HostedOn a Host directly)")
	}
	// ConnectsTo has no rules, so it is unconstrained.
	if _, err := st.InsertEdge("ConnectsTo", vnf, host, Fields{"id": 12}); err != nil {
		t.Errorf("unconstrained edge rejected: %v", err)
	}
	if _, err := st.InsertEdge("ConnectsTo", vm, 999, Fields{"id": 13}); err == nil {
		t.Error("edge to unknown node accepted")
	}
}

func TestAdjacency(t *testing.T) {
	st, _ := newTestStore(t)
	vm, _ := st.InsertNode("VM", Fields{"id": 1, "status": "Green"})
	host, _ := st.InsertNode("Host", Fields{"id": 2})
	e, _ := st.InsertEdge("HostedOn", vm, host, Fields{"id": 10})
	if out := st.OutEdges(vm); len(out) != 1 || out[0] != e {
		t.Errorf("OutEdges(vm) = %v", out)
	}
	if in := st.InEdges(host); len(in) != 1 || in[0] != e {
		t.Errorf("InEdges(host) = %v", in)
	}
	eo := st.Object(e)
	if eo.Src != vm || eo.Dst != host {
		t.Errorf("edge endpoints = %d -> %d", eo.Src, eo.Dst)
	}
}

func TestUpdateCreatesHistory(t *testing.T) {
	st, clock := newTestStore(t)
	uid, _ := st.InsertNode("VM", Fields{"id": 1, "status": "Green"})
	clock.Advance(time.Hour)
	if err := st.Update(uid, Fields{"id": 1, "status": "Red"}); err != nil {
		t.Fatal(err)
	}
	obj := st.Object(uid)
	if len(obj.Versions) != 2 {
		t.Fatalf("versions = %d", len(obj.Versions))
	}
	v0, v1 := obj.Versions[0], obj.Versions[1]
	if v0.Period.IsCurrent() || !v1.Period.IsCurrent() {
		t.Error("old version must be closed and new version current")
	}
	if !v0.Period.End.Equal(v1.Period.Start) {
		t.Error("versions must meet with no gap")
	}
	if v0.Fields["status"] != "Green" || v1.Fields["status"] != "Red" {
		t.Error("version fields wrong")
	}
	// The updated id remains claimed by this object.
	if _, err := st.InsertNode("Host", Fields{"id": 1}); err == nil {
		t.Error("id still live after update but re-claimable")
	}
}

func TestDeleteCascades(t *testing.T) {
	st, clock := newTestStore(t)
	vm, _ := st.InsertNode("VM", Fields{"id": 1, "status": "Green"})
	host, _ := st.InsertNode("Host", Fields{"id": 2})
	e, _ := st.InsertEdge("HostedOn", vm, host, Fields{"id": 10})
	clock.Advance(time.Hour)
	if err := st.Delete(host); err != nil {
		t.Fatal(err)
	}
	if st.Object(host).Current() != nil {
		t.Error("deleted node still current")
	}
	if st.Object(e).Current() != nil {
		t.Error("incident edge not cascaded on node delete")
	}
	if st.Object(vm).Current() == nil {
		t.Error("other endpoint must survive")
	}
	// id becomes reusable after delete.
	if _, err := st.InsertNode("Host", Fields{"id": 2}); err != nil {
		t.Errorf("id not released on delete: %v", err)
	}
	// Deleting again is a no-op.
	if err := st.Delete(host); err != nil {
		t.Errorf("double delete: %v", err)
	}
	if err := st.Delete(999); err == nil {
		t.Error("delete of unknown uid accepted")
	}
}

func TestUpdateDeletedRejected(t *testing.T) {
	st, _ := newTestStore(t)
	uid, _ := st.InsertNode("VM", Fields{"id": 1, "status": "Green"})
	if err := st.Delete(uid); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(uid, Fields{"id": 1, "status": "Red"}); err == nil {
		t.Error("update of deleted object accepted")
	}
}

func TestVersionAt(t *testing.T) {
	st, clock := newTestStore(t)
	uid, _ := st.InsertNode("VM", Fields{"id": 1, "status": "Green"})
	clock.Advance(time.Hour) // t0+1h
	_ = st.Update(uid, Fields{"id": 1, "status": "Yellow"})
	clock.Advance(time.Hour) // t0+2h
	_ = st.Update(uid, Fields{"id": 1, "status": "Red"})
	obj := st.Object(uid)

	cases := []struct {
		at   time.Time
		want any
	}{
		{t0.Add(30 * time.Minute), "Green"},
		{t0.Add(90 * time.Minute), "Yellow"},
		{t0.Add(3 * time.Hour), "Red"},
	}
	for _, c := range cases {
		v := obj.VersionAt(c.at)
		if v == nil || v.Fields["status"] != c.want {
			t.Errorf("VersionAt(%v) = %v, want status %v", c.at, v, c.want)
		}
	}
	if v := obj.VersionAt(t0.Add(-time.Hour)); v != nil {
		t.Error("version visible before insert")
	}
}

func TestViewPointAndRange(t *testing.T) {
	st, clock := newTestStore(t)
	uid, _ := st.InsertNode("VM", Fields{"id": 1, "status": "Green"})
	clock.Advance(time.Hour)
	_ = st.Update(uid, Fields{"id": 1, "status": "Red"})
	clock.Advance(time.Hour)
	_ = st.Update(uid, Fields{"id": 1, "status": "Green"})
	obj := st.Object(uid)

	isGreen := func(f Fields) bool { return f["status"] == "Green" }

	// Point view inside the Red period.
	v := PointView(st, t0.Add(90*time.Minute))
	if _, ok := v.Match(obj, isGreen); ok {
		t.Error("green predicate matched during red period")
	}
	if _, ok := v.Match(obj, nil); !ok {
		t.Error("existence match failed during red period")
	}

	// Point view in the first Green period returns the maximal green range.
	v = PointView(st, t0.Add(30*time.Minute))
	set, ok := v.Match(obj, isGreen)
	if !ok {
		t.Fatal("green not matched in green period")
	}
	if len(set) == 0 || !set[0].Start.Equal(t0) || !set[0].End.Equal(t0.Add(time.Hour)) {
		t.Errorf("maximal green range = %v", set)
	}

	// Range view across everything: two green periods, second current.
	v = RangeView(st, t0, t0.Add(10*time.Hour))
	set, ok = v.Match(obj, isGreen)
	if !ok || len(set) != 2 {
		t.Fatalf("range green set = %v, %v", set, ok)
	}
	if !set[1].IsCurrent() {
		t.Error("second green period must be current")
	}

	// Range window that only covers the red period still reports unclipped
	// green? No: green does not overlap the window, so no match.
	v = RangeView(st, t0.Add(61*time.Minute), t0.Add(119*time.Minute))
	if _, ok = v.Match(obj, isGreen); ok {
		t.Error("green matched in a window covering only red")
	}
	// But existence matches, and the reported set is the full lifetime.
	set, ok = v.Match(obj, nil)
	if !ok || len(set) != 1 || !set[0].Start.Equal(t0) {
		t.Errorf("existence set = %v, %v (must be maximal, unclipped)", set, ok)
	}
}

func TestStatsAndCounts(t *testing.T) {
	st, _ := newTestStore(t)
	a, _ := st.InsertNode("VM", Fields{"id": 1, "status": "x"})
	_, _ = st.InsertNode("VM", Fields{"id": 2, "status": "x"})
	_, _ = st.InsertNode("Host", Fields{"id": 3})
	_ = st.Update(a, Fields{"id": 1, "status": "y"})
	_ = st.Delete(a)

	stats := st.Stats()
	if stats.ClassCount["VM"] != 1 || stats.ClassCount["Host"] != 1 {
		t.Errorf("stats = %v", stats.ClassCount)
	}
	live, versions := st.Counts()
	if live != 2 {
		t.Errorf("live = %d", live)
	}
	if versions != 4 { // 3 inserts + 1 update
		t.Errorf("versions = %d", versions)
	}
}

func TestBySubtree(t *testing.T) {
	st, _ := newTestStore(t)
	_, _ = st.InsertNode("VM", Fields{"id": 1, "status": "x"})
	_, _ = st.InsertNode("Host", Fields{"id": 2})
	node := st.Schema().MustClass(schema.NodeRoot)
	if got := st.BySubtree(node); len(got) != 2 {
		t.Errorf("BySubtree(Node) = %v", got)
	}
	vm := st.Schema().MustClass("VM")
	if got := st.BySubtree(vm); len(got) != 1 {
		t.Errorf("BySubtree(VM) = %v", got)
	}
}

func TestApplySnapshotRoundTrip(t *testing.T) {
	st, clock := newTestStore(t)
	snap1 := &Snapshot{
		Nodes: []NodeSpec{
			{Class: "VM", Fields: Fields{"id": 1, "status": "Green"}},
			{Class: "VM", Fields: Fields{"id": 2, "status": "Green"}},
			{Class: "Host", Fields: Fields{"id": 10}},
		},
		Edges: []EdgeSpec{
			{Class: "HostedOn", SrcID: 1, DstID: 10, Fields: Fields{"id": 100}},
			{Class: "HostedOn", SrcID: 2, DstID: 10, Fields: Fields{"id": 101}},
		},
	}
	stats, err := st.ApplySnapshot(snap1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesInserted != 3 || stats.EdgesInserted != 2 {
		t.Fatalf("initial load stats = %+v", stats)
	}

	// Re-applying the identical snapshot must be a no-op.
	clock.Advance(time.Hour)
	stats, err = st.ApplySnapshot(snap1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total() != 0 {
		t.Fatalf("idempotent reapply produced changes: %+v", stats)
	}

	// Second snapshot: VM 2 gone, VM 1 status change, new VM 3 migrated to
	// the host, edge 101 gone, new edge 102.
	clock.Advance(time.Hour)
	snap2 := &Snapshot{
		Nodes: []NodeSpec{
			{Class: "VM", Fields: Fields{"id": 1, "status": "Red"}},
			{Class: "VM", Fields: Fields{"id": 3, "status": "Green"}},
			{Class: "Host", Fields: Fields{"id": 10}},
		},
		Edges: []EdgeSpec{
			{Class: "HostedOn", SrcID: 1, DstID: 10, Fields: Fields{"id": 100}},
			{Class: "HostedOn", SrcID: 3, DstID: 10, Fields: Fields{"id": 102}},
		},
	}
	stats, err = st.ApplySnapshot(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesInserted != 1 || stats.NodesUpdated != 1 || stats.NodesDeleted != 1 {
		t.Errorf("node stats = %+v", stats)
	}
	if stats.EdgesInserted != 1 || stats.EdgesDeleted != 1 {
		t.Errorf("edge stats = %+v", stats)
	}

	// History preserved: at t0, VM 1 was Green.
	uid, _ := st.LookupUnique(schema.NodeRoot, "id", 1)
	v := st.Object(uid).VersionAt(t0)
	if v == nil || v.Fields["status"] != "Green" {
		t.Errorf("history lost: VersionAt(t0) = %v", v)
	}

	// Export equals input (modulo ordering).
	out := st.CurrentSnapshot()
	if len(out.Nodes) != 3 || len(out.Edges) != 2 {
		t.Errorf("CurrentSnapshot = %d nodes, %d edges", len(out.Nodes), len(out.Edges))
	}
}

func TestApplySnapshotEndpointRewire(t *testing.T) {
	st, clock := newTestStore(t)
	base := &Snapshot{
		Nodes: []NodeSpec{
			{Class: "VM", Fields: Fields{"id": 1, "status": "Green"}},
			{Class: "Host", Fields: Fields{"id": 10}},
			{Class: "Host", Fields: Fields{"id": 11}},
		},
		Edges: []EdgeSpec{{Class: "HostedOn", SrcID: 1, DstID: 10, Fields: Fields{"id": 100}}},
	}
	if _, err := st.ApplySnapshot(base); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	// Same edge id, new destination: a VM migration. Must delete + insert.
	base.Edges[0].DstID = 11
	stats, err := st.ApplySnapshot(base)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EdgesDeleted != 1 || stats.EdgesInserted != 1 {
		t.Errorf("rewire stats = %+v", stats)
	}
	host11, _ := st.LookupUnique(schema.NodeRoot, "id", 11)
	live := 0
	for _, e := range st.InEdges(host11) {
		if st.Object(e).Current() != nil {
			live++
		}
	}
	if live != 1 {
		t.Errorf("host 11 live in-edges = %d", live)
	}
}

func TestApplySnapshotErrors(t *testing.T) {
	st, _ := newTestStore(t)
	if _, err := st.ApplySnapshot(&Snapshot{Nodes: []NodeSpec{{Class: "VM", Fields: Fields{"status": "x"}}}}); err == nil {
		t.Error("node without id accepted")
	}
	if _, err := st.ApplySnapshot(&Snapshot{Edges: []EdgeSpec{{Class: "HostedOn", SrcID: 1, DstID: 2, Fields: Fields{"id": 5}}}}); err == nil {
		t.Error("edge with unknown endpoints accepted")
	}
	if _, err := st.ApplySnapshot(&Snapshot{Nodes: []NodeSpec{{Class: "Ghost", Fields: Fields{"id": 1}}}}); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestObjectLifetime(t *testing.T) {
	st, clock := newTestStore(t)
	uid, _ := st.InsertNode("VM", Fields{"id": 1, "status": "a"})
	clock.Advance(time.Hour)
	_ = st.Update(uid, Fields{"id": 1, "status": "b"})
	clock.Advance(time.Hour)
	_ = st.Delete(uid)
	life := st.Object(uid).Lifetime()
	if len(life) != 1 {
		t.Fatalf("lifetime = %v (updates must coalesce)", life)
	}
	if !life[0].Start.Equal(t0) || !life[0].End.Equal(t0.Add(2*time.Hour)) {
		t.Errorf("lifetime = %v", life)
	}
}

// TestValueKey pins every unique-index key string: integer-valued
// numerics of any kind collapse to one "i" key, other floats keep their
// shortest form, and kinds without a fast path print through fmt.
func TestValueKey(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{5, "i5"}, {int64(5), "i5"}, {5.0, "i5"}, {int32(5), "i5"},
		{-12, "i-12"}, {int64(math.MinInt64), "i-9223372036854775808"}, {-0.0, "i0"},
		{2.5, "f2.5"}, {-1e-7, "f-1e-07"}, {1e21, "f1e+21"}, {math.NaN(), "fNaN"}, {math.Inf(1), "f+Inf"},
		{"", "s"}, {"host-1", "shost-1"},
		{true, "btrue"}, {false, "bfalse"},
		{[]any{1, "x"}, "v[1 x]"}, {nil, "v<nil>"}, {float32(1.5), "v1.5"},
	} {
		if got := valueKey(c.v); got != c.want {
			t.Errorf("valueKey(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}
