package relational

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/rpe"
	"repro/internal/temporal"
)

var t0 = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

func demoBackend(t *testing.T) (*Backend, *netmodel.Demo) {
	t.Helper()
	st := graph.NewStore(netmodel.MustSchema(), temporal.NewManualClock(t0), nil)
	d, err := netmodel.BuildDemo(st, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return New(st), d
}

func checked(t *testing.T, b *Backend, src string) *rpe.Checked {
	t.Helper()
	c, err := rpe.CheckString(src, b.Store().Schema())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustAnchor(t *testing.T, b *Backend, view graph.View, c *rpe.Checked) []graph.UID {
	t.Helper()
	out, err := b.AnchorElements(view, c, c.Atoms()[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustEdges(t *testing.T, b *Backend, view graph.View, node graph.UID, dir plan.Direction, atom *rpe.Atom, c *rpe.Checked) []graph.UID {
	t.Helper()
	out, err := b.IncidentEdges(view, node, dir, atom, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestIncidentEdgesClassPruning(t *testing.T) {
	b, d := demoBackend(t)
	view := graph.CurrentView(b.Store())
	c := checked(t, b, "VM()->OnServer()->Host()")
	var onServerAtom *rpe.Atom
	for _, a := range c.Atoms() {
		if a.Class == "OnServer" {
			onServerAtom = a
		}
	}
	// With the OnServer hint, only the placement edge's table is probed.
	pruned := mustEdges(t, b, view, d.VM1, plan.Forward, onServerAtom, c)
	if len(pruned) != 1 {
		t.Fatalf("pruned probe = %d edges, want 1 (OnServer only)", len(pruned))
	}
	if b.Store().Object(pruned[0]).Class.Name != netmodel.OnServer {
		t.Fatalf("pruned probe returned %s", b.Store().Object(pruned[0]).Class.Name)
	}
	// Without a hint, every table is probed: both incident edges return
	// (OnServer + VirtualLink).
	all := mustEdges(t, b, view, d.VM1, plan.Forward, nil, c)
	if len(all) != 2 {
		t.Fatalf("unhinted probe = %d edges, want 2", len(all))
	}
}

func TestIncidentEdgesAbstractClassHint(t *testing.T) {
	b, d := demoBackend(t)
	view := graph.CurrentView(b.Store())
	// A Vertical hint must probe the whole Vertical subtree's tables:
	// fw-vnf has two ComposedOf out-edges.
	c := checked(t, b, "VNF()->Vertical()->VFC()")
	var vert *rpe.Atom
	for _, a := range c.Atoms() {
		if a.Class == "Vertical" {
			vert = a
		}
	}
	got := mustEdges(t, b, view, d.FirewallVNF, plan.Forward, vert, c)
	if len(got) != 2 {
		t.Fatalf("Vertical subtree probe = %d, want 2", len(got))
	}
}

func TestIndexRefreshIsIncremental(t *testing.T) {
	b, d := demoBackend(t)
	view := graph.CurrentView(b.Store())
	c := checked(t, b, "VM()->OnServer()->Host()")
	// Prime the indexes.
	before := mustEdges(t, b, view, d.Host1, plan.Backward, nil, c)
	// New edges inserted after the first refresh must appear on the next
	// access.
	vm, err := b.Store().InsertNode("VMWare", graph.Fields{"id": int64(5000), "name": "late-vm", "status": "Green"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Store().InsertEdge(netmodel.OnServer, vm, d.Host1, graph.Fields{"id": int64(5001)}); err != nil {
		t.Fatal(err)
	}
	after := mustEdges(t, b, view, d.Host1, plan.Backward, nil, c)
	if len(after) != len(before)+1 {
		t.Fatalf("incremental refresh missed the new edge: %d -> %d", len(before), len(after))
	}
}

func TestHistoryRowsStayIndexed(t *testing.T) {
	b, d := demoBackend(t)
	c := checked(t, b, "VM()->OnServer()->Host()")
	// Prime, then delete a placement edge; the history row must remain
	// reachable for temporal queries while the current view hides it via
	// visibility filtering in the engine.
	cur := graph.CurrentView(b.Store())
	primed := mustEdges(t, b, cur, d.Host1, plan.Backward, nil, c)
	var placement graph.UID
	for _, e := range primed {
		if b.Store().Object(e).Class.Name == netmodel.OnServer {
			placement = e
		}
	}
	b.Store().Clock().Advance(time.Hour)
	if err := b.Store().Delete(placement); err != nil {
		t.Fatal(err)
	}
	again := mustEdges(t, b, graph.CurrentView(b.Store()), d.Host1, plan.Backward, nil, c)
	found := false
	for _, e := range again {
		if e == placement {
			found = true
		}
	}
	if !found {
		t.Fatal("deleted edge dropped from the index; history queries would miss it")
	}
	if graph.CurrentView(b.Store()).Visible(b.Store().Elem(placement)) {
		t.Fatal("deleted edge still visible in the current view")
	}
	if !graph.PointView(b.Store(), t0.Add(time.Minute)).Visible(b.Store().Elem(placement)) {
		t.Fatal("deleted edge invisible in the past")
	}
}

func TestAnchorElementsTableScan(t *testing.T) {
	b, _ := demoBackend(t)
	view := graph.CurrentView(b.Store())
	c := checked(t, b, "Switch()")
	// Switch subtree: two TORs and one spine.
	if got := mustAnchor(t, b, view, c); len(got) != 3 {
		t.Fatalf("Switch subtree scan = %d, want 3", len(got))
	}
	c = checked(t, b, "TORSwitch(name='tor-1')")
	got := mustAnchor(t, b, view, c)
	if len(got) != 2 { // table scan over TORSwitch, predicate applied later
		t.Fatalf("TORSwitch table scan = %d, want 2", len(got))
	}
}
