package gremlin

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

func TestLabelMatches(t *testing.T) {
	cases := []struct {
		query, elem string
		want        bool
	}{
		{"Node:Container:VM", "Node:Container:VM:VMWare", true},
		{"Node:Container:VM", "Node:Container:VM", true},
		{"Node:Container", "Node:Container:Docker", true},
		{"Node:Container:VM", "Node:Container:Docker", false},
		// Prefix matching must respect segment boundaries: "VM" is not a
		// prefix-match for "VMWare" as a sibling label.
		{"Node:VM", "Node:VMWare", false},
		{"Node", "Edge:Vertical", false},
	}
	for _, c := range cases {
		if got := LabelMatches(c.query, c.elem); got != c.want {
			t.Errorf("LabelMatches(%q, %q) = %v, want %v", c.query, c.elem, got, c.want)
		}
	}
}

func TestLabelIsInheritancePath(t *testing.T) {
	b, _ := demoBackend(t)
	vmware := b.Store().Schema().MustClass("VMWare")
	if Label(vmware) != "Node:Container:VM:VMWare" {
		t.Errorf("Label = %q", Label(vmware))
	}
}

func TestAnchorElementsUniqueIndex(t *testing.T) {
	b, d := demoBackend(t)
	view := graph.CurrentView(b.Store())
	// Unique-field equality resolves through the id index: one element.
	c := checked(t, b, "Host(id=1001)")
	got := mustAnchor(t, b, view, c)
	if len(got) != 1 || got[0] != d.Host1 {
		t.Fatalf("AnchorElements = %v, want [%d]", got, d.Host1)
	}
	// A unique miss is provably empty.
	c = checked(t, b, "Host(id=424242)")
	if got := mustAnchor(t, b, view, c); len(got) != 0 {
		t.Fatalf("missing id returned %v", got)
	}
	// An id owned by a class outside the atom's subtree must not match.
	c = checked(t, b, "VM(id=1001)") // 1001 is host-1
	if got := mustAnchor(t, b, view, c); len(got) != 0 {
		t.Fatalf("cross-class id matched: %v", got)
	}
}

func TestAnchorElementsLabelScan(t *testing.T) {
	b, _ := demoBackend(t)
	view := graph.CurrentView(b.Store())
	// VM() must cover all VM subclasses (vm-1, vm-2 VMWare; vm-3 KVMGuest)
	// but no Docker containers.
	c := checked(t, b, "VM(status='Green')")
	got := mustAnchor(t, b, view, c)
	if len(got) != 3 {
		t.Fatalf("VM label scan = %d elements, want 3", len(got))
	}
	// Container() covers VMs and Dockers alike.
	c = checked(t, b, "Container()")
	if got := mustAnchor(t, b, view, c); len(got) != 3 {
		t.Fatalf("Container label scan = %d elements", len(got))
	}
	// Edge-class scan.
	c = checked(t, b, "OnServer()")
	if got := mustAnchor(t, b, view, c); len(got) != 3 {
		t.Fatalf("OnServer scan = %d elements", len(got))
	}
}

func TestIncidentEdgesUnpartitioned(t *testing.T) {
	b, d := demoBackend(t)
	view := graph.CurrentView(b.Store())
	// The property-graph adjacency is unpartitioned: the hint is ignored
	// and every incident edge comes back (vm-1: OnServer + VirtualLink).
	out := mustEdges(t, b, view, d.VM1, plan.Forward, nil, nil)
	if len(out) != 2 {
		t.Fatalf("out edges of vm-1 = %d, want 2", len(out))
	}
	in := mustEdges(t, b, view, d.VM1, plan.Backward, nil, nil)
	if len(in) != 2 { // OnVM from fw-vfc-1 + VirtualLink from tenant-net
		t.Fatalf("in edges of vm-1 = %d, want 2", len(in))
	}
}
