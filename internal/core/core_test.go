package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/temporal"
)

var t0 = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

func openDemo(t *testing.T, backend string, extra ...Option) (*DB, *netmodel.Demo, *temporal.Clock) {
	t.Helper()
	clock := temporal.NewManualClock(t0)
	db, err := Open(netmodel.MustSchema(), append([]Option{WithBackend(backend), WithClock(clock)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := netmodel.BuildDemo(db.Store(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	return db, d, clock
}

func TestOpenBackends(t *testing.T) {
	for _, b := range []string{BackendGremlin, BackendRelational} {
		db, err := Open(netmodel.MustSchema(), WithBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		if db.Backend() != b {
			t.Errorf("backend = %q", db.Backend())
		}
	}
	if _, err := Open(netmodel.MustSchema(), WithBackend("oracle")); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestQueryEndToEnd(t *testing.T) {
	db, d, _ := openDemo(t, BackendGremlin)
	res, err := db.Query(fmt.Sprintf(
		"Select source(P).name From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=%d)",
		1001))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	_ = d
}

func TestMatchPaths(t *testing.T) {
	db, d, clock := openDemo(t, BackendRelational)
	paths, err := db.MatchPaths("VNF()->[Vertical()]{1,6}->Host()")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("paths = %d, want 3 (two firewall chains, one dns chain)", len(paths))
	}
	// Time-travel form: delete the DNS chain and query the past.
	clock.SetNow(t0.Add(2 * time.Hour))
	if err := db.Delete(d.DNSVNF); err != nil {
		t.Fatal(err)
	}
	now, err := db.MatchPaths("VNF()->[Vertical()]{1,6}->Host()")
	if err != nil {
		t.Fatal(err)
	}
	if len(now) != 2 {
		t.Fatalf("paths after delete = %d, want 2", len(now))
	}
	past, err := db.MatchPathsAt("VNF()->[Vertical()]{1,6}->Host()", t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(past) != 3 {
		t.Fatalf("paths in the past = %d, want 3", len(past))
	}
}

func TestExplain(t *testing.T) {
	db, _, _ := openDemo(t, BackendGremlin)
	out, err := db.Explain("Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"variable P", "Select:", "Host(id=1001)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q in:\n%s", want, out)
		}
	}
}

func TestQueryRoutedAcrossBackends(t *testing.T) {
	dbA, d, _ := openDemo(t, BackendGremlin)
	dbB, _, _ := openDemo(t, BackendRelational)
	res, err := dbA.QueryRouted(fmt.Sprintf(`Retrieve Phys
		From PATHS D1, PATHS Phys
		Where D1 MATCHES VNF(id=%d)->[Vertical()]{1,6}->Host()
		And Phys MATCHES PhysicalLink(){1,4}
		And source(Phys)=target(D1)`, 1011),
		map[string]*DB{"Phys": dbB})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("routed query returned nothing")
	}
	_ = d
}

func TestPathEvolution(t *testing.T) {
	db, d, clock := openDemo(t, BackendGremlin)
	paths, err := db.MatchPaths(fmt.Sprintf("VM(id=%d)->OnServer()->Host()", 1008))
	if err != nil || len(paths) != 1 {
		t.Fatalf("vm3 placement paths = %v, %v", paths, err)
	}
	p := paths[0]

	// Flip vm-3's status Red at 3h, Green at 5h.
	fields := db.Store().Object(d.VM3).Current().Fields
	set := func(at time.Time, status string) {
		clock.SetNow(at)
		next := fields.Clone()
		next["status"] = status
		if err := db.Update(d.VM3, next); err != nil {
			t.Fatal(err)
		}
		fields = next
	}
	set(t0.Add(3*time.Hour), "Red")
	set(t0.Add(5*time.Hour), "Green")

	steps, err := db.PathEvolution(p, "VM(status='Green')->OnServer()->Host()")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) < 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	// Slices before the last element's insertion report Exists=false; once
	// all elements exist, the green periods satisfy and the red one does
	// not. The final (current) slice is green again.
	var satisfied, unsatisfied int
	for _, s := range steps {
		if !s.Exists {
			continue
		}
		if s.Satisfies {
			satisfied++
		} else {
			unsatisfied++
		}
	}
	if satisfied < 2 || unsatisfied < 1 {
		t.Errorf("satisfied=%d unsatisfied=%d steps=%v", satisfied, unsatisfied, steps)
	}
	last := steps[len(steps)-1]
	if !last.Exists || !last.Satisfies || !last.Period.IsCurrent() {
		t.Errorf("final step = %+v, want current green", last)
	}
}

func TestApplySnapshotThroughDB(t *testing.T) {
	db, err := Open(netmodel.MustSchema(), WithClock(temporal.NewManualClock(t0)))
	if err != nil {
		t.Fatal(err)
	}
	snap := &graph.Snapshot{
		Nodes: []graph.NodeSpec{
			{Class: "VMWare", Fields: graph.Fields{"id": 1, "status": "Green"}},
			{Class: "ComputeHost", Fields: graph.Fields{"id": 2}},
		},
		Edges: []graph.EdgeSpec{
			{Class: netmodel.OnServer, SrcID: 1, DstID: 2, Fields: graph.Fields{"id": 3}},
		},
	}
	stats, err := db.ApplySnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesInserted != 2 || stats.EdgesInserted != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	paths, err := db.MatchPaths("VM()->OnServer()->Host()")
	if err != nil || len(paths) != 1 {
		t.Fatalf("paths = %v, %v", paths, err)
	}
}

func TestNamedPathwayViews(t *testing.T) {
	db, d, clock := openDemo(t, BackendGremlin)

	// A view supplies the implicit MATCHES predicate (§3.4).
	if err := db.DefineView("Placements", "VM()->OnServer()->Host()"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`Select source(P).name, target(P).name From Placements P`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("view rows = %d, want 3 placements", len(res.Rows))
	}

	// A view combined with an explicit MATCHES must satisfy both: only the
	// host-1 placements remain.
	res, err = db.Query(fmt.Sprintf(
		`Retrieve P From Placements P Where P MATCHES VM()->OnServer()->Host(id=%d)`, 1001))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("filtered view rows = %d, want 2", len(res.Rows))
	}

	// View constraints carry temporal semantics: restrict the view to
	// green VMs, flip vm-1 red, and the placement drops out of the view.
	if err := db.DefineView("GreenPlacements", "VM(status='Green')->OnServer()->Host()"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	red := db.Store().Object(d.VM1).Current().Fields.Clone()
	red["status"] = "Red"
	if err := db.Update(d.VM1, red); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(`Retrieve P From GreenPlacements P`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("green placements now = %d, want 2", len(res.Rows))
	}

	// Unknown views and reserved names are rejected.
	if _, err := db.Query(`Retrieve P From Ghost P`); err == nil {
		t.Error("unknown view accepted")
	}
	if err := db.DefineView("PATHS", "VM()"); err == nil {
		t.Error("redefining the base view accepted")
	}
	if err := db.DefineView("Bad", "Blob()"); err == nil {
		t.Error("view over unknown class accepted")
	}
}
