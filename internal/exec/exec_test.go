package exec

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/temporal"
)

var t0 = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

type fixture struct {
	st    *graph.Store
	d     *netmodel.Demo
	clock *temporal.Clock
	x     *Executor
}

func newFixture(t testing.TB, backend string) *fixture {
	t.Helper()
	clock := temporal.NewManualClock(t0)
	st := graph.NewStore(netmodel.MustSchema(), clock, nil)
	d, err := netmodel.BuildDemo(st, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var eng *plan.Engine
	if backend == "relational" {
		eng = plan.NewEngine(relational.New(st))
	} else {
		eng = plan.NewEngine(gremlin.New(st))
	}
	return &fixture{st: st, d: d, clock: clock, x: New(eng)}
}

func (f *fixture) run(t *testing.T, src string) *Result {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	a, err := query.Analyze(q, f.st.Schema())
	if err != nil {
		t.Fatalf("analyze %q: %v", src, err)
	}
	res, err := f.x.Run(context.Background(), a, RunOptions{})
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return res
}

func (f *fixture) idOf(uid graph.UID) int64 {
	v := f.st.Object(uid).Versions[0].Fields["id"]
	switch n := v.(type) {
	case int64:
		return n
	case int:
		return int64(n)
	}
	return 0
}

func backends(t *testing.T, fn func(t *testing.T, f *fixture)) {
	for _, b := range []string{"gremlin", "relational"} {
		t.Run(b, func(t *testing.T) { fn(t, newFixture(t, b)) })
	}
}

func TestRetrieveTopDown(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		src := fmt.Sprintf(
			"Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=%d)",
			f.idOf(f.d.Host1))
		res := f.run(t, src)
		if len(res.Rows) != 2 {
			t.Fatalf("rows = %d, want 2", len(res.Rows))
		}
		for _, row := range res.Rows {
			p, ok := row.Values()[0].(*plan.Pathway)
			if !ok {
				t.Fatalf("Retrieve value is %T, want *plan.Pathway", row.Values()[0])
			}
			if p.Source() != f.d.FirewallVNF {
				t.Errorf("source = %d, want firewall VNF", p.Source())
			}
		}
	})
}

func TestSelectProjections(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		src := fmt.Sprintf(
			"Select source(P).name, source(P).id, len(P) From PATHS P "+
				"Where P MATCHES VNF()->VFC()->VM()->Host(id=%d)", f.idOf(f.d.Host2))
		res := f.run(t, src)
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %d, want 1", len(res.Rows))
		}
		row := res.Rows[0]
		if row.Values()[0] != "dns-vnf" {
			t.Errorf("name = %v", row.Values()[0])
		}
		if row.Values()[2] != int64(3) {
			t.Errorf("len = %v, want 3", row.Values()[2])
		}
		if res.Columns[0] != "source(P).name" {
			t.Errorf("column = %q", res.Columns[0])
		}
	})
}

func TestJoinPhysicalPathBetweenVNFs(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		// The paper's §3.4 join: the physical path between the hosts of two
		// VNFs. Phys has only a costly anchor; the joins seed it.
		src := fmt.Sprintf(`Retrieve Phys
			From PATHS D1, PATHS D2, PATHS Phys
			Where D1 MATCHES VNF(id=%d)->[Vertical()]{1,6}->Host()
			And D2 MATCHES VNF(id=%d)->[Vertical()]{1,6}->Host()
			And Phys MATCHES PhysicalLink(){1,4}
			And source(Phys)=target(D1)
			And target(Phys)=target(D2)`,
			f.idOf(f.d.FirewallVNF), f.idOf(f.d.DNSVNF))
		res := f.run(t, src)
		if len(res.Rows) == 0 {
			t.Fatal("no physical paths found between the VNF hosts")
		}
		for _, row := range res.Rows {
			p := row.Values()[0].(*plan.Pathway)
			if p.Source() != f.d.Host1 || p.Target() != f.d.Host2 {
				t.Errorf("physical path endpoints = %d -> %d", p.Source(), p.Target())
			}
		}
	})
}

func TestNotExistsIdleVMs(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		// Add a VM hosting no VFC.
		idle, err := f.st.InsertNode("VMWare", graph.Fields{"id": int64(7777), "name": "idle-vm", "status": "Green"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.st.InsertEdge(netmodel.OnServer, idle, f.d.Host1, graph.Fields{"id": int64(7778)}); err != nil {
			t.Fatal(err)
		}
		// The paper's §3.4 subquery: VMs that do not host a VFC or VNF.
		src := `Retrieve V From PATHS V
			Where V MATCHES VM()
			And NOT EXISTS(
				Retrieve P from PATHS P
				Where P MATCHES (VNF()|VFC())->[Vertical()]{1,5}->VM()
				And target(V) = target(P)
			)`
		res := f.run(t, src)
		if len(res.Rows) != 1 {
			t.Fatalf("idle VMs = %d, want 1", len(res.Rows))
		}
		p := res.Rows[0].Values()[0].(*plan.Pathway)
		if p.Source() != idle {
			t.Errorf("idle VM = %d, want %d", p.Source(), idle)
		}
	})
}

func migrateVM3(t *testing.T, f *fixture, at time.Time) {
	t.Helper()
	f.clock.SetNow(at)
	for _, e := range f.st.OutEdges(f.d.VM3) {
		if f.st.Object(e).Class.Name == netmodel.OnServer {
			if err := f.st.Delete(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := f.st.InsertEdge(netmodel.OnServer, f.d.VM3, f.d.Host1, graph.Fields{"id": int64(9001)}); err != nil {
		t.Fatal(err)
	}
}

func TestTimesliceQuery(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		migrateVM3(t, f, t0.Add(10*time.Hour))
		// Which VNFs had components on host-2 at 05:00? The DNS VNF did
		// (vm-3 migrated away only at 10:00).
		src := fmt.Sprintf(`AT '2017-02-15 05:00:00'
			Select source(P).name From PATHS P
			Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=%d)`, f.idOf(f.d.Host2))
		res := f.run(t, src)
		if len(res.Rows) != 1 || res.Rows[0].Values()[0] != "dns-vnf" {
			t.Fatalf("rows = %+v", res.Rows)
		}
		// At 12:00 nothing runs on host-2.
		src = fmt.Sprintf(`AT '2017-02-15 12:00:00'
			Select source(P).name From PATHS P
			Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=%d)`, f.idOf(f.d.Host2))
		if res := f.run(t, src); len(res.Rows) != 0 {
			t.Fatalf("post-migration rows = %+v", res.Rows)
		}
	})
}

func TestPerVariableTimes(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		migrateVM3(t, f, t0.Add(10*time.Hour))
		// The paper's two-snapshot join: VNFs with components on host-2 at
		// 05:00 AND on host-1 at 12:00 — the DNS VNF, thanks to vm-3's
		// migration.
		src := fmt.Sprintf(`Select source(P).name
			From PATHS P(@'2017-02-15 05:00'), Q(@'2017-02-15 12:00')
			Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=%d)
			And Q MATCHES VNF()->[Vertical()]{1,6}->Host(id=%d)
			And source(P) = source(Q)`,
			f.idOf(f.d.Host2), f.idOf(f.d.Host1))
		res := f.run(t, src)
		if len(res.Rows) != 1 || res.Rows[0].Values()[0] != "dns-vnf" {
			t.Fatalf("rows = %+v", res.Rows)
		}
		// Per-variable ranges appear separately; no coexistence is implied
		// (the two placements never overlapped in time).
		row := res.Rows[0]
		if row.Coexist() != nil {
			t.Error("per-variable query must not compute coexistence")
		}
		if len(row.VarTime("P")) == 0 || len(row.VarTime("Q")) == 0 {
			t.Error("per-variable times missing")
		}
	})
}

func TestRangeQueryCoexistence(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		migrateVM3(t, f, t0.Add(10*time.Hour))
		// Range query across the migration: both placements qualify, each
		// with maximal ranges.
		src := fmt.Sprintf(`AT '2017-02-15 09:00' : '2017-02-15 11:00'
			Select target(P).name From PATHS P
			Where P MATCHES VM(id=%d)->OnServer()->Host()`, f.idOf(f.d.VM3))
		res := f.run(t, src)
		if len(res.Rows) != 2 {
			t.Fatalf("rows = %d, want 2", len(res.Rows))
		}
		names := map[any]temporal.Set{}
		for _, row := range res.Rows {
			names[row.Values()[0]] = row.Coexist()
			// The mirror of the per-variable case above: query-level time
			// reports coexistence, and no per-variable ranges are built.
			if vt := row.VarTime("P"); vt != nil {
				t.Errorf("query-level time must not populate VarTime: %v", vt)
			}
		}
		h2, ok2 := names["host-2"]
		h1, ok1 := names["host-1"]
		if !ok1 || !ok2 {
			t.Fatalf("targets = %v", names)
		}
		// host-2 placement: from load to 10:00 (maximal, unclipped).
		if first, _ := h2.First(); first >= temporal.Nanos(t0.Add(time.Hour)) {
			t.Errorf("host-2 range = %v, must start at load time", h2)
		}
		if last, _ := h2.Last(); last != temporal.Nanos(t0.Add(10*time.Hour)) {
			t.Errorf("host-2 range = %v, must end at migration", h2)
		}
		// host-1 placement is still open.
		if last, _ := h1.Last(); last != temporal.Forever {
			t.Errorf("host-1 range = %v, must be current", h1)
		}
	})
}

func TestTemporalAggregates(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		// vm-1 goes Red between 4h and 6h, and again from 20h (still red).
		fields := f.st.Object(f.d.VM1).Current().Fields
		setStatus := func(at time.Time, status string) {
			f.clock.SetNow(at)
			next := fields.Clone()
			next["status"] = status
			if err := f.st.Update(f.d.VM1, next); err != nil {
				t.Fatal(err)
			}
			fields = next
		}
		setStatus(t0.Add(4*time.Hour), "Red")
		setStatus(t0.Add(6*time.Hour), "Green")
		setStatus(t0.Add(20*time.Hour), "Red")

		base := fmt.Sprintf("Retrieve P From PATHS P Where P MATCHES VM(id=%d, status='Red')", f.idOf(f.d.VM1))

		res := f.run(t, "First Time When Exists "+base)
		if res.Agg == nil || !res.Agg.Exists || !res.Agg.Time.Equal(t0.Add(4*time.Hour)) {
			t.Fatalf("first time = %+v", res.Agg)
		}
		res = f.run(t, "Last Time When Exists "+base)
		if res.Agg == nil || !res.Agg.Current {
			t.Fatalf("last time = %+v (red is still current)", res.Agg)
		}
		res = f.run(t, "When Exists "+base)
		if res.Agg == nil || len(res.Agg.Set) != 2 {
			t.Fatalf("when exists = %+v, want two red periods", res.Agg)
		}
		// Never-satisfied query.
		res = f.run(t, "When Exists Retrieve P From PATHS P Where P MATCHES VM(status='Purple')")
		if res.Agg == nil || res.Agg.Exists {
			t.Fatalf("when exists on impossible predicate = %+v", res.Agg)
		}
	})
}

func TestCoexistenceJoinRejectsDisjointTimes(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		migrateVM3(t, f, t0.Add(10*time.Hour))
		// Query-level AT range: P (vm-3 on host-2) and Q (vm-3 on host-1)
		// never coexisted, so the join over both yields nothing.
		src := fmt.Sprintf(`AT '2017-02-15 00:30' : '2017-02-16 00:00'
			Select source(P).name From PATHS P, PATHS Q
			Where P MATCHES VM(id=%[1]d)->OnServer()->Host(id=%[2]d)
			And Q MATCHES VM(id=%[1]d)->OnServer()->Host(id=%[3]d)
			And source(P) = source(Q)`,
			f.idOf(f.d.VM3), f.idOf(f.d.Host2), f.idOf(f.d.Host1))
		res := f.run(t, src)
		if len(res.Rows) != 0 {
			t.Fatalf("disjoint placements coexisted: %+v", res.Rows)
		}
	})
}

func TestMultiStoreIntegration(t *testing.T) {
	// Two stores: the service graph in one, a second copy of the physical
	// fabric in another (as a legacy inventory would hold it). Join paths
	// across them through the executor; identity crosses on node ids.
	f := newFixture(t, "gremlin")
	clock2 := temporal.NewManualClock(t0)
	st2 := graph.NewStore(netmodel.MustSchema(), clock2, nil)
	if _, err := netmodel.BuildDemo(st2, 1000); err != nil {
		t.Fatal(err)
	}
	routes := map[string]*plan.Engine{"Phys": plan.NewEngine(relational.New(st2))}

	src := fmt.Sprintf(`Retrieve Phys
		From PATHS D1, PATHS Phys
		Where D1 MATCHES VNF(id=%d)->[Vertical()]{1,6}->Host()
		And Phys MATCHES PhysicalLink(){1,4}
		And source(Phys)=target(D1)`, f.idOf(f.d.FirewallVNF))
	q := query.MustParse(src)
	a, err := query.Analyze(q, f.st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.x.Run(context.Background(), a, RunOptions{Routes: routes})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("cross-store join returned nothing")
	}
	// Every Phys pathway must live in store 2 and start at the host-1
	// counterpart there.
	for _, row := range res.Rows {
		p, _ := row.Binding("Phys")
		src := st2.Object(p.Source())
		if src == nil {
			t.Fatal("Phys pathway source not in the routed store")
		}
		if src.Current().Fields["name"] != "host-1" {
			t.Errorf("Phys source = %v, want host-1", src.Current().Fields["name"])
		}
	}
}

func TestFormatResult(t *testing.T) {
	f := newFixture(t, "gremlin")
	res := f.run(t, "Select source(P).name From PATHS P Where P MATCHES VNF()")
	out := res.Format(func(p plan.Pathway) string { return p.Render(f.st) })
	if len(out) == 0 || out[:len("source(P).name")] != "source(P).name" {
		t.Errorf("format output = %q", out)
	}
}

func TestStructuredDataQueryEndToEnd(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		// Give the demo virtual router a routing table, then query into it
		// with a dotted structured-data predicate — the §3.2.1 extension.
		cur := f.st.Object(f.d.VRouter).Current().Fields.Clone()
		cur["routingTable"] = []any{
			map[string]any{"address": "10.0.0.0", "mask": int64(24), "interface": "irb.10"},
			map[string]any{"address": "0.0.0.0", "mask": int64(0), "interface": "irb.99"},
		}
		if err := f.st.Update(f.d.VRouter, cur); err != nil {
			t.Fatal(err)
		}
		res := f.run(t, `Select source(P).name From PATHS P
			Where P MATCHES VirtualRouter(routingTable.address='10.0.0.0')`)
		if len(res.Rows) != 1 || res.Rows[0].Values()[0] != "vrouter-1" {
			t.Fatalf("rows = %+v", res.Rows)
		}
		// Route context inside a pathway (the paper's future-work item
		// "context-dependent RPE evaluation (e.g. routing tables)"):
		// networks reachable from a VM through a router holding a default
		// route.
		res = f.run(t, `Select target(P).name From PATHS P
			Where P MATCHES VM(name='vm-1')->VirtualLink(){1,2}->VirtualRouter(routingTable.mask=0)`)
		if len(res.Rows) != 1 || res.Rows[0].Values()[0] != "vrouter-1" {
			t.Fatalf("routed rows = %+v", res.Rows)
		}
		// No match on an absent prefix.
		res = f.run(t, `Retrieve P From PATHS P
			Where P MATCHES VirtualRouter(routingTable.address='192.168.0.0')`)
		if len(res.Rows) != 0 {
			t.Fatalf("phantom route matched: %+v", res.Rows)
		}
	})
}

func TestLenJoinPredicate(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		// Equal-length placements: every pair of VM placements has one hop,
		// so the len() join keeps all cross pairs with distinct sources.
		src := `Select source(P).name, source(Q).name From PATHS P, PATHS Q
			Where P MATCHES VM()->OnServer()->Host()
			And Q MATCHES VM()->OnServer()->Host()
			And len(P) = len(Q)
			And source(P) != source(Q)`
		res := f.run(t, src)
		if len(res.Rows) != 6 { // 3 placements x 2 others
			t.Fatalf("rows = %d, want 6", len(res.Rows))
		}
	})
}

func TestFieldJoinPredicate(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		// Join on a field value: VMs placed in the same rack as vm-1's host.
		src := fmt.Sprintf(`Select source(Q).name From PATHS P, PATHS Q
			Where P MATCHES VM(id=%d)->OnServer()->Host()
			And Q MATCHES VM()->OnServer()->Host()
			And target(P).rack = target(Q).rack`, f.idOf(f.d.VM1))
		res := f.run(t, src)
		// host-1 is in rack r1 and hosts vm-1 and vm-2.
		if len(res.Rows) != 2 {
			t.Fatalf("rows = %d, want 2", len(res.Rows))
		}
	})
}

func TestAggregateClippedToRange(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		// vm-1 red from 4h, green again at 6h.
		fields := f.st.Object(f.d.VM1).Current().Fields
		set := func(at time.Time, status string) {
			f.clock.SetNow(at)
			next := fields.Clone()
			next["status"] = status
			if err := f.st.Update(f.d.VM1, next); err != nil {
				t.Fatal(err)
			}
			fields = next
		}
		set(t0.Add(4*time.Hour), "Red")
		set(t0.Add(6*time.Hour), "Green")

		// A range-scoped First Time clips to the window: within 05:00-07:00
		// the first red instant is the window start, not 04:00. The
		// aggregate prefix precedes the AT clause in the grammar.
		src := fmt.Sprintf(`First Time When Exists AT '2017-02-15 05:00' : '2017-02-15 07:00'
			Retrieve P From PATHS P Where P MATCHES VM(id=%d, status='Red')`, f.idOf(f.d.VM1))
		res := f.run(t, src)
		if res.Agg == nil || !res.Agg.Exists {
			t.Fatalf("agg = %+v", res.Agg)
		}
		if !res.Agg.Time.Equal(t0.Add(5 * time.Hour)) {
			t.Fatalf("clipped first time = %v, want 05:00", res.Agg.Time)
		}
	})
}

// TestLiteralsOutsideNanosecondRange: AT literals past the int64
// nanosecond range (1678–2262) saturate and keep their answers — a time
// before it sees nothing, one after it sees the current state, the
// Forever sentinel itself sees nothing, and a range reaching past 2262
// reports what an in-range range to the same state does.
func TestLiteralsOutsideNanosecondRange(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		fields := f.st.Object(f.d.VM1).Current().Fields.Clone()
		fields["status"] = "Red"
		f.clock.SetNow(t0.Add(time.Hour))
		if err := f.st.Update(f.d.VM1, fields); err != nil {
			t.Fatal(err)
		}
		f.clock.SetNow(t0.Add(2 * time.Hour))
		body := "Retrieve P From PATHS P Where P MATCHES VM()->OnServer()->Host()"
		text := func(src string) string {
			return f.run(t, src).Format(func(p plan.Pathway) string { return fmt.Sprint(p.Elems) })
		}
		now, empty := text(body), text("AT '2017-02-15 00:30' Retrieve P From PATHS P Where P MATCHES VM(status='Purple')")
		for _, c := range []struct{ at, want string }{
			{"AT '1500-01-01'", empty},
			{"AT '3000-01-01'", now},
			{"AT '9999-12-31 23:59:59'", empty},
			{"AT '2017-02-15' : '3000-01-01'", text("AT '2017-02-15' : '2200-01-01' " + body)},
			{"AT '2500-01-01' : '3000-01-01'", now},
		} {
			if got := text(c.at + " " + body); got != c.want {
				t.Errorf("%s answers\n%s\nwant\n%s", c.at, got, c.want)
			}
		}
		if now == empty {
			t.Fatal("the current state has no placements")
		}
		// An aggregate clipped to the range reports the literals as
		// written, not their saturated nanoseconds.
		for _, c := range []struct{ q, want string }{
			{"Last Time When Exists AT '2017-02-15' : '3000-01-01'", "3000-01-01 00:00:00\n"},
			{"When Exists AT '2017-02-15' : '3000-01-01'", "when exists: {[2017-02-15 00:00:00, 3000-01-01 00:00:00]}\n"},
			{"First Time When Exists AT '2500-01-01' : '3000-01-01'", "2500-01-01 00:00:00\n"},
			{"Last Time When Exists AT '2500-01-01' : '3000-01-01'", "3000-01-01 00:00:00\n"},
			{"When Exists AT '2500-01-01' : '3000-01-01'", "when exists: {[2500-01-01 00:00:00, 3000-01-01 00:00:00]}\n"},
			{"Last Time When Exists AT '2017-02-15' : '9999-12-31 23:59:59'", "still exists (no last time)\n"},
			{"First Time When Exists AT '1500-01-01' : '3000-01-01'", "2017-02-15 00:00:00\n"},
		} {
			if got := text(c.q + " " + body); got != c.want {
				t.Errorf("%s answers %q, want %q", c.q, got, c.want)
			}
		}
	})
}

// TestAggregatesSeePre1970History: an aggregate's default window is all
// of history, so versions stamped before the Unix epoch count.
func TestAggregatesSeePre1970History(t *testing.T) {
	for _, backend := range []string{"gremlin", "relational"} {
		t.Run(backend, func(t *testing.T) {
			clock := temporal.NewManualClock(time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC))
			st := graph.NewStore(netmodel.MustSchema(), clock, nil)
			d, err := netmodel.BuildDemo(st, 1000)
			if err != nil {
				t.Fatal(err)
			}
			eng := plan.NewEngine(gremlin.New(st))
			if backend == "relational" {
				eng = plan.NewEngine(relational.New(st))
			}
			f := &fixture{st: st, d: d, clock: clock, x: New(eng)}
			// vm-1 is the only VM ever Red: from 1962 until its delete in 1965.
			t1962, t1965 := time.Date(1962, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(1965, 1, 1, 0, 0, 0, 0, time.UTC)
			clock.SetNow(t1962)
			red := st.Object(d.VM1).Current().Fields.Clone()
			red["status"] = "Red"
			if err := st.Update(d.VM1, red); err != nil {
				t.Fatal(err)
			}
			clock.SetNow(t1965)
			if err := st.Delete(d.VM1); err != nil {
				t.Fatal(err)
			}
			clock.SetNow(t0)
			base := "Retrieve P From PATHS P Where P MATCHES VM(status='Red')"
			if res := f.run(t, "First Time When Exists "+base); res.Agg == nil || !res.Agg.Exists || !res.Agg.Time.Equal(t1962) {
				t.Errorf("first time = %+v, want 1962", res.Agg)
			}
			if res := f.run(t, "Last Time When Exists "+base); res.Agg == nil || res.Agg.Current || !res.Agg.Time.Equal(t1965) {
				t.Errorf("last time = %+v, want 1965", res.Agg)
			}
			want := temporal.Set{temporal.Between(temporal.Nanos(t1962), temporal.Nanos(t1965))}
			if res := f.run(t, "When Exists "+base); res.Agg == nil || !slices.Equal(res.Agg.Set, want) {
				t.Errorf("when exists = %+v, want %v", res.Agg, want)
			}
		})
	}
}

func TestUnanchorableWithoutJoinErrors(t *testing.T) {
	f := newFixture(t, "gremlin")
	q, err := query.Parse(`Retrieve P From PATHS P Where P MATCHES [VirtualLink()]{0,3}->[PhysicalLink()]{0,3}`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := query.Analyze(q, f.st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.x.Run(context.Background(), a, RunOptions{}); err == nil {
		t.Fatal("unanchorable variable without joins accepted")
	}
}

func TestSharedElements(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		// Shared fate (§2.3.2): data flows for several customers share a
		// common set of elements. Both firewall chains run through host-1.
		res := f.run(t, `Retrieve P From PATHS P Where P MATCHES VNF(vnfType='firewall')->[Vertical()]{1,6}->Host()`)
		var paths []plan.Pathway
		for _, row := range res.Rows {
			paths = append(paths, *row.Values()[0].(*plan.Pathway))
		}
		shared := plan.SharedElements(paths)
		want := map[graph.UID]bool{f.d.FirewallVNF: true, f.d.Host1: true}
		got := map[graph.UID]bool{}
		for _, uid := range shared {
			got[uid] = true
		}
		for uid := range want {
			if !got[uid] {
				t.Errorf("shared elements missing %d", uid)
			}
		}
		if got[f.d.VM1] || got[f.d.VM2] {
			t.Error("per-chain VMs wrongly reported as shared")
		}
	})
}

func TestCountAggregation(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		res := f.run(t, `Select count(P) From PATHS P Where P MATCHES VM()->OnServer()->Host()`)
		if len(res.Rows) != 1 || res.Rows[0].Values()[0] != int64(3) {
			t.Fatalf("count rows = %+v", res.Rows)
		}
		// Counting over a join counts distinct pathways of the counted
		// variable, not join rows.
		res = f.run(t, `Select count(Q) From PATHS P, PATHS Q
			Where P MATCHES VM()->OnServer()->Host()
			And Q MATCHES VNF()->[Vertical()]{1,6}->Host()
			And target(P) = target(Q)`)
		if len(res.Rows) != 1 || res.Rows[0].Values()[0] != int64(3) {
			t.Fatalf("joined count = %+v", res.Rows)
		}
		// Mixing count with per-row projections is rejected at analysis.
		q, err := query.Parse(`Select count(P), source(P).name From PATHS P Where P MATCHES VM()`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := query.Analyze(q, f.st.Schema()); err == nil {
			t.Fatal("count mixed with per-row projection accepted")
		}
	})
}

func TestCorrelatedSeededSubquery(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		// The inner variable is structurally unanchored ([Vertical()]{0,2}
		// admits the empty match); its anchor is imported from the OUTER
		// variable through the correlation predicate — per-row seeding.
		src := `Retrieve H From PATHS H
			Where H MATCHES Host()
			And NOT EXISTS(
				Retrieve P From PATHS P
				Where P MATCHES [OnServer()]{0,1}->[OnServer()]{0,1}
				And target(P) = target(H)
				And source(P) != target(H)
			)`
		res := f.run(t, src)
		// Every host carries at least one VM placement, so no host survives
		// the NOT EXISTS.
		if len(res.Rows) != 0 {
			t.Fatalf("hosts without placements = %d, want 0", len(res.Rows))
		}
		// Delete host-2's placements; it should now qualify.
		for _, e := range f.st.InEdges(f.d.Host2) {
			obj := f.st.Object(e)
			if obj.Class.Name == netmodel.OnServer && obj.Current() != nil {
				if err := f.st.Delete(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		res = f.run(t, src)
		if len(res.Rows) != 1 {
			t.Fatalf("hosts without placements = %d, want 1 (host-2)", len(res.Rows))
		}
		if res.Rows[0].Values()[0].(*plan.Pathway).Source() != f.d.Host2 {
			t.Fatal("wrong host qualified")
		}
	})
}

// TestJoinComparesIntegersExactly: a join on node ids compares two
// int64s exactly; 2^53 and 2^53+1 are one float64 but two hosts.
func TestJoinComparesIntegersExactly(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		for i, id := range []int64{1 << 53, 1<<53 + 1} {
			if _, err := f.st.InsertNode("ComputeHost", graph.Fields{"id": id, "name": fmt.Sprintf("big%d", i),
				"rack": "rx", "status": "Active"}); err != nil {
				t.Fatal(err)
			}
		}
		join := `Select source(P).name From PATHS P, PATHS Q
			Where P MATCHES ComputeHost(id=9007199254740992) And Q MATCHES ComputeHost(id=%d)
			And source(P) %s source(Q)`
		for _, tc := range []struct {
			q    int64
			op   string
			want int
		}{{1<<53 + 1, "=", 0}, {1<<53 + 1, "!=", 1}, {1 << 53, "=", 1}} {
			if res := f.run(t, fmt.Sprintf(join, tc.q, tc.op)); len(res.Rows) != tc.want {
				t.Errorf("hosts 2^53 %s %d joined %d rows, want %d", tc.op, tc.q, len(res.Rows), tc.want)
			}
		}
	})
}
