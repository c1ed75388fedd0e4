package exec

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/temporal"
)

// paths returns the pathways of a one-variable Retrieve.
func (f *fixture) paths(t *testing.T, src string) []plan.Pathway {
	t.Helper()
	var out []plan.Pathway
	for _, row := range f.run(t, src).Rows {
		out = append(out, *row.Values()[0].(*plan.Pathway))
	}
	return out
}

func mustBinding(t *testing.T, row Row, name string) plan.Pathway {
	t.Helper()
	p, ok := row.Binding(name)
	if !ok {
		t.Fatalf("row has no binding for %s", name)
	}
	return p
}

// sameStrings compares two string multisets.
func sameStrings(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s:\n got %v\nwant %v", what, got, want)
	}
}

// raceEnabled reports a -race build, whose runtime changes what a run
// allocates in bytes.
var raceEnabled bool

// bytesPerRun returns the bytes fn allocates, averaged over n calls.
func bytesPerRun(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestRowAllocations pins what the executor adds to the engine's search
// for a one-variable Retrieve. In allocations, a constant whatever the
// number of rows: the rows are built once, the row table's bindings are
// the evaluation's own pathway array, Values share one slab per result
// and a projected pathway is a pointer to its binding. In bytes, a
// constant plus, for each row, its 16-byte index into the table and
// its projected values' 16-byte cells.
func TestRowAllocations(t *testing.T) {
	f := newFixture(t, "gremlin")
	for i := 0; i < 200; i++ {
		if _, err := f.st.InsertNode("ComputeHost", graph.Fields{"id": int64(20000 + i), "name": fmt.Sprintf("h%d", i), "rack": "rx", "status": "Active"}); err != nil {
			t.Fatal(err)
		}
	}
	a := f.analyze(t, "Retrieve P From PATHS P Where P MATCHES ComputeHost()")
	ctx := context.Background()
	res, err := f.x.Run(ctx, a, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(a.Checked["P"], f.st.Stats())
	if err != nil {
		t.Fatal(err)
	}
	view := graph.CurrentView(f.st)
	run := testing.AllocsPerRun(20, func() { f.x.Run(ctx, a, RunOptions{}) })
	search := testing.AllocsPerRun(20, func() { f.x.Default.EvalWith(view, p, plan.EvalOpts{}) })
	rows := len(res.Rows)
	if extra, bound := run-search, 40; rows < 200 || extra > float64(bound) {
		t.Errorf("%d rows: the executor allocates %.0f on top of the search's %.0f, want at most %d",
			rows, extra, search, bound)
	}
	if raceEnabled {
		t.Skip("the race runtime changes what a run allocates in bytes")
	}
	runB := bytesPerRun(20, func() { f.x.Run(ctx, a, RunOptions{}) })
	searchB := bytesPerRun(20, func() { f.x.Default.EvalWith(view, p, plan.EvalOpts{}) })
	perRow := 16 + 16*len(res.Columns)
	if extra, bound := runB-searchB, float64(perRow*rows+4096); extra > bound {
		t.Errorf("%d rows: the executor allocates %.0f B on top of the search's %.0f B, want at most %d B a row and 4096 B (%.0f B)",
			rows, extra, searchB, perRow, bound)
	}
}

// TestBindingSourceTargetJoin checks a two-variable join's rows against
// the cross product of the variables' own results: every pair whose
// endpoints meet, each bound under its own name, with the pair's
// coexistence as the row's range.
func TestBindingSourceTargetJoin(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		chains := f.paths(t, "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()")
		links := f.paths(t, "Retrieve Q From PATHS Q Where Q MATCHES Host()->[PhysicalLink()]{1,2}->Switch()")
		var want []string
		for _, p := range chains {
			for _, q := range links {
				if q.Source() == p.Target() {
					want = append(want, p.Key()+" / "+q.Key()+" "+p.Validity.Intersect(q.Validity).String())
				}
			}
		}
		res := f.run(t, `Retrieve P, Q From PATHS P, PATHS Q
			Where P MATCHES VNF()->[Vertical()]{1,6}->Host()
			And Q MATCHES Host()->[PhysicalLink()]{1,2}->Switch()
			And source(Q) = target(P)`)
		var got []string
		for _, row := range res.Rows {
			p, q := mustBinding(t, row, "P"), mustBinding(t, row, "Q")
			if row.Values()[0].(*plan.Pathway).Key() != p.Key() || row.Values()[1].(*plan.Pathway).Key() != q.Key() {
				t.Errorf("projected %v, bound P=%s Q=%s", row.Values(), p.Key(), q.Key())
			}
			got = append(got, p.Key()+" / "+q.Key()+" "+row.Coexist().String())
		}
		if len(want) == 0 {
			t.Fatal("fixture has no joinable pairs")
		}
		sameStrings(t, "join rows", got, want)
	})
}

// TestBindingNotExistsReadsOuter filters VM placements through a
// correlated NOT EXISTS that reads the outer V: the one VM nothing is
// deployed on survives, and the subquery's own variable is not bound on
// the outer row.
func TestBindingNotExistsReadsOuter(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		idle, err := f.st.InsertNode("VMWare", graph.Fields{"id": int64(7777), "name": "idle-vm", "status": "Green"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.st.InsertEdge("OnServer", idle, f.d.Host1, graph.Fields{"id": int64(7778)}); err != nil {
			t.Fatal(err)
		}
		res := f.run(t, `Retrieve V From PATHS V
			Where V MATCHES VM()->OnServer()->Host()
			And NOT EXISTS(
				Retrieve P From PATHS P
				Where P MATCHES (VNF()|VFC())->[Vertical()]{1,5}->VM()
				And target(P) = source(V)
			)`)
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %d, want the idle VM's placement only", len(res.Rows))
		}
		v := mustBinding(t, res.Rows[0], "V")
		if v.Source() != idle || v.Target() != f.d.Host1 {
			t.Errorf("V = %s, want idle-vm on host-1", v.Render(f.st))
		}
		if _, ok := res.Rows[0].Binding("P"); ok {
			t.Error("the subquery's P is bound on the outer row")
		}
	})
}

// TestBindingSubqueryShadowsOuter declares P both outside and inside a
// NOT EXISTS. Inside, P must be the subquery's own placement pathway:
// read as the outer P (a single VM node) it would never meet a host, and
// every host would survive.
func TestBindingSubqueryShadowsOuter(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		for _, e := range f.st.InEdges(f.d.Host2) {
			if obj := f.st.Object(e); obj.Class.Name == "OnServer" && obj.Current() != nil {
				if err := f.st.Delete(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		res := f.run(t, fmt.Sprintf(`Retrieve H From PATHS H, PATHS P
			Where H MATCHES Host()
			And P MATCHES VM(id=%d)
			And NOT EXISTS(
				Retrieve P From PATHS P
				Where P MATCHES VM()->OnServer()->Host()
				And target(P) = target(H)
			)`, f.idOf(f.d.VM1)))
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %d, want host-2 only", len(res.Rows))
		}
		row := res.Rows[0]
		if h := mustBinding(t, row, "H"); h.Source() != f.d.Host2 {
			t.Errorf("H = %s, want host-2", h.Render(f.st))
		}
		if p := mustBinding(t, row, "P"); p.Len() != 1 || p.Source() != f.d.VM1 {
			t.Errorf("outer P = %s, want vm-1 itself", p.Render(f.st))
		}
	})
}

// TestBindingPerVariableTimes checks per-variable AT through the
// accessors: each variable's range is its own pathway's, reported
// unclipped, and no coexistence is computed.
func TestBindingPerVariableTimes(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		migrateVM3(t, f, t0.Add(10*time.Hour))
		res := f.run(t, fmt.Sprintf(`Retrieve P, Q
			From PATHS P(@'2017-02-15 05:00'), Q(@'2017-02-15 12:00')
			Where P MATCHES VM(id=%[1]d)->OnServer()->Host(id=%[2]d)
			And Q MATCHES VM(id=%[1]d)->OnServer()->Host(id=%[3]d)
			And source(P) = source(Q)`,
			f.idOf(f.d.VM3), f.idOf(f.d.Host2), f.idOf(f.d.Host1)))
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %d, want 1", len(res.Rows))
		}
		row := res.Rows[0]
		if row.Coexist() != nil {
			t.Errorf("per-variable query computed coexistence %v", row.Coexist())
		}
		// P holds from the demo load to the migration, Q from the
		// migration's re-placement on (the clock ticks per mutation).
		load, migrated := temporal.Nanos(t0), temporal.Nanos(t0.Add(10*time.Hour))
		p, q := row.VarTime("P"), row.VarTime("Q")
		if len(p) != 1 || p[0].Start < load || p[0].Start >= load+int64(time.Hour) || p[0].End != migrated {
			t.Errorf("VarTime(P) = %v, want load time to 10:00", p)
		}
		if len(q) != 1 || q[0].Start < migrated || q[0].Start >= migrated+int64(time.Hour) || !q[0].IsCurrent() {
			t.Errorf("VarTime(Q) = %v, want 10:00 onwards", q)
		}
		for _, name := range []string{"P", "Q"} {
			if vt, bound := row.VarTime(name), mustBinding(t, row, name).Validity; vt.String() != bound.String() {
				t.Errorf("VarTime(%s) = %v, bound pathway's validity %v", name, vt, bound)
			}
		}
		if row.VarTime("X") != nil {
			t.Error("VarTime of an undeclared variable is not nil")
		}
	})
}

// TestRetainedResult keeps the Results of queries whose row tables bind
// an evaluation's pathway set in place (one variable) and through a join
// step's slab (two), with each coexistence mode: a one-variable row's
// own validity, a join's coexistence column and per-variable time's
// none. It keeps a join against an unseeded variable's one shared set, a
// NOT EXISTS filter's survivors and a count(...) row too. Then it runs
// them and larger and smaller queries from four goroutines on the same
// executor, every evaluation reusing pooled search scratch: each kept
// row's projected values, bindings and coexistence must read as they did
// when the Result was returned.
func TestRetainedResult(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		var analyzed []*query.Analyzed
		for _, src := range []string{
			"Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()",
			`Retrieve P, Q From PATHS P, PATHS Q
				Where P MATCHES VNF()->[Vertical()]{1,6}->Host()
				And Q MATCHES Host()->[PhysicalLink()]{1,2}->Switch()
				And source(Q) = target(P)`,
			"Select source(P).name, len(P) From PATHS P Where P MATCHES VM()->OnServer()->Host()",
			"Retrieve Q From PATHS Q Where Q MATCHES Host()->[PhysicalLink()]{1,6}->Host()",
			`Retrieve P, Q From PATHS P, PATHS Q
				Where P MATCHES VNF()->[Vertical()]{1,6}->Host()
				And Q MATCHES Host()->[PhysicalLink()]->Switch()
				And target(P) = source(Q)`,
			`Retrieve Q From PATHS Q
				Where Q MATCHES Host()->[PhysicalLink()]{1,2}->Switch()
				And NOT EXISTS(
					Retrieve S From PATHS S
					Where S MATCHES SpineSwitch()
					And source(S) = target(Q)
				)`,
			"Select count(P) From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()",
			`Retrieve P, Q From PATHS P(@'2017-02-15 05:00'), Q(@'2017-02-15 06:00')
				Where P MATCHES VM()->OnServer()->Host()
				And Q MATCHES Host()->[PhysicalLink()]->Switch()
				And target(P) = source(Q)`,
		} {
			analyzed = append(analyzed, f.analyze(t, src))
		}
		snapshot := func(res *Result) []string {
			var out []string
			for _, row := range res.Rows {
				line := row.Coexist().String()
				for _, v := range row.Values() {
					if p, ok := v.(*plan.Pathway); ok {
						line += " | " + p.Key() + " " + p.Validity.String()
					} else {
						line += fmt.Sprintf(" | %v", v)
					}
				}
				for _, name := range []string{"P", "Q"} {
					if p, ok := row.Binding(name); ok {
						line += " / " + name + "=" + p.Key() + " " + p.Validity.String()
					}
				}
				out = append(out, line)
			}
			return out
		}
		ctx := context.Background()
		kept := make([]*Result, len(analyzed))
		want := make([][]string, len(analyzed))
		for i, a := range analyzed {
			res, err := f.x.Run(ctx, a, RunOptions{})
			if err != nil || len(res.Rows) == 0 {
				t.Fatalf("query %d: %d rows, err %v", i, len(res.Rows), err)
			}
			kept[i], want[i] = res, snapshot(res)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; n < 20; n++ {
					if _, err := f.x.Run(ctx, analyzed[(g+n)%len(analyzed)], RunOptions{}); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for i, res := range kept {
			if got := snapshot(res); !slices.Equal(got, want[i]) {
				t.Errorf("query %d: the kept rows changed under later queries:\n got %v\nwant %v", i, got, want[i])
			}
		}
	})
}

// BenchmarkRetrieveRows measures the executor's row layer beside the
// search it runs: B/op and allocs/op of a one-variable Retrieve of 1,502
// hosts, and of a two-variable join whose 1,500 rows each bind an added
// host and its uplink to tor-1.
func BenchmarkRetrieveRows(b *testing.B) {
	f := newFixture(b, "gremlin")
	for i := 0; i < 1500; i++ {
		h, err := f.st.InsertNode("ComputeHost", graph.Fields{"id": int64(20000 + i), "name": fmt.Sprintf("h%d", i), "rack": "rx", "status": "Active"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.st.InsertEdge("PhysicalLink", h, f.d.TOR1, graph.Fields{"id": int64(30000 + i), "switchInterface": "up"}); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct{ name, src string }{
		{"one-variable", "Retrieve P From PATHS P Where P MATCHES ComputeHost()"},
		{"join", `Retrieve P, Q From PATHS P, PATHS Q
			Where P MATCHES ComputeHost(rack='rx')
			And Q MATCHES ComputeHost()->PhysicalLink()
			And source(Q) = source(P)`},
	} {
		a := f.analyze(b, c.src)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.x.Run(context.Background(), a, RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
