package plan_test

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/relational"
	"repro/internal/rpe"
	"repro/internal/temporal"
)

var t0 = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

// demoStore builds the Figure-1 demo topology on a manual clock.
func demoStore(t *testing.T) (*graph.Store, *netmodel.Demo, *temporal.Clock) {
	t.Helper()
	clock := temporal.NewManualClock(t0)
	st := graph.NewStore(netmodel.MustSchema(), clock, nil)
	d, err := netmodel.BuildDemo(st, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return st, d, clock
}

// engines returns one engine per backend.
func engines(st *graph.Store) map[string]*plan.Engine {
	return map[string]*plan.Engine{
		"gremlin":    plan.NewEngine(gremlin.New(st)),
		"relational": plan.NewEngine(relational.New(st)),
	}
}

func mustPlan(t *testing.T, st *graph.Store, src string) (*rpe.Checked, *plan.Plan) {
	t.Helper()
	c, err := rpe.CheckString(src, st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(c, st.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

func sortedKeys(ps *plan.PathwaySet) []string {
	keys := make([]string, 0, ps.Len())
	for _, p := range ps.Paths() {
		keys = append(keys, p.Key())
	}
	sort.Strings(keys)
	return keys
}

func equalSets(t *testing.T, name string, got, want *plan.PathwaySet) {
	t.Helper()
	g, w := sortedKeys(got), sortedKeys(want)
	if len(g) != len(w) {
		t.Errorf("%s: %d pathways, reference has %d\n got: %v\nwant: %v", name, len(g), len(w), g, w)
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: pathway %d differs: got %s want %s", name, i, g[i], w[i])
		}
	}
}

// runBoth runs the query on both backends, checks them against the
// reference oracle, and returns one of the (identical) result sets.
func runBoth(t *testing.T, st *graph.Store, view graph.View, src string) *plan.PathwaySet {
	t.Helper()
	c, p := mustPlan(t, st, src)
	ref := plan.ReferenceEval(view, c)
	var last *plan.PathwaySet
	for name, eng := range engines(st) {
		got, _, err := eng.EvalMetered(view, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		equalSets(t, name+": "+src, got, ref)
		last = got
	}
	return last
}

func TestTopDownVerticalQuery(t *testing.T) {
	st, d, _ := demoStore(t)
	view := graph.CurrentView(st)
	fwID := st.Object(d.FirewallVNF).Current().Fields["id"]

	// All hosts supporting the firewall VNF: VNF -> Vertical{1,6} -> Host.
	got := runBoth(t, st, view, rpe.MustParse("VNF()->[Vertical()]{1,6}->Host()").String())
	if got.Len() == 0 {
		t.Fatal("no vertical pathways found")
	}

	// Anchored at the firewall's unique id: exactly the two chains to host1.
	src := "VNF(id=" + itoa(fwID) + ")->[Vertical()]{1,6}->Host()"
	got = runBoth(t, st, view, src)
	if got.Len() != 2 {
		t.Fatalf("firewall->host pathways = %d, want 2 (via vm-1 and vm-2)", got.Len())
	}
	for _, p := range got.Paths() {
		if p.Source() != d.FirewallVNF {
			t.Errorf("pathway source = %d, want firewall VNF", p.Source())
		}
		if p.Target() != d.Host1 {
			t.Errorf("pathway target = %d, want host-1", p.Target())
		}
		if p.Hops() != 3 {
			t.Errorf("pathway hops = %d, want 3 (composed_of, on_vm, on_server)", p.Hops())
		}
	}
}

func TestBottomUpQuery(t *testing.T) {
	st, d, _ := demoStore(t)
	view := graph.CurrentView(st)
	hostID := st.Object(d.Host1).Current().Fields["id"]

	// Which VNFs land on host-1? Anchor is at the END of the RPE, so the
	// engine extends backwards.
	src := "VNF()->[Vertical()]{1,6}->Host(id=" + itoa(hostID) + ")"
	got := runBoth(t, st, view, src)
	if got.Len() != 2 {
		t.Fatalf("bottom-up pathways = %d, want 2", got.Len())
	}
	for _, p := range got.Paths() {
		if p.Source() != d.FirewallVNF {
			t.Errorf("affected VNF = %d, want firewall", p.Source())
		}
	}
}

func TestNodeChainWithAbsorbedEdges(t *testing.T) {
	st, d, _ := demoStore(t)
	view := graph.CurrentView(st)
	hostID := st.Object(d.Host2).Current().Fields["id"]
	// The paper's first example: node atoms only, edges absorbed by ->.
	src := "VNF()->VFC()->VM()->Host(id=" + itoa(hostID) + ")"
	got := runBoth(t, st, view, src)
	if got.Len() != 1 {
		t.Fatalf("pathways = %d, want 1 (dns chain to host-2)", got.Len())
	}
	if got.Paths()[0].Source() != d.DNSVNF {
		t.Error("expected the DNS VNF chain")
	}
}

func TestHorizontalHostToHost(t *testing.T) {
	st, d, _ := demoStore(t)
	view := graph.CurrentView(st)
	// host-1 to host-2 through the physical fabric in exactly 4 hops:
	// host1 -> tor1 -> spine -> tor2 -> host2.
	src := "Host(name='host-1')->[PhysicalLink()]{1,4}->Host(name='host-2')"
	got := runBoth(t, st, view, src)
	if got.Len() != 1 {
		t.Fatalf("host-host pathways = %d, want 1", got.Len())
	}
	p := got.Paths()[0]
	if p.Hops() != 4 {
		t.Errorf("hops = %d, want 4", p.Hops())
	}
	if p.Source() != d.Host1 || p.Target() != d.Host2 {
		t.Error("endpoints wrong")
	}
}

func TestEdgeAnchoredQuery(t *testing.T) {
	st, _, _ := demoStore(t)
	view := graph.CurrentView(st)
	// Pure edge RPE with implicit endpoints.
	got := runBoth(t, st, view, "OnServer()")
	if got.Len() != 3 {
		t.Fatalf("OnServer pathways = %d, want 3", got.Len())
	}
	for _, p := range got.Paths() {
		if p.Len() != 3 {
			t.Errorf("edge pathway length = %d, want 3 (implicit endpoints)", p.Len())
		}
	}
}

func TestAlternationQuery(t *testing.T) {
	st, d, _ := demoStore(t)
	view := graph.CurrentView(st)
	vm1ID := st.Object(d.VM1).Current().Fields["id"]
	vm3ID := st.Object(d.VM3).Current().Fields["id"]
	src := "(VM(id=" + itoa(vm1ID) + ")|VM(id=" + itoa(vm3ID) + "))->OnServer()->Host()"
	got := runBoth(t, st, view, src)
	if got.Len() != 2 {
		t.Fatalf("alternation pathways = %d, want 2", got.Len())
	}
}

func TestCyclePrevention(t *testing.T) {
	st, _, _ := demoStore(t)
	view := graph.CurrentView(st)
	// The physical fabric has bidirectional links; without cycle
	// prevention host1 -> tor1 -> host1 -> ... would never terminate and
	// {1,6} would return ping-pong paths. All results must be simple.
	src := "Host(name='host-1')->[PhysicalLink()]{1,6}->Host()"
	got := runBoth(t, st, view, src)
	for _, p := range got.Paths() {
		seen := map[graph.UID]bool{}
		for _, e := range p.Elems {
			if seen[e] {
				t.Fatalf("pathway %v revisits element %d", p.Elems, e)
			}
			seen[e] = true
		}
	}
}

// TestCycleCutOnPath pins the search's on-path mark on a ring of four
// switches. Round a one-way ring, the forward search consumes each ring
// element once and is cut where the ring returns to the anchor: eight
// partials, plus the backward search's root, where a search without the
// cut would go round again. Round a two-way ring, the anchor's subtree in
// one direction ends three switches deep before the other direction
// starts, so every mark the first left behind must be gone when it does:
// the pathways must equal the reference oracle's.
func TestCycleCutOnPath(t *testing.T) {
	for _, twoWay := range []bool{false, true} {
		st := graph.NewStore(netmodel.MustSchema(), temporal.NewManualClock(t0), nil)
		var ring []graph.UID
		for i := 1; i <= 4; i++ {
			uid, err := st.InsertNode("TORSwitch", graph.Fields{"id": int64(i), "name": fmt.Sprintf("tor-%d", i), "status": "Active"})
			if err != nil {
				t.Fatal(err)
			}
			ring = append(ring, uid)
		}
		id := int64(100)
		link := func(a, b graph.UID) {
			id++
			if _, err := st.InsertEdge(netmodel.PhysicalLink, a, b, graph.Fields{"id": id}); err != nil {
				t.Fatal(err)
			}
		}
		for i, sw := range ring {
			next := ring[(i+1)%len(ring)]
			if link(sw, next); twoWay {
				link(next, sw)
			}
		}
		view := graph.CurrentView(st)
		c, p := mustPlan(t, st, "TORSwitch(id=1)->[PhysicalLink()]{1,8}->TORSwitch()")
		want := plan.ReferenceEval(view, c)
		for name, eng := range engines(st) {
			got, m, err := eng.EvalMetered(view, p)
			if err != nil {
				t.Fatal(err)
			}
			compareSets(t, fmt.Sprintf("%s, two-way %v", name, twoWay), st, got, want)
			if !twoWay && m.PartialsExplored != 9 {
				t.Errorf("%s: %d partials explored round a one-way ring of four; want 9 (%v)", name, m.PartialsExplored, m)
			}
		}
	}
}

func TestSeededEvaluation(t *testing.T) {
	st, d, _ := demoStore(t)
	view := graph.CurrentView(st)
	// A structurally unanchored RPE must be rejected by Build...
	unanchored, err := rpe.CheckString("[PhysicalLink()]{0,4}->[VirtualLink()]{0,4}", st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Build(unanchored, st.Stats()); err == nil {
		t.Fatal("unanchored plan accepted without seeds")
	}
	c, err := rpe.CheckString("[PhysicalLink()]{1,4}", st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	// ...while a costly-anchor RPE like the paper's Phys variable gets its
	// anchor imported from a join (§3.4).
	p := plan.BuildSeeded(c, plan.Forward)
	for name, eng := range engines(st) {
		got, _, _, err := eng.EvalWith(view, p, plan.EvalOpts{Seeds: []graph.UID{d.Host1}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() == 0 {
			t.Fatalf("%s: no seeded pathways", name)
		}
		foundHost2 := false
		for _, pw := range got.Paths() {
			if pw.Source() != d.Host1 {
				t.Errorf("%s: seeded pathway source = %d, want host-1", name, pw.Source())
			}
			if pw.Target() == d.Host2 {
				foundHost2 = true
			}
		}
		if !foundHost2 {
			t.Errorf("%s: no seeded pathway reaches host-2", name)
		}
	}
	// Target-seeded: pathways ending at host-1.
	pb := plan.BuildSeeded(c, plan.Backward)
	for name, eng := range engines(st) {
		got, _, _, err := eng.EvalWith(view, pb, plan.EvalOpts{Seeds: []graph.UID{d.Host1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, pw := range got.Paths() {
			if pw.Target() != d.Host1 {
				t.Errorf("%s: target-seeded pathway ends at %d", name, pw.Target())
			}
		}
		if got.Len() == 0 {
			t.Fatalf("%s: no target-seeded pathways", name)
		}
	}
}

func TestTimeTravelPointQuery(t *testing.T) {
	st, d, clock := demoStore(t)
	vm3ID := st.Object(d.VM3).Current().Fields["id"]

	// At 10:00 vm-3 migrates from host-2 to host-1: the OnServer edge is
	// deleted and re-created.
	clock.SetNow(t0.Add(10 * time.Hour))
	var oldEdge graph.UID
	for _, e := range st.OutEdges(d.VM3) {
		if st.Object(e).Class.Name == netmodel.OnServer {
			oldEdge = e
		}
	}
	if err := st.Delete(oldEdge); err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertEdge(netmodel.OnServer, d.VM3, d.Host1, graph.Fields{"id": 9001}); err != nil {
		t.Fatal(err)
	}

	src := "VM(id=" + itoa(vm3ID) + ")->OnServer()->Host()"
	// Before the migration, vm-3 ran on host-2.
	before := graph.PointView(st, t0.Add(5*time.Hour))
	for name, eng := range engines(st) {
		_, p := mustPlan(t, st, src)
		got, _, err := eng.EvalMetered(before, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 1 || got.Paths()[0].Target() != d.Host2 {
			t.Fatalf("%s: at 5h target = %v, want host-2", name, got.Paths())
		}
		ref := plan.ReferenceEval(before, p.Checked)
		equalSets(t, name+" before migration", got, ref)
	}
	// Now it runs on host-1.
	now := graph.CurrentView(st)
	for name, eng := range engines(st) {
		_, p := mustPlan(t, st, src)
		got, _, err := eng.EvalMetered(now, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 1 || got.Paths()[0].Target() != d.Host1 {
			t.Fatalf("%s: now target = %v, want host-1", name, got.Paths())
		}
	}
}

func TestTimeRangeQueryMaximalRanges(t *testing.T) {
	st, d, clock := demoStore(t)
	vm3ID := st.Object(d.VM3).Current().Fields["id"]

	clock.SetNow(t0.Add(10 * time.Hour))
	var oldEdge graph.UID
	for _, e := range st.OutEdges(d.VM3) {
		if st.Object(e).Class.Name == netmodel.OnServer {
			oldEdge = e
		}
	}
	if err := st.Delete(oldEdge); err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertEdge(netmodel.OnServer, d.VM3, d.Host1, graph.Fields{"id": 9001}); err != nil {
		t.Fatal(err)
	}

	// Range query spanning the migration returns both placements, each
	// with its maximal assertion range (§4).
	view := graph.RangeView(st, t0.Add(9*time.Hour), t0.Add(11*time.Hour))
	src := "VM(id=" + itoa(vm3ID) + ")->OnServer()->Host()"
	got := runBoth(t, st, view, src)
	if got.Len() != 2 {
		t.Fatalf("range pathways = %d, want 2", got.Len())
	}
	for _, p := range got.Paths() {
		if len(p.Validity) != 1 {
			t.Fatalf("validity = %v, want one maximal range", p.Validity)
		}
		iv := p.Validity[0]
		switch p.Target() {
		case d.Host2:
			// The old placement existed from load time — well before the
			// 9h window start: the range must NOT be clipped to the window.
			if iv.Start >= temporal.Nanos(t0.Add(time.Hour)) {
				t.Errorf("old placement range start = %v, want load time", iv.Start)
			}
			if iv.End != temporal.Nanos(t0.Add(10*time.Hour)) {
				t.Errorf("old placement range end = %v, want 10h", iv.End)
			}
		case d.Host1:
			// The insert lands a clock micro-tick after the delete at 10h.
			if iv.Start < temporal.Nanos(t0.Add(10*time.Hour)) || iv.Start > temporal.Nanos(t0.Add(10*time.Hour+time.Millisecond)) {
				t.Errorf("new placement range start = %v, want ~10h", iv.Start)
			}
			if !iv.IsCurrent() {
				t.Errorf("new placement must be current")
			}
		default:
			t.Errorf("unexpected target %d", p.Target())
		}
	}

	// A range window strictly before the migration sees only host-2.
	early := graph.RangeView(st, t0.Add(1*time.Hour), t0.Add(2*time.Hour))
	got = runBoth(t, st, early, src)
	if got.Len() != 1 || got.Paths()[0].Target() != d.Host2 {
		t.Fatalf("early range = %v", got.Paths())
	}
}

func TestFieldChangeAffectsValidity(t *testing.T) {
	st, d, clock := demoStore(t)
	// vm-1 goes Red at 4h and back Green at 6h.
	cur := st.Object(d.VM1).Current().Fields
	red := cur.Clone()
	red["status"] = "Red"
	clock.SetNow(t0.Add(4 * time.Hour))
	if err := st.Update(d.VM1, red); err != nil {
		t.Fatal(err)
	}
	green := red.Clone()
	green["status"] = "Green"
	clock.SetNow(t0.Add(6 * time.Hour))
	if err := st.Update(d.VM1, green); err != nil {
		t.Fatal(err)
	}

	src := "VM(id=" + itoa(cur["id"]) + ", status='Green')"
	view := graph.RangeView(st, t0, t0.Add(100*time.Hour))
	got := runBoth(t, st, view, src)
	if got.Len() != 1 {
		t.Fatalf("pathways = %d, want 1", got.Len())
	}
	v := got.Paths()[0].Validity
	if len(v) != 2 {
		t.Fatalf("validity = %v, want two green periods", v)
	}
	if v[0].End != temporal.Nanos(t0.Add(4*time.Hour)) || v[1].Start != temporal.Nanos(t0.Add(6*time.Hour)) {
		t.Errorf("green periods = %v", v)
	}

	// A point query during the red period finds nothing.
	mid := graph.PointView(st, t0.Add(5*time.Hour))
	got = runBoth(t, st, mid, src)
	if got.Len() != 0 {
		t.Fatalf("red-period point query returned %d pathways", got.Len())
	}
}

func TestExplain(t *testing.T) {
	st, _, _ := demoStore(t)
	_, p := mustPlan(t, st, "VNF()->[Vertical()]{1,6}->Host(id=1001)")
	text := p.Explain()
	for _, want := range []string{"Select:", "ExtendBlock {1,6}", "Anchor Host(id=1001)", "MaxLen:"} {
		if !containsStr(text, want) {
			t.Errorf("explain output missing %q:\n%s", want, text)
		}
	}
}

func TestPathwaySetMergesValidity(t *testing.T) {
	s := plan.NewPathwaySet()
	s.Add(plan.Pathway{Elems: []graph.UID{1, 2, 3}, Validity: temporal.Set{temporal.Between(temporal.Nanos(t0), temporal.Nanos(t0.Add(time.Hour)))}})
	s.Add(plan.Pathway{Elems: []graph.UID{1, 2, 3}, Validity: temporal.Set{temporal.Between(temporal.Nanos(t0.Add(time.Hour)), temporal.Nanos(t0.Add(2*time.Hour)))}})
	s.Add(plan.Pathway{Elems: []graph.UID{1, 2, 4}, Validity: temporal.Set{temporal.Between(temporal.Nanos(t0), temporal.Nanos(t0.Add(time.Hour)))}})
	if s.Len() != 2 {
		t.Fatalf("set size = %d, want 2", s.Len())
	}
	merged := s.Paths()[0].Validity
	if len(merged) != 1 || merged[0].End != temporal.Nanos(t0.Add(2*time.Hour)) {
		t.Errorf("merged validity = %v", merged)
	}
}

func TestPathwayRender(t *testing.T) {
	st, d, _ := demoStore(t)
	onServer := st.OutEdges(d.VM1)[0]
	p := plan.Pathway{Elems: []graph.UID{d.VM1, onServer, d.Host1, 987654321}}
	const want = "VMWare#6 -> OnServer#22 -> ComputeHost#1 -> ?987654321"
	if got := p.Render(st); got != want {
		t.Errorf("Render = %q, want %q", got, want)
	}
}

func containsStr(haystack, needle string) bool {
	return strings.Contains(haystack, needle)
}

func itoa(v any) string {
	switch n := v.(type) {
	case int64:
		return strconv.FormatInt(n, 10)
	case int:
		return strconv.Itoa(n)
	case float64:
		return strconv.FormatInt(int64(n), 10)
	}
	return "0"
}

func TestEvalMetered(t *testing.T) {
	st, d, _ := demoStore(t)
	view := graph.CurrentView(st)
	_, p := mustPlan(t, st, "VNF()->[Vertical()]{1,6}->Host(id=1001)")
	for name, eng := range engines(st) {
		set, m, err := eng.EvalMetered(view, p)
		if err != nil {
			t.Fatal(err)
		}
		if m.PathsEmitted != set.Len() || set.Len() != 2 {
			t.Errorf("%s: paths = %d / %d", name, m.PathsEmitted, set.Len())
		}
		if m.AnchorRecords != 1 {
			t.Errorf("%s: anchor records = %d, want 1 (unique id)", name, m.AnchorRecords)
		}
		if m.EdgesScanned == 0 || m.ElementsConsumed == 0 || m.PartialsExplored == 0 {
			t.Errorf("%s: empty counters: %s", name, m)
		}
		// Metering is one-shot: a plain Eval afterwards must not panic or
		// accumulate into stale metrics.
		if _, _, err := eng.EvalMetered(view, p); err != nil {
			t.Fatal(err)
		}
	}
	_ = d
}
