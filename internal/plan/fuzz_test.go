package plan_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relational"
	"repro/internal/rpe"
	"repro/internal/temporal"
)

// TestDifferentialRandom is the randomized differential test: many small
// random temporal graphs, many random RPEs, three evaluators — the
// Gremlin backend, the relational backend, and the exhaustive reference
// oracle — which must agree exactly on the pathway sets (elements AND
// validity ranges) under current, past-point, and range views.
func TestDifferentialRandom(t *testing.T) {
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			st, clock := randomStore(t, rng)
			engines := map[string]*plan.Engine{
				"gremlin":    plan.NewEngine(gremlin.New(st)),
				"relational": plan.NewEngine(relational.New(st)),
			}
			views := map[string]graph.View{
				"current": graph.CurrentView(st),
				"past":    graph.PointView(st, t0.Add(90*time.Minute)),
				"range":   graph.RangeView(st, t0.Add(30*time.Minute), clock.Now()),
			}
			seedRng := map[string]*rand.Rand{}
			for i, vname := range []string{"current", "past", "range"} {
				seedRng[vname] = rand.New(rand.NewSource(int64(trial)*7919 + int64(i) + 1))
			}
			for q := 0; q < 6; q++ {
				src := randomRPE(rng)
				c, err := rpe.CheckString(src, st.Schema())
				if err != nil {
					t.Fatalf("random RPE %q failed to check: %v", src, err)
				}
				// Unanchorable under this cost model: only the seeded plans run.
				p, _ := plan.Build(c, st.Stats())
				for vname, view := range views {
					ref := plan.ReferenceEval(view, c)
					emitted := map[string]int{}
					for ename, eng := range engines {
						if p != nil {
							label := fmt.Sprintf("%s/%s %q", ename, vname, src)
							emitted[ename] = evalBothWays(t, label, st, eng, view, p, nil, ref).PathsEmitted
						}
					}
					// The two backends walk different physical structures but
					// must emit the same logical pathway set.
					if emitted["gremlin"] != emitted["relational"] {
						t.Errorf("%s %q: PathsEmitted gremlin=%d relational=%d",
							vname, src, emitted["gremlin"], emitted["relational"])
					}
					// Seeded plans (§3.4) in both directions: the oracle is the
					// reference set restricted to pathways that start (Forward)
					// or end (Backward) at a seed. Seeds come from their own
					// generator so the RPE draws above stay what they were.
					seeds := randomSeeds(seedRng[vname], view)
					for _, dir := range []plan.Direction{plan.Forward, plan.Backward} {
						sp := plan.BuildSeeded(c, dir)
						want := restrictToSeeds(ref, dir, seeds)
						for ename, eng := range engines {
							label := fmt.Sprintf("%s/%s seeded %s %v %q", ename, vname, dir, seeds, src)
							evalBothWays(t, label, st, eng, view, sp, seeds, want)
						}
					}
				}
			}
		})
	}
}

// evalBothWays evaluates the plan traced and untraced. The traced run is
// checked against the oracle and the trace invariants; the untraced one
// must return the same pathways in the same order with the same Metrics —
// tracing observes the search, it must not steer it.
func evalBothWays(t *testing.T, label string, st *graph.Store, eng *plan.Engine, view graph.View, p *plan.Plan, seeds []graph.UID, want *plan.PathwaySet) plan.Metrics {
	t.Helper()
	got, m, span, err := eng.EvalWith(view, p, plan.EvalOpts{Seeds: seeds, Traced: true})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	compareSets(t, label, st, got, want)
	checkTraceInvariants(t, label, got, m, span)
	plain, pm, pspan, err := eng.EvalWith(view, p, plan.EvalOpts{Seeds: seeds})
	if err != nil {
		t.Fatalf("%s untraced: %v", label, err)
	}
	if pspan != nil {
		t.Errorf("%s: untraced evaluation returned a span", label)
	}
	if pm != m {
		t.Errorf("%s: Metrics traced %v, untraced %v", label, m, pm)
	}
	tp, pp := got.Paths(), plain.Paths()
	if len(tp) != len(pp) {
		t.Fatalf("%s: %d pathways traced, %d untraced", label, len(tp), len(pp))
	}
	for i := range tp {
		if tp[i].Key() != pp[i].Key() || tp[i].Validity.String() != pp[i].Validity.String() {
			t.Errorf("%s: pathway %d is %s %v traced, %s %v untraced", label, i,
				tp[i].Render(st), tp[i].Validity, pp[i].Render(st), pp[i].Validity)
		}
	}
	return m
}

// randomSeeds draws two seed nodes (possibly the same one twice) from the
// nodes visible in the view.
func randomSeeds(rng *rand.Rand, view graph.View) []graph.UID {
	st := view.Store()
	var nodes []graph.UID
	lo, hi := st.UIDRange()
	for uid := lo; uid < hi; uid++ {
		if obj := st.Object(uid); obj != nil && !obj.IsEdge() && view.Visible(obj) {
			nodes = append(nodes, uid)
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	return []graph.UID{nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]}
}

// restrictToSeeds keeps the pathways whose source (Forward) or target
// (Backward) is a seed.
func restrictToSeeds(set *plan.PathwaySet, dir plan.Direction, seeds []graph.UID) *plan.PathwaySet {
	out := plan.NewPathwaySet()
	for _, pw := range set.Paths() {
		end := pw.Source()
		if dir == plan.Backward {
			end = pw.Target()
		}
		for _, s := range seeds {
			if s == end {
				out.Add(pw)
				break
			}
		}
	}
	return out
}

// TestDifferentialRandomDeadline is the governance half of the
// differential fuzz: the same random graphs and RPEs evaluated under
// hostile budgets — pre-canceled contexts, already-expired deadlines,
// and tiny resource limits. Every run must either complete (and then
// agree exactly with the reference oracle) or fail with a typed
// governance error; panics and untyped errors are bugs.
func TestDifferentialRandomDeadline(t *testing.T) {
	const trials = 25
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	budgets := []struct {
		name string
		gov  func(rng *rand.Rand) *plan.Governor
	}{
		{"canceled", func(*rand.Rand) *plan.Governor {
			return plan.NewGovernor(canceled, plan.Limits{})
		}},
		{"deadline", func(*rand.Rand) *plan.Governor {
			return plan.NewGovernor(context.Background(), plan.Limits{MaxDuration: time.Nanosecond})
		}},
		{"edges", func(rng *rand.Rand) *plan.Governor {
			return plan.NewGovernor(context.Background(), plan.Limits{MaxEdgesScanned: 1 + rng.Intn(8)})
		}},
		{"paths", func(rng *rand.Rand) *plan.Governor {
			return plan.NewGovernor(context.Background(), plan.Limits{MaxPaths: 1 + rng.Intn(3)})
		}},
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*104729 + 13))
			st, clock := randomStore(t, rng)
			engines := map[string]*plan.Engine{
				"gremlin":    plan.NewEngine(gremlin.New(st)),
				"relational": plan.NewEngine(relational.New(st)),
			}
			views := map[string]graph.View{
				"current": graph.CurrentView(st),
				"range":   graph.RangeView(st, t0.Add(30*time.Minute), clock.Now()),
			}
			for q := 0; q < 4; q++ {
				src := randomRPE(rng)
				c, err := rpe.CheckString(src, st.Schema())
				if err != nil {
					t.Fatalf("random RPE %q failed to check: %v", src, err)
				}
				p, err := plan.Build(c, st.Stats())
				if err != nil {
					continue // unanchorable under this cost model; skip
				}
				for vname, view := range views {
					for ename, eng := range engines {
						for _, b := range budgets {
							label := fmt.Sprintf("%s/%s/%s %q", ename, vname, b.name, src)
							set, _, _, err := eng.EvalWith(view, p, plan.EvalOpts{Gov: b.gov(rng)})
							if err != nil {
								if !errors.Is(err, plan.ErrCanceled) &&
									!errors.Is(err, plan.ErrDeadlineExceeded) &&
									!errors.Is(err, plan.ErrLimitExceeded) {
									t.Errorf("%s: untyped abort %v", label, err)
								}
								continue
							}
							// Finished inside the budget: the answer must still
							// be exactly right.
							compareSets(t, label, st, set, plan.ReferenceEval(view, c))
						}
					}
				}
			}
		})
	}
}

// checkTraceInvariants cross-checks one traced evaluation's three views of
// the same run — the pathway set, the aggregate Metrics, and the
// operator-DAG trace — which must be mutually consistent:
//
//   - every Metrics counter is non-negative
//   - PathsEmitted equals the result set size and the Eval root's rows_out
//   - the Select spans' rows_out sums to Metrics.AnchorRecords
//   - the Extend spans' edges_scanned sums to Metrics.EdgesScanned
func checkTraceInvariants(t *testing.T, label string, set *plan.PathwaySet, m plan.Metrics, root *obs.Span) {
	t.Helper()
	for name, v := range map[string]int{
		"AnchorRecords": m.AnchorRecords, "EdgesScanned": m.EdgesScanned,
		"ElementsConsumed": m.ElementsConsumed, "ElementsRejected": m.ElementsRejected,
		"PartialsExplored": m.PartialsExplored, "PathsEmitted": m.PathsEmitted,
	} {
		if v < 0 {
			t.Errorf("%s: negative metric %s=%d", label, name, v)
		}
	}
	if m.PathsEmitted != set.Len() {
		t.Errorf("%s: PathsEmitted=%d but result set has %d pathways", label, m.PathsEmitted, set.Len())
	}
	if root == nil {
		t.Errorf("%s: traced EvalWith returned nil root span", label)
		return
	}
	var selectRows, extendEdges int64
	var rootRows int64
	root.Walk(func(s *obs.Span) {
		switch s.Name() {
		case "Select":
			_, out := s.Rows()
			selectRows += out
		case "Extend":
			extendEdges += s.Counter("edges_scanned")
		case "Eval":
			_, rootRows = s.Rows()
		}
	})
	if selectRows != int64(m.AnchorRecords) {
		t.Errorf("%s: Select spans rows_out=%d, Metrics.AnchorRecords=%d", label, selectRows, m.AnchorRecords)
	}
	if extendEdges != int64(m.EdgesScanned) {
		t.Errorf("%s: Extend spans edges_scanned=%d, Metrics.EdgesScanned=%d", label, extendEdges, m.EdgesScanned)
	}
	if rootRows != int64(set.Len()) {
		t.Errorf("%s: Eval root rows_out=%d, result set %d", label, rootRows, set.Len())
	}
}

// compareSets checks element sequences and validity ranges both ways.
func compareSets(t *testing.T, label string, st *graph.Store, got, want *plan.PathwaySet) {
	t.Helper()
	gotBy := map[string]plan.Pathway{}
	for _, p := range got.Paths() {
		gotBy[p.Key()] = p
	}
	wantBy := map[string]plan.Pathway{}
	for _, p := range want.Paths() {
		wantBy[p.Key()] = p
	}
	for k, wp := range wantBy {
		gp, ok := gotBy[k]
		if !ok {
			t.Errorf("%s: missing pathway %s", label, wp.Render(st))
			continue
		}
		if gp.Validity.String() != wp.Validity.String() {
			t.Errorf("%s: pathway %s validity %v, oracle %v", label, wp.Render(st), gp.Validity, wp.Validity)
		}
	}
	for k, gp := range gotBy {
		if _, ok := wantBy[k]; !ok {
			t.Errorf("%s: spurious pathway %s (validity %v)", label, gp.Render(st), gp.Validity)
		}
	}
}

// randomStore builds a small random layered graph with temporal churn:
// inserts at t0, then updates/deletes/inserts over three hours.
func randomStore(t *testing.T, rng *rand.Rand) (*graph.Store, *temporal.Clock) {
	t.Helper()
	clock := temporal.NewManualClock(t0)
	st := graph.NewStore(netmodel.MustSchema(), clock, nil)

	var id int64
	nextID := func() int64 { id++; return id }
	statuses := []string{"Green", "Red", "Yellow"}

	type pool struct {
		classes []string
		uids    []graph.UID
	}
	vnfs := &pool{classes: []string{"DNS", "Firewall", "LoadBalancer"}}
	vfcs := &pool{classes: []string{"Proxy", "WebServer"}}
	vms := &pool{classes: []string{"VMWare", "OnMetal", "KVMGuest"}}
	hosts := &pool{classes: []string{"ComputeHost", "StorageHost"}}
	switches := &pool{classes: []string{"TORSwitch", "SpineSwitch"}}

	mk := func(p *pool, n int) {
		for i := 0; i < n; i++ {
			class := p.classes[rng.Intn(len(p.classes))]
			fields := graph.Fields{"id": nextID(), "name": fmt.Sprintf("%s-%d", class, id), "status": statuses[rng.Intn(3)]}
			uid, err := st.InsertNode(class, fields)
			if err != nil {
				t.Fatal(err)
			}
			p.uids = append(p.uids, uid)
		}
	}
	mk(hosts, 2+rng.Intn(3))
	mk(switches, 1+rng.Intn(3))
	mk(vms, 2+rng.Intn(4))
	mk(vfcs, 1+rng.Intn(3))
	mk(vnfs, 1+rng.Intn(2))

	link := func(class string, a, b graph.UID) {
		_, err := st.InsertEdge(class, a, b, graph.Fields{"id": nextID()})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, vm := range vms.uids {
		link(netmodel.OnServer, vm, hosts.uids[rng.Intn(len(hosts.uids))])
	}
	for _, vfc := range vfcs.uids {
		link(netmodel.OnVM, vfc, vms.uids[rng.Intn(len(vms.uids))])
		link(netmodel.ComposedOf, vnfs.uids[rng.Intn(len(vnfs.uids))], vfc)
	}
	for _, h := range hosts.uids {
		sw := switches.uids[rng.Intn(len(switches.uids))]
		link(netmodel.PhysicalLink, h, sw)
		if rng.Intn(2) == 0 {
			link(netmodel.PhysicalLink, sw, h)
		}
	}
	for i := 0; i+1 < len(switches.uids); i++ {
		link(netmodel.PhysicalLink, switches.uids[i], switches.uids[i+1])
	}

	// Temporal churn: status flips and occasional deletes over 3 hours.
	allNodes := append(append(append([]graph.UID{}, vms.uids...), hosts.uids...), vfcs.uids...)
	for step := 0; step < 6; step++ {
		clock.Advance(30 * time.Minute)
		uid := allNodes[rng.Intn(len(allNodes))]
		obj := st.Object(uid)
		if obj.Current() == nil {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			if err := st.Delete(uid); err != nil {
				t.Fatal(err)
			}
		default:
			next := obj.Current().Fields.Clone()
			next["status"] = statuses[rng.Intn(3)]
			if err := st.Update(uid, next); err != nil {
				t.Fatal(err)
			}
		}
	}
	clock.Advance(30 * time.Minute)
	return st, clock
}

// randomRPE draws from templates exercising atoms, chains, repetitions,
// alternations, predicates, and edge-anchored forms.
func randomRPE(rng *rand.Rand) string {
	statuses := []string{"Green", "Red", "Yellow"}
	s := statuses[rng.Intn(3)]
	templates := []string{
		"VM()",
		"VM(status='" + s + "')",
		"Host()",
		"OnServer()",
		"VM()->OnServer()->Host()",
		"VM(status='" + s + "')->OnServer()->Host()",
		"VFC()->VM()->Host()",
		"VNF()->[Vertical()]{1,4}->Host()",
		"VNF()->[Vertical()]{1,6}->Host(status='" + s + "')",
		"Host()->[PhysicalLink()]{1,3}->Switch()",
		"Host()->[PhysicalLink()]{1,4}->Host()",
		"(VM(status='" + s + "')|Host(status='" + s + "'))",
		"[PhysicalLink()]{1,2}",
		"VFC()->[Vertical()]{0,2}->VM()",
		"Container()->OnServer()->Host()",
		"VNF()->VFC()->VM(status='" + s + "')",
	}
	return templates[rng.Intn(len(templates))]
}

// t0 is shared with plan_test.go.
