package plan_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rpe"
	"repro/internal/temporal"
)

// probePanic lets its first `after` adjacency probes through and panics
// on every later one, so the evaluation dies with a partly built arena
// and, past the first completions, half-pathways in flight.
type probePanic struct {
	plan.Accessor
	after int
}

func (a *probePanic) IncidentEdges(view graph.View, node graph.UID, dir plan.Direction, hint *rpe.Atom, c *rpe.Checked, gov *plan.Governor) ([]graph.UID, error) {
	if a.after--; a.after < 0 {
		panic("backend bug")
	}
	return a.Accessor.IncidentEdges(view, node, dir, hint, c, gov)
}

// TestConcurrentEvalPooled runs plans of different automaton widths,
// seeded and anchored, from eight goroutines on one engine while the
// evaluations trade pooled scratch: every result must equal the
// sequential one, pathway order and Metrics included. Each goroutine also
// runs evaluations of the same plans that panic mid-search, and the
// evaluation after each on the same goroutine must be unaffected. The
// sets of the sequential runs are kept throughout: each is built in
// scratch that the concurrent runs then reuse, so its elements and
// validity must still deep-equal a copy taken when it was returned.
func TestConcurrentEvalPooled(t *testing.T) {
	st, d, _ := demoStore(t)
	view := graph.CurrentView(st)
	var plans []*plan.Plan
	var seeds [][]graph.UID
	for _, src := range []string{
		"VNF()->[Vertical()]{1,6}->Host()",
		"Host()->[PhysicalLink()]{1,6}->Host()",
		"VM()->OnServer()->Host()",
		"(VNF()|VFC())->[Vertical()]{1,5}->VM()",
	} {
		_, p := mustPlan(t, st, src)
		plans, seeds = append(plans, p), append(seeds, nil)
	}
	c, _ := mustPlan(t, st, "[PhysicalLink()]{1,4}")
	plans = append(plans, plan.BuildSeeded(c, plan.Forward), plan.BuildSeeded(c, plan.Backward))
	seeds = append(seeds, []graph.UID{d.Host1, d.Host2}, []graph.UID{d.Host2})

	for name, eng := range engines(st) {
		t.Run(name, func(t *testing.T) {
			type answer struct {
				keys []string
				m    plan.Metrics
			}
			eval := func(i int) (*plan.PathwaySet, answer, error) {
				set, m, _, err := eng.EvalWith(view, plans[i], plan.EvalOpts{Seeds: seeds[i]})
				if err != nil {
					return nil, answer{}, err
				}
				var keys []string
				for _, p := range set.Paths() {
					keys = append(keys, p.Key()+" "+p.Validity.String())
				}
				return set, answer{keys, m}, nil
			}
			want := make([]answer, len(plans))
			kept := make([]*plan.PathwaySet, len(plans))
			copies := make([][]plan.Pathway, len(plans))
			for i := range plans {
				set, a, err := eval(i)
				if err != nil || len(a.keys) == 0 {
					t.Fatalf("plan %d: %d pathways, err %v", i, len(a.keys), err)
				}
				want[i], kept[i] = a, set
				for _, p := range set.Paths() {
					copies[i] = append(copies[i], plan.Pathway{Elems: slices.Clone(p.Elems), Validity: slices.Clone(p.Validity)})
				}
			}

			var wg sync.WaitGroup
			var panics atomic.Int64
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for n := 0; n < 30; n++ {
						i := (g + n) % len(plans)
						if n%2 == 0 {
							bad := plan.NewEngine(&probePanic{Accessor: eng.Accessor(), after: n % 5})
							_, _, _, err := bad.EvalWith(view, plans[i], plan.EvalOpts{Seeds: seeds[i]})
							var pe *plan.PanicError
							if errors.As(err, &pe) {
								panics.Add(1)
							} else if err != nil {
								errs <- fmt.Errorf("goroutine %d, plan %d: panicking eval = %v, want *PanicError", g, i, err)
								return
							}
						}
						_, got, err := eval(i)
						if err != nil {
							errs <- fmt.Errorf("goroutine %d, plan %d: %v", g, i, err)
							return
						}
						if fmt.Sprint(got.keys) != fmt.Sprint(want[i].keys) || got.m != want[i].m {
							errs <- fmt.Errorf("goroutine %d, plan %d: got %v %v, want %v %v", g, i, got.keys, got.m, want[i].keys, want[i].m)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if panics.Load() == 0 {
				t.Error("no evaluation panicked: the accessor lets every search finish")
			}
			for i, set := range kept {
				if !reflect.DeepEqual(set.Paths(), copies[i]) {
					t.Errorf("plan %d: the set kept from before the concurrent runs changed under them", i)
				}
			}
		})
	}
}

// fanIn builds a spine (id 1) under tors TOR switches, each with
// hostsPerTOR hosts linked up to it: one pathway from every host to the
// spine.
func fanIn(t *testing.T, tors, hostsPerTOR int) *graph.Store {
	t.Helper()
	st := graph.NewStore(netmodel.MustSchema(), temporal.NewManualClock(t0), nil)
	id := int64(0)
	node := func(class string) graph.UID {
		id++
		uid, err := st.InsertNode(class, graph.Fields{"id": id, "name": fmt.Sprintf("n%d", id), "status": "Active"})
		if err != nil {
			t.Fatal(err)
		}
		return uid
	}
	link := func(src, dst graph.UID) {
		id++
		if _, err := st.InsertEdge(netmodel.PhysicalLink, src, dst, graph.Fields{"id": id}); err != nil {
			t.Fatal(err)
		}
	}
	spine := node("SpineSwitch")
	for i := 0; i < tors; i++ {
		tor := node("TORSwitch")
		link(tor, spine)
		for j := 0; j < hostsPerTOR; j++ {
			link(node("ComputeHost"), tor)
		}
	}
	return st
}

// TestPooledScratchOneEnded evaluates a query anchored at its far end,
// whose forward half is the anchor alone, at 1k and at 4k pathways. Each
// backward half is joined with the forward halves as it completes, so
// the idle state keeps the same halves capacity for either answer. The
// answer equals the oracle's, in the order and with the Metrics and the
// Union counts the join of every stored backward half gave.
func TestPooledScratchOneEnded(t *testing.T) {
	// The pathway order's digest and the Metrics, per answer size, as the
	// join of every stored backward half gave them on both backends.
	want := map[int]string{
		1000: "4952e496faaa9930 anchors=1 edges_scanned=1010 consumed=2020 rejected=0 partials=2022 paths=1000",
		4000: "d88d50cc77914ab8 anchors=1 edges_scanned=4010 consumed=8020 rejected=0 partials=8022 paths=4000",
	}
	for _, name := range []string{"gremlin", "relational"} {
		caps := map[int]int{}
		for _, hosts := range []int{1000, 4000} {
			st := fanIn(t, 10, hosts/10)
			eng := engines(st)[name]
			c, p := mustPlan(t, st, "Host()->[PhysicalLink()]{1,3}->SpineSwitch(id=1)")
			view := graph.CurrentView(st)
			plan.DropIdleStates()
			set, m, root, err := eng.EvalWith(view, p, plan.EvalOpts{Traced: true})
			if err != nil {
				t.Fatal(err)
			}
			caps[hosts] = plan.IdleHalvesCap()
			label := fmt.Sprintf("%s/%d", name, hosts)
			if set.Len() != hosts {
				t.Fatalf("%s: %d pathways, want %d", label, set.Len(), hosts)
			}
			checkTraceInvariants(t, label, set, m, root)
			compareSets(t, label, st, set, plan.ReferenceEval(view, c))
			root.Walk(func(s *obs.Span) {
				if in, out := s.Rows(); s.Name() == "Union" && (in != int64(hosts) || out != int64(hosts)) {
					t.Errorf("%s: Union rows %d in, %d out; want %d pairs and %d pathways", label, in, out, hosts, hosts)
				}
			})
			h := sha256.New()
			for _, p := range set.Paths() {
				fmt.Fprintln(h, p.Key())
			}
			got := fmt.Sprintf("%x %v", h.Sum(nil)[:8], m)
			if got != want[hosts] {
				t.Errorf("%s: order and metrics %s, want %s", label, got, want[hosts])
			}
		}
		if caps[1000] != caps[4000] || caps[1000] == 0 {
			t.Errorf("%s: idle halves capacity %d at 1k pathways, %d at 4k; want one capacity", name, caps[1000], caps[4000])
		}
	}
}
