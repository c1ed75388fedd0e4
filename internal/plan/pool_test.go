package plan_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/rpe"
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
