package plan_test

import (
	"errors"
	"fmt"
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
// evaluation after each on the same goroutine must be unaffected.
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
			eval := func(i int) (answer, error) {
				set, m, _, err := eng.EvalWith(view, plans[i], plan.EvalOpts{Seeds: seeds[i]})
				if err != nil {
					return answer{}, err
				}
				var keys []string
				for _, p := range set.Paths() {
					keys = append(keys, p.Key()+" "+p.Validity.String())
				}
				return answer{keys, m}, nil
			}
			want := make([]answer, len(plans))
			for i := range plans {
				a, err := eval(i)
				if err != nil || len(a.keys) == 0 {
					t.Fatalf("plan %d: %d pathways, err %v", i, len(a.keys), err)
				}
				want[i] = a
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
						got, err := eval(i)
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
		})
	}
}
