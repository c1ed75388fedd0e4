package plan_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
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
	"repro/internal/workload"
)

// TestDifferentialTwoEnded holds goal-directed searches to the oracle:
// the random temporal stores of TestDifferentialRandom, expressions pinned
// at both ends by a unique id (some ends an IN list, one shape anchored in
// the middle so both halves search toward a goal), under current, past
// and range views, on both backends. The ids are drawn from every node the
// store ever held, deleted ones included, so the anchor and goal lookups
// must also find holders the live unique index has forgotten.
func TestDifferentialTwoEnded(t *testing.T) {
	const trials = 40
	aimed := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 3))
		st, clock := randomStore(t, rng)
		engines := map[string]*plan.Engine{
			"gremlin":    plan.NewEngine(gremlin.New(st)),
			"relational": plan.NewEngine(relational.New(st)),
		}
		views := map[string]graph.View{
			"current": graph.CurrentView(st),
			"past":    graph.PointView(st, t0.Add(90*time.Minute)),
			"range":   graph.WindowView(st, temporal.Between(temporal.Nanos(t0.Add(30*time.Minute)), clock.Now())),
		}
		ids := idsByClass(st)
		for q := 0; q < 6; q++ {
			src := twoEndedRPE(rng, ids)
			c, err := rpe.CheckString(src, st.Schema())
			if err != nil {
				t.Fatalf("trial %d: %q: %v", trial, src, err)
			}
			p, err := plan.Build(c, st.Stats())
			if err != nil {
				t.Fatalf("trial %d: %q: %v", trial, src, err)
			}
			if strings.Contains(p.Explain(), "\nGoal: ") {
				aimed++
			}
			for vname, view := range views {
				ref := plan.ReferenceEval(view, c)
				for ename, eng := range engines {
					evalBothWays(t, fmt.Sprintf("trial %d %s/%s %q", trial, ename, vname, src), st, eng, view, p, nil, ref)
				}
			}
		}
	}
	if aimed < trials {
		t.Errorf("only %d of %d plans search toward a goal", aimed, trials*6)
	}
}

// idsByClass returns the id of every node the store ever held, under the
// short names of the classes twoEndedRPE draws from.
func idsByClass(st *graph.Store) map[string][]int64 {
	out := map[string][]int64{}
	lo, hi := st.UIDRange()
	for uid := lo; uid < hi; uid++ {
		obj := st.Elem(uid)
		if obj == nil || obj.IsEdge() {
			continue
		}
		id := st.Object(uid).Versions[0].Fields["id"].(int64)
		for _, cls := range []string{"Host", "Switch", "VM", "VFC", "VNF"} {
			if obj.Class.IsSubclassOf(st.Schema().MustClass(cls)) {
				out[cls] = append(out[cls], id)
			}
		}
	}
	return out
}

// twoEndedRPE draws an expression pinned by unique ids at both ends. One
// id in eight names no node of the class, so some goals are empty.
func twoEndedRPE(rng *rand.Rand, ids map[string][]int64) string {
	id := func(cls string) int64 {
		if rng.Intn(8) == 0 || len(ids[cls]) == 0 {
			return 9000 + rng.Int63n(10)
		}
		return ids[cls][rng.Intn(len(ids[cls]))]
	}
	templates := []func() string{
		func() string {
			return fmt.Sprintf("Host(id=%d)->[PhysicalLink()]{1,4}->Host(id=%d)", id("Host"), id("Host"))
		},
		func() string {
			return fmt.Sprintf("Host(id=%d)->[PhysicalLink()]{1,5}->Host(id IN (%d, %d))", id("Host"), id("Host"), id("Host"))
		},
		func() string {
			return fmt.Sprintf("Host(id IN (%d, %d))->[PhysicalLink()]{1,3}->Switch(id=%d)", id("Host"), id("Host"), id("Switch"))
		},
		func() string {
			return fmt.Sprintf("Host(id IN (%d, %d))->[PhysicalLink()]{1,2}->Switch(id=%d)->[PhysicalLink()]{1,2}->Host(id IN (%d, %d))",
				id("Host"), id("Host"), id("Switch"), id("Host"), id("Host"))
		},
		func() string {
			return fmt.Sprintf("Host(id=%d)->[PhysicalLink()]{1,4}->(Host(id=%d)|Switch(id=%d))", id("Host"), id("Host"), id("Switch"))
		},
		func() string { return fmt.Sprintf("VM(id=%d)->OnServer()->Host(id=%d)", id("VM"), id("Host")) },
		func() string { return fmt.Sprintf("VFC(id=%d)->[Vertical()]{1,3}->Host(id=%d)", id("VFC"), id("Host")) },
		func() string { return fmt.Sprintf("VNF(id=%d)->[Vertical()]{1,6}->Host(id=%d)", id("VNF"), id("Host")) },
		func() string { return fmt.Sprintf("Host(id=%d)->Switch()->Host(id=%d)", id("Host"), id("Host")) },
		func() string {
			return fmt.Sprintf("VFC(id=%d)->VM()->Host(id IN (%d, %d))", id("VFC"), id("Host"), id("Host"))
		},
	}
	return templates[rng.Intn(len(templates))]()
}

// serviceFixture builds the virtualized service graph with its two months
// of churn, returning the store and the instant half-way through them.
func serviceFixture(t *testing.T) (*graph.Store, *workload.Service, time.Time) {
	t.Helper()
	clock := temporal.NewManualClock(t0)
	st := graph.NewStore(netmodel.MustSchema(), clock, nil)
	svc, err := workload.BuildService(st, workload.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	churn := workload.DefaultServiceChurn()
	if err := workload.ApplyServiceChurn(st, svc, clock, churn); err != nil {
		t.Fatal(err)
	}
	return st, svc, t0.Add(time.Duration(churn.Days) * 12 * time.Hour)
}

// fieldOf returns a node's first value of a field.
func fieldOf(st *graph.Store, uid graph.UID, field string) any {
	return st.Object(uid).Versions[0].Fields[field]
}

// TestGoalKeepsOrder holds Host-Host(6) — the paper's two-ended mining
// query — with its far end named by unique id, which the search aims at,
// to the same query with that end named by a field that is not unique,
// which it cannot aim at: both must return the same pathways in the same
// order, now and AT mid-history, on both backends, and aiming must
// explore at least four times fewer partial pathways.
func TestGoalKeepsOrder(t *testing.T) {
	st, svc, mid := serviceFixture(t)
	a, b := svc.Hosts[0], svc.Hosts[len(svc.Hosts)/2+3]
	aimed := fmt.Sprintf("Host(id=%d)->[PhysicalLink()]{1,6}->Host(id=%d)", fieldOf(st, a, "id"), fieldOf(st, b, "id"))
	blind := fmt.Sprintf("Host(id=%d)->[PhysicalLink()]{1,6}->Host(name='%s')", fieldOf(st, a, "id"), fieldOf(st, b, "name"))
	_, pa := mustPlan(t, st, aimed)
	_, pb := mustPlan(t, st, blind)
	if !strings.Contains(pa.Explain(), "Goal: forward toward Host(id=") || strings.Contains(pb.Explain(), "Goal:") {
		t.Fatalf("goals: aimed plan\n%s\nblind plan\n%s", pa.Explain(), pb.Explain())
	}
	for ename, eng := range engines(st) {
		for vname, view := range map[string]graph.View{"now": graph.CurrentView(st), "AT": graph.PointView(st, mid)} {
			got, gm, err := eng.EvalMetered(view, pa)
			if err != nil {
				t.Fatal(err)
			}
			want, wm, err := eng.EvalMetered(view, pb)
			if err != nil {
				t.Fatal(err)
			}
			label := ename + "/" + vname
			if got.Len() == 0 || got.Len() != want.Len() {
				t.Fatalf("%s: %d pathways aimed, %d blind", label, got.Len(), want.Len())
			}
			for i, p := range got.Paths() {
				w := want.Paths()[i]
				if p.Key() != w.Key() || p.Validity.String() != w.Validity.String() {
					t.Fatalf("%s: pathway %d is %s %v aimed, %s %v blind", label, i, p.Render(st), p.Validity, w.Render(st), w.Validity)
				}
			}
			if gm.PartialsExplored*4 > wm.PartialsExplored {
				t.Errorf("%s: %d partials aimed, %d blind: want at least 4x fewer", label, gm.PartialsExplored, wm.PartialsExplored)
			}
			t.Logf("%s: %d pathways; partials %d -> %d, edges %d -> %d", label, got.Len(),
				wm.PartialsExplored, gm.PartialsExplored, wm.EdgesScanned, gm.EdgesScanned)
		}
	}
}

// TestUniqueINAnchor: an IN list on a unique field is one index lookup
// per listed value, not a scan of the class.
func TestUniqueINAnchor(t *testing.T) {
	st, svc, _ := serviceFixture(t)
	src := fmt.Sprintf("Host(id IN (%d, %d, %d))", fieldOf(st, svc.Hosts[1], "id"), fieldOf(st, svc.Hosts[2], "id"), fieldOf(st, svc.Hosts[1], "id"))
	_, p := mustPlan(t, st, src)
	for name, eng := range engines(st) {
		set, m, err := eng.EvalMetered(graph.CurrentView(st), p)
		if err != nil {
			t.Fatal(err)
		}
		if m.AnchorRecords != 2 || set.Len() != 2 {
			t.Errorf("%s: %s selected %d anchor records and %d pathways, want 2 and 2", name, src, m.AnchorRecords, set.Len())
		}
	}
}

// TestGoalSearchGoverned: the goal's breadth-first search counts its edges
// in the metrics and the trace and under the query's edge budget, so a
// budget smaller than the breadth-first search alone aborts the query.
func TestGoalSearchGoverned(t *testing.T) {
	st, svc, _ := serviceFixture(t)
	_, p := mustPlan(t, st, fmt.Sprintf("Host(id=%d)->[PhysicalLink()]{1,6}->Host(id=%d)",
		fieldOf(st, svc.Hosts[0], "id"), fieldOf(st, svc.Hosts[len(svc.Hosts)/2], "id")))
	view := graph.CurrentView(st)
	for name, eng := range engines(st) {
		_, m, span, err := eng.EvalWith(view, p, plan.EvalOpts{Traced: true})
		if err != nil {
			t.Fatal(err)
		}
		var goal *obs.Span
		span.Walk(func(s *obs.Span) {
			if s.Name() == "Goal" {
				goal = s
			}
		})
		if goal == nil {
			t.Fatalf("%s: no Goal span under Eval", name)
		}
		bfs := goal.Counter("edges_scanned")
		if in, out := goal.Rows(); bfs == 0 || in != 1 || out <= in || bfs >= int64(m.EdgesScanned) {
			t.Errorf("%s: Goal span rows %d -> %d, %d edges, of %d in the evaluation", name, in, out, bfs, m.EdgesScanned)
		}
		gov := plan.NewGovernor(context.Background(), plan.Limits{MaxEdgesScanned: int(bfs) - 1})
		_, m, _, err = eng.EvalWith(view, p, plan.EvalOpts{Gov: gov})
		var le *plan.LimitError
		if !errors.As(err, &le) || le.Counter != "edges_scanned" {
			t.Errorf("%s: eval under a %d-edge budget = %v, want an edges_scanned LimitError", name, bfs-1, err)
		}
		if m.PartialsExplored != 0 {
			t.Errorf("%s: %d partials explored after the goal search ran out of budget", name, m.PartialsExplored)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, _, err := eng.EvalWith(view, p, plan.EvalOpts{Gov: plan.NewGovernor(ctx, plan.Limits{})}); !errors.Is(err, plan.ErrCanceled) {
			t.Errorf("%s: canceled eval = %v, want ErrCanceled", name, err)
		}
	}
}

// TestPooledGoalMarks: the goal distances one evaluation marks in its
// pooled element table never reach the next evaluation that takes the
// table. Goroutines evaluate Host-Host(6) toward different goals from one
// anchor, interleaved so each run inherits another goal's table; each
// must return exactly what the same query returns unaimed.
func TestPooledGoalMarks(t *testing.T) {
	st, svc, _ := serviceFixture(t)
	view := graph.CurrentView(st)
	from := fieldOf(st, svc.Hosts[0], "id")
	var aimed, blind []*plan.Plan
	for _, h := range []graph.UID{svc.Hosts[1], svc.Hosts[40], svc.Hosts[170], svc.Hosts[300]} {
		_, p := mustPlan(t, st, fmt.Sprintf("Host(id=%d)->[PhysicalLink()]{1,6}->Host(id=%d)", from, fieldOf(st, h, "id")))
		_, q := mustPlan(t, st, fmt.Sprintf("Host(id=%d)->[PhysicalLink()]{1,6}->Host(name='%s')", from, fieldOf(st, h, "name")))
		aimed, blind = append(aimed, p), append(blind, q)
	}
	for name, eng := range engines(st) {
		keys := func(p *plan.Plan) (string, error) {
			set, _, err := eng.EvalMetered(view, p)
			if err != nil {
				return "", err
			}
			var sb strings.Builder
			for _, pw := range set.Paths() {
				sb.WriteString(pw.Key() + " " + pw.Validity.String() + "\n")
			}
			return sb.String(), nil
		}
		want := make([]string, len(blind))
		for i, q := range blind {
			var err error
			if want[i], err = keys(q); err != nil || want[i] == "" {
				t.Fatalf("%s: goal %d: %q, %v", name, i, want[i], err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; n < 8; n++ {
					i := (g + n) % len(aimed)
					got, err := keys(aimed[i])
					if err == nil && got != want[i] {
						err = fmt.Errorf("goal %d: aimed answer differs from the unaimed one", i)
					}
					if err != nil {
						errs <- fmt.Errorf("%s: goroutine %d: %v", name, g, err)
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
	}
}
