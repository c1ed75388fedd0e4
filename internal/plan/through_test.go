package plan_test

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestThroughRandom: an evaluation restricted to a set of elements
// returns exactly the pathways of the full answer that hold one of them,
// validity included, on both backends and in every kind of view. The
// random RPEs include bridges that skip an element and leading or
// trailing edge atoms, whose pathways hold elements no atom consumes.
func TestThroughRandom(t *testing.T) {
	const trials = 40
	found := 0
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
		lo, hi := st.UIDRange()
		for q := 0; q < 6; q++ {
			src := randomRPE(rng)
			c, err := rpe.CheckString(src, st.Schema())
			if err != nil {
				t.Fatalf("random RPE %q failed to check: %v", src, err)
			}
			p, err := plan.Build(c, st.Stats())
			if err != nil {
				continue
			}
			// One to three elements of any kind, dead ones included.
			through := make([]graph.UID, 1+rng.Intn(3))
			for i := range through {
				through[i] = lo + graph.UID(rng.Intn(int(hi-lo)))
			}
			for vname, view := range views {
				want := restrictThrough(plan.ReferenceEval(view, c), through)
				found += want.Len()
				for ename, eng := range engines {
					label := fmt.Sprintf("trial %d %s/%s through %v %q", trial, ename, vname, through, src)
					got, _, _, err := eng.EvalWith(view, p, plan.EvalOpts{Through: through})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					compareSets(t, label, st, got, want)
				}
			}
			// Restricted to nothing, the answer is empty.
			if got, _, _, err := engines["gremlin"].EvalWith(views["current"], p, plan.EvalOpts{Through: []graph.UID{}}); err != nil || got.Len() != 0 {
				t.Fatalf("%q through no element: %d pathways, %v; want none", src, got.Len(), err)
			}
		}
	}
	t.Logf("%d pathways through the chosen elements", found)
	if found < 100 {
		t.Fatalf("only %d pathways ran through the chosen elements: the comparison is nearly empty", found)
	}
}

// restrictThrough keeps the pathways that hold an element of through.
func restrictThrough(set *plan.PathwaySet, through []graph.UID) *plan.PathwaySet {
	out := plan.NewPathwaySet()
	for _, pw := range set.Paths() {
		for _, u := range through {
			if slices.Contains(pw.Elems, u) {
				out.Add(pw)
				break
			}
		}
	}
	return out
}

// TestFootprintCoversUnconsumedElements: a standing query's class
// footprint holds every class of a kind its pathways hold where no atom
// consumes it. Deleting the VM under an OnServer() match (which deletes
// the edge with it), renaming it under source(P).name, or inserting the
// OnVM edge a VFC()->VM() bridge skips all change the answer; a kind
// every position of which an atom consumes adds nothing.
func TestFootprintCoversUnconsumedElements(t *testing.T) {
	sch := netmodel.MustSchema()
	for _, tc := range []struct {
		rpe      string
		has, not []string
	}{
		{"OnServer()", []string{"OnServer", "KVMGuest", "ComputeHost", "TORSwitch"}, []string{"OnVM", "PhysicalLink"}},
		{"OnVM()->OnServer()", []string{"OnVM", "OnServer", "KVMGuest"}, []string{"PhysicalLink"}},
		{"VFC()->VM()->Host()", []string{"Proxy", "KVMGuest", "ComputeHost", "OnVM", "PhysicalLink"}, []string{"TORSwitch", "DNS"}},
		{"VM(status='Red')->OnServer()->Host()", []string{"KVMGuest", "OnServer", "ComputeHost"}, []string{"TORSwitch", "OnVM", "Proxy"}},
	} {
		c, err := rpe.CheckString(tc.rpe, sch)
		if err != nil {
			t.Fatal(err)
		}
		fp := plan.ClassFootprint(sch, c)
		for _, name := range tc.has {
			if !slices.Contains(fp, name) {
				t.Errorf("%s: footprint %v lacks %s", tc.rpe, fp, name)
			}
		}
		for _, name := range tc.not {
			if slices.Contains(fp, name) {
				t.Errorf("%s: footprint %v holds %s", tc.rpe, fp, name)
			}
		}
	}
}
