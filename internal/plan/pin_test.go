package plan_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/plan"
	"repro/internal/rpe"
)

// updateOnProbe is a gremlin accessor whose first adjacency probe takes a
// host out of service before answering: a writer replaces the probed
// node — which the search has just consumed — with a version whose
// status the query rejects.
type updateOnProbe struct {
	plan.Accessor
	updated graph.UID
}

func (a *updateOnProbe) IncidentEdges(view graph.View, node graph.UID, dir plan.Direction, hint *rpe.Atom, c *rpe.Checked, gov *plan.Governor) ([]graph.UID, error) {
	if a.updated == 0 {
		a.updated = node
		st := a.Store()
		f := st.Object(node).Current().Fields.Clone()
		f["status"] = "Maintenance"
		errc := make(chan error)
		go func() {
			errc <- st.Mutate(context.Background(), &graph.Mutation{Op: graph.OpUpdate, UID: node, Fields: f})
		}()
		if err := <-errc; err != nil {
			return nil, err
		}
	}
	return a.Accessor.IncidentEdges(view, node, dir, hint, c, gov)
}

// TestValidityUsesConsumedVersions checks that a pathway's validity is
// computed from the object versions its search consumed: an update that
// lands on an element after the search consumed it changes neither the
// pathways nor their validity, which equal those of the same evaluation
// on an identical store that no one writes to.
func TestValidityUsesConsumedVersions(t *testing.T) {
	const src = "Host(status='Active')->[PhysicalLink()]{1,4}->Host(status='Active')"
	// answer evaluates src and returns its pathways, each with its
	// validity, in key order.
	answer := func(acc plan.Accessor) []string {
		t.Helper()
		_, p := mustPlan(t, acc.Store(), src)
		set, _, _, err := plan.NewEngine(acc).EvalWith(graph.CurrentView(acc.Store()), p, plan.EvalOpts{})
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, path := range set.Paths() {
			rows = append(rows, path.Key()+" "+path.Validity.String())
		}
		sort.Strings(rows)
		return rows
	}

	quiet, _, _ := demoStore(t)
	want := answer(gremlin.New(quiet))

	st, d, _ := demoStore(t)
	acc := &updateOnProbe{Accessor: gremlin.New(st)}
	got := answer(acc)
	if acc.updated != d.Host1 && acc.updated != d.Host2 || len(st.Object(acc.updated).Versions) != 2 {
		t.Fatalf("the accessor updated uid %d, want one of the hosts every pathway ends at", acc.updated)
	}
	if len(want) == 0 {
		t.Fatal("no pathways on the quiet store")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("with a host updated mid-search:\n got %v\nwant %v", got, want)
	}
}
