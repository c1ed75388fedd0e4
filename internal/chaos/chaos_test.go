package chaos_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/rpe"
	"repro/internal/temporal"
)

var t0 = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

func demoStore(t *testing.T) *graph.Store {
	t.Helper()
	st := graph.NewStore(netmodel.MustSchema(), temporal.NewManualClock(t0), nil)
	if _, err := netmodel.BuildDemo(st, 1000); err != nil {
		t.Fatal(err)
	}
	return st
}

func demoPlan(t *testing.T, st *graph.Store) *plan.Plan {
	t.Helper()
	c, err := rpe.CheckString("VNF()->[Vertical()]{1,6}->Host()", st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(c, st.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFailFirstThenHeals(t *testing.T) {
	st := demoStore(t)
	acc := chaos.Wrap(gremlin.New(st), chaos.WithFailFirst(2))
	eng := plan.NewEngine(acc)
	view := graph.CurrentView(st)
	p := demoPlan(t, st)

	for i := 0; i < 2; i++ {
		_, _, err := eng.EvalMetered(view, p)
		if err == nil {
			t.Fatalf("probe %d: injected fault did not surface", i+1)
		}
		var f *chaos.Fault
		if !errors.As(err, &f) {
			t.Fatalf("probe %d: error %v is not a *chaos.Fault", i+1, err)
		}
	}
	set, _, err := eng.EvalMetered(view, p)
	if err != nil {
		t.Fatalf("post-outage eval = %v, want recovery", err)
	}
	if set.Len() != 3 {
		t.Errorf("recovered pathway set = %d, want 3 demo chains", set.Len())
	}
	if acc.Faults() != 2 {
		t.Errorf("Faults = %d, want 2", acc.Faults())
	}
	if acc.Calls() <= acc.Faults() {
		t.Errorf("Calls = %d, must exceed the %d faults once healthy", acc.Calls(), acc.Faults())
	}
}

func TestWrapperTransparency(t *testing.T) {
	// A fault-free wrapper must be invisible: same name, store, and
	// pathway set as the bare backend.
	st := demoStore(t)
	bare := gremlin.New(st)
	acc := chaos.Wrap(bare, chaos.WithLatency(time.Microsecond))
	if acc.Name() != bare.Name() {
		t.Errorf("Name = %q, want %q", acc.Name(), bare.Name())
	}
	if acc.Store() != st {
		t.Error("Store must pass through to the wrapped backend")
	}
	p := demoPlan(t, st)
	want, _, err := plan.NewEngine(bare).EvalMetered(graph.CurrentView(st), p)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := plan.NewEngine(acc).EvalMetered(graph.CurrentView(st), p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Errorf("wrapped eval = %d pathways, bare = %d", got.Len(), want.Len())
	}
}
