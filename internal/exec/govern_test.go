package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/rpe"
	"repro/internal/temporal"
)

func (f *fixture) analyze(t *testing.T, src string) *query.Analyzed {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	a, err := query.Analyze(q, f.st.Schema())
	if err != nil {
		t.Fatalf("analyze %q: %v", src, err)
	}
	return a
}

// routedFixture routes the Phys variable of the §3.4 join to a
// chaos-wrapped relational engine over a second copy of the demo
// topology, returning the fixture, the chaos wrapper, and the query.
func routedFixture(t *testing.T, opts ...chaos.Option) (*fixture, *chaos.Accessor, string) {
	t.Helper()
	f := newFixture(t, "gremlin")
	st2 := graph.NewStore(netmodel.MustSchema(), temporal.NewManualClock(t0), nil)
	if _, err := netmodel.BuildDemo(st2, 1000); err != nil {
		t.Fatal(err)
	}
	ca := chaos.Wrap(relational.New(st2), opts...)
	f.x.Route("Phys", plan.NewEngine(ca))
	src := fmt.Sprintf(`Retrieve Phys
		From PATHS D1, PATHS Phys
		Where D1 MATCHES VNF(id=%d)->[Vertical()]{1,6}->Host()
		And Phys MATCHES PhysicalLink(){1,4}
		And source(Phys)=target(D1)`, f.idOf(f.d.FirewallVNF))
	return f, ca, src
}

func TestOutcomeClassification(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{ErrCanceled, "canceled"},
		{fmt.Errorf("var %q: %w", "P", ErrDeadlineExceeded), "deadline"},
		{&plan.LimitError{Counter: "paths", Limit: 1, Observed: 2}, "limit"},
		{&plan.PanicError{Value: "boom"}, "panic"},
		{errors.New("disk on fire"), "error"},
	}
	for _, c := range cases {
		if got := Outcome(c.err); got != c.want {
			t.Errorf("Outcome(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestRunCanceled(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		a := f.analyze(t, "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()")
		res, err := f.x.Run(ctx, a, RunOptions{})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("pre-canceled Run = %v, want ErrCanceled", err)
		}
		if res != nil {
			t.Error("canceled query must not return a result")
		}
	})
}

func TestLimitsTyped(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		a := f.analyze(t, "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()")
		var le *plan.LimitError

		_, err := f.x.Run(context.Background(), a, RunOptions{Limits: Limits{MaxPaths: 1}})
		if !errors.Is(err, ErrLimitExceeded) || !errors.As(err, &le) || le.Counter != "paths" {
			t.Fatalf("MaxPaths run = %v, want paths LimitError", err)
		}

		_, err = f.x.Run(context.Background(), a, RunOptions{Limits: Limits{MaxEdgesScanned: 1}})
		if !errors.As(err, &le) || le.Counter != "edges_scanned" {
			t.Fatalf("MaxEdgesScanned run = %v, want edges_scanned LimitError", err)
		}

		// Generous limits leave the query untouched.
		res, err := f.x.Run(context.Background(), a, RunOptions{Limits: Limits{MaxPaths: 1 << 20, MaxEdgesScanned: 1 << 20}})
		if err != nil || len(res.Rows) != 3 {
			t.Fatalf("generously limited run = %v rows, err %v; want 3 rows", res, err)
		}
	})
}

func TestMaxDurationAbortsPromptly(t *testing.T) {
	// A slow backend (200µs per probe) under a 1ms budget: the deadline
	// must trip cooperatively within a few probes, not after the full scan.
	st := graph.NewStore(netmodel.MustSchema(), temporal.NewManualClock(t0), nil)
	if _, err := netmodel.BuildDemo(st, 1000); err != nil {
		t.Fatal(err)
	}
	eng := plan.NewEngine(chaos.Wrap(gremlin.New(st), chaos.WithLatency(200*time.Microsecond)))
	x := New(eng)
	f := &fixture{st: st, x: x}
	a := f.analyze(t, "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()")
	start := time.Now()
	_, err := x.Run(context.Background(), a, RunOptions{Limits: Limits{MaxDuration: time.Millisecond}})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("MaxDuration run = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Errorf("1ms budget aborted after %v; cooperative checkpoints too sparse", elapsed)
	}
}

func TestEnginePanicSurfacesAsError(t *testing.T) {
	f := newFixture(t, "gremlin")
	f.x.Default = plan.NewEngine(panicAccessor{inner: f.x.Default.Accessor()})
	a := f.analyze(t, "Retrieve P From PATHS P Where P MATCHES VM()")
	_, err := f.x.Run(context.Background(), a, RunOptions{})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("panicking engine run = %v, want ErrPanic", err)
	}
	if Outcome(err) != "panic" {
		t.Errorf("Outcome = %q, want panic", Outcome(err))
	}
}

// panicAccessor panics on every probe, standing in for a backend bug.
type panicAccessor struct{ inner plan.Accessor }

func (p panicAccessor) Name() string        { return p.inner.Name() }
func (p panicAccessor) Store() *graph.Store { return p.inner.Store() }

func (panicAccessor) AnchorElements(graph.View, *rpe.Checked, *rpe.Atom, *plan.Governor) ([]graph.UID, error) {
	panic("backend bug")
}

func (panicAccessor) IncidentEdges(graph.View, graph.UID, plan.Direction, *rpe.Atom, *rpe.Checked, *plan.Governor) ([]graph.UID, error) {
	panic("backend bug")
}

func TestRoutedEngineErrorPropagates(t *testing.T) {
	// Data-integration mode has no retry or fallback: the routed engine's
	// first failing probe fails the query with that very error.
	f, ca, src := routedFixture(t, chaos.WithFailFirst(1))
	res, err := f.x.Run(context.Background(), f.analyze(t, src), RunOptions{})
	var fault *chaos.Fault
	if !errors.As(err, &fault) || res != nil {
		t.Fatalf("run on a failing routed engine = %v, %v; want the *chaos.Fault and no result", res, err)
	}
	if Outcome(err) != "error" {
		t.Errorf("Outcome = %q, want error", Outcome(err))
	}
	if ca.Calls() != 1 || ca.Faults() != 1 {
		t.Errorf("routed engine saw %d probes, %d faults; want 1 and 1 (no retry)", ca.Calls(), ca.Faults())
	}
	// The outage over, the same executor answers.
	res, err = f.x.Run(context.Background(), f.analyze(t, src), RunOptions{})
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("healed routed run = %v rows, err %v", res, err)
	}
}
