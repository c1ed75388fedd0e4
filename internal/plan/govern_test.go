package plan_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/rpe"
)

func TestGovernorNilWhenUngoverned(t *testing.T) {
	if g := plan.NewGovernor(context.Background(), plan.Limits{}); g != nil {
		t.Error("background context with zero limits must yield a nil governor")
	}
	if g := plan.NewGovernor(nil, plan.Limits{}); g != nil {
		t.Error("nil context with zero limits must yield a nil governor")
	}
	// Every method must be a safe no-op on the nil fast path.
	var g *plan.Governor
	if err := g.Check(); err != nil {
		t.Errorf("nil Check = %v", err)
	}
	if err := g.CheckNow(); err != nil {
		t.Errorf("nil CheckNow = %v", err)
	}
	if err := g.AddEdges(1 << 20); err != nil {
		t.Errorf("nil AddEdges = %v", err)
	}
	if err := g.AddPaths(1 << 20); err != nil {
		t.Errorf("nil AddPaths = %v", err)
	}
	if g.Err() != nil || g.EdgesScanned() != 0 || g.PathsEmitted() != 0 {
		t.Error("nil governor must report no error and zero counters")
	}
}

func TestGovernorCancelSticky(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := plan.NewGovernor(ctx, plan.Limits{})
	if g == nil {
		t.Fatal("cancellable context must yield a governor")
	}
	if err := g.CheckNow(); err != nil {
		t.Fatalf("pre-cancel CheckNow = %v", err)
	}
	cancel()
	if err := g.CheckNow(); !errors.Is(err, plan.ErrCanceled) {
		t.Fatalf("post-cancel CheckNow = %v, want ErrCanceled", err)
	}
	// The first error is sticky across every entry point.
	if err := g.AddEdges(1); !errors.Is(err, plan.ErrCanceled) {
		t.Errorf("AddEdges after cancel = %v, want sticky ErrCanceled", err)
	}
	if err := g.AddPaths(1); !errors.Is(err, plan.ErrCanceled) {
		t.Errorf("AddPaths after cancel = %v, want sticky ErrCanceled", err)
	}
	if err := g.Err(); !errors.Is(err, plan.ErrCanceled) {
		t.Errorf("Err = %v, want sticky ErrCanceled", err)
	}
}

func TestGovernorCheckAmortizedStillTrips(t *testing.T) {
	// Check polls the context only every few ticks; a canceled query must
	// still trip within a bounded number of checkpoints.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := plan.NewGovernor(ctx, plan.Limits{})
	var got error
	for i := 0; i < 256 && got == nil; i++ {
		got = g.Check()
	}
	if !errors.Is(got, plan.ErrCanceled) {
		t.Fatalf("256 amortized checkpoints never tripped: %v", got)
	}
}

func TestGovernorDeadline(t *testing.T) {
	// Context deadline maps to ErrDeadlineExceeded (not ErrCanceled).
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	g := plan.NewGovernor(ctx, plan.Limits{})
	deadline, _ := ctx.Deadline()
	time.Sleep(time.Until(deadline) + 5*time.Millisecond)
	if err := g.CheckNow(); !errors.Is(err, plan.ErrDeadlineExceeded) {
		t.Errorf("expired context CheckNow = %v, want ErrDeadlineExceeded", err)
	}
	// Limits.MaxDuration enforces a wall clock bound with no context
	// deadline at all.
	g = plan.NewGovernor(context.Background(), plan.Limits{MaxDuration: time.Millisecond})
	if g == nil {
		t.Fatal("MaxDuration must yield a governor")
	}
	time.Sleep(5 * time.Millisecond)
	if err := g.CheckNow(); !errors.Is(err, plan.ErrDeadlineExceeded) {
		t.Errorf("MaxDuration CheckNow = %v, want ErrDeadlineExceeded", err)
	}
}

func TestGovernorResourceLimits(t *testing.T) {
	g := plan.NewGovernor(context.Background(), plan.Limits{MaxEdgesScanned: 10})
	if err := g.AddEdges(10); err != nil {
		t.Fatalf("AddEdges at the limit = %v, want nil", err)
	}
	err := g.AddEdges(1)
	if !errors.Is(err, plan.ErrLimitExceeded) {
		t.Fatalf("AddEdges over the limit = %v, want ErrLimitExceeded", err)
	}
	var le *plan.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("limit error has no *LimitError in chain: %v", err)
	}
	if le.Counter != "edges_scanned" || le.Limit != 10 || le.Observed != 11 {
		t.Errorf("LimitError = %+v, want edges_scanned 11/10", le)
	}
	// Sticky through unrelated checkpoints.
	if err := g.Check(); !errors.Is(err, plan.ErrLimitExceeded) {
		t.Errorf("Check after limit = %v, want sticky limit error", err)
	}

	g = plan.NewGovernor(context.Background(), plan.Limits{MaxPaths: 1})
	if err := g.AddPaths(1); err != nil {
		t.Fatalf("AddPaths at the limit = %v", err)
	}
	err = g.AddPaths(1)
	if !errors.As(err, &le) || le.Counter != "paths" {
		t.Fatalf("paths overrun = %v, want *LimitError{Counter: paths}", err)
	}
}

func TestEngineGovernedEval(t *testing.T) {
	st, _, _ := demoStore(t)
	_, p := mustPlan(t, st, "VNF()->[Vertical()]{1,6}->Host()")
	view := graph.CurrentView(st)
	for name, eng := range engines(st) {
		t.Run(name, func(t *testing.T) {
			// A pre-canceled context aborts inside the backend probes.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, _, _, err := eng.EvalWith(view, p, plan.EvalOpts{Gov: plan.NewGovernor(ctx, plan.Limits{})})
			if !errors.Is(err, plan.ErrCanceled) {
				t.Errorf("canceled eval = %v, want ErrCanceled", err)
			}

			// Edge budget: the demo expansion scans well over one edge.
			gov := plan.NewGovernor(context.Background(), plan.Limits{MaxEdgesScanned: 1})
			_, _, _, err = eng.EvalWith(view, p, plan.EvalOpts{Gov: gov})
			var le *plan.LimitError
			if !errors.As(err, &le) || le.Counter != "edges_scanned" {
				t.Errorf("edge-limited eval = %v, want edges_scanned LimitError", err)
			}

			// Path budget: the demo has three VNF-to-host chains.
			gov = plan.NewGovernor(context.Background(), plan.Limits{MaxPaths: 1})
			_, _, _, err = eng.EvalWith(view, p, plan.EvalOpts{Gov: gov})
			if !errors.As(err, &le) || le.Counter != "paths" {
				t.Errorf("path-limited eval = %v, want paths LimitError", err)
			}
		})
	}
}

// panicAccessor panics on every probe, standing in for a backend bug.
type panicAccessor struct{ plan.Accessor }

func (panicAccessor) AnchorElements(graph.View, *rpe.Checked, *rpe.Atom, *plan.Governor) ([]graph.UID, error) {
	panic("backend bug")
}

func (panicAccessor) IncidentEdges(graph.View, graph.UID, plan.Direction, *rpe.Atom, *rpe.Checked, *plan.Governor) ([]graph.UID, error) {
	panic("backend bug")
}

func TestEnginePanicConvertedToError(t *testing.T) {
	st, _, _ := demoStore(t)
	_, p := mustPlan(t, st, "VM()->OnServer()->Host()")
	for name, inner := range engines(st) {
		t.Run(name, func(t *testing.T) {
			eng := plan.NewEngine(panicAccessor{inner.Accessor()})
			_, _, err := eng.EvalMetered(graph.CurrentView(st), p)
			if !errors.Is(err, plan.ErrPanic) {
				t.Fatalf("panicking backend eval = %v, want ErrPanic", err)
			}
			var pe *plan.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("panic error has no *PanicError in chain: %v", err)
			}
			if pe.Value != "backend bug" || len(pe.Stack) == 0 {
				t.Errorf("PanicError = value %v, %d stack bytes; want recovered value and stack", pe.Value, len(pe.Stack))
			}

			// Traced evaluations attach the operator span to the panic.
			_, _, _, err = eng.EvalWith(graph.CurrentView(st), p, plan.EvalOpts{Traced: true})
			if !errors.As(err, &pe) || pe.Span == nil {
				t.Errorf("traced panic = %v, want *PanicError with span", err)
			}
		})
	}
}
