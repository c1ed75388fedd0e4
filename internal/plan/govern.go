package plan

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// This file is the query-governance layer: per-query cancellation,
// deadlines, and resource guardrails, threaded cooperatively through the
// operator DAG. Nepal serves as the inventory brain of an automation
// loop (§1), so one pathological {1,6}-hop expansion or one stalled
// backend must not take the whole control plane down with it: every
// search loop (engine partial expansion, backend anchor and adjacency
// scans, executor tuple joins) runs a checkpoint against the query's
// Governor and aborts with a typed error when the budget is gone.
//
// Error taxonomy:
//
//	ErrCanceled         — the caller's context was canceled
//	ErrDeadlineExceeded — the context deadline or Limits.MaxDuration passed
//	ErrLimitExceeded    — a resource counter crossed its Limits bound;
//	                      the concrete *LimitError names the counter
//	ErrPanic            — an engine panic converted to an error at the
//	                      evaluation boundary; the concrete *PanicError
//	                      carries the panic value, stack, and — when the
//	                      evaluation was traced — the operator span
var (
	ErrCanceled         = errors.New("plan: query canceled")
	ErrDeadlineExceeded = errors.New("plan: query deadline exceeded")
	ErrLimitExceeded    = errors.New("plan: query resource limit exceeded")
	ErrPanic            = errors.New("plan: query engine panic")
)

// LimitError reports which resource guardrail a query crossed.
// errors.Is(err, ErrLimitExceeded) matches it.
type LimitError struct {
	// Counter names the exhausted budget: "paths" or "edges_scanned".
	Counter  string
	Limit    int64
	Observed int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("plan: query %s limit exceeded (%d observed, limit %d)",
		e.Counter, e.Observed, e.Limit)
}

func (e *LimitError) Unwrap() error { return ErrLimitExceeded }

// PanicError is an engine panic converted to an error at the evaluation
// boundary. errors.Is(err, ErrPanic) matches it.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
	// Span is the operator span under which the panic fired; nil when the
	// evaluation was not traced.
	Span *obs.Span
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("plan: query engine panic: %v", e.Value)
}

func (e *PanicError) Unwrap() error { return ErrPanic }

// contextError maps a context error onto the governance taxonomy.
func contextError(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadlineExceeded
	default:
		return ErrCanceled
	}
}

// Limits bounds one query evaluation. The zero value means unlimited.
type Limits struct {
	// MaxPaths caps the number of result pathways emitted across all
	// variable evaluations of the query.
	MaxPaths int
	// MaxEdgesScanned caps the physical read volume of the Extend
	// operators (edges returned by IncidentEdges probes) across the query.
	MaxEdgesScanned int
	// MaxDuration caps the query's wall time, independent of any context
	// deadline; the earlier of the two applies.
	MaxDuration time.Duration
}

// IsZero reports whether no limit is set.
func (l Limits) IsZero() bool { return l == Limits{} }

// Tighten folds by into l: per field, the smaller nonzero bound wins, so
// by can narrow a bound of l or set one l leaves open, never loosen one.
func (l Limits) Tighten(by Limits) Limits {
	l.MaxPaths = tighter(l.MaxPaths, by.MaxPaths)
	l.MaxEdgesScanned = tighter(l.MaxEdgesScanned, by.MaxEdgesScanned)
	l.MaxDuration = tighter(l.MaxDuration, by.MaxDuration)
	return l
}

// tighter returns the smaller of two bounds where zero (or less) means
// unbounded.
func tighter[T int | time.Duration](a, b T) T {
	if b > 0 && (a <= 0 || b < a) {
		return b
	}
	return a
}

// govCheckInterval amortizes the context poll and clock read inside
// Check: the cheap counter path runs on every checkpoint, the select and
// time.Now only every govCheckInterval-th call.
const govCheckInterval = 64

// Governor enforces one query's cancellation, deadline, and resource
// limits. It is threaded through the executor, the search engine, and
// the backend scan loops; each runs Check (or a counter add) at its loop
// heads and aborts when an error comes back. The first failure is
// sticky: every later call returns the same error.
//
// A nil *Governor is a valid ungoverned query: all methods are no-ops
// costing one nil check, which keeps the ungoverned hot path within
// noise of the pre-governance baseline (plan.eval_ns_per_edge in
// BENCHMARK.json).
//
// A Governor belongs to a single query execution and is not safe for
// concurrent use; the executor evaluates variables sequentially.
type Governor struct {
	ctx         context.Context
	done        <-chan struct{}
	deadline    time.Time
	hasDeadline bool
	lim         Limits

	edges int64
	paths int64
	ticks uint
	err   error
}

// NewGovernor returns a governor over the context and limits, or nil
// when there is nothing to govern (a background-style context and zero
// limits), so ungoverned queries keep the nil fast path.
func NewGovernor(ctx context.Context, lim Limits) *Governor {
	if ctx == nil {
		ctx = context.Background()
	}
	_, hasCtxDeadline := ctx.Deadline()
	if ctx.Done() == nil && !hasCtxDeadline && lim.IsZero() {
		return nil
	}
	g := &Governor{ctx: ctx, done: ctx.Done(), lim: lim}
	if d, ok := ctx.Deadline(); ok {
		g.deadline, g.hasDeadline = d, true
	}
	if lim.MaxDuration > 0 {
		d := time.Now().Add(lim.MaxDuration)
		if !g.hasDeadline || d.Before(g.deadline) {
			g.deadline = d
		}
		g.hasDeadline = true
	}
	return g
}

// Check is the cooperative cancellation checkpoint. It returns nil while
// the query may continue, and the sticky governance error once the
// context is done, the deadline passed, or a limit was exceeded. The
// context poll and clock read are amortized across govCheckInterval
// calls; a checkpoint is therefore cheap enough for per-partial loops.
func (g *Governor) Check() error {
	if g == nil {
		return nil
	}
	if g.err != nil {
		return g.err
	}
	g.ticks++
	if g.ticks%govCheckInterval != 0 {
		return nil
	}
	return g.CheckNow()
}

// CheckNow is Check without amortization: it always polls the context
// and the clock. Backends call it once per physical probe.
func (g *Governor) CheckNow() error {
	if g == nil {
		return nil
	}
	if g.err != nil {
		return g.err
	}
	select {
	case <-g.done:
		g.err = contextError(g.ctx.Err())
		return g.err
	default:
	}
	if g.hasDeadline && !time.Now().Before(g.deadline) {
		g.err = ErrDeadlineExceeded
		return g.err
	}
	return nil
}

// AddEdges charges n scanned edges against the budget, returning the
// limit error when MaxEdgesScanned is crossed.
func (g *Governor) AddEdges(n int) error {
	if g == nil {
		return nil
	}
	if g.err != nil {
		return g.err
	}
	g.edges += int64(n)
	if g.lim.MaxEdgesScanned > 0 && g.edges > int64(g.lim.MaxEdgesScanned) {
		g.err = &LimitError{Counter: "edges_scanned", Limit: int64(g.lim.MaxEdgesScanned), Observed: g.edges}
		return g.err
	}
	return nil
}

// AddPaths charges n emitted pathways against the budget, returning the
// limit error when MaxPaths is crossed.
func (g *Governor) AddPaths(n int) error {
	if g == nil {
		return nil
	}
	if g.err != nil {
		return g.err
	}
	g.paths += int64(n)
	if g.lim.MaxPaths > 0 && g.paths > int64(g.lim.MaxPaths) {
		g.err = &LimitError{Counter: "paths", Limit: int64(g.lim.MaxPaths), Observed: g.paths}
		return g.err
	}
	return nil
}

// Err returns the sticky governance error, if any.
func (g *Governor) Err() error {
	if g == nil {
		return nil
	}
	return g.err
}

// EdgesScanned reports the edges charged so far.
func (g *Governor) EdgesScanned() int64 {
	if g == nil {
		return 0
	}
	return g.edges
}

// PathsEmitted reports the pathways charged so far.
func (g *Governor) PathsEmitted() int64 {
	if g == nil {
		return 0
	}
	return g.paths
}
