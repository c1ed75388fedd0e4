// Package chaos provides fault injection for Nepal's execution stack:
// an Accessor wrapper that delays physical probes and fails the first N
// of them. It exists to exercise query governance (deadlines against a
// slow backend) and error propagation under test — the package has no
// role in production paths.
//
// Everything else about the wrapped backend (name, store, results) is
// unchanged, which lets a chaos-wrapped engine stand in anywhere a
// healthy one can.
package chaos

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/rpe"
)

// Fault is one injected probe failure.
type Fault struct {
	// Op names the failed probe: "anchor" or "edges".
	Op string
	// Probe is the 1-based probe number at which the fault fired.
	Probe int64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("chaos: injected fault (%s probe %d)", f.Op, f.Probe)
}

// Accessor wraps a plan.Accessor with fault and latency injection. It is
// safe for concurrent use.
type Accessor struct {
	inner plan.Accessor

	mu        sync.Mutex
	failFirst int64
	latency   time.Duration
	calls     int64
	faults    int64
}

// Option configures a chaos Accessor.
type Option func(*Accessor)

// WithFailFirst fails the first n probes, then heals.
func WithFailFirst(n int) Option {
	return func(a *Accessor) { a.failFirst = int64(n) }
}

// WithLatency sleeps d before every probe, simulating a slow backend.
func WithLatency(d time.Duration) Option {
	return func(a *Accessor) { a.latency = d }
}

// Wrap returns a chaos accessor around inner.
func Wrap(inner plan.Accessor, opts ...Option) *Accessor {
	a := &Accessor{inner: inner}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Name implements plan.Accessor, passing the inner backend's name
// through so traces and metrics are attributed identically.
func (a *Accessor) Name() string { return a.inner.Name() }

// Store implements plan.Accessor.
func (a *Accessor) Store() *graph.Store { return a.inner.Store() }

// Calls reports how many probes the wrapper has seen.
func (a *Accessor) Calls() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.calls
}

// Faults reports how many probes the wrapper failed.
func (a *Accessor) Faults() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.faults
}

// inject applies latency and decides whether this probe fails.
func (a *Accessor) inject(op string) error {
	if a.latency > 0 {
		time.Sleep(a.latency)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls++
	if a.calls > a.failFirst {
		return nil
	}
	a.faults++
	return &Fault{Op: op, Probe: a.calls}
}

// AnchorElements implements plan.Accessor with fault injection.
func (a *Accessor) AnchorElements(view graph.View, c *rpe.Checked, atom *rpe.Atom, gov *plan.Governor) ([]graph.UID, error) {
	if err := a.inject("anchor"); err != nil {
		return nil, err
	}
	return a.inner.AnchorElements(view, c, atom, gov)
}

// IncidentEdges implements plan.Accessor with fault injection.
func (a *Accessor) IncidentEdges(view graph.View, node graph.UID, dir plan.Direction, atom *rpe.Atom, c *rpe.Checked, gov *plan.Governor) ([]graph.UID, error) {
	if err := a.inject("edges"); err != nil {
		return nil, err
	}
	return a.inner.IncidentEdges(view, node, dir, atom, c, gov)
}
