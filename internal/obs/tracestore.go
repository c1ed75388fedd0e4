package obs

import (
	"sort"
	"sync"
	"time"
)

// RequestTrace is one completed request's end-to-end record: its
// identity, outcome, and the root span whose children are the server
// phases (admission, decode, execute, encode), with the engine's
// operator DAG and the WAL append nested below.
type RequestTrace struct {
	ID            string
	Start         time.Time
	Method        string
	Path          string
	Statement     string
	StatementHash string
	// Digest is the literal-masked statement fingerprint shared with the
	// access log, slow log, and the per-digest statistics store.
	Digest       string
	Status       int
	Outcome      string
	Duration     time.Duration
	EdgesScanned int
	Error        string
	Root         *Span
}

// Interesting reports whether the trace should survive tail-sampling
// eviction: errored or slower than the threshold.
func (t *RequestTrace) Interesting(slow time.Duration) bool {
	if t == nil {
		return false
	}
	if t.Outcome != "" && t.Outcome != "ok" {
		return true
	}
	if t.Error != "" {
		return true
	}
	return slow > 0 && t.Duration >= slow
}

// DefaultTraceKeep is the per-ring retention when the server does not
// configure one.
const DefaultTraceKeep = 256

// DefaultSlowTraceThreshold marks a request slow enough to always keep.
const DefaultSlowTraceThreshold = 250 * time.Millisecond

// TraceStore retains recent request traces in memory with tail-sampling:
// two bounded rings, one of the most recent requests regardless of
// outcome and one of "interesting" requests (errored or slow), so a
// burst of healthy traffic cannot flush the failures an operator is
// trying to diagnose. Lookup by ID covers both rings. A nil store
// ignores writes and returns nothing.
type TraceStore struct {
	mu     sync.RWMutex
	keep   int
	slow   time.Duration
	recent []*RequestTrace // ring, oldest first
	kept   []*RequestTrace // interesting ring, oldest first
	byID   map[string]*traceRef
}

// traceRef counts how many rings reference a trace so byID entries are
// evicted only when the last ring slot holding them is overwritten.
type traceRef struct {
	trace *RequestTrace
	refs  int
}

// NewTraceStore returns a store retaining up to keep traces in each
// ring; keep <= 0 uses DefaultTraceKeep. slow <= 0 uses
// DefaultSlowTraceThreshold.
func NewTraceStore(keep int, slow time.Duration) *TraceStore {
	if keep <= 0 {
		keep = DefaultTraceKeep
	}
	if slow <= 0 {
		slow = DefaultSlowTraceThreshold
	}
	return &TraceStore{
		keep: keep,
		slow: slow,
		byID: make(map[string]*traceRef),
	}
}

// Observe records a completed request trace. Safe on a nil store.
func (s *TraceStore) Observe(t *RequestTrace) {
	if s == nil || t == nil || t.ID == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.push(&s.recent, t)
	if t.Interesting(s.slow) {
		s.push(&s.kept, t)
	}
}

// push appends t to the ring, evicting the oldest entry (and its byID
// reference) once the ring is full. Caller holds s.mu.
func (s *TraceStore) push(ring *[]*RequestTrace, t *RequestTrace) {
	if len(*ring) >= s.keep {
		old := (*ring)[0]
		copy(*ring, (*ring)[1:])
		(*ring)[len(*ring)-1] = nil
		*ring = (*ring)[:len(*ring)-1]
		if ref := s.byID[old.ID]; ref != nil {
			ref.refs--
			if ref.refs <= 0 {
				delete(s.byID, old.ID)
			}
		}
	}
	*ring = append(*ring, t)
	ref := s.byID[t.ID]
	if ref == nil {
		ref = &traceRef{trace: t}
		s.byID[t.ID] = ref
	}
	ref.refs++
}

// Get returns the trace with the given ID, or nil. Safe on a nil store.
func (s *TraceStore) Get(id string) *RequestTrace {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ref := s.byID[id]; ref != nil {
		return ref.trace
	}
	return nil
}

// List returns every retained trace, newest first. Safe on a nil store.
func (s *TraceStore) List() []*RequestTrace {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	out := make([]*RequestTrace, 0, len(s.byID))
	for _, ref := range s.byID {
		out = append(out, ref.trace)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].ID > out[j].ID
	})
	return out
}

// Len returns the number of distinct retained traces.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}
