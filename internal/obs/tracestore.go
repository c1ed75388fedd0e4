package obs

import (
	"sort"
	"sync"
	"time"
)

// DefaultTraceKeep is the per-ring retention when the server does not
// configure one.
const DefaultTraceKeep = 256

// DefaultSlowTraceThreshold marks a request slow enough to always keep.
const DefaultSlowTraceThreshold = 250 * time.Millisecond

// TraceStore retains recent requests (with their span trees) in memory
// with tail-sampling: two bounded rings, one of the most recent requests
// regardless of outcome and one of "interesting" requests (errored or
// slow), so a burst of healthy traffic cannot flush the failures an
// operator is trying to diagnose. Lookup by trace ID covers both rings.
// A nil store ignores writes and returns nothing.
type TraceStore struct {
	mu     sync.RWMutex
	keep   int
	slow   time.Duration
	recent []*Request // ring, oldest first
	kept   []*Request // interesting ring, oldest first
	byID   map[string]*traceRef
}

// traceRef counts how many rings reference a trace so byID entries are
// evicted only when the last ring slot holding them is overwritten.
type traceRef struct {
	trace *Request
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

// Observe records a completed request. Safe on a nil store.
func (s *TraceStore) Observe(t *Request) {
	if s == nil || t == nil || t.TraceID == "" {
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
func (s *TraceStore) push(ring *[]*Request, t *Request) {
	if len(*ring) >= s.keep {
		old := (*ring)[0]
		copy(*ring, (*ring)[1:])
		(*ring)[len(*ring)-1] = nil
		*ring = (*ring)[:len(*ring)-1]
		if ref := s.byID[old.TraceID]; ref != nil {
			ref.refs--
			if ref.refs <= 0 {
				delete(s.byID, old.TraceID)
			}
		}
	}
	*ring = append(*ring, t)
	ref := s.byID[t.TraceID]
	if ref == nil {
		ref = &traceRef{trace: t}
		s.byID[t.TraceID] = ref
	}
	ref.refs++
}

// Get returns the trace with the given ID, or nil. Safe on a nil store.
func (s *TraceStore) Get(id string) *Request {
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
func (s *TraceStore) List() []*Request {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	out := make([]*Request, 0, len(s.byID))
	for _, ref := range s.byID {
		out = append(out, ref.trace)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].TraceID > out[j].TraceID
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
