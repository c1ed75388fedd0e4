package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the span that caused this one (0 for a root).
// Times are nanoseconds since the tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef names a span other spans can be parented to.
type spanRef struct{ id, op int64 }

// tracer keeps spans in memory until the run ends; the benchmark records
// them from its own files, around its calls into each layer.
type tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(id, parent, op int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// root records a parentless span of operation op and returns its ref.
func (t *tracer) root(op int64, name string, start, end time.Time) *spanRef {
	ref := t.reserve(op)
	t.add(ref.id, 0, op, name, start, end)
	return ref
}

// reserve allocates a span id before the span's end is known, so spans
// recorded meanwhile can name it as their parent; finish records it.
func (t *tracer) reserve(op int64) *spanRef { return &spanRef{id: t.nextID.Add(1), op: op} }

func (t *tracer) finish(ref *spanRef, name string, start, end time.Time) {
	t.add(ref.id, 0, ref.op, name, start, end)
}

// child records a span under parent (dropped when no parent is in flight).
func (t *tracer) child(parent *spanRef, name string, start, end time.Time) {
	if parent == nil {
		return
	}
	t.add(t.nextID.Add(1), parent.id, parent.op, name, start, end)
}

// checkSpans verifies the span file's invariants: every non-root span lies
// inside its parent's interval and shares its op id.
func checkSpans(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Op != p.Op {
			return fmt.Errorf("span %d (%s) has op %d, its parent %d (%s) op %d", s.ID, s.Name, s.Op, p.ID, p.Name, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// selfTimes returns, per span name, each span's duration minus the part
// of it its children cover (children of one parent here never overlap:
// a layer call returns before the next starts).
func selfTimes(spans []span) map[string][]time.Duration {
	covered := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered[s.ID]))
	}
	return out
}

// snapshot returns the spans recorded so far, ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans
}

// writeSpans stores the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{spans})
	return errors.Join(err, f.Close())
}
