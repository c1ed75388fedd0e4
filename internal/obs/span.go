// Package obs is Nepal's observability layer: operator-DAG tracing
// (Span), a process-wide registry of named counters, gauges, and
// latency histograms, and the per-request record (Request) the server's
// access log and trace store share. It is
// dependency-free — only the standard library — so every other package
// (plan, exec, graph, the backends, core, the CLIs) can import it
// without cycles.
//
// The design follows the shape of per-operator execution statistics in
// distributed path engines: a query evaluation produces a tree of spans
// mirroring the Select/Extend/ExtendBlock/Union operator DAG, each span
// accumulating wall time, rows in/out, and backend probe counts. The §6
// evaluation questions ("where does the bottom-up slow tail come from?",
// "what did edge subclassing eliminate?") are answered by reading the
// counters off this tree instead of timing from the outside.
//
// All Span methods are nil-receiver safe, so instrumented code
// threads an optional *Span without branching at every site; the disabled
// path costs one nil check.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one operator (or phase) of a traced evaluation. Spans accumulate
// rather than measure once: an Extend operator that probes the adjacency
// index 500 times during a search owns one span whose duration and
// counters are the totals across all 500 probes.
type Span struct {
	name   string
	detail string

	mu      sync.Mutex
	started time.Time
	dur     time.Duration
	running bool
	rowsIn  int64
	rowsOut int64
	// counters is a small ordered set (spans carry a handful of names at
	// most); a slice avoids a per-span map allocation on the traced hot
	// path and linear search beats hashing at this size.
	counters []spanCounter
	children []*Span
}

type spanCounter struct {
	name string
	val  int64
}

// NewSpan returns a started root span.
func NewSpan(name, detail string) *Span {
	return &Span{name: name, detail: detail, started: time.Now(), running: true}
}

// StartChild starts a nested span. Safe on a nil receiver (returns nil).
func (s *Span) StartChild(name, detail string) *Span {
	if s == nil {
		return nil
	}
	c := NewSpan(name, detail)
	s.mu.Lock()
	s.addChild(c)
	s.mu.Unlock()
	return c
}

// Child adds a nested accumulator span that is not running: its duration
// grows only through AddDuration. Operators that execute as many short
// interleaved probes (Extend) use this form.
func (s *Span) Child(name, detail string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, detail: detail}
	s.mu.Lock()
	s.addChild(c)
	s.mu.Unlock()
	return c
}

// addChild appends under s.mu, sizing the first allocation for the
// common fan-out (a request root holds a handful of phase spans, an
// evaluation a handful of operators) instead of append's growth chain.
func (s *Span) addChild(c *Span) {
	if s.children == nil {
		s.children = make([]*Span, 0, 8)
	}
	s.children = append(s.children, c)
}

// Finish stops the span clock, folding the running time into the
// accumulated duration. Finishing twice is harmless.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.running {
		s.dur += time.Since(s.started)
		s.running = false
	}
	s.mu.Unlock()
}

// AddDuration folds d into the span's accumulated duration.
func (s *Span) AddDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.dur += d
	s.mu.Unlock()
}

// AddRows accumulates rows flowing into and out of the operator.
func (s *Span) AddRows(in, out int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rowsIn += in
	s.rowsOut += out
	s.mu.Unlock()
}

// Add accumulates a named counter (e.g. "edges_scanned", "probes").
func (s *Span) Add(counter string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.counters {
		if s.counters[i].name == counter {
			s.counters[i].val += n
			s.mu.Unlock()
			return
		}
	}
	if s.counters == nil {
		// One sized allocation instead of append's 1→2→4 growth chain.
		s.counters = make([]spanCounter, 0, 4)
	}
	s.counters = append(s.counters, spanCounter{name: counter, val: n})
	s.mu.Unlock()
}

// SetDetail replaces the span's detail string.
func (s *Span) SetDetail(detail string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.detail = detail
	s.mu.Unlock()
}

// Name returns the span's operator name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Detail returns the span's detail string.
func (s *Span) Detail() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.detail
}

// Duration returns the accumulated duration; for a still-running span it
// includes the time since start.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return s.dur + time.Since(s.started)
	}
	return s.dur
}

// Rows returns the accumulated rows in and out.
func (s *Span) Rows() (in, out int64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rowsIn, s.rowsOut
}

// Counter returns one named counter's value.
func (s *Span) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.counters {
		if s.counters[i].name == name {
			return s.counters[i].val
		}
	}
	return 0
}

// CounterOK returns one named counter's value and whether it is set,
// without allocating (unlike Counters). Per-request readers — the
// trace-stats fold that runs on every observed query — use this form.
func (s *Span) CounterOK(name string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.counters {
		if s.counters[i].name == name {
			return s.counters[i].val, true
		}
	}
	return 0, false
}

// Counters returns a copy of the span's named counters.
func (s *Span) Counters() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counters))
	for _, c := range s.counters {
		out[c.name] = c.val
	}
	return out
}

// Children returns the span's nested spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Walk visits the span and all descendants depth-first.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children() {
		c.Walk(fn)
	}
}

// Annotations renders the span's measurements as a one-line suffix:
// time, rows in/out when set, then named counters in sorted order.
func (s *Span) Annotations() string {
	if s == nil {
		return ""
	}
	var parts []string
	parts = append(parts, "time="+FormatDuration(s.Duration()))
	in, out := s.Rows()
	if in != 0 {
		parts = append(parts, fmt.Sprintf("rows_in=%d", in))
	}
	parts = append(parts, fmt.Sprintf("rows_out=%d", out))
	cs := s.Counters()
	names := make([]string, 0, len(cs))
	for k := range cs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", k, cs[k]))
	}
	return strings.Join(parts, " ")
}

// RenderTree renders the span tree as an indented text block, one span
// per line with its annotations.
func RenderTree(s *Span) string {
	var sb strings.Builder
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		if s == nil {
			return
		}
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(s.Name())
		if d := s.Detail(); d != "" {
			sb.WriteString(" " + d)
		}
		sb.WriteString("  [" + s.Annotations() + "]\n")
		for _, c := range s.Children() {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return sb.String()
}

// FormatDuration renders a duration compactly for annotation suffixes.
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}
