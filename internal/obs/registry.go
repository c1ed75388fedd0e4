package obs

import (
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a process-wide collection of named metrics. All operations
// are safe for concurrent use; a read (WritePrometheus) observes
// each metric atomically. A nil *Registry is a valid no-op registry:
// metric lookups return nil metrics whose operations are no-ops, so
// instrumented code can hold an optional registry without branching.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
	infos    map[string]map[string]string
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
		infos:    make(map[string]map[string]string),
		help:     make(map[string]string),
	}
}

// Counter returns the named counter, creating it on first use. Safe on a
// nil receiver (returns nil, whose Add is a no-op).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the default latency buckets (milliseconds).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(DefaultLatencyBuckets)
		r.hists[name] = h
	}
	return h
}

// HistogramBuckets returns the named histogram, creating it on first use
// with the given upper bounds instead of the latency defaults — size
// distributions (edges scanned, bytes) use DefaultSizeBuckets here. An
// already-existing histogram is returned as-is, whatever its bounds.
func (r *Registry) HistogramBuckets(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers (or replaces) a derived gauge whose value is
// computed at read time — uptime, queue depths owned by other
// components. The function must be safe for concurrent use. Safe on a
// nil receiver.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// SetInfo registers (or replaces) an info metric: a constant-1 sample
// whose labels carry build/identity metadata (nepal.build_info). Safe on
// a nil receiver.
func (r *Registry) SetInfo(name string, labels map[string]string) {
	if r == nil {
		return
	}
	cp := make(map[string]string, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[name] = cp
}

// SetHelp attaches a human-readable description to a metric name, used
// by the Prometheus exposition's # HELP line. Safe on a nil receiver.
func (r *Registry) SetHelp(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// helpFor returns the registered help text ("" when none).
func (r *Registry) helpFor(name string) string {
	if r == nil {
		return ""
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.help[name]
}

// Include publishes every metric src holds into r under the same names,
// replacing any r held there: afterwards both registries share the
// metric objects, so what src's owners record shows in r's dumps too. It
// is idempotent, and a no-op when src is r or either is nil. Metrics src
// creates after the call are not published.
func (r *Registry) Include(src *Registry) {
	if r == nil || src == nil || r == src {
		return
	}
	src.mu.RLock()
	counters, gauges, hists := maps.Clone(src.counters), maps.Clone(src.gauges), maps.Clone(src.hists)
	funcs, infos, help := maps.Clone(src.funcs), maps.Clone(src.infos), maps.Clone(src.help)
	src.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	maps.Copy(r.counters, counters)
	maps.Copy(r.gauges, gauges)
	maps.Copy(r.hists, hists)
	maps.Copy(r.funcs, funcs)
	maps.Copy(r.infos, infos)
	maps.Copy(r.help, help)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by delta. Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets are the histogram upper bounds used for query and
// operator latencies, in milliseconds: sub-millisecond interactive probes
// through the paper's ~10s mining queries.
var DefaultLatencyBuckets = []float64{
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// DefaultSizeBuckets are the histogram upper bounds for size-like
// distributions (edges scanned per query, bytes appended): decade steps
// from single elements to the ten-million range of full-topology scans.
var DefaultSizeBuckets = []float64{
	1, 10, 100, 1000, 10000, 100000, 1e6, 1e7,
}

// Histogram is a fixed-bucket histogram. Bucket boundaries are upper
// bounds; an implicit +Inf bucket catches the rest. A short mutex guards
// observation so snapshots are exactly consistent (bucket totals always
// equal the count) — histograms are observed per query evaluation, not in
// per-edge hot paths, so the lock is uncontended in practice.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []int64 // len(bounds)+1, last is +Inf
	count  int64
	sum    float64
}

// NewHistogram returns a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// BucketSnapshot is one bucket of a histogram snapshot.
type BucketSnapshot struct {
	UpperBound      float64 // +Inf for the overflow bucket
	Count           int64   // observations in this bucket alone
	CumulativeCount int64   // observations at or below UpperBound
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Buckets []BucketSnapshot
}

// Snapshot returns a consistent copy of the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := HistogramSnapshot{
		Count:   h.count,
		Sum:     h.sum,
		Buckets: make([]BucketSnapshot, len(h.counts)),
	}
	var cum int64
	for i, n := range h.counts {
		cum += n
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out.Buckets[i] = BucketSnapshot{UpperBound: ub, Count: n, CumulativeCount: cum}
	}
	return out
}
