// Package stats aggregates per-statement workload statistics, in the
// style of pg_stat_statements: a bounded top-K store accumulates calls,
// outcomes, latency, and scan volume per statement digest — the
// statement's shape, normalized and hashed by query.Fingerprint. The
// store is the rollup layer above the per-request telemetry from
// internal/obs — the access log and trace store carry the same digest,
// so one hot statement can be chased across every surface.
package stats

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DefaultMaxStatements is the default top-K cardinality cap: the store
// tracks at most this many distinct digests before folding the coldest
// into the "other" bucket.
const DefaultMaxStatements = 256

// OtherDigest is the reserved digest naming the overflow bucket that
// absorbs evicted statements.
const OtherDigest = "other"

// Observation is one completed statement execution to record.
type Observation struct {
	Duration time.Duration
	// Outcome is exec.Outcome(err): "ok", "canceled", "deadline",
	// "limit", "panic", or "error".
	Outcome string
	Edges   int64
	Rows    int64
}

// entry accumulates one digest's aggregates. The counters are atomics
// and the latency histogram has its own short mutex, so the hot path
// never blocks on a store-wide lock once the digest is tracked — the
// same accumulator discipline the per-request telemetry uses.
type entry struct {
	digest string
	text   string

	calls     atomic.Int64
	ok        atomic.Int64
	canceled  atomic.Int64
	deadline  atomic.Int64
	limitHits atomic.Int64
	errors    atomic.Int64
	totalNS   atomic.Int64
	edges     atomic.Int64
	rows      atomic.Int64
	cacheHits atomic.Int64

	lat *obs.Histogram
}

func newEntry(digest, text string) *entry {
	return &entry{digest: digest, text: text, lat: obs.NewHistogram(obs.DefaultLatencyBuckets)}
}

func (e *entry) record(o Observation) {
	e.calls.Add(1)
	switch o.Outcome {
	case "", "ok":
		e.ok.Add(1)
	case "canceled":
		e.canceled.Add(1)
	case "deadline":
		e.deadline.Add(1)
	case "limit":
		e.limitHits.Add(1)
	default: // "error", "panic", and anything future
		e.errors.Add(1)
	}
	e.totalNS.Add(int64(o.Duration))
	e.edges.Add(o.Edges)
	e.rows.Add(o.Rows)
	e.lat.Observe(float64(o.Duration) / float64(time.Millisecond))
}

// absorb folds another entry's totals into e (the eviction path into
// the "other" bucket). The source entry is no longer concurrently
// written when this runs — it has been unlinked under the write lock.
func (e *entry) absorb(src *entry) {
	e.calls.Add(src.calls.Load())
	e.ok.Add(src.ok.Load())
	e.canceled.Add(src.canceled.Load())
	e.deadline.Add(src.deadline.Load())
	e.limitHits.Add(src.limitHits.Load())
	e.errors.Add(src.errors.Load())
	e.totalNS.Add(src.totalNS.Load())
	e.edges.Add(src.edges.Load())
	e.rows.Add(src.rows.Load())
	e.cacheHits.Add(src.cacheHits.Load())
	e.lat.Merge(src.lat.Snapshot())
}

func (e *entry) snapshot() StatementStats {
	s := StatementStats{
		Digest:        e.digest,
		Statement:     e.text,
		Calls:         e.calls.Load(),
		OK:            e.ok.Load(),
		Canceled:      e.canceled.Load(),
		Deadline:      e.deadline.Load(),
		LimitHits:     e.limitHits.Load(),
		Errors:        e.errors.Load(),
		TotalMS:       float64(e.totalNS.Load()) / float64(time.Millisecond),
		EdgesScanned:  e.edges.Load(),
		Rows:          e.rows.Load(),
		PlanCacheHits: e.cacheHits.Load(),
	}
	if s.Calls > 0 {
		s.MeanMS = s.TotalMS / float64(s.Calls)
		s.P50MS = e.lat.Quantile(0.50)
		s.P95MS = e.lat.Quantile(0.95)
		s.P99MS = e.lat.Quantile(0.99)
	}
	return s
}

// StatementStats is the externally visible aggregate for one digest —
// the row shape served by GET /v1/stats/statements.
type StatementStats struct {
	Digest        string  `json:"digest"`
	Statement     string  `json:"statement"`
	Calls         int64   `json:"calls"`
	OK            int64   `json:"ok"`
	Canceled      int64   `json:"canceled,omitempty"`
	Deadline      int64   `json:"deadline,omitempty"`
	LimitHits     int64   `json:"limit,omitempty"`
	Errors        int64   `json:"errors,omitempty"`
	TotalMS       float64 `json:"total_ms"`
	MeanMS        float64 `json:"mean_ms"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	EdgesScanned  int64   `json:"edges_scanned"`
	Rows          int64   `json:"rows"`
	PlanCacheHits int64   `json:"plan_cache_hits"`
}

// Snapshot is a point-in-time view of the whole store.
type Snapshot struct {
	Statements []StatementStats `json:"statements"`
	// Other aggregates every digest evicted to cap cardinality; present
	// only once at least one eviction happened.
	Other *StatementStats `json:"other,omitempty"`
	// Tracked is the number of digests currently held (excluding Other).
	Tracked int `json:"tracked"`
	// Evicted counts digests folded into Other since the last reset.
	Evicted int64 `json:"evicted"`
}

// Sort orders accepted by Store.Snapshot.
const (
	SortTotalTime = "total_time"
	SortCalls     = "calls"
	SortMeanTime  = "mean_time"
)

// Store is a bounded per-digest statement statistics accumulator. The
// digest map is guarded by an RWMutex taken shared on the hot path (a
// tracked digest needs only a read lock plus atomic adds); the write
// lock is taken only to admit a new digest, evict into the overflow
// bucket, or reset. A nil *Store is valid and ignores everything, so
// callers can wire it unconditionally.
type Store struct {
	mu      sync.RWMutex
	max     int
	entries map[string]*entry
	other   *entry
	evicted atomic.Int64
}

// NewStore returns a store tracking at most max digests (plus the
// "other" overflow bucket); max <= 0 uses DefaultMaxStatements. The
// store's own health — cardinality actually tracked and digests evicted
// into "other" — is read into reg at scrape time (nil publishes nothing).
func NewStore(max int, reg *obs.Registry) *Store {
	if max <= 0 {
		max = DefaultMaxStatements
	}
	s := &Store{max: max, entries: make(map[string]*entry)}
	reg.SetHelp("stats.statements_tracked", "Distinct statement digests currently tracked by the statistics store.")
	reg.GaugeFunc("stats.statements_tracked", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.entries))
	})
	reg.SetHelp("stats.statements_evicted", "Statement digests evicted into the 'other' bucket to cap cardinality.")
	reg.GaugeFunc("stats.statements_evicted", func() float64 { return float64(s.evicted.Load()) })
	return s
}

// Observe records one execution of the statement identified by digest.
// text is the normalized statement, retained on first sight.
func (s *Store) Observe(digest, text string, o Observation) {
	if s == nil || digest == "" {
		return
	}
	s.entryFor(digest, text).record(o)
}

// CacheHit attributes one plan-cache hit to digest without counting a
// call (the execution that follows records the call itself).
func (s *Store) CacheHit(digest, text string) {
	if s == nil || digest == "" {
		return
	}
	s.entryFor(digest, text).cacheHits.Add(1)
}

// entryFor resolves (or admits) the entry for digest, evicting the
// coldest tracked digest into the overflow bucket when the store is at
// capacity.
func (s *Store) entryFor(digest, text string) *entry {
	s.mu.RLock()
	e := s.entries[digest]
	s.mu.RUnlock()
	if e != nil {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e = s.entries[digest]; e != nil {
		return e
	}
	if len(s.entries) >= s.max {
		s.evictColdestLocked()
	}
	e = newEntry(digest, text)
	s.entries[digest] = e
	return e
}

// evictColdestLocked unlinks the entry with the least accumulated time
// (ties broken by fewest calls) and folds it into the overflow bucket.
// New hot statements therefore still surface after the store fills —
// the same dealloc policy pg_stat_statements uses.
func (s *Store) evictColdestLocked() {
	var victim *entry
	for _, e := range s.entries {
		if victim == nil {
			victim = e
			continue
		}
		vt, et := victim.totalNS.Load(), e.totalNS.Load()
		if et < vt || (et == vt && e.calls.Load() < victim.calls.Load()) {
			victim = e
		}
	}
	if victim == nil {
		return
	}
	delete(s.entries, victim.digest)
	if s.other == nil {
		s.other = newEntry(OtherDigest, "")
	}
	s.other.absorb(victim)
	s.evicted.Add(1)
}

// Snapshot returns the current aggregates ordered by sortBy
// (SortTotalTime when empty or unrecognized), truncated to limit rows
// when limit > 0. Safe on a nil receiver.
func (s *Store) Snapshot(sortBy string, limit int) Snapshot {
	if s == nil {
		return Snapshot{}
	}
	s.mu.RLock()
	rows := make([]StatementStats, 0, len(s.entries))
	for _, e := range s.entries {
		rows = append(rows, e.snapshot())
	}
	var other *StatementStats
	if s.other != nil {
		o := s.other.snapshot()
		other = &o
	}
	evicted := s.evicted.Load()
	s.mu.RUnlock()

	less := func(a, b StatementStats) bool { return a.TotalMS > b.TotalMS }
	switch sortBy {
	case SortCalls:
		less = func(a, b StatementStats) bool { return a.Calls > b.Calls }
	case SortMeanTime:
		less = func(a, b StatementStats) bool { return a.MeanMS > b.MeanMS }
	}
	sort.Slice(rows, func(i, j int) bool {
		if less(rows[i], rows[j]) != less(rows[j], rows[i]) {
			return less(rows[i], rows[j])
		}
		return rows[i].Digest < rows[j].Digest // stable tie-break
	})
	tracked := len(rows)
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return Snapshot{Statements: rows, Other: other, Tracked: tracked, Evicted: evicted}
}

// Reset discards every aggregate, including the overflow bucket and
// eviction count. Safe on a nil receiver.
func (s *Store) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.entries = make(map[string]*entry)
	s.other = nil
	s.evicted.Store(0)
	s.mu.Unlock()
}
