package watch

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Delta is one standing-query result change, pushed to subscribers.
type Delta struct {
	// Query is the subscription name the delta belongs to.
	Query string `json:"query"`
	// Index is the resume token the result is evaluated through: the
	// stream index after the last mutation folded in. A subscriber that
	// re-subscribes with from=Index misses nothing.
	Index uint64 `json:"index"`
	// Full marks a complete result snapshot (initial registration, or the
	// first delta after a lagging gap): Added holds the whole result set
	// and Removed is empty.
	Full bool `json:"full,omitempty"`
	// Added and Removed are rendered result rows that entered or left the
	// result set since the previous delta.
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
}

// Notification is one item on a subscriber's queue: a result delta, a
// lagging marker reporting that deltas were dropped on the floor because
// the queue was full, or a failed re-evaluation.
type Notification struct {
	// Kind is one of the Kind constants.
	Kind string `json:"kind"`
	// Delta is set when Kind is "delta".
	Delta *Delta `json:"delta,omitempty"`
	// Resume is the stream index of the last evaluation the subscriber
	// missed; set when Kind is "lagging" (the next delta after it is
	// always a full snapshot) or "watch_query_failed" (the next delta is
	// relative to the last result the subscriber did receive).
	Resume uint64 `json:"resume,omitempty"`
	// Outcome classifies a failed re-evaluation the way the statistics
	// store does (exec.Outcome: "deadline", "limit", ...),
	// and Error carries its message; set when Kind is "watch_query_failed".
	Outcome string `json:"outcome,omitempty"`
	Error   string `json:"error,omitempty"`
}

// The Notification kinds.
const (
	KindDelta   = "delta"
	KindLagging = "lagging"
	KindFailed  = "watch_query_failed"
)

// DefaultQueueLen bounds a subscriber's notification queue when the
// caller passes 0 to Register.
const DefaultQueueLen = 16

// Subscription is one registered standing query. Consume notifications
// with Next; Close unregisters.
type Subscription struct {
	hub  *Hub
	name string
	src  string

	prepared  *core.Prepared
	footprint map[string]struct{}

	ch chan Notification

	mu       sync.Mutex
	lagging  bool   // queue overflowed; deltas are being dropped
	resume   uint64 // evaluated-through index of the last dropped delta
	needFull bool   // next evaluation must push a full snapshot
	prev     map[string]string

	closed    chan struct{}
	closeOnce sync.Once
}

// Name returns the subscription's registered name.
func (s *Subscription) Name() string { return s.name }

// Footprint returns the sorted class footprint the subscription is
// filtered by.
func (s *Subscription) Footprint() []string {
	out := make([]string, 0, len(s.footprint))
	for c := range s.footprint {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Next blocks until a notification is available, the subscription is
// closed (ErrClosed), or ctx expires. Delivery is at-least-once: after a
// KindLagging notification the subscriber's derived state is stale, and
// the next KindDelta is a full snapshot to rebuild it.
func (s *Subscription) Next(ctx context.Context) (Notification, error) {
	for {
		// Drain queued notifications before surfacing a lagging gap: the
		// queue holds deltas from before the overflow, still in order.
		select {
		case n := <-s.ch:
			return n, nil
		default:
		}
		s.mu.Lock()
		if s.lagging {
			s.lagging = false
			s.needFull = true
			r := s.resume
			s.mu.Unlock()
			return Notification{Kind: KindLagging, Resume: r}, nil
		}
		s.mu.Unlock()
		select {
		case n := <-s.ch:
			return n, nil
		case <-s.closed:
			return Notification{}, ErrClosed
		case <-ctx.Done():
			return Notification{}, ctx.Err()
		}
	}
}

// Close unregisters the subscription. Idempotent; a blocked Next returns
// ErrClosed.
func (s *Subscription) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.hub.unregister(s)
}

// push enqueues a notification without ever blocking the pump: a full
// queue latches the lagging state and the delta is dropped — the
// subscriber learns about the gap (with the resume token) the moment it
// drains, and the next evaluation pushes a full snapshot.
func (s *Subscription) push(n Notification, through uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lagging {
		s.resume = through
		return
	}
	select {
	case s.ch <- n:
	default:
		s.lagging = true
		s.resume = through
		s.hub.mLagged.Add(1)
	}
}

// Hub is the standing-query engine: it tails a Feed with a single pump
// goroutine, and re-evaluates each registered query only when a mutation
// batch touches the query's class footprint.
type Hub struct {
	db   *core.DB
	feed Feed

	mu     sync.Mutex
	cursor uint64
	subs   []*Subscription

	done      chan struct{}
	closeOnce sync.Once

	mEvents  *obs.Counter
	mEvals   *obs.Counter
	mSkipped *obs.Counter
	mDeltas  *obs.Counter
	mLagged  *obs.Counter
	mErrors  *obs.Counter
}

// NewHub returns a hub tailing feed, with its pump running. The pump
// starts at the feed's current end: standing queries see mutations from
// registration time forward (their initial full snapshot covers the
// history). The hub publishes its counters and gauges into reg.
func NewHub(db *core.DB, feed Feed, reg *obs.Registry) *Hub {
	h := &Hub{
		db:       db,
		feed:     feed,
		cursor:   feed.NextIndex(),
		done:     make(chan struct{}),
		mEvents:  reg.Counter("watch.events"),
		mEvals:   reg.Counter("watch.standing.evals"),
		mSkipped: reg.Counter("watch.standing.skipped"),
		mDeltas:  reg.Counter("watch.standing.deltas"),
		mLagged:  reg.Counter("watch.standing.lagged"),
		mErrors:  reg.Counter("watch.standing.errors"),
	}
	reg.SetHelp("watch.events", "Change-feed events processed by the standing-query pump")
	reg.SetHelp("watch.standing.evals", "Standing-query re-evaluations triggered by footprint hits")
	reg.SetHelp("watch.standing.skipped", "Standing-query re-evaluations skipped: batch outside the class footprint")
	reg.SetHelp("watch.standing.deltas", "Standing-query result deltas pushed to subscribers")
	reg.SetHelp("watch.standing.lagged", "Subscriber queue overflows (watch_lagging)")
	reg.SetHelp("watch.standing.errors", "Standing-query re-evaluations that failed (watch_query_failed)")
	reg.GaugeFunc("watch.standing.queries", func() float64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		return float64(len(h.subs))
	})
	go h.pump()
	return h
}

// Register compiles src as a standing query named name, evaluates it
// once for the initial full snapshot (pushed as the first notification),
// and enrolls it for incremental re-evaluation. queueLen bounds the
// subscriber's notification queue (DefaultQueueLen when 0): overflow is
// reported as lagging, never buffered without bound.
func (h *Hub) Register(name, src string, queueLen int) (*Subscription, error) {
	select {
	case <-h.done:
		return nil, ErrClosed
	default:
	}
	prepared, err := h.db.Prepare(src)
	if err != nil {
		return nil, err
	}
	if queueLen <= 0 {
		queueLen = DefaultQueueLen
	}
	fp := map[string]struct{}{}
	for _, c := range prepared.Footprint() {
		fp[c] = struct{}{}
	}
	s := &Subscription{
		hub:       h,
		name:      name,
		src:       src,
		prepared:  prepared,
		footprint: fp,
		ch:        make(chan Notification, queueLen),
		closed:    make(chan struct{}),
	}
	// Snapshot + enroll under the pump lock so no batch lands between the
	// initial evaluation and the subscription joining the pump's list.
	h.mu.Lock()
	defer h.mu.Unlock()
	res, err := prepared.Exec(context.Background())
	if err != nil {
		return nil, err
	}
	rows := h.renderRows(res, nil)
	s.prev = rows
	full := &Delta{Query: name, Index: h.cursor, Full: true, Added: sortedValues(rows)}
	s.ch <- Notification{Kind: KindDelta, Delta: full}
	h.mDeltas.Add(1)
	h.subs = append(h.subs, s)
	return s, nil
}

func (h *Hub) unregister(s *Subscription) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, x := range h.subs {
		if x == s {
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			return
		}
	}
}

// Close stops the pump and closes every subscription. Idempotent.
func (h *Hub) Close() {
	h.closeOnce.Do(func() { close(h.done) })
	h.mu.Lock()
	subs := append([]*Subscription(nil), h.subs...)
	h.subs = nil
	h.mu.Unlock()
	for _, s := range subs {
		s.closeOnce.Do(func() { close(s.closed) })
	}
}

// pump is the hub's only evaluation goroutine: it folds feed batches
// into the registered standing queries, one batch at a time. With no
// query registered it reads nothing: it moves the cursor to the feed's
// end and waits for the next change. That skips nothing a later
// subscriber needs, because Register's initial snapshot is evaluated
// after every record before the cursor was applied, and the cursor only
// moves forward.
func (h *Hub) pump() {
	for {
		ch := h.feed.Changed()
		h.mu.Lock()
		if len(h.subs) == 0 {
			h.cursor = max(h.cursor, h.feed.NextIndex())
			h.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-h.done:
				return
			}
		}
		from := h.cursor
		h.mu.Unlock()
		events, next, err := h.feed.Read(from, defaultMaxEvents)
		if err != nil {
			if IsCompacted(err) {
				// The pump's position was contracted away (checkpoint or
				// ring overflow): mutations it never saw may have touched
				// any footprint, so every query re-evaluates.
				base := err.(*CompactedError).Base
				h.mu.Lock()
				h.cursor = base
				h.mu.Unlock()
				h.evaluate(nil, base, true)
				continue
			}
			// Transient read failure: back off briefly, then retry.
			select {
			case <-time.After(50 * time.Millisecond):
				continue
			case <-h.done:
				return
			}
		}
		if len(events) > 0 {
			h.mEvents.Add(int64(len(events)))
			classes := map[string]struct{}{}
			unattributed := false
			for _, ev := range events {
				if ev.Class == "" {
					unattributed = true
					continue
				}
				classes[ev.Class] = struct{}{}
			}
			h.mu.Lock()
			h.cursor = next
			h.mu.Unlock()
			h.evaluate(classes, next, unattributed)
			continue
		}
		select {
		case <-ch:
		case <-h.done:
			return
		}
	}
}

// evaluate folds one mutation batch (its touched classes) into every
// registered query: footprint misses are counted and skipped, hits are
// re-executed — through Prepared.Exec, so under the DB's limits and into
// its metrics and per-digest statistics like any query — and diffed. A failed
// re-execution is counted and pushed as a KindFailed notification; the
// subscription stays enrolled, and its next delta is relative to the last
// result it was sent. force bypasses the footprint filter — used when the
// batch's classes are unknowable (compaction gap, unattributed event).
func (h *Hub) evaluate(classes map[string]struct{}, through uint64, force bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.subs {
		select {
		case <-s.closed:
			continue
		default:
		}
		s.mu.Lock()
		needFull := s.needFull
		s.mu.Unlock()
		if !force && !needFull && !touches(classes, s.footprint) {
			h.mSkipped.Add(1)
			continue
		}
		h.mEvals.Add(1)
		res, err := s.prepared.Exec(context.Background())
		if err != nil {
			h.mErrors.Add(1)
			s.push(Notification{Kind: KindFailed, Resume: through, Outcome: exec.Outcome(err), Error: err.Error()}, through)
			continue
		}
		rows := h.renderRows(res, s.prev)
		d := diff(s.prev, rows)
		s.prev = rows
		if needFull {
			s.mu.Lock()
			s.needFull = false
			s.mu.Unlock()
			d = &Delta{Full: true, Added: sortedValues(rows)}
		}
		if d == nil {
			continue
		}
		d.Query = s.name
		d.Index = through
		s.push(Notification{Kind: KindDelta, Delta: d}, through)
		h.mDeltas.Add(1)
	}
}

// touches reports whether any touched class is inside the footprint. An
// empty footprint is conservative: it matches everything.
func touches(classes, footprint map[string]struct{}) bool {
	if len(footprint) == 0 {
		return true
	}
	for c := range classes {
		if _, ok := footprint[c]; ok {
			return true
		}
	}
	return false
}

// renderRows keys and renders a result set: pathway values key by their
// canonical step-UID key and render through the store, scalars by their
// printed form. A row whose key is already in prev reuses its rendering:
// a key fixes the UIDs, and a UID's class never changes, so an unchanged
// standing-query result renders nothing.
func (h *Hub) renderRows(res *exec.Result, prev map[string]string) map[string]string {
	rows := make(map[string]string, len(res.Rows))
	for _, row := range res.Rows {
		keys := make([]string, 0, len(row.Values))
		for _, v := range row.Values {
			if pw, ok := v.(*plan.Pathway); ok {
				keys = append(keys, pw.Key())
			} else {
				keys = append(keys, fmt.Sprint(v))
			}
		}
		key := strings.Join(keys, "\x1f")
		if r, ok := prev[key]; ok {
			rows[key] = r
			continue
		}
		for i, v := range row.Values { // a scalar's key is its rendering
			if pw, ok := v.(*plan.Pathway); ok {
				keys[i] = h.db.RenderPath(*pw)
			}
		}
		rows[key] = strings.Join(keys, " | ")
	}
	return rows
}

// diff returns the delta between two keyed result sets, or nil when
// they are identical.
func diff(prev, next map[string]string) *Delta {
	var added, removed []string
	for k, v := range next {
		if _, ok := prev[k]; !ok {
			added = append(added, v)
		}
	}
	for k, v := range prev {
		if _, ok := next[k]; !ok {
			removed = append(removed, v)
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		return nil
	}
	sort.Strings(added)
	sort.Strings(removed)
	return &Delta{Added: added, Removed: removed}
}

func sortedValues(rows map[string]string) []string {
	out := make([]string, 0, len(rows))
	for _, v := range rows {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
