package watch

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
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
	// pvar names the statement's pathway variable when the statement is
	// Patchable, and is empty otherwise.
	pvar string

	ch chan Notification

	mu       sync.Mutex
	lagging  bool   // queue overflowed; deltas are being dropped
	resume   uint64 // evaluated-through index of the last dropped delta
	needFull bool   // next evaluation must push a full snapshot

	// ans is the answer the subscriber was last sent, and stale reports
	// that an evaluation failed since: the store has moved on from ans,
	// and the next evaluation is a full one, diffed against it. Only the
	// pump touches them, under the hub's lock.
	ans   answer
	stale bool

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
// batch touches the query's class footprint, patching the answer of a
// Patchable statement from the elements the batch touched.
type Hub struct {
	db   *core.DB
	feed Feed

	mu     sync.Mutex
	cursor uint64
	subs   []*Subscription
	// nsubs is len(subs), for the gauge: a scrape must not wait for the
	// pump, which holds mu across a batch's evaluations.
	nsubs atomic.Int64

	done      chan struct{}
	closeOnce sync.Once

	mEvents  *obs.Counter
	mEvals   *obs.Counter
	mPatched *obs.Counter
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
		mPatched: reg.Counter("watch.standing.patched"),
		mSkipped: reg.Counter("watch.standing.skipped"),
		mDeltas:  reg.Counter("watch.standing.deltas"),
		mLagged:  reg.Counter("watch.standing.lagged"),
		mErrors:  reg.Counter("watch.standing.errors"),
	}
	reg.SetHelp("watch.events", "Change-feed events processed by the standing-query pump")
	reg.SetHelp("watch.standing.evals", "Standing-query re-evaluations triggered by footprint hits")
	reg.SetHelp("watch.standing.patched", "Standing-query re-evaluations answered by a patch: only the pathways through the elements the batch touched re-evaluated")
	reg.SetHelp("watch.standing.skipped", "Standing-query re-evaluations skipped: batch outside the class footprint")
	reg.SetHelp("watch.standing.deltas", "Standing-query result deltas pushed to subscribers")
	reg.SetHelp("watch.standing.lagged", "Subscriber queue overflows (watch_lagging)")
	reg.SetHelp("watch.standing.errors", "Standing-query re-evaluations that failed (watch_query_failed)")
	reg.GaugeFunc("watch.standing.queries", func() float64 { return float64(h.nsubs.Load()) })
	go h.pump()
	return h
}

// Register compiles src as a standing query named name, evaluates it
// once for the initial full snapshot (pushed as the first notification),
// and enrolls it for incremental re-evaluation. queueLen bounds the
// subscriber's notification queue (DefaultQueueLen when 0): overflow is
// reported as lagging, never buffered without bound.
func (h *Hub) Register(name, src string, queueLen int) (*Subscription, error) {
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
	if prepared.Patchable() {
		s.pvar = prepared.Query().Vars[0].Name
	}
	// Snapshot + enroll under the pump lock so no batch lands between the
	// initial evaluation and the subscription joining the pump's list. A
	// closed hub is checked under it too: Close takes the list after
	// closing done, so a subscription enrolled here is one Close ends.
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case <-h.done:
		return nil, ErrClosed
	default:
	}
	res, err := prepared.Exec(context.Background())
	if err != nil {
		return nil, err
	}
	s.ans = h.renderRows(res, nil, s.pvar)
	full := &Delta{Query: name, Index: h.cursor, Full: true, Added: s.ans.texts()}
	s.ch <- Notification{Kind: KindDelta, Delta: full}
	h.mDeltas.Add(1)
	h.subs = append(h.subs, s)
	h.nsubs.Store(int64(len(h.subs)))
	return s, nil
}

func (h *Hub) unregister(s *Subscription) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i := slices.Index(h.subs, s); i >= 0 {
		h.subs = slices.Delete(h.subs, i, i+1) // clears the vacated slot
		h.nsubs.Store(int64(len(h.subs)))
	}
}

// Close stops the pump and closes every subscription. Idempotent.
func (h *Hub) Close() {
	h.closeOnce.Do(func() { close(h.done) })
	h.mu.Lock()
	subs := h.subs
	h.subs = nil
	h.nsubs.Store(0)
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
				// A checkpoint contracted the pump's position away:
				// mutations it never saw may have touched anything, so
				// every query re-evaluates in full.
				h.evaluate(batch{full: true}, err.(*CompactedError).Base)
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
			h.evaluate(batchOf(events), next)
			continue
		}
		select {
		case <-ch:
		case <-h.done:
			return
		}
	}
}

// batch is what the pump knows of one feed batch: the classes and the
// elements its events touched, or full when that is unknowable — a
// compaction gap, or an event the feed could not attribute to a class.
type batch struct {
	classes map[string]struct{}
	uids    []graph.UID // sorted, distinct; non-nil unless full
	full    bool
}

// batchOf returns what events touched.
func batchOf(events []Event) batch {
	b := batch{classes: map[string]struct{}{}, uids: make([]graph.UID, 0, len(events))}
	for _, ev := range events {
		if ev.Class == "" {
			return batch{full: true}
		}
		b.classes[ev.Class] = struct{}{}
		b.uids = append(b.uids, graph.UID(ev.UID))
	}
	slices.Sort(b.uids)
	b.uids = slices.Compact(b.uids)
	return b
}

// evaluate moves the cursor to through, the stream index after the
// batch b, and folds b into every registered query, all under one hold
// of the lock: a cursor read under it is evaluated through. Footprint
// misses are counted and skipped; hits re-evaluate (reevaluate)
// through core.Prepared, so under the DB's limits and into its metrics
// and per-digest statistics like any query, and push the delta. A failed
// re-evaluation is counted and pushed as a KindFailed notification; the
// subscription stays enrolled, and its next delta is relative to the
// last result it was sent. A subscriber back from lagging gets the
// maintained answer as a full snapshot at the next batch.
func (h *Hub) evaluate(b batch, through uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cursor = through
	for _, s := range h.subs {
		select {
		case <-s.closed:
			continue
		default:
		}
		s.mu.Lock()
		needFull := s.needFull
		s.mu.Unlock()
		hit := b.full || touches(b.classes, s.footprint)
		if !hit && !needFull {
			h.mSkipped.Add(1)
			continue
		}
		var d *Delta
		if hit || s.stale {
			h.mEvals.Add(1)
			var err error
			if d, err = h.reevaluate(s, b); err != nil {
				s.stale = true
				h.mErrors.Add(1)
				s.push(Notification{Kind: KindFailed, Resume: through, Outcome: exec.Outcome(err), Error: err.Error()}, through)
				continue
			}
		}
		if needFull {
			s.mu.Lock()
			s.needFull = false
			s.mu.Unlock()
			d = &Delta{Full: true, Added: s.ans.texts()}
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

// reevaluate brings s's answer up to the store and returns the change,
// nil when there is none. A patchable statement whose answer is current
// up to this batch is patched; anything else evaluates in full.
func (h *Hub) reevaluate(s *Subscription, b batch) (*Delta, error) {
	if s.pvar != "" && !s.stale && !b.full {
		d, err := h.patch(s, b.uids)
		if err == nil {
			h.mPatched.Add(1)
		}
		return d, err
	}
	res, err := s.prepared.Exec(context.Background())
	if err != nil {
		return nil, err
	}
	next := h.renderRows(res, s.ans.rows, s.pvar)
	d := diff(s.ans.rows, next.rows)
	s.ans, s.stale = next, false
	return d, nil
}

// patch re-evaluates the part of s's answer a write to the elements
// touched can change: the pathways through them. It evaluates the
// statement restricted to those elements, then swaps the pathways
// indexed under them for the ones it found. A row is added when its
// first pathway arrives and removed when its last one goes; only added
// rows are rendered. On error the answer is left as it was. touched is
// batchOf's non-nil slice: empty, it restricts the run to nothing, where
// nil would lift the restriction.
func (h *Hub) patch(s *Subscription, touched []graph.UID) (*Delta, error) {
	a := &s.ans
	a.gen++
	var drop []*pathRow
	for _, u := range touched {
		for _, pr := range a.index[u] {
			if pr.gen != a.gen {
				pr.gen = a.gen
				drop = append(drop, pr)
			}
		}
	}
	res, err := s.prepared.Run(context.Background(), exec.RunOptions{Through: touched, Kept: len(a.paths) - len(drop)})
	if err != nil {
		return nil, err
	}
	var gone map[string]*resultRow // rows whose last pathway was dropped
	for _, pr := range drop {
		a.unlink(pr)
		r := a.rows[pr.row]
		if r.support--; r.support == 0 {
			if gone == nil {
				gone = map[string]*resultRow{}
			}
			gone[pr.row] = r
			delete(a.rows, pr.row)
		}
	}
	d := &Delta{}
	for _, row := range res.Rows {
		key := rowKey(row)
		pw, _ := row.Binding(s.pvar)
		if !a.link(pw, key) {
			continue
		}
		r := a.rows[key]
		if r == nil {
			if r = gone[key]; r != nil {
				delete(gone, key) // back again: unchanged
			} else {
				r = &resultRow{text: h.render(row)}
				d.Added = append(d.Added, r.text)
			}
			a.rows[key] = r
		}
		r.support++
	}
	for _, r := range gone {
		d.Removed = append(d.Removed, r.text)
	}
	if len(d.Added) == 0 && len(d.Removed) == 0 {
		return nil, nil
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	return d, nil
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

// answer is a standing query's maintained result: its rows by key, and,
// for a patchable statement, its pathways by key with an index from each
// element to the pathways through it.
type answer struct {
	rows  map[string]*resultRow
	paths map[string]*pathRow
	index map[graph.UID][]*pathRow
	gen   uint64 // patch's mark for the pathways it drops
}

// resultRow is one row of an answer: its rendering, and how many of the
// answer's pathways produce it (a Select projection's rows repeat).
type resultRow struct {
	text    string
	support int
}

// pathRow is one pathway of a patchable answer: the key of the row it
// produces, its elements, and its position in each element's index list.
type pathRow struct {
	key, row string
	elems    []graph.UID
	slot     []int
	gen      uint64
}

// link adds pathway pw, producing row key row, to the answer; it reports
// false, changing nothing, when the answer already holds pw.
func (a *answer) link(pw plan.Pathway, row string) bool {
	key := pw.Key()
	if _, ok := a.paths[key]; ok {
		return false
	}
	pr := &pathRow{key: key, row: row, elems: pw.Elems, slot: make([]int, len(pw.Elems))}
	a.paths[key] = pr
	for j, u := range pw.Elems {
		pr.slot[j] = len(a.index[u])
		a.index[u] = append(a.index[u], pr)
	}
	return true
}

// unlink removes pathway pr from the answer's pathways and index; its
// row's support is the caller's.
func (a *answer) unlink(pr *pathRow) {
	delete(a.paths, pr.key)
	for j, u := range pr.elems {
		list := a.index[u]
		last := len(list) - 1
		moved := list[last]
		list[pr.slot[j]] = moved
		moved.slot[slices.Index(moved.elems, u)] = pr.slot[j]
		list[last] = nil
		if last == 0 {
			delete(a.index, u)
		} else {
			a.index[u] = list[:last]
		}
	}
}

// texts returns the answer's rendered rows, sorted.
func (a answer) texts() []string {
	out := make([]string, 0, len(a.rows))
	for _, r := range a.rows {
		out = append(out, r.text)
	}
	sort.Strings(out)
	return out
}

// renderRows builds the answer of a full result. A row whose key prev
// already holds takes its rendering from there: a key fixes the UIDs,
// and a UID's class never changes, so an unchanged standing-query result
// renders nothing. With pvar, the pathway variable of a patchable
// statement, the answer indexes each row's pathway too.
func (h *Hub) renderRows(res *exec.Result, prev map[string]*resultRow, pvar string) answer {
	a := answer{rows: make(map[string]*resultRow, len(res.Rows))}
	if pvar != "" {
		a.paths = make(map[string]*pathRow, len(res.Rows))
		a.index = map[graph.UID][]*pathRow{}
	}
	for _, row := range res.Rows {
		key := rowKey(row)
		if pvar != "" {
			if pw, _ := row.Binding(pvar); !a.link(pw, key) {
				continue
			}
		}
		r := a.rows[key]
		if r == nil {
			if old := prev[key]; old != nil {
				r = &resultRow{text: old.text}
			} else {
				r = &resultRow{text: h.render(row)}
			}
			a.rows[key] = r
		}
		r.support++
	}
	return a
}

// rowKey keys a result row: pathway values by their canonical step-UID
// key, scalars by their printed form.
func rowKey(row exec.Row) string {
	vals := row.Values()
	keys := make([]string, len(vals))
	for i, v := range vals {
		if pw, ok := v.(*plan.Pathway); ok {
			keys[i] = pw.Key()
		} else {
			keys[i] = fmt.Sprint(v)
		}
	}
	return strings.Join(keys, "\x1f")
}

// render renders a result row: pathway values through the store,
// scalars by their printed form.
func (h *Hub) render(row exec.Row) string {
	vals := row.Values()
	parts := make([]string, len(vals))
	for i, v := range vals {
		if pw, ok := v.(*plan.Pathway); ok {
			parts[i] = h.db.RenderPath(*pw)
		} else {
			parts[i] = fmt.Sprint(v)
		}
	}
	return strings.Join(parts, " | ")
}

// diff returns the delta between two keyed result sets, or nil when
// they are identical.
func diff(prev, next map[string]*resultRow) *Delta {
	var added, removed []string
	for k, r := range next {
		if _, ok := prev[k]; !ok {
			added = append(added, r.text)
		}
	}
	for k, r := range prev {
		if _, ok := next[k]; !ok {
			removed = append(removed, r.text)
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		return nil
	}
	sort.Strings(added)
	sort.Strings(removed)
	return &Delta{Added: added, Removed: removed}
}
