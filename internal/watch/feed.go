package watch

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/repl"
	"repro/internal/wal"
)

// Feed is a readable suffix of the global mutation stream: the substrate
// both the /v1/watch handlers and the standing-query Hub tail. Two
// implementations exist — WALFeed over a primary's log segments and
// FollowerFeed over a replica's applied stream — with one contract:
// Read(from, ...) serves events at stream indexes ≥ from, a position
// older than BaseIndex answers *CompactedError, and Changed wakes
// long-polls exactly the way wal.Manager.Changed does (grab the channel,
// re-read, then select).
type Feed interface {
	// Read returns up to maxEvents events starting at stream index from,
	// plus the resume token after the last one (== from when caught up).
	// A from older than BaseIndex returns *CompactedError; a from beyond
	// the stream end is an error, ErrBehind on an unpromoted replica.
	Read(from uint64, maxEvents int) ([]Event, uint64, error)
	// NextIndex is the index the next mutation will take.
	NextIndex() uint64
	// BaseIndex is the oldest index still servable.
	BaseIndex() uint64
	// Changed returns a channel closed when the stream grows.
	Changed() <-chan struct{}
}

// defaultMaxEvents bounds one Read batch when the caller passes 0.
const defaultMaxEvents = 256

// readBudgetBytes bounds the raw bytes one WAL read pulls per batch.
const readBudgetBytes = 1 << 20

// WALFeed tails a primary's write-ahead log: raw frames out of the
// segment files, decoded and schema-enriched on the way out. Resume
// tokens are WAL stream indexes verbatim, so they survive restarts,
// checkpoints (down to BaseIndex), and segment rotation for free.
type WALFeed struct {
	mgr *wal.Manager
	st  *graph.Store
}

// NewWALFeed returns a feed over st's WAL manager.
func NewWALFeed(mgr *wal.Manager, st *graph.Store) *WALFeed {
	return &WALFeed{mgr: mgr, st: st}
}

func (f *WALFeed) Read(from uint64, maxEvents int) ([]Event, uint64, error) {
	if maxEvents <= 0 {
		maxEvents = defaultMaxEvents
	}
	raw, next, err := f.mgr.ReadRecords(from, readBudgetBytes)
	if err != nil {
		if wal.IsTruncatedStream(err) {
			return nil, from, &CompactedError{Base: f.mgr.BaseIndex()}
		}
		return nil, from, err
	}
	events := make([]Event, 0, min(next-from, uint64(maxEvents)))
	idx := from
	for len(raw) > 0 && len(events) < maxEvents {
		m, n, err := wal.DecodeRecord(raw)
		if err != nil {
			// ReadRecords ships only whole, checksum-verified frames; a
			// decode failure here is real corruption, not a cut.
			return nil, from, fmt.Errorf("watch: undecodable record at stream position %d: %w", idx, err)
		}
		events = append(events, eventFrom(f.st, m, idx))
		raw = raw[n:]
		idx++
	}
	return events, idx, nil
}

func (f *WALFeed) NextIndex() uint64        { return f.mgr.NextIndex() }
func (f *WALFeed) BaseIndex() uint64        { return f.mgr.BaseIndex() }
func (f *WALFeed) Changed() <-chan struct{} { return f.mgr.Changed() }

// FollowerFeed serves the change feed from a replica, so subscribers can
// be offloaded from the primary. Replicated records bypass the local WAL
// (replicas do not log what they replay), so the feed keeps a bounded
// in-memory ring of the most recently applied events, fed by the
// follower's OnApplied tap; ring overflow advances the base, and a
// resume token below it answers compacted exactly like a checkpointed
// primary position.
//
// After the replica is promoted, new writes land in its own (adopted)
// WAL rather than the follower tap; a background pump folds them into
// the ring at their adopted stream indexes, so a subscriber rides
// through the promotion without a token change.
type FollowerFeed struct {
	node *repl.Node
	st   *graph.Store
	mgr  *wal.Manager // the node's own WAL; nil for in-memory replicas
	cap  int

	mu     sync.Mutex
	base   uint64 // stream index of events[0]
	events []Event
	notify chan struct{}

	done      chan struct{}
	closeOnce sync.Once
}

// DefaultRingSize is the replica feed's event retention when the caller
// passes 0.
const DefaultRingSize = 4096

// NewFollowerFeed returns a feed over a replica node's applied stream.
// Its Observe method must be the node's FollowerConfig.OnApplied tap, and
// the feed must exist before the link starts applying, or the ring begins
// at whatever the link had already applied. mgr may be nil; with it, the
// feed follows the node through a promotion.
func NewFollowerFeed(node *repl.Node, st *graph.Store, mgr *wal.Manager, ringSize int) *FollowerFeed {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	ff := &FollowerFeed{
		node: node, st: st, mgr: mgr, cap: ringSize,
		base:   node.Position(),
		notify: make(chan struct{}),
		done:   make(chan struct{}),
	}
	if mgr != nil {
		go ff.pumpWAL()
	}
	return ff
}

// Observe folds one applied mutation into the ring. It is the
// follower-side tap (repl.FollowerConfig.OnApplied) and must be called in
// apply order; a non-contiguous index — a snapshot bootstrap jumped the
// applied position — resets the ring there, and the skipped prefix
// becomes compacted history.
func (ff *FollowerFeed) Observe(index uint64, m *graph.Mutation) {
	ev := eventFrom(ff.st, m, index)
	ff.mu.Lock()
	ff.append(ev)
	ff.mu.Unlock()
}

// append installs one event; callers hold ff.mu.
func (ff *FollowerFeed) append(ev Event) {
	if ev.Index != ff.base+uint64(len(ff.events)) {
		ff.base = ev.Index
		ff.events = ff.events[:0]
	}
	ff.events = append(ff.events, ev)
	if len(ff.events) > ff.cap {
		drop := len(ff.events) - ff.cap
		ff.base += uint64(drop)
		ff.events = append(ff.events[:0], ff.events[drop:]...)
	}
	ff.broadcast()
}

// broadcast wakes Changed waiters; callers hold ff.mu.
func (ff *FollowerFeed) broadcast() {
	close(ff.notify)
	ff.notify = make(chan struct{})
}

// pumpWAL folds post-promotion WAL appends into the ring. Before the
// promotion the node's WAL is empty and Changed never fires; after
// Promote adopts the stream, appends land at exactly the ring's end
// index, so the feed stays dense across the role change.
func (ff *FollowerFeed) pumpWAL() {
	for {
		ch := ff.mgr.Changed()
		ff.syncWAL()
		select {
		case <-ch:
		case <-ff.done:
			return
		}
	}
}

// syncWAL reads any WAL records past the ring end into the ring. When a
// checkpoint has contracted the ring end away (the pump fell behind it),
// the ring restarts at the WAL's base, the rule Observe applies to a
// snapshot jump: the skipped prefix becomes compacted history.
func (ff *FollowerFeed) syncWAL() {
	if ff.node.Replica() {
		return
	}
	for {
		ff.mu.Lock()
		from := ff.base + uint64(len(ff.events))
		ff.mu.Unlock()
		if ff.mgr.NextIndex() <= from {
			return
		}
		raw, _, err := ff.mgr.ReadRecords(from, readBudgetBytes)
		if wal.IsTruncatedStream(err) {
			base := ff.mgr.BaseIndex()
			if base <= from {
				// The segment went before the checkpoint pruned its index
				// entry; the next append retries.
				return
			}
			ff.mu.Lock()
			ff.base, ff.events = base, ff.events[:0]
			ff.broadcast()
			ff.mu.Unlock()
			continue
		}
		if err != nil || len(raw) == 0 {
			return
		}
		idx := from
		for len(raw) > 0 {
			m, n, derr := wal.DecodeRecord(raw)
			if derr != nil {
				return
			}
			ev := eventFrom(ff.st, m, idx)
			ff.mu.Lock()
			ff.append(ev)
			ff.mu.Unlock()
			raw = raw[n:]
			idx++
		}
	}
}

// Close stops the promotion pump. Idempotent.
func (ff *FollowerFeed) Close() {
	ff.closeOnce.Do(func() { close(ff.done) })
}

func (ff *FollowerFeed) Read(from uint64, maxEvents int) ([]Event, uint64, error) {
	if maxEvents <= 0 {
		maxEvents = defaultMaxEvents
	}
	ff.mu.Lock()
	defer ff.mu.Unlock()
	end := ff.base + uint64(len(ff.events))
	if from < ff.base {
		return nil, from, &CompactedError{Base: ff.base}
	}
	if from > end {
		if ff.node.Replica() {
			return nil, from, fmt.Errorf("%w: position %d, applied through %d", ErrBehind, from, end)
		}
		return nil, from, fmt.Errorf("watch: stream position %d is beyond the feed end %d", from, end)
	}
	n := int(end - from)
	if n > maxEvents {
		n = maxEvents
	}
	off := int(from - ff.base)
	out := make([]Event, n)
	copy(out, ff.events[off:off+n])
	return out, from + uint64(n), nil
}

func (ff *FollowerFeed) NextIndex() uint64 {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.base + uint64(len(ff.events))
}

func (ff *FollowerFeed) BaseIndex() uint64 {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.base
}

func (ff *FollowerFeed) Changed() <-chan struct{} {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.notify
}
