package watch

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/wal"
)

// Feed is a readable suffix of the global mutation stream: the substrate
// both the /v1/watch handlers and the standing-query Hub tail. WALFeed
// implements it over any node's log — a primary's, or a replica's, which
// holds its primary's records at the same indexes — with one contract:
// Read(from, ...) serves events at stream indexes ≥ from, a position
// older than BaseIndex answers *CompactedError, and Changed wakes
// long-polls exactly the way wal.Manager.Changed does (grab the channel,
// re-read, then select).
type Feed interface {
	// Read returns up to maxEvents events starting at stream index from,
	// plus the resume token after the last one (== from when caught up).
	// A from older than BaseIndex returns *CompactedError; a from beyond
	// the stream end returns ErrBehind.
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

// WALFeed tails a node's write-ahead log: raw frames out of the segment
// files, decoded and schema-enriched on the way out. Resume tokens are
// WAL stream indexes verbatim — on a replica, its primary's — so they
// survive restarts, checkpoints (down to BaseIndex), segment rotation and
// a replica's promotion for free.
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
	if end := f.mgr.NextIndex(); from > end {
		return nil, from, fmt.Errorf("%w: position %d, log end %d", ErrBehind, from, end)
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
