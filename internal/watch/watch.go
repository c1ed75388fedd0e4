// Package watch is Nepal's change-data-capture and standing-query layer:
// the push path over the same WAL stream the replication subsystem pulls.
//
// Two surfaces share one substrate:
//
//   - The durable change feed: a Feed tails the mutation stream — the
//     node's WAL segments, which on a replica hold its primary's records
//     at the same indexes — and decodes raw records into typed,
//     schema-enriched Events. Every event carries its global stream
//     index, which doubles as the resume token: a consumer that
//     reconnects with the index after the last event it processed sees
//     every later mutation exactly as the log ordered them. Positions
//     contracted away by a checkpoint surface as ErrCompacted with the
//     oldest servable index; the consumer re-syncs from a snapshot or a
//     fresh query and resumes from there.
//
//   - Standing queries: a Hub registers compiled pathway queries, derives
//     each one's class footprint from its plan DAG (every atom's class
//     expanded to the full subclass subtree), and re-evaluates a query
//     only when a mutation batch touches its footprint. Result deltas are
//     pushed to subscribers over bounded queues with at-least-once
//     semantics: a slow consumer gets a typed "watch_lagging" control
//     event carrying the resume token — never unbounded memory — and the
//     next delta it receives is a full result snapshot.
//
// Delivery is at-least-once everywhere: a consumer that resumes after a
// sever may see a suffix of events again, but never a gap it is not told
// about and never an interleaving of pre- and post-failover histories
// (events carry the serving epoch; clients reject a lower epoch than
// they have already witnessed).
package watch

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
)

// Control-event ops. Events whose Op is one of these are synthetic
// markers riding the same stream as mutations, not store writes.
const (
	// OpCompacted marks a history gap: events before Index were
	// permanently discarded (checkpoint or ring overflow) and the consumer
	// must re-sync its derived state before trusting later deltas. Index
	// is the fresh resume token.
	OpCompacted = "watch_compacted"
	// OpLagging marks subscriber overflow: deltas after Index were dropped
	// because the subscriber's bounded queue was full. The next delta the
	// subscriber receives is a full result snapshot.
	OpLagging = "watch_lagging"
)

// Event is one schema-enriched mutation (or control marker) on the
// change feed.
type Event struct {
	// Index is the mutation's global WAL stream index — dense, 0-based,
	// identical on the primary and every replica. Index+1 is the resume
	// token after processing this event.
	Index uint64 `json:"index"`
	// Op is the mutation op wire name ("insert_node", "insert_edge",
	// "update", "delete") or a control op (OpCompacted, OpLagging).
	Op string `json:"op"`
	// UID is the mutated object.
	UID int64 `json:"uid,omitempty"`
	// Class is the object's concrete class. The WAL stores it on inserts
	// only; update/delete events are enriched from the store's object
	// table (which retains dead objects).
	Class string `json:"class,omitempty"`
	// Kind is "node" or "edge" (empty when the class cannot be resolved).
	Kind string `json:"kind,omitempty"`
	// Src and Dst are the endpoint node UIDs; edges only.
	Src int64 `json:"src,omitempty"`
	Dst int64 `json:"dst,omitempty"`
	// Fields is the full field map; inserts and updates.
	Fields graph.Fields `json:"fields,omitempty"`
	// At is the transaction timestamp the store stamped the mutation
	// with (zero on control events).
	At time.Time `json:"at"`
	// Epoch is the primary epoch of the log era this event was served
	// under. A consumer that has seen a higher epoch must not accept it.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Control reports whether the event is a synthetic control marker rather
// than a store mutation.
func (e Event) Control() bool {
	return e.Op == OpCompacted || e.Op == OpLagging
}

// ErrCompacted matches CompactedError with errors.Is.
var ErrCompacted = errors.New("watch: stream position compacted away")

// ErrBehind reports a resume token past the end of the node's log. On an
// unpromoted replica it is history read on another node that this
// replica has yet to apply: the subscriber reads another node, or
// retries here later. On a primary the token is no position of its log.
var ErrBehind = errors.New("watch: stream position past the end of this node's log")

// ErrClosed reports the hub or subscription was closed.
var ErrClosed = errors.New("watch: closed")

// CompactedError reports a resume token that predates the oldest event
// the feed can still serve. Base is the fresh token: the consumer
// re-syncs its derived state (snapshot, full query) and resumes there.
type CompactedError struct {
	Base uint64
}

func (e *CompactedError) Error() string {
	return fmt.Sprintf("watch: requested position predates retained history; resume from %d after re-syncing", e.Base)
}

func (e *CompactedError) Is(target error) bool { return target == ErrCompacted }

// IsCompacted reports whether err is a CompactedError.
func IsCompacted(err error) bool { return errors.Is(err, ErrCompacted) }

// eventFrom enriches one decoded mutation into a feed event. The WAL
// record carries the class on inserts only; for updates and deletes the
// class is resolved from the store's object table, which retains objects
// after deletion precisely so history consumers can attribute them.
func eventFrom(st *graph.Store, m *graph.Mutation, index uint64) Event {
	ev := Event{
		Index:  index,
		Op:     m.Op.String(),
		UID:    int64(m.UID),
		Class:  m.Class,
		Src:    int64(m.Src),
		Dst:    int64(m.Dst),
		Fields: m.Fields,
		At:     m.At,
	}
	if obj := st.Elem(m.UID); obj != nil {
		ev.Class = obj.Class.Name
		if obj.IsEdge() {
			ev.Kind = "edge"
			ev.Src, ev.Dst = int64(obj.Src), int64(obj.Dst)
		} else {
			ev.Kind = "node"
		}
	} else if ev.Class != "" {
		if cls, ok := st.Schema().Class(ev.Class); ok {
			if cls.IsEdge() {
				ev.Kind = "edge"
			} else {
				ev.Kind = "node"
			}
		}
	}
	return ev
}
