package repl

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/wal"
)

// Node is the one authority on a serving node's replication role — an
// unpromoted replica, a primary, or a fenced (superseded or demoted)
// primary — and on the epoch it serves under. The serving layer, the
// replication Source and the watch feed all ask it; none re-derives the
// role from the follower or the WAL.
//
// The epoch rule has three parts, all here:
//   - a replica serves under the epoch its link is pinned to; a primary
//     under its WAL's durable epoch, or under the one Promote minted in
//     memory when it has no WAL;
//   - Observe: a remote epoch above a positive own epoch proves a newer
//     primary exists, and fences a primary (never a replica, whose era is
//     its primary's and moves with its feed);
//   - Promote mints max(durable, pinned, fencedBy, seen) + 1 — above this
//     log's era, the era the link followed, every era that fenced the
//     node, and the highest era the promoting client has seen — or stays
//     without an epoch when all four are 0. The last bound covers a link
//     that has not polled since its primary was re-promoted: the link
//     still holds the old era, but a client that wrote to the re-promoted
//     primary has seen the new one.
type Node struct {
	st  *graph.Store
	mgr *wal.Manager // nil for an in-memory node
	f   *Follower    // nil on a node that was never a replica

	promoteMu sync.Mutex // serializes Promote

	mu       sync.Mutex
	promoted bool   // f's log has been taken over; the node is a primary
	fenced   bool   // superseded or demoted: reads only until re-promoted
	fencedBy uint64 // the highest epoch seen superseding this node
	epoch    uint64 // the epoch Promote minted, for a node without a WAL
}

// ErrReadOnly is the write gate's answer on an unpromoted replica.
var ErrReadOnly = errors.New("repl: this node is a read replica; send writes to the primary (or promote it via POST /v1/promote)")

// ErrStalePrimary is the write gate's answer on a fenced primary.
var ErrStalePrimary = errors.New("repl: stale primary")

// ErrNotReplica reports a Promote of a primary that is neither fenced
// nor a former replica: there is nothing to promote.
var ErrNotReplica = errors.New("repl: this node is not a replica")

// NewNode returns the role authority over st and its optional WAL. f is
// the node's replication link, nil on a primary; a node built with one
// is a replica until Promote.
func NewNode(st *graph.Store, mgr *wal.Manager, f *Follower) *Node {
	return &Node{st: st, mgr: mgr, f: f}
}

// Replica reports whether the node is an unpromoted read replica.
func (n *Node) Replica() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.replicaLocked()
}

func (n *Node) replicaLocked() bool { return n.f != nil && !n.promoted }

// Epoch returns the primary epoch the node serves under; 0 for a node
// with none (in-memory, never replicated).
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epochLocked()
}

func (n *Node) epochLocked() uint64 {
	switch {
	case n.replicaLocked():
		return n.link().Epoch
	case n.mgr != nil:
		return n.mgr.Epoch()
	}
	return n.epoch
}

// LogID returns the identity of the log the node's stream belongs to:
// its own WAL's (adopted at promotion) on a WAL-backed primary, else the
// log its link pinned.
func (n *Node) LogID() string {
	if n.ownsWAL() {
		return n.mgr.LogID()
	}
	return n.link().LogID
}

// Position returns the node's stream end: the next index a WAL-backed
// primary will log, else the next index its link will apply.
func (n *Node) Position() uint64 {
	if n.ownsWAL() {
		return n.mgr.NextIndex()
	}
	return n.link().Applied
}

// ownsWAL reports whether the node's stream is its own WAL (a WAL-backed
// primary) rather than its link's.
func (n *Node) ownsWAL() bool { return n.mgr != nil && !n.Replica() }

// link returns the replication link's stream state; zero on a node that
// was never a replica.
func (n *Node) link() StreamState {
	if n.f == nil {
		return StreamState{}
	}
	return n.f.StreamState()
}

// Fenced reports whether the node is a fenced primary, and the highest
// epoch known to have superseded it (0 for an operator demote).
func (n *Node) Fenced() (fenced bool, by uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fenced, n.fencedBy
}

// Observe learns a remote epoch — from a follower's feed request, a
// watch subscriber, or a client's write — and reports whether it
// supersedes this node's era (remote > own > 0). A superseded primary
// fences itself before the caller answers, so the next write cannot be
// acked; a replica is never fenced.
func (n *Node) Observe(remote uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if own := n.epochLocked(); own == 0 || remote <= own {
		return false
	}
	if !n.replicaLocked() {
		n.fenced = true
		n.fencedBy = max(n.fencedBy, remote)
	}
	return true
}

// CheckWrite is the write gate: nil when the node may ack a mutation,
// ErrReadOnly on a replica, and an ErrStalePrimary on a fenced primary.
// remote is the epoch the writer has seen (0 for none); a higher one than
// the node's own fences the node first, so the write that would have
// split the brain is the one that proves the supersession.
func (n *Node) CheckWrite(remote uint64) error {
	if n.Replica() {
		return ErrReadOnly
	}
	n.Observe(remote)
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case !n.fenced:
		return nil
	case n.fencedBy > 0:
		return fmt.Errorf("%w: this primary (epoch %d) was superseded by epoch %d; send writes to the current primary",
			ErrStalePrimary, n.epochLocked(), n.fencedBy)
	}
	return fmt.Errorf("%w: this primary was demoted; re-promote it via POST /v1/promote or send writes to the current primary", ErrStalePrimary)
}

// Demote fences a primary without epoch evidence — the operator's form of
// supersession. A replica is already read-only.
func (n *Node) Demote() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.replicaLocked() {
		return fmt.Errorf("%w: it cannot be demoted", ErrReadOnly)
	}
	n.fenced = true
	return nil
}

// Promote makes the node a writable primary under a freshly minted epoch
// and returns its stream position and that epoch. On a replica it stops
// the link and, with a WAL, adopts the followed log's identity, position
// and prefix hash into it (or, when the link never learned them, just
// opens the new era on the node's own log), then checkpoints the
// replicated state so every replayed mutation is durable before the node
// acks a write of its own. Adopting the stream rather than starting a
// fresh log is what makes a later fork by the old primary detectable:
// both logs then claim one identity and one set of positions, and a
// follower comparing prefix hashes sees which era it is on. On a fenced
// primary it lifts the fence. seen is the highest epoch the caller has
// seen (0 for none); the minted epoch is above it too. The node stays a
// replica, rejecting writes, until every step has succeeded; a promoted,
// unfenced node answers idempotently, and any other primary with
// ErrNotReplica.
func (n *Node) Promote(seen uint64) (pos, epoch uint64, err error) {
	n.promoteMu.Lock()
	defer n.promoteMu.Unlock()
	n.mu.Lock()
	replica, fenced, fencedBy := n.replicaLocked(), n.fenced, n.fencedBy
	n.mu.Unlock()
	if !replica && !fenced {
		if n.f == nil {
			return 0, 0, ErrNotReplica
		}
		return n.Position(), n.Epoch(), nil
	}

	var link StreamState
	if n.f != nil {
		link = n.f.Promote()
	}
	var durable uint64
	if n.mgr != nil {
		durable = n.mgr.Epoch()
	}
	if top := max(durable, link.Epoch, fencedBy, seen); top > 0 {
		epoch = top + 1
	}
	if n.mgr != nil {
		if replica && link.LogID != "" && link.HashKnown {
			err = n.mgr.AdoptStream(link.LogID, link.Applied, epoch, link.Hash)
		} else {
			err = n.mgr.SetEpoch(epoch)
		}
		if err == nil && replica {
			err = n.mgr.Checkpoint(n.st)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("repl: promoting at stream position %d: %w", link.Applied, err)
		}
	}
	n.mu.Lock()
	n.promoted = n.f != nil
	n.fenced, n.epoch = false, epoch
	n.mu.Unlock()
	return n.Position(), epoch, nil
}
