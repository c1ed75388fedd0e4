// Package repl is Nepal's primary→follower replication subsystem: the
// primary ships its write-ahead log over HTTP and followers replay it
// through graph.(*Store).ApplyMutation, so replay order equals the
// primary's serialization order and a follower's state at any replayed
// timestamp is byte-identical to the primary's state at that timestamp.
//
// The wire protocol is two endpoints the serving layer mounts:
//
//	GET /v1/wal?from=<index>&wait_ms=<n>&max_bytes=<n>
//	    Long-poll feed of raw WAL frames starting at global stream index
//	    "from". An empty 200 means caught up (the poll waited wait_ms and
//	    nothing arrived); 410 Gone means the position was contracted into
//	    a checkpoint and the follower must bootstrap.
//	GET /v1/wal/snapshot
//	    The latest checkpoint, verbatim, plus the stream index to resume
//	    the feed from (X-Nepal-Wal-Resume). Records the checkpoint
//	    already reflects replay as no-ops (ApplyMutation is idempotent).
//
// Both answer 503 "not_primary" on a node that is an unpromoted replica.
//
// Followers expose a bounded-staleness contract: Status reports the
// applied-through timestamp and record lag, and WaitUntil blocks a read
// that demands a minimum timestamp until the replica catches up or the
// caller's deadline expires (ErrLagging). Node is the one authority on a
// node's role and epoch: the feed, the serving layer and the watch feed
// ask it, and Node.Promote turns a replica into a writable primary that
// provably contains every mutation it applied.
package repl

import (
	"errors"
	"time"
)

// Protocol headers. Servers and followers agree on these; the client
// package re-exports what its users need (it must not import repl's
// server-side machinery, and server imports repl, so the constants live
// here at the bottom of the dependency order).
const (
	// HeaderFrom echoes the requested stream position on feed responses.
	HeaderFrom = "X-Nepal-Wal-From"
	// HeaderNext carries the primary's durable stream end (== records ever
	// logged) on every feed response; followers derive lag from it. It is
	// captured before the batch is read, so it never exceeds what a
	// follower can reach by applying this batch plus later ones — but a
	// max_bytes-capped batch may stop short of it, which is exactly how a
	// partially shipped follower knows it is not yet caught up.
	HeaderNext = "X-Nepal-Wal-Next"
	// HeaderCount carries the number of records in a feed batch.
	HeaderCount = "X-Nepal-Wal-Count"
	// HeaderBase carries the primary's oldest streamable index on 410
	// responses, so a follower knows how far behind it fell.
	HeaderBase = "X-Nepal-Wal-Base"
	// HeaderResume carries the stream index to resume from after loading
	// a snapshot.
	HeaderResume = "X-Nepal-Wal-Resume"
	// HeaderClock carries the primary's committed clock (RFC3339Nano) on
	// feed responses, fenced BEFORE the batch and HeaderNext were
	// captured: every mutation at or before it is covered by HeaderNext,
	// so a follower that has applied through HeaderNext adopts it as its
	// staleness watermark — "no new writes" does not read as "infinitely
	// stale", and the watermark never claims an unshipped commit.
	HeaderClock = "X-Nepal-Wal-Clock"
	// HeaderLogID carries the primary WAL's immutable identity on every
	// feed and snapshot response. A follower pins the first value it sees
	// and parks fatal on a mismatch, so a link repointed at an unrelated
	// primary (or a sibling promoted onto its own log) can never apply
	// misaligned records from a foreign stream.
	HeaderLogID = "X-Nepal-Wal-Log-Id"
	// HeaderAppliedThrough is stamped by replica servers on query
	// responses: every mutation at or before this timestamp is reflected
	// in the answer.
	HeaderAppliedThrough = "X-Nepal-Applied-Through"
	// HeaderEpoch carries the log's primary epoch on every feed and
	// snapshot response. Followers pin it: a higher epoch whose prefix
	// hash matches at the follower's position is a clean failover and is
	// adopted; a lower epoch marks a stale, superseded primary and is
	// rejected. Feed requests echo the pinned value back (epoch= query
	// param), which is how a stale primary first learns it was superseded.
	HeaderEpoch = "X-Nepal-Wal-Epoch"
	// HeaderHash carries the chained prefix hash (hex) at the batch end
	// on feed responses — at the requested position for an empty batch —
	// and at the resume index on snapshot responses. A follower chains the
	// same hash over the records it applies; any disagreement means the
	// two logs forked.
	HeaderHash = "X-Nepal-Wal-Hash"
)

// ClockFormat renders HeaderClock / HeaderAppliedThrough timestamps.
const ClockFormat = time.RFC3339Nano

// ErrLagging reports that a replica could not satisfy a read's minimum
// timestamp within the caller's deadline. The serving layer maps it to
// the typed "replica_lagging" wire error.
var ErrLagging = errors.New("repl: replica lagging behind requested timestamp")

// ErrStopped reports an operation on a follower whose replication loop
// has been stopped without promotion.
var ErrStopped = errors.New("repl: follower stopped")

// ErrDiverged reports that the follower's applied history and the
// primary's log have forked: the chained prefix hashes disagree at the
// follower's position, so the two nodes applied different records under
// the same log identity — the signature of an unfenced split brain. The
// follower parks rather than applying (or re-applying) either side of
// the fork; the operator must rebuild it from the surviving primary.
var ErrDiverged = errors.New("repl: follower history diverged from primary (forked WAL)")
