package repl

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Source is the primary side of replication: HTTP handlers over a node's
// WAL that serve the record feed and the checkpoint bootstrap. The
// serving layer mounts ServeWAL at GET /v1/wal and ServeSnapshot at
// GET /v1/wal/snapshot on any WAL-backed server; they serve only while
// the node is a primary (fenced or not). An unpromoted replica's WAL is
// its primary's log, but replication does not cascade: there both answer
// 503 "not_primary" before naming any log, so a follower of a replica
// pins nothing.
type Source struct {
	node *Node

	mBatches    *obs.Counter
	mRecords    *obs.Counter
	mBytes      *obs.Counter
	mSnapshots  *obs.Counter
	mTruncated  *obs.Counter
	mDiverged   *obs.Counter
	mStaleEpoch *obs.Counter
	gWaiters    *obs.Gauge

	drain <-chan struct{}
}

// maxBatchBytes caps one feed response body. A batch always carries at
// least one whole record, so a single oversized record still ships.
const maxBatchBytes = 1 << 20

// NewSource returns a feed over node's WAL, which must exist, publishing
// into reg its counters — batches/records/bytes shipped, snapshots
// served, feed requests answered 410 or 409 — and the long-poll waiter
// gauge. Closing drain, the server's shutdown signal, answers every
// parked long-poll at once, so held feed requests cannot outlive the
// connection-drain timeout.
func NewSource(node *Node, reg *obs.Registry, drain <-chan struct{}) *Source {
	return &Source{node: node, drain: drain,
		mBatches:    reg.Counter("repl.source.batches"),
		mRecords:    reg.Counter("repl.source.records_shipped"),
		mBytes:      reg.Counter("repl.source.bytes_shipped"),
		mSnapshots:  reg.Counter("repl.source.snapshots_served"),
		mTruncated:  reg.Counter("repl.source.truncated_requests"),
		mDiverged:   reg.Counter("repl.source.diverged_requests"),
		mStaleEpoch: reg.Counter("repl.source.stale_epoch_requests"),
		gWaiters:    reg.Gauge("repl.source.poll_waiters"),
	}
}

// rejectReplica answers a feed or snapshot request on an unpromoted
// replica. Returns true when the request was rejected.
func (s *Source) rejectReplica(w http.ResponseWriter, r *http.Request) bool {
	if !s.node.Replica() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	obs.WriteError(w, r, http.StatusServiceUnavailable, "not_primary",
		"this node is an unpromoted replica: replicate from the primary")
	return true
}

// ServeWAL answers GET /v1/wal?from=N[&wait_ms=M][&max_bytes=K]: a batch
// of raw WAL frames starting at stream index N and ending on a group
// boundary, so a follower can apply every group it receives whole. With
// wait_ms, an up-to-date follower long-polls: the response is held until
// a record lands or the wait expires (an empty 200 body). 410 Gone
// directs the follower to the snapshot endpoint.
func (s *Source) ServeWAL(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplica(w, r) {
		return
	}
	// Every feed answer — batches, 410s, even a "position beyond end" 400
	// from a follower pointed at the wrong primary — carries the log's
	// identity, so a mispointed follower detects the foreign log instead
	// of retrying against it. A batch re-stamps the epoch after its read
	// (writeBatch).
	w.Header().Set(HeaderLogID, s.node.LogID())
	epoch := s.node.Epoch()
	w.Header().Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
	q := r.URL.Query()
	n, ok, err := Param(q, "from")
	if err != nil || !ok {
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", "feed requires a numeric from= stream position")
		return
	}
	from := uint64(n)
	// A follower pinned to a higher epoch proves this log was superseded:
	// a newer primary exists and took the stream over. The node fences
	// itself, and the feed refuses to ship (the requester must not re-adopt
	// a stale era).
	pin, ok := s.node.SupersededBy(w, r)
	if !ok {
		return
	}
	if pin > 0 {
		s.mStaleEpoch.Add(1)
		obs.WriteError(w, r, http.StatusConflict, "wal_stale_epoch",
			fmt.Sprintf("this log is at epoch %d but the requester has seen epoch %d: this primary was superseded and must not be followed", epoch, pin))
		return
	}
	// The follower's chained prefix hash at from, when offered, is
	// verified BEFORE any record ships: on a fork the follower parks with
	// nothing applied, instead of discovering the divergence after
	// replaying half of the wrong history. Positions this log cannot hash
	// (truncated into a checkpoint, or beyond the end) fall through to the
	// feed loop, which answers 410/400 itself.
	if v := q.Get("hash"); v != "" {
		remote, err := strconv.ParseUint(v, 16, 64)
		if err != nil {
			obs.WriteError(w, r, http.StatusBadRequest, "bad_request", "hash must be a hex-encoded prefix hash")
			return
		}
		if local, err := s.node.mgr.PrefixHash(from); err == nil && local != remote {
			s.mDiverged.Add(1)
			w.Header().Set(HeaderHash, strconv.FormatUint(local, 16))
			obs.WriteError(w, r, http.StatusConflict, "wal_diverged",
				fmt.Sprintf("prefix hash mismatch at stream position %d: this log chains to %016x, the requester to %016x — the histories have forked", from, local, remote))
			return
		}
	}
	maxBytes, ok, err := Param(q, "max_bytes")
	if err != nil || ok && maxBytes == 0 {
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", "max_bytes must be a positive integer")
		return
	}
	if !ok || maxBytes > maxBatchBytes {
		maxBytes = maxBatchBytes
	}
	wait, err := Wait(q)
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	LongPoll(r, s.node.mgr.Changed, s.drain, wait, s.gWaiters, func(why Wake) bool {
		// Capture order is load-bearing for the staleness contract. The
		// committed clock is fenced first: every mutation at or before it
		// is already durable, and nothing later can be stamped at or
		// before it. The durable end is read second, so it covers every
		// record the clock covers. A follower that applies through
		// "durable" may therefore adopt "clock" as its applied-through
		// watermark without ever claiming a record it did not replay.
		clock := s.node.st.CommittedClock()
		durable := s.node.mgr.NextIndex()
		batch, batchEnd, err := s.node.mgr.ReadRecords(from, maxBytes)
		switch {
		case wal.IsTruncatedStream(err):
			s.mTruncated.Add(1)
			w.Header().Set(HeaderBase, strconv.FormatUint(s.node.mgr.BaseIndex(), 10))
			obs.WriteError(w, r, http.StatusGone, "wal_truncated",
				fmt.Sprintf("stream position %d predates the oldest retained record; bootstrap from /v1/wal/snapshot", from))
		case err != nil:
			obs.WriteError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		case len(batch) == 0 && why == Appended:
			return false
		default:
			s.writeBatch(w, from, batchEnd, durable, clock, batch)
		}
		return true
	})
}

// writeBatch ships frames [from, batchEnd) and advertises the log's
// durable end — which a max_bytes cap may hold the batch short of, so a
// partially shipped follower knows it is still lagging. The epoch is
// read after the frames were: a long-poll may outlive a re-promotion,
// and a record logged under the new epoch must not ship under the old.
func (s *Source) writeBatch(w http.ResponseWriter, from, batchEnd, durable uint64, clock time.Time, batch []byte) {
	w.Header().Set(HeaderEpoch, strconv.FormatUint(s.node.Epoch(), 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderFrom, strconv.FormatUint(from, 10))
	w.Header().Set(HeaderNext, strconv.FormatUint(durable, 10))
	w.Header().Set(HeaderCount, strconv.FormatUint(batchEnd-from, 10))
	w.Header().Set(HeaderClock, clock.Format(ClockFormat))
	// The prefix hash at the batch end lets the follower confirm its own
	// chain after applying — omitted only when a concurrent checkpoint
	// contracted the position away between the read and now (the follower
	// then just skips the check for this batch).
	if h, err := s.node.mgr.PrefixHash(batchEnd); err == nil {
		w.Header().Set(HeaderHash, strconv.FormatUint(h, 16))
	}
	w.WriteHeader(http.StatusOK)
	if len(batch) > 0 {
		_, _ = w.Write(batch)
	}
	s.mBatches.Add(1)
	s.mRecords.Add(int64(batchEnd - from))
	s.mBytes.Add(int64(len(batch)))
}

// ServeSnapshot answers GET /v1/wal/snapshot: the latest checkpoint,
// verbatim, with the stream index to resume the feed from. 404 means no
// checkpoint exists yet — a fresh follower then simply streams from
// position zero.
func (s *Source) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplica(w, r) {
		return
	}
	rc, resume, hash, err := s.node.mgr.Snapshot()
	if err != nil {
		if wal.IsNoCheckpoint(err) {
			obs.WriteError(w, r, http.StatusNotFound, "no_checkpoint",
				"no checkpoint exists; stream the feed from position 0")
			return
		}
		obs.WriteError(w, r, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderLogID, s.node.LogID())
	w.Header().Set(HeaderEpoch, strconv.FormatUint(s.node.Epoch(), 10))
	w.Header().Set(HeaderResume, strconv.FormatUint(resume, 10))
	w.Header().Set(HeaderHash, strconv.FormatUint(hash, 16))
	w.Header().Set(HeaderClock, s.node.st.Now().Format(ClockFormat))
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, rc)
	s.mSnapshots.Add(1)
}
