package repl

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
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

	closing   chan struct{}
	closeOnce sync.Once
}

// maxBatchBytes caps one feed response body. A batch always carries at
// least one whole record, so a single oversized record still ships.
const maxBatchBytes = 1 << 20

// maxPollWait caps a feed request's wait_ms long-poll.
const maxPollWait = 30 * time.Second

// NewSource returns a feed over node's WAL, which must exist, publishing
// into reg its counters — batches/records/bytes shipped, snapshots
// served, feed requests answered 410 or 409 — and the long-poll waiter
// gauge.
func NewSource(node *Node, reg *obs.Registry) *Source {
	return &Source{node: node, closing: make(chan struct{}),
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

// Close releases every parked long-poll immediately (each answers with
// whatever is pending — usually an empty batch). A primary shutting down
// gracefully calls this first, so held feed requests cannot outlive the
// connection-drain timeout. Idempotent; the handlers keep working after
// Close, they just stop holding polls.
func (s *Source) Close() {
	s.closeOnce.Do(func() { close(s.closing) })
}

// rejectReplica answers a feed or snapshot request on an unpromoted
// replica. Returns true when the request was rejected.
func (s *Source) rejectReplica(w http.ResponseWriter) bool {
	if !s.node.Replica() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	sourceErr(w, http.StatusServiceUnavailable, "not_primary",
		"this node is an unpromoted replica: replicate from the primary")
	return true
}

// sourceErr is the minimal JSON error envelope, shaped like the serving
// layer's so followers and the Go client decode both the same way.
func sourceErr(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	})
}

// ServeWAL answers GET /v1/wal?from=N[&wait_ms=M][&max_bytes=K]: a batch
// of raw WAL frames starting at stream index N and ending on a group
// boundary, so a follower can apply every group it receives whole. With
// wait_ms, an
// up-to-date follower long-polls — the response is held until a record
// lands or the wait expires (an empty 200 body). 410 Gone directs the
// follower to the snapshot endpoint.
func (s *Source) ServeWAL(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplica(w) {
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
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		sourceErr(w, http.StatusBadRequest, "bad_request", "feed requires a numeric from= stream position")
		return
	}
	// A follower pinned to a higher epoch proves this log was superseded:
	// a newer primary exists and took the stream over. The node fences
	// itself, and the feed refuses to ship (the requester must not re-adopt
	// a stale era).
	if v := q.Get("epoch"); v != "" {
		remote, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			sourceErr(w, http.StatusBadRequest, "bad_request", "epoch must be a non-negative integer")
			return
		}
		if s.node.Observe(remote) {
			s.mStaleEpoch.Add(1)
			sourceErr(w, http.StatusConflict, "wal_stale_epoch",
				fmt.Sprintf("this log is at epoch %d but the requester has seen epoch %d: this primary was superseded and must not be followed", epoch, remote))
			return
		}
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
			sourceErr(w, http.StatusBadRequest, "bad_request", "hash must be a hex-encoded prefix hash")
			return
		}
		if local, err := s.node.mgr.PrefixHash(from); err == nil && local != remote {
			s.mDiverged.Add(1)
			w.Header().Set(HeaderHash, strconv.FormatUint(local, 16))
			sourceErr(w, http.StatusConflict, "wal_diverged",
				fmt.Sprintf("prefix hash mismatch at stream position %d: this log chains to %016x, the requester to %016x — the histories have forked", from, local, remote))
			return
		}
	}
	maxBytes := maxBatchBytes
	if v := q.Get("max_bytes"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			sourceErr(w, http.StatusBadRequest, "bad_request", "max_bytes must be a positive integer")
			return
		}
		if n < maxBytes {
			maxBytes = n
		}
	}
	var wait time.Duration
	if v := q.Get("wait_ms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			sourceErr(w, http.StatusBadRequest, "bad_request", "wait_ms must be a non-negative integer")
			return
		}
		wait = time.Duration(n) * time.Millisecond
		wait = min(wait, maxPollWait)
	}

	deadline := time.Now().Add(wait)
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		// Grab the change channel before reading: a record appended
		// between the read and the wait closes this channel, so the poll
		// can never sleep through it.
		changed := s.node.mgr.Changed()
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
		case err == nil:
		case wal.IsTruncatedStream(err):
			s.mTruncated.Add(1)
			w.Header().Set(HeaderBase, strconv.FormatUint(s.node.mgr.BaseIndex(), 10))
			sourceErr(w, http.StatusGone, "wal_truncated",
				fmt.Sprintf("stream position %d predates the oldest retained record; bootstrap from /v1/wal/snapshot", from))
			return
		default:
			sourceErr(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		if len(batch) > 0 || wait <= 0 || !time.Now().Before(deadline) {
			s.writeBatch(w, from, batchEnd, durable, clock, batch)
			return
		}
		if timer == nil {
			timer = time.NewTimer(time.Until(deadline))
		}
		s.gWaiters.Add(1)
		select {
		case <-changed:
			s.gWaiters.Add(-1)
		case <-timer.C:
			s.gWaiters.Add(-1)
			s.writeEmpty(w, from)
			return
		case <-s.closing:
			s.gWaiters.Add(-1)
			s.writeEmpty(w, from)
			return
		case <-r.Context().Done():
			s.gWaiters.Add(-1)
			return
		}
	}
}

// writeEmpty answers an expiring long-poll with a fresh empty batch,
// re-capturing the clock and durable end in contract order.
func (s *Source) writeEmpty(w http.ResponseWriter, from uint64) {
	clock := s.node.st.CommittedClock()
	s.writeBatch(w, from, from, s.node.mgr.NextIndex(), clock, nil)
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
	if s.rejectReplica(w) {
		return
	}
	rc, resume, hash, err := s.node.mgr.Snapshot()
	if err != nil {
		if wal.IsNoCheckpoint(err) {
			sourceErr(w, http.StatusNotFound, "no_checkpoint",
				"no checkpoint exists; stream the feed from position 0")
			return
		}
		sourceErr(w, http.StatusInternalServerError, "internal", err.Error())
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
