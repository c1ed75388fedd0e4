package server

// Replication serving: every WAL-backed server is a replication source
// (GET /v1/wal, GET /v1/wal/snapshot), and a server configured with a
// repl.Follower is a read replica — mutations are rejected with the
// typed "read_only" error, query responses carry the replica's
// applied-through watermark, reads demanding a min_timestamp wait
// (bounded) or fail typed "replica_lagging", /readyz reports lag, and
// POST /v1/promote turns the replica into a writable primary.
//
// Failover safety lives in repl.Node, which this file only asks: every
// node serves under a primary epoch, a promotion mints a strictly higher
// one, and a primary that learns a higher epoch exists — from an old
// follower reconnecting with epoch= pinned to the new era, a watch
// subscriber, or a client stamping X-Nepal-Epoch on a write — fences
// itself: reads keep flowing, mutations fail typed "stale_primary", and
// /readyz answers 503 "fenced" until an operator re-promotes it. POST
// /v1/demote is the operator-initiated form of the same fence.

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/repl"
)

// defaultMaxStalenessWait bounds how long a min_timestamp read blocks on
// a lagging replica before failing typed.
const defaultMaxStalenessWait = 2 * time.Second

// readyMaxLag is the record lag under which a replica still answers
// /readyz with 200.
const readyMaxLag = 1024

// rejectWrite is the mutation gate: the node answers whether it may ack a
// write, learning first from the epoch the writer has seen — a client
// that has watched a failover stamps the new primary's epoch on its
// writes, and the write that would have split the brain is the very
// thing that fences this node. Returns true when the request was
// rejected.
func (s *Server) rejectWrite(w http.ResponseWriter, r *http.Request) bool {
	remote, _ := strconv.ParseUint(r.Header.Get(HeaderEpoch), 10, 64)
	err := s.node.CheckWrite(remote)
	if err == nil {
		return false
	}
	code := "stale_primary"
	if errors.Is(err, repl.ErrReadOnly) {
		code = "read_only"
	}
	writeErr(w, r, http.StatusForbidden, code, err.Error())
	return true
}

// stampEpoch writes the node's primary epoch onto a response and
// returns it, so bodies can carry the same value. Epoch-less nodes
// stamp nothing.
func (s *Server) stampEpoch(w http.ResponseWriter) uint64 {
	epoch := s.node.Epoch()
	if epoch > 0 {
		w.Header().Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
	}
	return epoch
}

// maxStalenessWait is the cap on a min_timestamp read's wait.
func (s *Server) maxStalenessWait() time.Duration {
	if s.cfg.MaxStalenessWait > 0 {
		return s.cfg.MaxStalenessWait
	}
	return defaultMaxStalenessWait
}

// parseMinTimestamp accepts RFC3339(Nano) and the "2006-01-02 15:04:05"
// form the query AT clause uses.
func parseMinTimestamp(v string) (time.Time, error) {
	if ts, err := time.Parse(time.RFC3339Nano, v); err == nil {
		return ts, nil
	}
	return time.Parse("2006-01-02 15:04:05", v)
}

// waitFresh enforces a request's min_timestamp against the replication
// watermark: on a primary it is trivially satisfied; on a replica the
// request waits (bounded by MaxStalenessWait and the request deadline)
// and fails with the typed "replica_lagging" error when the replica
// cannot catch up in time. Returns false with the response written when
// the request must not proceed.
func (s *Server) waitFresh(ctx context.Context, w http.ResponseWriter, r *http.Request, minTS string) bool {
	if minTS == "" {
		return true
	}
	ts, err := parseMinTimestamp(minTS)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request",
			"min_timestamp must be RFC3339 or \"2006-01-02 15:04:05\": "+err.Error())
		return false
	}
	if !s.node.Replica() {
		return true // a primary is always current
	}
	wctx, cancel := context.WithTimeout(ctx, s.maxStalenessWait())
	defer cancel()
	if err := s.follower.WaitUntil(wctx, ts); err != nil {
		if errors.Is(err, repl.ErrLagging) || errors.Is(err, repl.ErrStopped) {
			// Retry-After steers clients to another replica (or the
			// primary) instead of hot-looping here.
			w.Header().Set("Retry-After", "1")
			writeErr(w, r, http.StatusServiceUnavailable, "replica_lagging", err.Error())
			return false
		}
		writeErr(w, r, http.StatusInternalServerError, "internal", err.Error())
		return false
	}
	return true
}

// stampStaleness adds read-provenance to a response: the node's primary
// epoch (all nodes), and — on replicas — the applied-through watermark,
// so reads answered by this node reflect every mutation at or before
// it. The epoch lets a failover-aware client reject answers from a node
// still serving a superseded era.
func (s *Server) stampStaleness(w http.ResponseWriter, resp *QueryResponse) {
	if epoch := s.stampEpoch(w); resp != nil {
		resp.Epoch = epoch
	}
	// Only an unpromoted replica stamps: a promoted node's link is dead,
	// and its frozen watermark says nothing about the answer.
	if s.follower == nil || !s.node.Replica() {
		return
	}
	rendered := s.follower.Status().AppliedThrough.Format(repl.ClockFormat)
	w.Header().Set(repl.HeaderAppliedThrough, rendered)
	if resp != nil {
		resp.AppliedThrough = rendered
	}
}

// readyState computes this node's /readyz verdict: the response body
// and whether it answers 200. Shared by handleReady and the
// /debug/cluster self entry, so an operator sees the same verdict
// either way.
func (s *Server) readyState() (ReadyResponse, bool) {
	fenced, _ := s.node.Fenced()
	replica := s.node.Replica()
	// A primary's applied index is its own stream end: every durably
	// logged record is applied. Lets /debug/cluster compute per-node lag
	// without a second endpoint.
	resp := ReadyResponse{Status: "ready", Role: "primary", AppliedIndex: s.node.Position(),
		Epoch: s.node.Epoch(), Fenced: fenced}
	var st repl.Status
	if s.follower != nil {
		st = s.follower.Status()
		resp.PrimaryNext, resp.LagRecords, resp.CaughtUp = st.PrimaryNext, st.LagRecords, st.CaughtUp
		resp.Promoted, resp.Reconnects, resp.Bootstraps = !replica, st.Reconnects, st.Bootstraps
		resp.LastError, resp.Diverged, resp.Unpinned = st.LastError, st.Diverged, replica && !st.Pinned
		if !st.AppliedThrough.IsZero() {
			resp.AppliedThrough = st.AppliedThrough.Format(repl.ClockFormat)
		}
	}
	if replica {
		resp.Role = "replica"
	}
	switch {
	case fenced:
		// A fenced primary still serves reads, but it must not win a
		// readiness probe: traffic belongs on the new primary.
		resp.Status = "fenced"
	case !replica:
	case st.Diverged:
		// The replica's history forked from its primary's log; it parked
		// rather than apply either side of the fork and must be rebuilt.
		resp.Status = "diverged"
	case st.LastContact.IsZero():
		resp.Status = "syncing"
	case !st.CaughtUp && st.LagRecords > readyMaxLag:
		resp.Status = "lagging"
	}
	return resp, resp.Status == "ready"
}

// handleReady serves GET /readyz: 200 when this node can serve reads at
// its advertised staleness bound, 503 while it is syncing, lagging,
// fenced, or diverged. Primaries (and promoted replicas) are ready
// unless fenced.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp, ready := s.readyState()
	if !ready {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePromote serves POST /v1/promote: stop replicating and start
// acking writes under a freshly minted epoch, continuing the log the
// replica already holds. Idempotent. A replica whose log was never
// pinned to its primary's answers 409 "unpinned". On a fenced
// primary it is the re-promotion path: the epoch is minted above every
// era known to have superseded this node, and the fence lifts. The epoch
// is also minted above the one the request's X-Nepal-Epoch header
// carries: the highest a failover-aware client has seen, which may be
// newer than the era a replica's link last polled.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	seen, _ := strconv.ParseUint(r.Header.Get(HeaderEpoch), 10, 64)
	pos, epoch, err := s.node.Promote(seen)
	switch {
	case errors.Is(err, repl.ErrNotReplica):
		writeErr(w, r, http.StatusBadRequest, "bad_request", err.Error())
	case errors.Is(err, repl.ErrUnpinned):
		writeErr(w, r, http.StatusConflict, "unpinned", err.Error())
	case err != nil:
		writeErr(w, r, http.StatusInternalServerError, "internal", err.Error())
	default:
		writeJSON(w, http.StatusOK, PromoteResponse{Promoted: true, StreamPosition: pos, Epoch: epoch})
	}
}

// handleDemote serves POST /v1/demote: operator-initiated fencing of a
// primary — reads keep flowing, mutations fail typed "stale_primary",
// /readyz answers "fenced" — typically run on an old primary before
// bringing it back into a cluster that failed over while it was down.
// Idempotent; POST /v1/promote reverses it.
func (s *Server) handleDemote(w http.ResponseWriter, r *http.Request) {
	if err := s.node.Demote(); err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, DemoteResponse{Demoted: true, Epoch: s.node.Epoch()})
}

// mountReplication wires the replication surface onto the mux: the WAL
// feed on any WAL-backed node (serving once the node is a primary),
// /readyz, /v1/promote, and /v1/demote everywhere.
func (s *Server) mountReplication() {
	if s.db.WAL() != nil {
		s.source = repl.NewSource(s.node, s.reg)
		s.mux.HandleFunc("GET /v1/wal", s.source.ServeWAL)
		s.mux.HandleFunc("GET /v1/wal/snapshot", s.source.ServeSnapshot)
	}
	if f := s.follower; f != nil {
		s.reg.GaugeFunc("repl.follower.lag_seconds", func() float64 {
			st := f.Status()
			if st.AppliedThrough.IsZero() || st.Promoted {
				return 0
			}
			lag := s.db.Store().Now().Sub(st.AppliedThrough)
			// The replica's store clock trails the primary's; only a
			// positive gap is lag.
			return max(lag.Seconds(), 0)
		})
	}
	s.reg.GaugeFunc("repl.epoch", func() float64 { return float64(s.node.Epoch()) })
	s.reg.GaugeFunc("server.fenced", func() float64 {
		if fenced, _ := s.node.Fenced(); fenced {
			return 1
		}
		return 0
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("POST /v1/promote", s.handlePromote)
	s.mux.HandleFunc("POST /v1/demote", s.handleDemote)
}

// Close abruptly stops the server without draining — the kill-the-
// primary chaos path. In-flight requests are cut mid-connection and the
// DB is NOT closed cleanly; only WAL durability protects acked writes.
// Production shutdown is Shutdown.
func (s *Server) Close() error {
	s.broadcastShutdown()
	return s.hs.Close()
}
