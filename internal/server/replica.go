package server

// Replication serving: every WAL-backed server is a replication source
// (GET /v1/wal, GET /v1/wal/snapshot), and a server configured with a
// repl.Follower is a read replica — mutations are rejected with the
// typed "read_only" error, query responses carry the replica's
// applied-through watermark, reads demanding a min_timestamp wait
// (bounded) or fail typed "replica_lagging", /readyz reports lag, and
// POST /v1/promote turns the replica into a writable primary.
//
// Failover safety lives here too. Every node serves under a primary
// epoch; a promotion mints a strictly higher one. A primary that learns
// a higher epoch exists — from an old follower reconnecting with
// epoch= pinned to the new era, or from a client stamping X-Nepal-Epoch
// on a write — fences itself: reads keep flowing, mutations fail typed
// "stale_primary", and /readyz answers 503 "fenced" until an operator
// re-promotes it (which mints an epoch above the one that fenced it).
// POST /v1/demote is the operator-initiated form of the same fence.

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

// defaultReadyMaxLag is the record lag under which a replica still
// answers /readyz with 200.
const defaultReadyMaxLag = 1024

// replica reports whether this server is an unpromoted read replica.
func (s *Server) replica() bool {
	return s.follower != nil && !s.follower.Promoted()
}

// rejectReadOnly answers mutation attempts on a replica. Returns true
// when the request was rejected.
func (s *Server) rejectReadOnly(w http.ResponseWriter, r *http.Request) bool {
	if !s.replica() {
		return false
	}
	writeErr(w, r, http.StatusForbidden, "read_only",
		"this node is a read replica; send writes to the primary (or promote it via POST /v1/promote)")
	return true
}

// nodeEpoch returns the primary epoch this node serves under: the
// stream epoch a replica is pinned to, the WAL's durable epoch on a
// primary (including a promoted replica, whose Promote bumped it), or
// 0 for a node with no epoch at all (in-memory, never replicated).
func (s *Server) nodeEpoch() uint64 {
	if f := s.follower; f != nil && !f.Promoted() {
		return f.Status().Epoch
	}
	if mgr := s.db.WAL(); mgr != nil {
		return mgr.Epoch()
	}
	if f := s.follower; f != nil {
		return f.Status().Epoch
	}
	return 0
}

// fence marks this node a superseded primary. remoteEpoch is the epoch
// proving the supersession (CAS-max into fencedBy so re-promotion mints
// above the highest era seen); 0 fences without epoch evidence — the
// operator-demote case. Idempotent and monotonic: once fenced, only an
// explicit re-promotion unfences.
func (s *Server) fence(remoteEpoch uint64) {
	for {
		cur := s.fencedBy.Load()
		if remoteEpoch <= cur || s.fencedBy.CompareAndSwap(cur, remoteEpoch) {
			break
		}
	}
	s.fenced.Store(true)
}

// rejectStalePrimary answers mutation attempts on a fenced primary.
// Before deciding, it learns from the requester: a client that has
// watched a failover stamps the new primary's epoch on its writes, and
// a higher epoch than our own is proof this node was superseded — the
// write that would have split the brain is the very thing that fences
// it. Returns true when the request was rejected.
func (s *Server) rejectStalePrimary(w http.ResponseWriter, r *http.Request) bool {
	if v := r.Header.Get(HeaderEpoch); v != "" {
		if remote, err := strconv.ParseUint(v, 10, 64); err == nil {
			if own := s.nodeEpoch(); own > 0 && remote > own {
				s.fence(remote)
			}
		}
	}
	if !s.fenced.Load() {
		return false
	}
	msg := "this primary was demoted; re-promote it via POST /v1/promote or send writes to the current primary"
	if by := s.fencedBy.Load(); by > 0 {
		msg = "this primary (epoch " + strconv.FormatUint(s.nodeEpoch(), 10) +
			") was superseded by epoch " + strconv.FormatUint(by, 10) +
			"; send writes to the current primary"
	}
	writeErr(w, r, http.StatusForbidden, "stale_primary", msg)
	return true
}

// stampEpoch writes the node's primary epoch onto a response and
// returns it, so bodies can carry the same value. Epoch-less nodes
// stamp nothing.
func (s *Server) stampEpoch(w http.ResponseWriter) uint64 {
	epoch := s.nodeEpoch()
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
	if s.follower == nil {
		return true // the primary is always current
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
	if s.follower == nil {
		return
	}
	_, watermark := s.follower.Applied()
	rendered := watermark.Format(repl.ClockFormat)
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
	fenced := s.fenced.Load()
	if s.follower == nil {
		resp := ReadyResponse{Status: "ready", Role: "primary", Epoch: s.nodeEpoch(), Fenced: fenced}
		if mgr := s.db.WAL(); mgr != nil {
			// A primary's applied index is its own stream end: every durably
			// logged record is applied. Lets /debug/cluster compute per-node
			// lag without a second endpoint.
			resp.AppliedIndex = mgr.NextIndex()
		}
		if fenced {
			// A fenced primary still serves reads, but it must not win a
			// readiness probe: traffic belongs on the new primary.
			resp.Status = "fenced"
			return resp, false
		}
		return resp, true
	}
	st := s.follower.Status()
	resp := ReadyResponse{
		Role:         "replica",
		AppliedIndex: st.Applied,
		PrimaryNext:  st.PrimaryNext,
		LagRecords:   st.LagRecords,
		CaughtUp:     st.CaughtUp,
		Promoted:     st.Promoted,
		Reconnects:   st.Reconnects,
		Bootstraps:   st.Bootstraps,
		LastError:    st.LastError,
		Epoch:        s.nodeEpoch(),
		Fenced:       fenced && st.Promoted,
		Diverged:     st.Diverged,
	}
	if !st.AppliedThrough.IsZero() {
		resp.AppliedThrough = st.AppliedThrough.Format(repl.ClockFormat)
	}
	maxLag := uint64(defaultReadyMaxLag)
	if s.cfg.ReadyMaxLag > 0 {
		maxLag = uint64(s.cfg.ReadyMaxLag)
	} else if s.cfg.ReadyMaxLag < 0 {
		maxLag = 0
	}
	switch {
	case st.Promoted && fenced:
		resp.Status, resp.Role = "fenced", "primary"
	case st.Promoted:
		resp.Status, resp.Role = "ready", "primary"
	case st.Diverged:
		// The replica's history forked from its primary's log; it parked
		// rather than apply either side of the fork and must be rebuilt.
		resp.Status = "diverged"
	case st.LastContact.IsZero():
		resp.Status = "syncing"
	case !st.CaughtUp && st.LagRecords > maxLag:
		resp.Status = "lagging"
	default:
		resp.Status = "ready"
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

// handlePromote serves POST /v1/promote: stop replicating, checkpoint
// the replicated state into the local WAL (when present), and start
// acking writes under a freshly minted epoch. Idempotent. On a fenced
// primary it is the re-promotion path: the epoch is bumped above every
// era known to have superseded this node, and the fence lifts.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.follower == nil {
		if !s.fenced.Load() {
			writeErr(w, r, http.StatusBadRequest, "bad_request", "this node is not a replica")
			return
		}
		mgr := s.db.WAL()
		if mgr == nil {
			writeErr(w, r, http.StatusBadRequest, "bad_request",
				"this fenced node has no WAL to mint a new epoch in; restart it instead")
			return
		}
		epoch := max(mgr.Epoch(), s.fencedBy.Load()) + 1
		if err := mgr.SetEpoch(epoch); err != nil {
			writeErr(w, r, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		s.fenced.Store(false)
		writeJSON(w, http.StatusOK, PromoteResponse{Promoted: true, StreamPosition: mgr.NextIndex(), Epoch: epoch})
		return
	}
	pos, err := s.follower.Promote()
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	epoch := s.nodeEpoch()
	if s.fenced.Load() {
		// A promoted-then-fenced replica re-promotes the same way a fenced
		// primary does: mint above the superseding era, then lift the fence.
		if mgr := s.db.WAL(); mgr != nil {
			epoch = max(epoch, s.fencedBy.Load()) + 1
			if err := mgr.SetEpoch(epoch); err != nil {
				writeErr(w, r, http.StatusInternalServerError, "internal", err.Error())
				return
			}
		}
		s.fenced.Store(false)
	}
	writeJSON(w, http.StatusOK, PromoteResponse{Promoted: true, StreamPosition: pos, Epoch: epoch})
}

// handleDemote serves POST /v1/demote: operator-initiated fencing of a
// primary — reads keep flowing, mutations fail typed "stale_primary",
// /readyz answers "fenced" — typically run on an old primary before
// bringing it back into a cluster that failed over while it was down.
// Idempotent; POST /v1/promote reverses it.
func (s *Server) handleDemote(w http.ResponseWriter, r *http.Request) {
	if s.replica() {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "this node is already a read replica")
		return
	}
	s.fence(0)
	writeJSON(w, http.StatusOK, DemoteResponse{Demoted: true, Epoch: s.nodeEpoch()})
}

// mountReplication wires the replication surface onto the mux: the WAL
// feed on any WAL-backed node, /readyz, /v1/promote, and /v1/demote
// everywhere.
func (s *Server) mountReplication() {
	if mgr := s.db.WAL(); mgr != nil {
		src := repl.NewSource(s.db.Store(), mgr)
		src.Instrument(s.reg)
		// A feed request pinned to a higher epoch is proof of supersession:
		// one of this node's old followers now follows the new primary.
		// Fence immediately — before the next client write can be acked.
		src.OnStaleEpoch = s.fence
		s.source = src
		s.mux.HandleFunc("GET /v1/wal", src.ServeWAL)
		s.mux.HandleFunc("GET /v1/wal/snapshot", src.ServeSnapshot)
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
	s.reg.GaugeFunc("repl.epoch", func() float64 { return float64(s.nodeEpoch()) })
	s.reg.GaugeFunc("server.fenced", func() float64 {
		if s.fenced.Load() {
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
