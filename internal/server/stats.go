package server

// Workload introspection serving: the per-statement statistics table
// (GET /v1/stats/statements, POST /v1/stats/reset) and the cluster-wide
// health map (GET /debug/cluster). The statistics themselves accumulate
// in internal/stats — the core observes every execution into the store
// this server wires in New — so these handlers only snapshot and
// render. The cluster view fans out to the peer URLs in Config.Peers,
// probing each node's /readyz, and folds in this node's own verdict, so
// one request against any node answers "who is primary, at what epoch,
// and how far behind is everyone else".

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// peerProbeTimeout bounds each /debug/cluster peer probe.
const peerProbeTimeout = 2 * time.Second

// handleStatements serves GET /v1/stats/statements: the per-digest
// workload table. Query parameters: sort=total_time|calls|mean_time
// (default total_time) and limit=N (default all tracked digests).
func (s *Server) handleStatements(w http.ResponseWriter, r *http.Request) {
	if s.stats == nil {
		obs.WriteError(w, r, http.StatusNotFound, "not_found",
			"per-statement statistics are disabled on this server")
		return
	}
	sortBy := r.URL.Query().Get("sort")
	switch sortBy {
	case "", stats.SortTotalTime, stats.SortCalls, stats.SortMeanTime:
	default:
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("unknown sort %q (use %s, %s, or %s)",
				sortBy, stats.SortTotalTime, stats.SortCalls, stats.SortMeanTime))
		return
	}
	if sortBy == "" {
		sortBy = stats.SortTotalTime
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			obs.WriteError(w, r, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("limit must be a non-negative integer, got %q", v))
			return
		}
		limit = n
	}
	snap := s.stats.Snapshot(sortBy, limit)
	writeJSON(w, http.StatusOK, StatementStatsResponse{
		Sort:       sortBy,
		Statements: snap.Statements,
		Other:      snap.Other,
		Tracked:    snap.Tracked,
		Evicted:    snap.Evicted,
	})
}

// handleStatsReset serves POST /v1/stats/reset: discard every
// per-statement aggregate, including the "other" bucket. The registry's
// cumulative counters are untouched — reset is for bracketing an
// experiment, not for rewriting scrape history.
func (s *Server) handleStatsReset(w http.ResponseWriter, r *http.Request) {
	if s.stats == nil {
		obs.WriteError(w, r, http.StatusNotFound, "not_found",
			"per-statement statistics are disabled on this server")
		return
	}
	s.stats.Reset()
	writeJSON(w, http.StatusOK, StatsResetResponse{OK: true})
}

// handleCluster serves GET /debug/cluster: this node's readiness plus
// every configured peer's, probed concurrently over /readyz. A peer
// answering 503 is still "reachable" — its body says whether it is
// syncing, lagging, fenced, or diverged; only a transport failure marks
// it unreachable.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	resp := ClusterResponse{Nodes: make(map[string]ClusterNode, len(s.cfg.Peers)+1)}
	self, _ := s.readyState()
	resp.Nodes["self"] = ClusterNode{URL: "self", Self: true, Reachable: true, Ready: &self}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, peer := range s.cfg.Peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			node := s.probePeer(r.Context(), peer)
			mu.Lock()
			resp.Nodes[peer] = node
			mu.Unlock()
		}(peer)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, resp)
}

// probePeer fetches one peer's /readyz under the probe timeout. The
// readiness body is decoded regardless of status code: a 503 carries
// the same ReadyResponse, just with a non-"ready" verdict.
func (s *Server) probePeer(ctx context.Context, peer string) ClusterNode {
	node := ClusterNode{URL: peer}
	ctx, cancel := context.WithTimeout(ctx, peerProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/readyz", nil)
	if err != nil {
		node.Error = err.Error()
		return node
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		node.Error = err.Error()
		return node
	}
	defer res.Body.Close()
	var ready ReadyResponse
	if err := json.NewDecoder(res.Body).Decode(&ready); err != nil {
		node.Error = fmt.Sprintf("decoding /readyz body (status %d): %v", res.StatusCode, err)
		return node
	}
	node.Reachable = true
	node.Ready = &ready
	return node
}
