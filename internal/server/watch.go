package server

// The watch surface: GET /v1/watch serves the durable change feed
// (long-poll JSON or SSE), GET /v1/watch/query serves a standing
// pathway query as an SSE delta stream. Both are served by any
// WAL-backed node off its own log — a primary's, or a replica's, which
// holds its primary's records at the same indexes (offloading the
// primary). Resume tokens are global WAL stream indexes: a client that
// reconnects with from=<token> sees every later mutation in log order,
// at least once, on any node of the cluster and across a promotion.
//
// Failure typing mirrors the replication feed: a token older than the
// oldest retained position answers 410 "watch_compacted" with the
// fresh base in X-Nepal-Wal-Base (the client re-syncs, then resumes
// there), and a client pinned to a higher epoch than this node proves
// the node was superseded — the node fences (when it is a primary) and
// answers 409 "watch_stale_epoch" so the subscriber moves to the current
// primary.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/watch"
)

// WatchResponse is one long-poll batch off the change feed.
type WatchResponse struct {
	// Events are the feed events at [from, Next), in stream order.
	Events []watch.Event `json:"events"`
	// Next is the resume token after the batch: pass it as from= on the
	// next request. Equal to the request's from when the poll timed out
	// with nothing new.
	Next uint64 `json:"next"`
	// Durable is the stream end at response time (the index the next
	// mutation will take).
	Durable uint64 `json:"durable"`
	// Epoch is the primary epoch the batch was served under.
	Epoch uint64 `json:"epoch,omitempty"`
	// LogID identifies the log the stream derives from.
	LogID string `json:"log_id,omitempty"`
}

// watchMaxWait caps a /v1/watch long-poll hold.
const watchMaxWait = 60 * time.Second

// mountWatch wires the change-feed and standing-query endpoints: a
// WAL-backed node, primary or replica, tails its log; an in-memory node
// answers 503 "watch_unavailable".
func (s *Server) mountWatch() {
	mgr := s.db.WAL()
	if mgr == nil {
		unavailable := func(w http.ResponseWriter, r *http.Request) {
			writeErr(w, r, http.StatusServiceUnavailable, "watch_unavailable",
				"this node has no mutation stream to tail (in-memory store); run it with -wal-dir")
		}
		s.mux.HandleFunc("GET /v1/watch", unavailable)
		s.mux.HandleFunc("GET /v1/watch/query", unavailable)
		return
	}
	s.feed = watch.NewWALFeed(mgr, s.db.Store())
	s.hub = watch.NewHub(s.db, s.feed, s.reg)
	s.mux.HandleFunc("GET /v1/watch", s.handleWatch)
	s.mux.HandleFunc("GET /v1/watch/query", s.handleWatchQuery)
}

// Hub exposes the standing-query engine (tests register through it).
func (s *Server) Hub() *watch.Hub { return s.hub }

// rejectWatchEpoch answers a subscriber that resumed through a failover
// and pins a newer primary's epoch: the node observes it (fencing a
// superseded primary) and the subscriber is sent on. Mirrors the
// replication feed's wal_stale_epoch handling. Returns true when the
// request was rejected.
func (s *Server) rejectWatchEpoch(w http.ResponseWriter, r *http.Request) bool {
	v := r.URL.Query().Get("epoch")
	if v == "" {
		return false
	}
	remote, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "epoch must be a non-negative integer")
		return true
	}
	if !s.node.Observe(remote) {
		return false
	}
	own := s.stampEpoch(w)
	writeErr(w, r, http.StatusConflict, "watch_stale_epoch",
		fmt.Sprintf("this node serves epoch %d but the subscriber has seen epoch %d: a newer primary exists; resubscribe there", own, remote))
	return true
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from := s.feed.NextIndex() // default: tail from now
	if v := q.Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, "bad_request", "from must be a non-negative integer")
			return
		}
		from = n
	}
	if s.rejectWatchEpoch(w, r) {
		return
	}
	maxEvents := 0
	if v := q.Get("max_events"); v != "" {
		maxEvents, _ = strconv.Atoi(v)
	}
	if q.Get("stream") == "sse" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.serveWatchSSE(w, r, from, maxEvents)
		return
	}
	var wait time.Duration
	if v := q.Get("wait_ms"); v != "" {
		ms, _ := strconv.Atoi(v)
		wait = time.Duration(ms) * time.Millisecond
	}
	wait = min(wait, watchMaxWait)
	var timeout <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	for {
		// The changed channel must be grabbed BEFORE the read: an append
		// landing between the read and the select then still wakes us.
		changed := s.feed.Changed()
		events, next, err := s.feed.Read(from, maxEvents)
		if err != nil {
			s.writeWatchReadErr(w, r, err)
			return
		}
		if len(events) > 0 || wait <= 0 {
			s.writeWatchBatch(w, events, next)
			return
		}
		select {
		case <-changed:
		case <-timeout:
			s.writeWatchBatch(w, nil, from)
			return
		case <-s.drain:
			s.writeWatchBatch(w, nil, from)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// writeWatchReadErr maps a feed read failure onto the typed contract.
func (s *Server) writeWatchReadErr(w http.ResponseWriter, r *http.Request, err error) {
	var ce *watch.CompactedError
	if watch.IsCompacted(err) {
		if errors.As(err, &ce) {
			w.Header().Set(repl.HeaderBase, strconv.FormatUint(ce.Base, 10))
		}
		s.stampEpoch(w)
		writeErr(w, r, http.StatusGone, "watch_compacted", err.Error())
		return
	}
	if errors.Is(err, watch.ErrBehind) && s.node.Replica() {
		// Not yet, not never: a cluster subscriber moves to another node.
		writeErr(w, r, http.StatusServiceUnavailable, "watch_unavailable", err.Error())
		return
	}
	writeErr(w, r, http.StatusBadRequest, "bad_request", err.Error())
}

func (s *Server) writeWatchBatch(w http.ResponseWriter, events []watch.Event, next uint64) {
	epoch := s.node.Epoch()
	for i := range events {
		events[i].Epoch = epoch
	}
	if events == nil {
		events = []watch.Event{}
	}
	w.Header().Set(repl.HeaderNext, strconv.FormatUint(next, 10))
	w.Header().Set(repl.HeaderLogID, s.node.LogID())
	s.stampEpoch(w)
	writeJSON(w, http.StatusOK, WatchResponse{
		Events:  events,
		Next:    next,
		Durable: s.feed.NextIndex(),
		Epoch:   epoch,
		LogID:   s.node.LogID(),
	})
}

// serveWatchSSE streams the change feed as server-sent events: one
// "mutation" event per record with id: set to the resume token after
// it, ": keepalive" comments while idle, and a terminal
// "watch_compacted" event (carrying the fresh base) when the
// subscriber's position falls out of retention mid-stream.
func (s *Server) serveWatchSSE(w http.ResponseWriter, r *http.Request, from uint64, maxEvents int) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, r, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set(repl.HeaderLogID, s.node.LogID())
	s.stampEpoch(w)
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		changed := s.feed.Changed()
		events, next, err := s.feed.Read(from, maxEvents)
		if err != nil {
			var ce *watch.CompactedError
			if watch.IsCompacted(err) && errors.As(err, &ce) {
				ev := watch.Event{Index: ce.Base, Op: watch.OpCompacted, Epoch: s.node.Epoch()}
				writeSSE(w, ce.Base, watch.OpCompacted, ev)
				flusher.Flush()
			}
			return
		}
		if len(events) > 0 {
			epoch := s.node.Epoch()
			for _, ev := range events {
				ev.Epoch = epoch
				writeSSE(w, ev.Index+1, "mutation", ev)
			}
			from = next
			flusher.Flush()
		}
		select {
		case <-changed:
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case <-s.drain:
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleWatchQuery serves a standing pathway query as an SSE stream:
// an initial full-snapshot "delta" event, then one "delta" event per
// incremental result change, a "watch_lagging" event when this
// subscriber's bounded queue overflowed (the next delta after it is a
// full snapshot again), and a "watch_query_failed" event when a
// re-evaluation failed (typed by outcome; the stream continues).
func (s *Server) handleWatchQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	src := q.Get("q")
	if strings.TrimSpace(src) == "" {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "missing q (the standing query text)")
		return
	}
	if s.rejectWatchEpoch(w, r) {
		return
	}
	queueLen := 0
	if v := q.Get("queue"); v != "" {
		queueLen, _ = strconv.Atoi(v)
	}
	name := q.Get("name")
	if name == "" {
		name = obs.TraceIDFrom(r.Context())
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, r, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	sub, err := s.hub.Register(name, src, queueLen)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "parse_error", err.Error())
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	s.stampEpoch(w)
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	ctx, cancel := contextWithDrain(r, s.drain)
	defer cancel()
	for {
		n, err := sub.Next(ctx)
		if err != nil {
			return
		}
		switch n.Kind {
		case watch.KindLagging:
			writeSSE(w, n.Resume, watch.OpLagging, n)
		case watch.KindFailed:
			writeSSE(w, n.Resume, watch.KindFailed, n)
		default:
			writeSSE(w, n.Delta.Index, "delta", n.Delta)
		}
		flusher.Flush()
	}
}

// contextWithDrain derives the request context so it is also canceled
// by the server's shutdown broadcast, unparking blocked subscribers.
func contextWithDrain(r *http.Request, drain <-chan struct{}) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	go func() {
		select {
		case <-drain:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// writeSSE emits one server-sent event: id is the resume token, name
// the event type, body the JSON payload.
func writeSSE(w http.ResponseWriter, id uint64, name string, body any) {
	data, err := json.Marshal(body)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, name, data)
}
