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
	"bytes"
	"cmp"
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

// UnmarshalJSON reads a batch with its events' field values decoded as a
// /v1/ingest body's are, every number through Number, so an integer
// field comes back as the exact int64 that was ingested.
func (r *WatchResponse) UnmarshalJSON(b []byte) error {
	type plain WatchResponse
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode((*plain)(r)); err != nil {
		return err
	}
	for _, ev := range r.Events {
		if err := fieldNumbers(ev.Fields); err != nil {
			return err
		}
	}
	return nil
}

// mountWatch wires the change-feed and standing-query endpoints: a
// WAL-backed node, primary or replica, tails its log; an in-memory node
// answers 503 "watch_unavailable".
func (s *Server) mountWatch() {
	mgr := s.db.WAL()
	if mgr == nil {
		unavailable := func(w http.ResponseWriter, r *http.Request) {
			obs.WriteError(w, r, http.StatusServiceUnavailable, "watch_unavailable",
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
	pin, ok := s.node.SupersededBy(w, r)
	if pin > 0 {
		own := s.stampEpoch(w)
		obs.WriteError(w, r, http.StatusConflict, "watch_stale_epoch",
			fmt.Sprintf("this node serves epoch %d but the subscriber has seen epoch %d: a newer primary exists; resubscribe there", own, pin))
	}
	return !ok || pin > 0
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n, ok, err := repl.Param(q, "from")
	from := uint64(n)
	if !ok {
		from = s.feed.NextIndex() // default: tail from now
	}
	maxEvents, _, merr := repl.Param(q, "max_events")
	wait, werr := repl.Wait(q)
	if err = cmp.Or(err, merr, werr); err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if s.rejectWatchEpoch(w, r) {
		return
	}
	if q.Get("stream") == "sse" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.serveWatchSSE(w, r, from, maxEvents)
		return
	}
	repl.LongPoll(r, s.feed.Changed, s.drain, wait, nil, func(why repl.Wake) bool {
		events, next, err := s.feed.Read(from, maxEvents)
		switch {
		case err != nil:
			s.writeWatchReadErr(w, r, err)
		case len(events) == 0 && why == repl.Appended:
			return false
		default:
			s.writeWatchBatch(w, events, next)
		}
		return true
	})
}

// writeWatchReadErr maps a feed read failure onto the typed contract.
func (s *Server) writeWatchReadErr(w http.ResponseWriter, r *http.Request, err error) {
	var ce *watch.CompactedError
	if errors.As(err, &ce) {
		w.Header().Set(repl.HeaderBase, strconv.FormatUint(ce.Base, 10))
		s.stampEpoch(w)
		obs.WriteError(w, r, http.StatusGone, "watch_compacted", err.Error())
		return
	}
	if errors.Is(err, watch.ErrBehind) && s.node.Replica() {
		// Not yet, not never: a cluster subscriber moves to another node.
		obs.WriteError(w, r, http.StatusServiceUnavailable, "watch_unavailable", err.Error())
		return
	}
	obs.WriteError(w, r, http.StatusBadRequest, "bad_request", err.Error())
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
// subscriber's position falls out of retention mid-stream. It is the
// long-poll that keeps going after its first batch.
func (s *Server) serveWatchSSE(w http.ResponseWriter, r *http.Request, from uint64, maxEvents int) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		obs.WriteError(w, r, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set(repl.HeaderLogID, s.node.LogID())
	s.stampEpoch(w)
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	repl.LongPoll(r, s.feed.Changed, s.drain, 15*time.Second, nil, func(why repl.Wake) bool {
		switch why {
		case repl.Drained:
			return true
		case repl.Expired:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		}
		events, next, err := s.feed.Read(from, maxEvents)
		if err != nil {
			var ce *watch.CompactedError
			if errors.As(err, &ce) {
				ev := watch.Event{Index: ce.Base, Op: watch.OpCompacted, Epoch: s.node.Epoch()}
				writeSSE(w, ce.Base, watch.OpCompacted, ev)
				flusher.Flush()
			}
			return true
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
		return false
	})
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
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", "missing q (the standing query text)")
		return
	}
	queueLen, _, err := repl.Param(q, "queue")
	if err == nil && queueLen > repl.MaxQueue {
		err = fmt.Errorf("queue must be at most %d", repl.MaxQueue)
	}
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if s.rejectWatchEpoch(w, r) {
		return
	}
	name := q.Get("name")
	if name == "" {
		name = obs.TraceIDFrom(r.Context())
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		obs.WriteError(w, r, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	sub, err := s.hub.Register(name, src, queueLen)
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "parse_error", err.Error())
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	s.stampEpoch(w)
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		// Shutdown closes the hub, which ends every subscription's Next.
		n, err := sub.Next(r.Context())
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

// writeSSE emits one server-sent event: id is the resume token, name
// the event type, body the JSON payload.
func writeSSE(w http.ResponseWriter, id uint64, name string, body any) {
	data, err := json.Marshal(body)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, name, data)
}
