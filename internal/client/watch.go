package client

// Watch support: the client side of GET /v1/watch. WatchPoll is the
// single-request primitive; Client.Watch wraps it into an auto-resuming
// stream against one endpoint, and Cluster.Watch into a stream that
// survives endpoint loss and failover — it rotates across replicas
// (offloading the primary), tracks the highest epoch seen, refuses
// batches served under a superseded epoch, and transparently resumes at
// the last delivered stream index against whichever node currently
// serves.
//
// Delivery is at-least-once: after a sever the stream re-requests from
// its cursor, so a consumer may see a suffix of events again (same
// indexes, same payloads), but never a gap it is not told about —
// history contracted past the cursor surfaces as a synthetic
// watch.OpCompacted control event carrying the fresh resume token, and
// the consumer re-syncs before trusting later events. Duplicate-free
// delivery is NOT guaranteed; consumers needing exactly-once must
// deduplicate by Event.Index.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/watch"
)

// WatchCompactedError reports a resume token older than the endpoint's
// retained history; Base is the oldest servable index.
type WatchCompactedError struct {
	Base uint64
	api  *APIError
}

func (e *WatchCompactedError) Error() string {
	return fmt.Sprintf("client: watch position compacted away; re-sync and resume from %d", e.Base)
}

func (e *WatchCompactedError) Is(target error) bool { return target == ErrWatchCompacted }

func (e *WatchCompactedError) Unwrap() error {
	if e.api == nil {
		return nil
	}
	return e.api
}

// WatchOptions tunes a watch stream.
type WatchOptions struct {
	// PollWait is the server-side long-poll hold per request; 0 means 10s.
	PollWait time.Duration
	// MaxEvents caps events per batch; 0 uses the server default.
	MaxEvents int
	// Buffer is the stream's delivery channel depth; 0 means 64.
	Buffer int
}

func (o *WatchOptions) pollWait() time.Duration {
	if o == nil || o.PollWait <= 0 {
		return 10 * time.Second
	}
	return o.PollWait
}

func (o *WatchOptions) buffer() int {
	if o == nil || o.Buffer <= 0 {
		return 64
	}
	return o.Buffer
}

// WatchPoll issues one GET /v1/watch long-poll: events at stream
// indexes ≥ from, the resume token for the next call, and the epoch
// the batch was served under. A compacted position returns
// *WatchCompactedError (matches ErrWatchCompacted) with the fresh base.
func (c *Client) WatchPoll(ctx context.Context, from uint64, o *WatchOptions) (*server.WatchResponse, error) {
	path := fmt.Sprintf("/v1/watch?from=%d&wait_ms=%d", from, o.pollWait().Milliseconds())
	if o != nil && o.MaxEvents > 0 {
		path += "&max_events=" + strconv.Itoa(o.MaxEvents)
	}
	// Pin the highest epoch this caller has seen: a superseded primary
	// answering the watch would hand us a fenced era's events; instead it
	// learns it was superseded and answers 409 watch_stale_epoch.
	if c.provideEpoch != nil {
		if e := c.provideEpoch(); e > 0 {
			path += "&epoch=" + strconv.FormatUint(e, 10)
		}
	}
	var resp server.WatchResponse
	err := c.get(ctx, path, &resp)
	var ae *APIError
	if errors.As(err, &ae) && ae.Is(ErrWatchCompacted) {
		base, _ := strconv.ParseUint(ae.header.Get(repl.HeaderBase), 10, 64)
		return nil, &WatchCompactedError{Base: base, api: ae}
	}
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// WatchStream is an auto-resuming change-feed subscription. Consume
// with Next (or the Events channel); Close stops the stream. After the
// stream ends, Err reports why (nil for a clean Close).
type WatchStream struct {
	ch        chan watch.Event
	done      chan struct{}
	closeOnce sync.Once

	mu  sync.Mutex
	err error
}

func newWatchStream(o *WatchOptions) *WatchStream {
	return &WatchStream{
		ch:   make(chan watch.Event, o.buffer()),
		done: make(chan struct{}),
	}
}

// Events returns the delivery channel. It is never closed; select on it
// together with Done.
func (ws *WatchStream) Events() <-chan watch.Event { return ws.ch }

// Done is closed when the stream has ended (Close, context, or a fatal
// error — see Err).
func (ws *WatchStream) Done() <-chan struct{} { return ws.done }

// Next blocks for the next event. After the stream ends it returns
// Err() (or ErrWatchClosed for a clean Close); buffered events are
// drained before the termination surfaces.
func (ws *WatchStream) Next(ctx context.Context) (watch.Event, error) {
	select {
	case ev := <-ws.ch:
		return ev, nil
	default:
	}
	select {
	case ev := <-ws.ch:
		return ev, nil
	case <-ws.done:
		// Events already delivered to the channel still count.
		select {
		case ev := <-ws.ch:
			return ev, nil
		default:
		}
		if err := ws.Err(); err != nil {
			return watch.Event{}, err
		}
		return watch.Event{}, ErrWatchClosed
	case <-ctx.Done():
		return watch.Event{}, ctx.Err()
	}
}

// ErrWatchClosed reports the stream was closed by its consumer.
var ErrWatchClosed = errors.New("client: watch stream closed")

// Err returns the error that ended the stream (nil while running or
// after a clean Close).
func (ws *WatchStream) Err() error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.err
}

// Close stops the stream. Idempotent.
func (ws *WatchStream) Close() { ws.closeOnce.Do(func() { close(ws.done) }) }

// finish records the terminal error and releases waiters.
func (ws *WatchStream) finish(err error) {
	ws.mu.Lock()
	if ws.err == nil && err != nil && !errors.Is(err, context.Canceled) {
		ws.err = err
	}
	ws.mu.Unlock()
	ws.Close()
}

// emit delivers one event, honoring Close and ctx. Returns false when
// the stream should stop.
func (ws *WatchStream) emit(ctx context.Context, ev watch.Event) bool {
	select {
	case ws.ch <- ev:
		return true
	case <-ws.done:
		return false
	case <-ctx.Done():
		return false
	}
}

// Watch subscribes to this endpoint's change feed from the given stream
// index, transparently reconnecting (same cursor) through transient
// failures, with a backoff that doubles from 25ms to 2s. History
// compacted past the cursor surfaces as a synthetic watch.OpCompacted
// event carrying the new base, after which the stream resumes there.
func (c *Client) Watch(ctx context.Context, from uint64, o *WatchOptions) *WatchStream {
	ws := newWatchStream(o)
	go ws.resubscribe(ctx, from, o,
		func() []*clusterReplica { return []*clusterReplica{{c: c}} },
		func(ctx context.Context, attempt int) error {
			return sleepCtx(ctx, min(25*time.Millisecond<<min(attempt, 7), 2*time.Second))
		},
		nil)
	return ws
}

// Watch subscribes to the cluster's change feed from the given stream
// index. The subscription is failover-safe: it prefers replicas
// (offloading the primary), rotates endpoints on failure, and resumes
// at the last delivered index — so it rides through a kill-primary →
// Failover sequence, delivering every acked mutation at least once, in
// stream order. Batches served under a lower epoch than the cluster
// has already observed are discarded, never delivered: events from a
// fenced primary's era cannot interleave with the new primary's.
func (cl *Cluster) Watch(ctx context.Context, from uint64, o *WatchOptions) *WatchStream {
	ws := newWatchStream(o)
	go ws.resubscribe(ctx, from, o, cl.readPlan,
		func(ctx context.Context, attempt int) error { return cl.backoff(ctx, attempt, nil) },
		func(epoch uint64) bool {
			if high := cl.Epoch(); epoch > 0 && epoch < high {
				cl.mStaleReads.Add(1)
				return true
			}
			return false
		})
	return ws
}

// resubscribe is the one resubscribe loop behind Client.Watch and
// Cluster.Watch, which differ only in its arguments. It long-polls the
// endpoints of plan() in order from the cursor. A retryable failure
// moves it to the next endpoint, and so does a batch that stale reports
// as served under a superseded epoch (a nil stale accepts every batch).
// Once a round of the plan is spent it sleeps backoff(attempt) and
// rebuilds the plan, since a failover may have rewired primary and
// replicas; a delivered batch resets attempt. A cursor compacted away
// surfaces as an OpCompacted event, and the stream resumes at the base.
func (ws *WatchStream) resubscribe(ctx context.Context, cursor uint64, o *WatchOptions,
	plan func() []*clusterReplica, backoff func(context.Context, int) error, stale func(epoch uint64) bool) {
	endpoints := plan()
	idx, attempt := 0, 0
	for {
		select {
		case <-ws.done:
			return
		default:
		}
		if ctx.Err() != nil {
			ws.finish(ctx.Err())
			return
		}
		if idx >= len(endpoints) {
			if backoff(ctx, attempt) != nil {
				ws.finish(ctx.Err())
				return
			}
			attempt++
			endpoints, idx = plan(), 0
			continue
		}
		resp, err := endpoints[idx].c.WatchPoll(ctx, cursor, o)
		var ce *WatchCompactedError
		switch {
		case errors.As(err, &ce):
			// This node's retention no longer covers the cursor. Tell the
			// consumer (it must re-sync) and resume at the base.
			if !ws.emit(ctx, watch.Event{Index: ce.Base, Op: watch.OpCompacted}) {
				return
			}
			cursor = ce.Base
			continue
		case err != nil && retryWatch(err):
			idx++
			continue
		case err != nil:
			ws.finish(err)
			return
		case stale != nil && stale(resp.Epoch):
			// A fenced era's events must never reach the consumer.
			idx++
			continue
		}
		attempt = 0
		for _, ev := range resp.Events {
			if !ws.emit(ctx, ev) {
				return
			}
		}
		cursor = max(cursor, resp.Next)
	}
}

// retryWatch reports whether a watch poll failure is worth retrying
// (same endpoint for a single-endpoint stream, next endpoint for a
// cluster stream).
func retryWatch(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return te.Retryable()
	}
	if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrWatchStaleEpoch) {
		return true
	}
	var ae *APIError
	if errors.As(err, &ae) {
		// 503s — watch_unavailable, a replica still syncing — heal when the
		// node finishes starting or another endpoint serves.
		return ae.Status == http.StatusServiceUnavailable
	}
	return false
}
