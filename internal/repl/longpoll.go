package repl

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Wake says why a parked feed request woke up.
type Wake int

const (
	// Appended: the log grew. A request's first round runs as Appended
	// too, before any wait, unless the request has no wait.
	Appended Wake = iota
	// Expired: the request's timer fired. A request with no wait (every
	// is 0) runs its first round as Expired: it may not park.
	Expired
	// Drained: the server is shutting down. This is the last round.
	Drained
)

// LongPoll is the one loop that follows the log for an HTTP request. The
// /v1/wal feed, the /v1/watch long-poll and its SSE stream all run it.
// They differ only in round, which reads from the log, writes what it
// read and reports whether the response is complete. changed() is
// called before each round, so a record appended between round's read
// and the wait still wakes the loop. Between rounds the request parks
// until the log grows (the next round runs as Appended), the timer
// fires (as Expired; it fires once per every), the server drains (one
// last round, as Drained) or the client leaves (no round). With every 0
// there is no timer and the first round runs as Expired, so a round
// that parks only on an empty Appended read never parks such a request.
// waiters, when non-nil, counts parked requests.
func LongPoll(r *http.Request, changed func() <-chan struct{}, drain <-chan struct{},
	every time.Duration, waiters *obs.Gauge, round func(Wake) (done bool)) {
	var tick <-chan time.Time
	why := Expired // no wait: the first round may not park
	if every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		why, tick = Appended, t.C
	}
	for {
		grown := changed()
		if round(why) || why == Drained {
			return
		}
		waiters.Add(1)
		select {
		case <-grown:
			why = Appended
		case <-tick:
			why = Expired
		case <-drain:
			why = Drained
		case <-r.Context().Done():
		}
		waiters.Add(-1)
		if r.Context().Err() != nil {
			return
		}
	}
}

// SupersededBy reads a feed request's epoch= pin, the highest epoch the
// requester has seen, and lets the node observe it; a superseded primary
// fences itself. It returns the pin when the pin proves this node was
// superseded, and 0 otherwise; the caller answers its own 409. A
// malformed pin is answered 400 here, and ok is false.
func (n *Node) SupersededBy(w http.ResponseWriter, r *http.Request) (pin uint64, ok bool) {
	v := r.URL.Query().Get("epoch")
	if v == "" {
		return 0, true
	}
	remote, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", "epoch must be a non-negative integer")
		return 0, false
	}
	if !n.Observe(remote) {
		return 0, true
	}
	return remote, true
}
