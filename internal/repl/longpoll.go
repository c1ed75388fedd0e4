package repl

import (
	"fmt"
	"net/http"
	"net/url"
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

// MaxWait caps the hold a feed request's wait_ms asks for, on /v1/wal
// and /v1/watch alike.
const MaxWait = 60 * time.Second

// MaxQueue caps the notification queue a standing-query subscriber of
// /v1/watch/query asks for with queue=: the queue is allocated whole
// when the stream opens.
const MaxQueue = 4096

// Param reads the optional non-negative integer parameter name of q; ok
// is false when it is absent. A value that is not a decimal integer in
// [0, MaxInt] is an error naming the parameter. Every integer parameter
// of the feed endpoints goes through it; what an absent or zero value
// means stays the endpoint's.
func Param(q url.Values, name string) (n int, ok bool, err error) {
	v := q.Get(name)
	if v == "" {
		return 0, false, nil
	}
	u, err := strconv.ParseUint(v, 10, strconv.IntSize-1)
	if err != nil {
		return 0, false, fmt.Errorf("%s must be a non-negative integer", name)
	}
	return int(u), true, nil
}

// Wait reads q's wait_ms: the hold it asks for, clamped to MaxWait
// before it is converted, so no value overflows into a shorter wait. It
// is 0 when absent.
func Wait(q url.Values) (time.Duration, error) {
	ms, _, err := Param(q, "wait_ms")
	return time.Duration(min(ms, int(MaxWait/time.Millisecond))) * time.Millisecond, err
}

// SupersededBy reads a feed request's epoch= pin, the highest epoch the
// requester has seen, and lets the node observe it; a superseded primary
// fences itself. It returns the pin when the pin proves this node was
// superseded, and 0 otherwise; the caller answers its own 409. A
// malformed pin is answered 400 here, and ok is false.
func (n *Node) SupersededBy(w http.ResponseWriter, r *http.Request) (pin uint64, ok bool) {
	remote, _, err := Param(r.URL.Query(), "epoch")
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return 0, false
	}
	if !n.Observe(uint64(remote)) {
		return 0, true
	}
	return uint64(remote), true
}
