package client

// Cluster failover tests against scripted fake endpoints: round-robin
// spread, lagging-replica failover, degrade-to-primary, Retry-After
// honoring, and the no-blind-write-retry rule. The full-stack versions
// (real servers, real replication) live in internal/server and
// internal/chaos.

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// fakeEndpoint is a scripted server: each request pops the next script
// entry (sticking on the last) and answers with it.
type fakeEndpoint struct {
	t     *testing.T
	srv   *httptest.Server
	hits  atomic.Int64
	reply atomic.Pointer[func(w http.ResponseWriter, r *http.Request)]
}

func newFakeEndpoint(t *testing.T) *fakeEndpoint {
	t.Helper()
	f := &fakeEndpoint{t: t}
	f.ok()
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		io.Copy(io.Discard, r.Body)
		(*f.reply.Load())(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeEndpoint) set(h func(w http.ResponseWriter, r *http.Request)) { f.reply.Store(&h) }

// ok scripts a successful empty query/ingest response.
func (f *fakeEndpoint) ok() {
	f.set(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"columns":["c"],"applied":1}`)
	})
}

// apiErr scripts a typed error envelope, optionally with Retry-After.
func (f *fakeEndpoint) apiErr(status int, code, retryAfter string) {
	f.set(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		io.WriteString(w, `{"error":{"code":"`+code+`","message":"scripted"}}`)
	})
}

// failOnce scripts one occurrence of h, then reverts to ok.
func (f *fakeEndpoint) failOnce(h func(w http.ResponseWriter, r *http.Request)) {
	var used atomic.Bool
	f.set(func(w http.ResponseWriter, r *http.Request) {
		if used.CompareAndSwap(false, true) {
			h(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"columns":["c"],"applied":1}`)
	})
}

func fastCluster(t *testing.T, primary *fakeEndpoint, replicas ...*fakeEndpoint) *Cluster {
	t.Helper()
	urls := make([]string, len(replicas))
	for i, r := range replicas {
		urls[i] = r.srv.URL
	}
	cl, err := NewCluster(ClusterConfig{
		Primary:         primary.srv.URL,
		Replicas:        urls,
		BackoffMin:      time.Millisecond,
		BackoffMax:      4 * time.Millisecond,
		ReplicaCooldown: time.Minute,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl
}

func TestClusterRoundRobinSpread(t *testing.T) {
	primary, r1, r2 := newFakeEndpoint(t), newFakeEndpoint(t), newFakeEndpoint(t)
	cl := fastCluster(t, primary, r1, r2)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := cl.Query(ctx, "q", nil); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := primary.hits.Load(); got != 0 {
		t.Fatalf("primary served %d reads; want 0 while replicas are healthy", got)
	}
	if h1, h2 := r1.hits.Load(), r2.hits.Load(); h1 != 5 || h2 != 5 {
		t.Fatalf("uneven round-robin: replica1=%d replica2=%d", h1, h2)
	}
}

func TestClusterFailsOverFromLaggingReplica(t *testing.T) {
	primary, r1, r2 := newFakeEndpoint(t), newFakeEndpoint(t), newFakeEndpoint(t)
	r1.apiErr(http.StatusServiceUnavailable, "replica_lagging", "")
	cl := fastCluster(t, primary, r1, r2)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := cl.Query(ctx, "q", nil); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if cl.ReadFailovers() == 0 {
		t.Fatal("no read failovers recorded despite a lagging replica")
	}
	// The lagging replica is sidelined after its first failure, so it sees
	// far fewer requests than the healthy one.
	if h1, h2 := r1.hits.Load(), r2.hits.Load(); h1 >= h2 {
		t.Fatalf("lagging replica not sidelined: replica1=%d replica2=%d", h1, h2)
	}
}

func TestClusterDegradesToPrimaryWhenAllReplicasDown(t *testing.T) {
	primary, r1, r2 := newFakeEndpoint(t), newFakeEndpoint(t), newFakeEndpoint(t)
	r1.srv.Close()
	r2.srv.Close()
	cl := fastCluster(t, primary, r1, r2)
	res, err := cl.Query(context.Background(), "q", nil)
	if err != nil {
		t.Fatalf("query with all replicas down: %v", err)
	}
	if len(res.Columns) != 1 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if primary.hits.Load() == 0 {
		t.Fatal("primary never consulted")
	}
	if cl.DegradedReads() == 0 {
		t.Fatal("degraded-read counter not incremented")
	}
}

func TestClusterReadNotRetriedOnNonRetryableError(t *testing.T) {
	primary, r1, r2 := newFakeEndpoint(t), newFakeEndpoint(t), newFakeEndpoint(t)
	r1.apiErr(http.StatusUnprocessableEntity, "limit", "")
	r2.apiErr(http.StatusUnprocessableEntity, "limit", "")
	cl := fastCluster(t, primary, r1, r2)
	_, err := cl.Query(context.Background(), "q", nil)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v; want ErrLimit", err)
	}
	if total := r1.hits.Load() + r2.hits.Load() + primary.hits.Load(); total != 1 {
		t.Fatalf("query errors that every endpoint reproduces must not fail over; %d attempts", total)
	}
}

func TestClusterWriteRetriesOnlyOverloaded(t *testing.T) {
	primary := newFakeEndpoint(t)
	primary.failOnce(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":{"code":"overloaded","message":"queue full"}}`)
	})
	cl := fastCluster(t, primary)
	if _, err := cl.Ingest(context.Background(), []server.IngestOp{{Op: "delete", UID: 1}}); err != nil {
		t.Fatalf("ingest after 429: %v", err)
	}
	if got := primary.hits.Load(); got != 2 {
		t.Fatalf("attempts = %d; want 2 (429 then success)", got)
	}

	// A transport failure mid-write is NOT retried: the mutation may have
	// been applied.
	cut := newFakeEndpoint(t)
	cut.set(func(w http.ResponseWriter, r *http.Request) {
		hj, _ := w.(http.Hijacker)
		conn, _, _ := hj.Hijack()
		conn.Close()
	})
	cl2 := fastCluster(t, cut)
	_, err := cl2.Ingest(context.Background(), []server.IngestOp{{Op: "delete", UID: 1}})
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v; want *TransportError", err)
	}
	if got := cut.hits.Load(); got != 1 {
		t.Fatalf("transport-failed write retried: %d attempts", got)
	}
}

func TestClusterHonorsRetryAfter(t *testing.T) {
	primary := newFakeEndpoint(t)
	primary.failOnce(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":{"code":"overloaded","message":"queue full"}}`)
	})
	cl, err := NewCluster(ClusterConfig{
		Primary:    primary.srv.URL,
		BackoffMin: time.Millisecond,
		BackoffMax: 600 * time.Millisecond, // Retry-After cap = 2×max ≥ 1s
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	start := time.Now()
	if _, err := cl.Ingest(context.Background(), []server.IngestOp{{Op: "delete", UID: 1}}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retry fired after %v; Retry-After: 1 demands ≥1s", elapsed)
	}
}

func TestClusterFailoverPromotesAReplica(t *testing.T) {
	primary, r1, r2 := newFakeEndpoint(t), newFakeEndpoint(t), newFakeEndpoint(t)
	primary.srv.Close() // the primary is gone
	r1.srv.Close()      // first replica is gone too
	r2.set(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/promote" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"promoted":true,"stream_position":42}`)
	})
	cl := fastCluster(t, primary, r1, r2)
	nc, err := cl.Failover(context.Background())
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if nc.Base() != r2.srv.URL {
		t.Fatalf("promoted %s; want %s", nc.Base(), r2.srv.URL)
	}
	if cl.Primary().Base() != r2.srv.URL {
		t.Fatalf("cluster primary not rewired: %s", cl.Primary().Base())
	}
	for _, rep := range cl.Replicas() {
		if rep.Base() == r2.srv.URL {
			t.Fatal("promoted node still in the read rotation")
		}
	}
}

func TestTransportErrorRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"connection refused", errors.New("dial tcp: connection refused"), true},
		{"unexpected EOF", io.ErrUnexpectedEOF, true},
		{"tls record header", tls.RecordHeaderError{Msg: "not tls"}, false},
		{"scheme mismatch", http.ErrSchemeMismatch, false},
	}
	for _, tc := range cases {
		te := &TransportError{Op: "send", Err: tc.err}
		if got := te.Retryable(); got != tc.want {
			t.Errorf("%s: Retryable() = %v; want %v", tc.name, got, tc.want)
		}
	}
}

// TestBackoffSurvivesLargeAttempt pins the overflow guard: a retry
// budget in the dozens must not shift the backoff into a negative
// duration (which would panic the jitter draw).
func TestBackoffSurvivesLargeAttempt(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		Primary:    "http://127.0.0.1:0",
		BackoffMin: time.Millisecond,
		BackoffMax: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, attempt := range []int{0, 1, 40, 63, 200} {
		if err := cl.backoff(context.Background(), attempt, nil); err != nil {
			t.Fatalf("backoff(attempt=%d): %v", attempt, err)
		}
	}
}
