package server_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
)

// TestConcurrentServing drives the server the way production traffic
// does — N goroutine clients issuing a mix of ad-hoc and prepared
// queries over shared connections — while one goroutine checkpoints the
// WAL repeatedly and another cancels its queries mid-flight. Run under
// -race (the Makefile's test-race covers this package), it pins that the
// request path, plan cache, admission governor, and checkpoint rotation
// are mutually safe.
func TestConcurrentServing(t *testing.T) {
	db := newDemoDB(t, core.WithWAL(t.TempDir()))
	_, c := newTestServer(t, db, server.Config{MaxInFlight: 4, MaxQueue: 64})
	ctx := context.Background()

	const clients = 8
	const perClient = 10

	stmt, err := c.Prepare(ctx, retrieveQ)
	if err != nil {
		t.Fatal(err)
	}

	var queriers sync.WaitGroup
	for i := 0; i < clients; i++ {
		queriers.Add(1)
		go func(i int) {
			defer queriers.Done()
			for j := 0; j < perClient; j++ {
				var err error
				if (i+j)%2 == 0 {
					_, err = stmt.Exec(ctx, nil)
				} else {
					_, err = c.Query(ctx, selectQ, nil)
				}
				if err != nil {
					t.Errorf("client %d query %d: %v", i, j, err)
				}
			}
		}(i)
	}

	// Canceler: fires queries it abandons almost immediately; the only
	// acceptable outcomes are success, a deadline/cancel error, or a
	// connection torn down by the abandoned request — never a hang.
	queriers.Add(1)
	go func() {
		defer queriers.Done()
		for j := 0; j < perClient; j++ {
			cctx, cancel := context.WithTimeout(ctx, 500*time.Microsecond)
			_, err := c.Query(cctx, retrieveQ, nil)
			cancel()
			var te *client.TransportError
			var ae *client.APIError
			switch {
			case err == nil: // finished under the wire
			case errors.Is(err, context.DeadlineExceeded):
			case errors.Is(err, client.ErrDeadline):
			case errors.As(err, &te):
			case errors.As(err, &ae) && ae.Code == "canceled":
			default:
				t.Errorf("canceled query surfaced %v", err)
			}
		}
	}()

	// Checkpointer: contracts the WAL while queries fly, until the query
	// clients drain.
	stopCP := make(chan struct{})
	var cp sync.WaitGroup
	cp.Add(1)
	go func() {
		defer cp.Done()
		for {
			select {
			case <-stopCP:
				return
			default:
			}
			if err := c.Checkpoint(ctx); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	done := make(chan struct{})
	go func() { queriers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("concurrent serving deadlocked")
	}
	close(stopCP)
	cp.Wait()
}

// TestConcurrentPrepareSameStatement hammers the statement table's
// concurrent-miss path: many goroutines prepare the same statement at
// once; all must succeed and the table must converge to one shape.
func TestConcurrentPrepareSameStatement(t *testing.T) {
	db := newDemoDB(t)
	_, c := newTestServer(t, db, server.Config{})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stmt, err := c.Prepare(ctx, retrieveQ)
			if err != nil {
				t.Errorf("prepare: %v", err)
				return
			}
			if _, err := stmt.Exec(ctx, nil); err != nil {
				t.Errorf("exec: %v", err)
			}
		}()
	}
	wg.Wait()
	if n, _ := db.StatementTable(); n != 1 {
		t.Errorf("statement table holds %d shapes for one statement", n)
	}
}

// TestQueueBoundedUnderBurst asserts the wait queue admits up to its
// bound and rejects the rest, and that every admitted request completes.
func TestQueueBoundedUnderBurst(t *testing.T) {
	db := newDemoDB(t)
	_, c := newTestServer(t, db, server.Config{MaxInFlight: 1, MaxQueue: 2})
	ctx := context.Background()

	const burst = 24
	var rejected, completed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Query(ctx, retrieveQ, nil)
			switch {
			case err == nil:
				completed.Add(1)
			case errors.Is(err, client.ErrOverloaded):
				rejected.Add(1)
			default:
				t.Errorf("unexpected error under burst: %v", err)
			}
		}()
	}
	wg.Wait()
	if completed.Load() == 0 {
		t.Error("no request completed under burst")
	}
	t.Logf("burst of %d: %d completed, %d rejected (429)", burst, completed.Load(), rejected.Load())
	if completed.Load()+rejected.Load() != burst {
		t.Errorf("requests unaccounted for: %d + %d != %d",
			completed.Load(), rejected.Load(), burst)
	}
}
