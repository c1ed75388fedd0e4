package server_test

import (
	"context"
	"errors"
	"net"
	"testing"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/server"
)

// TestClientSurfacesDroppedConnection serves through a chaos.FlakyListener
// that severs every connection after a handful of response bytes — the
// shape of a server dying mid-response — and asserts the client surfaces
// a typed *client.TransportError, never a truncated success.
func TestClientSurfacesDroppedConnection(t *testing.T) {
	s := server.New(newDemoDB(t), server.Config{})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Budget of 64 bytes: enough for the status line to start flowing,
	// never enough for a full query response body.
	flaky := chaos.NewFlakyListener(inner, 64, 0)
	go s.Serve(flaky)
	defer s.Shutdown(context.Background())

	c := client.New("http://" + inner.Addr().String())
	_, err = c.Query(context.Background(), retrieveQ, nil)
	if err == nil {
		t.Fatal("query over severed connection returned success")
	}
	var te *client.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("want *client.TransportError, got %T: %v", err, err)
	}
	if flaky.Severed() == 0 {
		t.Error("flaky listener reports no severed connections")
	}
}

// TestClientHealsAfterFlakyWindow lets the first connections through a
// fault window die, then heals the listener path by skipping injection —
// the retry pattern callers build on the *client.TransportError type.
func TestClientHealsAfterFlakyWindow(t *testing.T) {
	s := server.New(newDemoDB(t), server.Config{})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := chaos.NewFlakyListener(inner, 64, 0)
	go s.Serve(flaky)
	defer s.Shutdown(context.Background())

	c := client.New("http://" + inner.Addr().String())
	ctx := context.Background()

	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt == 2 {
			flaky.Heal() // outage ends
		}
		_, lastErr = c.Query(ctx, selectQ, nil)
		if lastErr == nil {
			if attempt < 2 {
				t.Fatalf("query succeeded during the outage (attempt %d)", attempt)
			}
			return
		}
		var te *client.TransportError
		if !errors.As(lastErr, &te) {
			t.Fatalf("attempt %d: non-transport error %v", attempt, lastErr)
		}
	}
	t.Fatalf("client never recovered after outage: %v", lastErr)
}

// TestConnectionRefusedIsTransport pins the other transport failure
// class: nothing listening at all.
func TestConnectionRefusedIsTransport(t *testing.T) {
	// Grab a port and release it so nothing serves there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := client.New("http://" + addr)
	_, err = c.Query(context.Background(), selectQ, nil)
	var te *client.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("want *client.TransportError, got %T: %v", err, err)
	}
}
