package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestServeFollowPromote runs the cluster lifecycle through the CLI: a
// WAL-backed primary with the demo topology, a -follow replica serving
// read-only queries against replicated state, and -connect -promote
// turning the replica into a writable primary.
func TestServeFollowPromote(t *testing.T) {
	startServer := func(opt options) (addr string, stop chan struct{}, errCh chan error) {
		t.Helper()
		ready := make(chan string, 1)
		stop = make(chan struct{})
		errCh = make(chan error, 1)
		opt.serveAddr = "127.0.0.1:0"
		opt.ready = func(a string) { ready <- a }
		opt.stop = stop
		go func() { errCh <- run(opt) }()
		select {
		case addr = <-ready:
		case err := <-errCh:
			t.Fatalf("server exited before ready: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("server never became ready")
		}
		return addr, stop, errCh
	}

	paddr, pstop, perr := startServer(options{
		model: "netmodel", demo: true, backend: "gremlin",
		walDir: t.TempDir(),
	})
	raddr, rstop, rerr := startServer(options{
		model: "netmodel", backend: "gremlin",
		followURL: "http://" + paddr, walDir: t.TempDir(),
	})

	// The replica answers reads once replicated; poll through the client
	// path since replication is asynchronous.
	q := "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)"
	var out bytes.Buffer
	deadline := time.Now().Add(15 * time.Second)
	for {
		out.Reset()
		err := run(options{connectURL: "http://" + raddr, q: q, out: &out})
		if err == nil && strings.Contains(out.String(), "ComputeHost") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never served replicated reads: err=%v out=%q", err, out.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// -connect -promote flips the replica to primary.
	out.Reset()
	if err := run(options{connectURL: "http://" + raddr, promote: true, out: &out}); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !strings.Contains(out.String(), "promoted") {
		t.Errorf("promote output: %q", out.String())
	}

	// -follow without -serve, and -follow without -wal-dir, are usage
	// errors.
	if err := run(options{model: "netmodel", followURL: "http://" + paddr}); err == nil {
		t.Error("-follow without -serve accepted")
	}
	if err := run(options{model: "netmodel", followURL: "http://" + paddr, serveAddr: "127.0.0.1:0"}); err == nil ||
		!strings.Contains(err.Error(), "-wal-dir") {
		t.Errorf("-follow without -wal-dir: %v", err)
	}

	for name, pair := range map[string]struct {
		stop chan struct{}
		err  chan error
	}{"primary": {pstop, perr}, "replica": {rstop, rerr}} {
		close(pair.stop)
		select {
		case err := <-pair.err:
			if err != nil {
				t.Fatalf("%s shutdown: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never shut down", name)
		}
	}
}
