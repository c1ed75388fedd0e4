package chaos_test

// Replication under injected faults: WAL streams severed mid-batch must
// resume from the last applied offset without a full re-bootstrap, and
// killing the primary outright must leave a promotable follower holding
// every acknowledged mutation.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

// serveOn runs srv's handler on l until the test ends; Close kills the
// listener abruptly (the kill-the-primary fault).
func serveOn(t *testing.T, s *server.Server, l net.Listener) (base string) {
	t.Helper()
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(l)
	t.Cleanup(func() { hs.Close() })
	return "http://" + l.Addr().String()
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func openWALDB(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.Open(netmodel.MustSchema(), core.WithWALOptions(t.TempDir(), wal.Options{NoSync: true}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func history(t *testing.T, db *core.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Store().WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSeveredStreamResumesFromOffset cuts every replication connection
// after a small write budget: the follower must reconnect and resume
// from its applied offset — never re-bootstrap — and still converge to a
// byte-identical copy.
func TestSeveredStreamResumesFromOffset(t *testing.T) {
	pdb := openWALDB(t)
	if _, err := netmodel.BuildDemo(pdb.Store(), 1000); err != nil {
		t.Fatal(err)
	}
	ps := server.New(pdb, server.Config{})

	// Every connection may write ~6KB of response before it is cut with a
	// RST — a handful of WAL frames per attempt, so replication only
	// finishes by resuming across many severed streams.
	flaky := chaos.NewFlakyListener(listen(t), 6*1024, 0)
	purl := serveOn(t, ps, flaky)

	fdb := openWALDB(t)
	f := repl.NewFollower(fdb.Store(), repl.FollowerConfig{
		Primary:      purl,
		PollWait:     100 * time.Millisecond,
		ReconnectMin: time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
	})
	f.Start()
	t.Cleanup(f.Stop)

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := f.Status()
		if st.CaughtUp && st.Applied == pdb.WAL().NextIndex() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged through severed streams: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	flaky.Heal()

	st := f.Status()
	if st.Bootstraps != 0 {
		t.Fatalf("follower re-bootstrapped %d times; severed streams must resume from offset", st.Bootstraps)
	}
	if flaky.Severed() == 0 {
		t.Fatal("fault never fired; test proves nothing")
	}
	if st.Reconnects == 0 {
		t.Fatal("no reconnects recorded despite severed connections")
	}
	if p, r := history(t, pdb), history(t, fdb); !bytes.Equal(p, r) {
		t.Fatalf("replica history diverged: primary %d bytes, replica %d bytes", len(p), len(r))
	}
}

// TestKillPrimaryPromoteKeepsAckedWrites kills the primary server
// abruptly after a burst of acknowledged writes, fails the cluster over,
// and proves the promoted follower holds every acked mutation — then
// keeps acking new ones durably.
func TestKillPrimaryPromoteKeepsAckedWrites(t *testing.T) {
	pdb := openWALDB(t)
	if _, err := netmodel.BuildDemo(pdb.Store(), 1000); err != nil {
		t.Fatal(err)
	}
	ps := server.New(pdb, server.Config{})
	pl := listen(t)
	purl := serveOn(t, ps, pl)

	fdb := openWALDB(t)
	fs := server.New(fdb, server.Config{Follow: &repl.FollowerConfig{
		Primary:      purl,
		PollWait:     100 * time.Millisecond,
		ReconnectMin: time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
	}})
	f := fs.Follower()
	t.Cleanup(f.Stop)
	furl := serveOn(t, fs, listen(t))

	cl, err := client.NewCluster(client.ClusterConfig{
		Primary:    purl,
		Replicas:   []string{furl},
		BackoffMin: time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Acked writes: each nil-error Ingest is durable on the primary.
	const acked = 25
	for i := 0; i < acked; i++ {
		_, err := cl.Ingest(ctx, []server.IngestOp{{
			Op: "insert-node", Class: "ComputeHost",
			Fields: map[string]any{"id": int64(50000 + i), "name": fmt.Sprintf("acked-%d", i), "rack": "rz", "status": "Active"},
		}})
		if err != nil {
			t.Fatalf("acked write %d: %v", i, err)
		}
	}

	// Let replication drain, then kill the primary mid-flight: no
	// shutdown, no drain, the listener and every connection just die.
	next := pdb.WAL().NextIndex()
	deadline := time.Now().Add(10 * time.Second)
	for f.Status().Applied < next {
		if time.Now().After(deadline) {
			t.Fatalf("follower never drained: %+v", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// Failover: promote the follower and rewire the cluster to it.
	nc, err := cl.Failover(ctx)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if nc.Base() != furl {
		t.Fatalf("failover promoted %s; want %s", nc.Base(), furl)
	}

	// Zero acked-mutation loss: every pre-kill write answers on the new
	// primary.
	res, err := cl.Query(ctx, "Select source(P).name From PATHS P Where P MATCHES ComputeHost(rack='rz')", nil)
	if err != nil {
		t.Fatalf("post-failover query: %v", err)
	}
	if len(res.Rows) != acked {
		t.Fatalf("promoted follower holds %d of %d acked writes", len(res.Rows), acked)
	}

	// The promoted node acks new writes durably into its own WAL.
	if _, err := cl.Ingest(ctx, []server.IngestOp{{
		Op: "insert-node", Class: "ComputeHost",
		Fields: map[string]any{"id": int64(60000), "name": "post-failover", "rack": "rz", "status": "Active"},
	}}); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	res, err = cl.Query(ctx, "Select source(P).name From PATHS P Where P MATCHES ComputeHost(rack='rz')", nil)
	if err != nil || len(res.Rows) != acked+1 {
		t.Fatalf("read-your-write after failover: rows=%d err=%v", len(res.Rows), err)
	}

	// Lag and reconnect accounting survived in Prometheus form.
	mtx, err := nc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"repl_follower_applied_index", "repl_follower_lag_records", "repl_follower_reconnects"} {
		if !bytes.Contains([]byte(mtx), []byte(name)) {
			t.Errorf("prometheus dump missing %s", name)
		}
	}
}
