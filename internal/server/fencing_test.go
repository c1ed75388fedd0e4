package server_test

// Fencing tests: the server-side half of split-brain prevention. A
// primary that learns a higher epoch exists — from an operator demote,
// an epoch-carrying client, or a follower pinned to a newer era — must
// stop acking writes (typed stale_primary) while still serving reads,
// and a re-promotion must mint a strictly higher epoch to lift the
// fence.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

func demoOp(id int64) server.IngestOp {
	return server.IngestOp{Op: "insert-node", Class: "ComputeHost",
		Fields: map[string]any{"id": id, "name": "fencing", "rack": "rz", "status": "Active"}}
}

// TestDemoteFencesPrimary: POST /v1/demote is the operator's fence —
// writes are refused as stale_primary, reads keep flowing, /readyz and
// /healthz say so, and demoting a replica is a 400.
func TestDemoteFencesPrimary(t *testing.T) {
	db := newDemoDB(t, core.WithWALOptions(t.TempDir(), wal.Options{NoSync: true}))
	t.Cleanup(func() { db.Close() })
	_, pc := newTestServer(t, db, server.Config{})
	ctx := context.Background()

	resp, err := pc.Demote(ctx)
	if err != nil {
		t.Fatalf("demote: %v", err)
	}
	if !resp.Demoted || resp.Epoch != 1 {
		t.Fatalf("demote response: %+v, want demoted at epoch 1", resp)
	}

	if _, err := pc.Ingest(ctx, []server.IngestOp{demoOp(910001)}); !errors.Is(err, client.ErrStalePrimary) {
		t.Fatalf("ingest on demoted primary: %v; want ErrStalePrimary", err)
	}
	var ae *client.APIError
	err = pc.Checkpoint(ctx)
	if !errors.Is(err, client.ErrStalePrimary) || !errors.As(err, &ae) || ae.Status != 403 {
		t.Fatalf("checkpoint on demoted primary: %v; want stale_primary 403", err)
	}

	// Reads keep serving: a fenced node is degraded, not dead.
	if res, qerr := pc.Query(ctx, selectQ, nil); qerr != nil || len(res.Rows) == 0 {
		t.Fatalf("read on fenced primary: rows=%v err=%v", res, qerr)
	}

	ready, st, err := pc.Ready(ctx)
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	if ready || st.Status != "fenced" || !st.Fenced || st.Role != "primary" {
		t.Fatalf("fenced /readyz = ready=%v %+v, want status=fenced role=primary", ready, st)
	}
	h, err := pc.Health(ctx)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if !h.Fenced || h.Epoch != 1 {
		t.Fatalf("fenced /healthz = %+v, want fenced at epoch 1", h)
	}

	// Demote is for primaries; a replica is already read-only.
	_, rc, _ := newReplicaPair(t)
	if _, err := rc.Demote(ctx); err == nil {
		t.Fatal("demote on a replica succeeded")
	}
}

// TestClientEpochHeaderFencesStalePrimary: a mutation carrying a higher
// X-Nepal-Epoch — what an epoch-tracking client sends after observing a
// newer primary — teaches the node it was superseded. The very write
// that carries the proof is refused, and the fence latches for plain
// clients too.
func TestClientEpochHeaderFencesStalePrimary(t *testing.T) {
	db := newDemoDB(t, core.WithWALOptions(t.TempDir(), wal.Options{NoSync: true}))
	t.Cleanup(func() { db.Close() })
	_, pc := newTestServer(t, db, server.Config{})
	ctx := context.Background()

	future := client.New(pc.Base(), client.WithEpochExchange(func() uint64 { return 5 }, nil))
	if _, err := future.Ingest(ctx, []server.IngestOp{demoOp(910002)}); !errors.Is(err, client.ErrStalePrimary) {
		t.Fatalf("epoch-5 ingest against epoch-1 primary: %v; want ErrStalePrimary", err)
	}
	// The fence latched: an epoch-blind client is refused as well.
	if _, err := pc.Ingest(ctx, []server.IngestOp{demoOp(910003)}); !errors.Is(err, client.ErrStalePrimary) {
		t.Fatalf("plain ingest after fence: %v; want ErrStalePrimary", err)
	}
}

// TestRepromoteLiftsFence: promoting a fenced primary mints an epoch
// strictly above everything it has seen — its own era and the one that
// fenced it — and the node acks writes again, stamping the new epoch.
func TestRepromoteLiftsFence(t *testing.T) {
	db := newDemoDB(t, core.WithWALOptions(t.TempDir(), wal.Options{NoSync: true}))
	t.Cleanup(func() { db.Close() })
	_, pc := newTestServer(t, db, server.Config{})
	ctx := context.Background()

	// Fence via a client that has seen epoch 7.
	future := client.New(pc.Base(), client.WithEpochExchange(func() uint64 { return 7 }, nil))
	if _, err := future.Ingest(ctx, []server.IngestOp{demoOp(910004)}); !errors.Is(err, client.ErrStalePrimary) {
		t.Fatalf("fencing write: %v; want ErrStalePrimary", err)
	}

	resp, err := pc.Promote(ctx)
	if err != nil {
		t.Fatalf("re-promote of fenced primary: %v", err)
	}
	if resp.Epoch != 8 {
		t.Fatalf("re-promoted epoch = %d, want 8 (above the fencing era 7)", resp.Epoch)
	}
	ing, err := pc.Ingest(ctx, []server.IngestOp{demoOp(910005)})
	if err != nil {
		t.Fatalf("ingest after re-promote: %v", err)
	}
	if ing.Epoch != 8 {
		t.Fatalf("post-re-promote ack stamped epoch %d, want 8", ing.Epoch)
	}
	ready, st, err := pc.Ready(ctx)
	if err != nil || !ready {
		t.Fatalf("re-promoted /readyz: ready=%v err=%v", ready, err)
	}
	if st.Fenced || st.Epoch != 8 {
		t.Fatalf("re-promoted /readyz = %+v, want unfenced at epoch 8", st)
	}
}

// TestFailoverMintsAboveRepromotedPrimary: a primary is demoted and
// re-promoted (epoch 1 -> 2) after its replica's link last polled, so the
// link still holds epoch 1. A cluster client that wrote to the
// re-promoted primary has seen epoch 2, and its Failover sends that with
// the promote request: the replica must mint above both, never the live
// primary's epoch 2 again.
func TestFailoverMintsAboveRepromotedPrimary(t *testing.T) {
	pc, rc, f := newReplicaPair(t)
	waitCaughtUp(t, f)
	if st := f.Status(); st.Epoch != 1 {
		t.Fatalf("replica link pinned epoch %d, want the primary's 1", st.Epoch)
	}
	f.Stop() // the replica never polls again
	ctx := context.Background()
	if _, err := pc.Demote(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, err := pc.Promote(ctx); err != nil || resp.Epoch != 2 {
		t.Fatalf("re-promote: %+v, %v; want epoch 2", resp, err)
	}

	cl, err := client.NewCluster(client.ClusterConfig{Primary: pc.Base(), Replicas: []string{rc.Base()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Ingest(ctx, []server.IngestOp{demoOp(910010)}); err != nil {
		t.Fatal(err)
	}
	if cl.Epoch() != 2 {
		t.Fatalf("cluster saw epoch %d after writing to the re-promoted primary, want 2", cl.Epoch())
	}
	nc, err := cl.Failover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	h, err := nc.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch <= 2 || f.Status().Epoch >= h.Epoch {
		t.Fatalf("failover minted epoch %d; want above the re-promoted primary's 2 and the link's %d", h.Epoch, f.Status().Epoch)
	}
	if cl.Epoch() != h.Epoch {
		t.Fatalf("cluster epoch %d after failover, want the minted %d", cl.Epoch(), h.Epoch)
	}
}

// TestReadyzReportsDiverged: a replica parked on a forked stream must
// say so in /readyz — "diverged" is an operator-action state (rebuild
// the replica), not a transient lag.
func TestReadyzReportsDiverged(t *testing.T) {
	pdb := newDemoDB(t, core.WithWALOptions(t.TempDir(), wal.Options{NoSync: true}))
	t.Cleanup(func() { pdb.Close() })
	_, pc := newTestServer(t, pdb, server.Config{})

	cfg := repl.FollowerConfig{
		Primary:      pc.Base(),
		PollWait:     200 * time.Millisecond,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	}
	fdb, err := core.Open(netmodel.MustSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fdb.Close() })
	f := repl.NewFollower(fdb.Store(), cfg)
	f.Start()
	waitCaughtUp(t, f)
	f.Stop()

	// Resume the link with a forged prefix hash: the on-disk shape of a
	// replica that applied a forked history.
	resume := f.StreamState()
	resume.Hash ^= 0xbeef
	cfg.Resume = &resume
	fs, rc := newTestServer(t, fdb, server.Config{Follow: &cfg})
	t.Cleanup(fs.Follower().Stop)

	deadline := time.Now().Add(10 * time.Second)
	for {
		ready, st, err := rc.Ready(context.Background())
		if err != nil {
			t.Fatalf("readyz: %v", err)
		}
		if st.Diverged {
			if ready || st.Status != "diverged" {
				t.Fatalf("diverged /readyz = ready=%v %+v, want status=diverged", ready, st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reported diverged: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
