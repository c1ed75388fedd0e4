package chaos_test

// The headline split-brain drill. A primary is partitioned away (live
// connections cut, new ones refused, the server itself still running),
// the cluster fails over to its most-caught-up replica, and the stale
// primary — never told it lost the role — keeps accepting writes into
// the same log identity at the same stream positions: a forked history.
// The fencing and fork-detection machinery must then deliver four
// guarantees at once when the partition heals:
//
//  1. the stale primary self-fences on first contact with the new era
//     (here: a client stamping the new epoch on a write) and rejects
//     further mutations with "stale_primary";
//  2. no write acked under the new epoch is lost;
//  3. no client read ever observes the stale fork once that client has
//     seen the new epoch (ErrStaleRead forces a retry elsewhere);
//  4. a follower that replicated the stale fork parks typed ErrDiverged
//     when repointed at the new primary — the prefix hashes disagree at
//     its position — instead of applying either side of the fork.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/netmodel"
	"repro/internal/repl"
	"repro/internal/server"
)

func TestPartitionedPrimarySplitBrainIsFencedAndDetected(t *testing.T) {
	ctx := context.Background()

	// ---- topology: primary P behind a partitionable listener, replica
	// F1 (will be promoted), replica F2 (will replicate the stale fork).
	pdb := openWALDB(t)
	if _, err := netmodel.BuildDemo(pdb.Store(), 300); err != nil {
		t.Fatal(err)
	}
	ps := server.New(pdb, server.Config{})
	flaky := chaos.NewFlakyListener(listen(t), 0, 0)
	purl := serveOn(t, ps, flaky)

	fcfg := func() repl.FollowerConfig {
		return repl.FollowerConfig{
			Primary:      purl,
			PollWait:     100 * time.Millisecond,
			ReconnectMin: time.Millisecond,
			ReconnectMax: 20 * time.Millisecond,
		}
	}
	f1db := openWALDB(t)
	f1cfg := fcfg()
	f1s := server.New(f1db, server.Config{Follow: &f1cfg})
	f1 := f1s.Follower()
	t.Cleanup(f1.Stop)
	f1url := serveOn(t, f1s, listen(t))

	f2db := openWALDB(t)
	f2 := repl.NewFollower(f2db.Store(), fcfg())
	f2.Start()
	t.Cleanup(f2.Stop)

	cl, err := client.NewCluster(client.ClusterConfig{
		Primary:    purl,
		Replicas:   []string{f1url},
		BackoffMin: time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	ingest := func(c interface {
		Ingest(context.Context, []server.IngestOp) (*server.IngestResponse, error)
	}, id int64, name, rack string) error {
		_, err := c.Ingest(ctx, []server.IngestOp{{
			Op: "insert-node", Class: "ComputeHost",
			Fields: map[string]any{"id": id, "name": name, "rack": rack, "status": "Active"},
		}})
		return err
	}

	// ---- epoch-1 writes, fully replicated to both followers.
	const acked = 20
	for i := 0; i < acked; i++ {
		if err := ingest(cl, int64(50000+i), fmt.Sprintf("acked-%d", i), "rz"); err != nil {
			t.Fatalf("acked write %d: %v", i, err)
		}
	}
	drainTo := pdb.WAL().NextIndex()
	waitApplied(t, f1, drainTo, "f1 pre-partition")
	waitApplied(t, f2, drainTo, "f2 pre-partition")

	// ---- partition the primary. Its server keeps running and still
	// believes it is the primary; only the network is gone.
	flaky.Partition()

	// ---- fail over. The cluster ranks replicas by applied index and
	// promotes the most caught-up one; F1 adopts the primary's log
	// identity and positions under a freshly minted higher epoch.
	nc, err := cl.Failover(ctx)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if nc.Base() != f1url {
		t.Fatalf("failover promoted %s; want %s", nc.Base(), f1url)
	}
	if cl.Epoch() < 2 {
		t.Fatalf("failover observed epoch %d; want >= 2", cl.Epoch())
	}

	// ---- new-epoch acked writes. More of them than the stale fork will
	// hold, so the fork point lies strictly inside the new primary's log
	// and the prefix-hash comparison (not a position bound) must catch it.
	const postAcked = 12
	for i := 0; i < postAcked; i++ {
		if err := ingest(cl, int64(60000+i), fmt.Sprintf("post-%d", i), "rz"); err != nil {
			t.Fatalf("post-failover write %d: %v", i, err)
		}
	}

	// ---- heal the partition. The stale primary reappears, unfenced,
	// and acks rogue writes into the same log at the same positions —
	// the split brain is now physical. F2, still pointed at it, faithfully
	// replicates the fork.
	flaky.Heal()
	rogue := client.New(purl)
	const rogueWrites = 3
	for i := 0; i < rogueWrites; i++ {
		if err := ingest(rogue, int64(70000+i), fmt.Sprintf("rogue-%d", i), "rogue"); err != nil {
			t.Fatalf("rogue write %d (stale primary should still ack — not fenced yet): %v", i, err)
		}
	}
	waitApplied(t, f2, pdb.WAL().NextIndex(), "f2 stale fork")

	// ---- a fresh client that discovers the new era fences the stale
	// primary on contact: its write stamps the new epoch, the stale
	// primary answers "stale_primary" and goes read-only, and the client
	// rediscovers the true primary and lands the write there.
	cl2, err := client.NewCluster(client.ClusterConfig{
		Primary:    purl, // stale endpoint configuration, on purpose
		Replicas:   []string{f1url},
		BackoffMin: time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Query(ctx, "Select source(P).name From PATHS P Where P MATCHES ComputeHost(rack='rz')", nil); err != nil {
		t.Fatalf("cl2 discovery read: %v", err)
	}
	if cl2.Epoch() < 2 {
		t.Fatalf("cl2 never observed the new epoch (saw %d)", cl2.Epoch())
	}
	if err := ingest(cl2, 80000, "fencing-write", "rz"); err != nil {
		t.Fatalf("cl2 write should have rediscovered the primary: %v", err)
	}
	if cl2.Rediscoveries() == 0 {
		t.Fatal("cl2 write landed without a stale_primary rediscovery; fencing never fired")
	}

	// The stale primary is now fenced: mutations rejected typed, health
	// and readiness say so, reads still flow.
	if err := ingest(rogue, 70099, "rogue-after-fence", "rogue"); !errors.Is(err, client.ErrStalePrimary) {
		t.Fatalf("write to fenced primary: got %v, want ErrStalePrimary", err)
	}
	if h, err := rogue.Health(ctx); err != nil || !h.Fenced {
		t.Fatalf("stale primary health: fenced=%v err=%v", h != nil && h.Fenced, err)
	}
	if ready, st, err := rogue.Ready(ctx); err != nil || ready || st == nil || st.Status != "fenced" {
		t.Fatalf("stale primary readiness: ready=%v status=%+v err=%v", ready, st, err)
	}
	if res, err := rogue.Query(ctx, "Select source(P).name From PATHS P Where P MATCHES ComputeHost(rack='rogue')", nil); err != nil || len(res.Rows) != rogueWrites {
		t.Fatalf("fenced primary must still serve reads: rows=%v err=%v", res, err)
	}

	// ---- zero new-epoch acked-write loss, and the fork never leaked:
	// every write acked under epoch 2 answers on the new primary; no
	// rogue write does.
	res, err := nc.Query(ctx, "Select source(P).name From PATHS P Where P MATCHES ComputeHost(rack='rz')", nil)
	if err != nil {
		t.Fatalf("new-primary audit query: %v", err)
	}
	if want := acked + postAcked + 1; len(res.Rows) != want {
		t.Fatalf("new primary holds %d of %d acked writes", len(res.Rows), want)
	}
	if res, err := nc.Query(ctx, "Select source(P).name From PATHS P Where P MATCHES ComputeHost(rack='rogue')", nil); err != nil || len(res.Rows) != 0 {
		t.Fatalf("rogue fork leaked onto the new primary: rows=%d err=%v", len(res.Rows), err)
	}

	// ---- no interleaved histories. A client pinned to the new era but
	// with the fenced stale primary still in its read rotation must
	// reject every answer that node serves (lower epoch) and retry onto
	// the new primary — the caller never sees the old fork.
	cl3, err := client.NewCluster(client.ClusterConfig{
		Primary:    f1url,
		Replicas:   []string{purl}, // the fenced stale primary, still serving reads
		BackoffMin: time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ingest(cl3, 80001, "epoch-seed", "rz"); err != nil {
		t.Fatalf("cl3 seed write: %v", err)
	}
	if cl3.Epoch() < 2 {
		t.Fatalf("cl3 never observed the new epoch (saw %d)", cl3.Epoch())
	}
	const allAcked = acked + postAcked + 2 // + fencing-write + epoch-seed
	for i := 0; i < 6; i++ {
		res, err := cl3.Query(ctx, "Select source(P).name From PATHS P Where P MATCHES ComputeHost(rack='rz')", nil)
		if err != nil {
			t.Fatalf("cl3 read %d: %v", i, err)
		}
		if res.Epoch < 2 {
			t.Fatalf("cl3 accepted an answer from epoch %d after seeing epoch %d", res.Epoch, cl3.Epoch())
		}
		if len(res.Rows) != allAcked {
			t.Fatalf("cl3 read %d returned %d rows, want %d — histories interleaved", i, len(res.Rows), allAcked)
		}
	}
	if cl3.StaleReads() == 0 {
		t.Fatal("no read was ever rejected as stale; the fenced primary never answered, test proves less than it should")
	}

	// ---- fork detection. Repoint F2 — which replicated the rogue fork —
	// at the new primary, resuming from its stream state. Its prefix hash
	// at its applied position disagrees with the new primary's chain, so
	// it must park typed ErrDiverged with nothing applied, not replay
	// either side of the fork.
	forkApplied, _ := f2.Applied()
	f2.Stop()
	resume := f2.StreamState()
	repointed := repl.NewFollower(f2db.Store(), repl.FollowerConfig{
		Primary:      f1url,
		PollWait:     100 * time.Millisecond,
		ReconnectMin: time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
		Resume:       &resume,
	})
	repointed.Start()
	t.Cleanup(repointed.Stop)
	deadline := time.Now().Add(10 * time.Second)
	for !repointed.Status().Diverged {
		if time.Now().After(deadline) {
			t.Fatalf("repointed follower never parked diverged: %+v", repointed.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := repointed.Status()
	if got, _ := repointed.Applied(); got != forkApplied {
		t.Fatalf("diverged follower applied records across the fork: %d -> %d", forkApplied, got)
	}
	if !strings.Contains(st.LastError, repl.ErrDiverged.Error()) {
		t.Fatalf("diverged follower's last error is %q; want it to carry ErrDiverged", st.LastError)
	}

	// ---- observability: the fence and the epochs are visible in the
	// Prometheus dumps on both sides of the brain.
	pm, err := rogue.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pm, "server_fenced 1") {
		t.Fatal("stale primary's prometheus dump does not report server_fenced 1")
	}
	nm, err := nc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nm, "repl_epoch 2") {
		t.Fatal("new primary's prometheus dump does not report repl_epoch 2")
	}
}

// waitApplied blocks until f has applied through at least next.
func waitApplied(t *testing.T, f *repl.Follower, next uint64, who string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := f.Status()
		if st.Applied >= next {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never drained to %d: %+v", who, next, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
