package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// TestEpochAndHashSurviveReopen pins the durability half of the fencing
// contract: the primary epoch and the chained prefix hash are recovered
// byte-for-byte from disk, so a crash-restarted primary still knows its
// era and its lineage summary.
func TestEpochAndHashSurviveReopen(t *testing.T) {
	f := newStreamFixture(t)
	if got := f.mgr.Epoch(); got != 1 {
		t.Fatalf("fresh log epoch = %d, want 1", got)
	}
	f.run(1, 25)
	if err := f.mgr.SetEpoch(4); err != nil {
		t.Fatal(err)
	}
	next, hash := f.mgr.StreamHash()
	if hash == PrefixHashSeed {
		t.Fatal("25 appends left the prefix hash at the seed")
	}
	if err := f.mgr.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := newTestStore(t)
	mgr2, _, err := Open(f.dir, st2, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if got := mgr2.Epoch(); got != 4 {
		t.Fatalf("reopened epoch = %d, want 4", got)
	}
	if n2, h2 := mgr2.StreamHash(); n2 != next || h2 != hash {
		t.Fatalf("reopened stream hash = (%d, %016x), want (%d, %016x)", n2, h2, next, hash)
	}
	// More writes keep extending the same chain: the recovered hash is
	// the live chain state, not a frozen copy.
	st2.SetMutationHook(mgr2.Append)
	if got := workload(t, st2, st2.Clock(), 9, 5); got != 5 {
		t.Fatalf("post-reopen workload acked %d/5", got)
	}
	if _, h3 := mgr2.StreamHash(); h3 == hash {
		t.Fatal("appends after reopen did not advance the prefix hash")
	}
}

// TestSetEpochMovesOnlyForward pins the monotonicity rule epochs order
// eras by.
func TestSetEpochMovesOnlyForward(t *testing.T) {
	f := newStreamFixture(t)
	if err := f.mgr.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.SetEpoch(3); err != nil {
		t.Fatalf("equal epoch should be a no-op, got %v", err)
	}
	if err := f.mgr.SetEpoch(2); err == nil {
		t.Fatal("lowering the epoch succeeded")
	}
	if got := f.mgr.Epoch(); got != 3 {
		t.Fatalf("epoch after rejected lowering = %d, want 3", got)
	}
}

// TestMangledEpochFileRefusesOpen: a corrupted epoch file must surface
// as an error, not silently re-mint era 1 — resetting the era could let
// a superseded primary masquerade as current.
func TestMangledEpochFileRefusesOpen(t *testing.T) {
	f := newStreamFixture(t)
	f.run(1, 3)
	if err := f.mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(f.dir, "epoch"), []byte("banana\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(f.dir, newTestStore(t), Options{NoSync: true})
	if err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("open over a mangled epoch file = %v, want epoch error", err)
	}
}

// TestPrefixHashDetectsFork is the lineage check in miniature: two logs
// that applied the same records agree at every shared position, and the
// moment their histories diverge the hashes at equal positions disagree
// — while the hash at the common prefix still matches, which is exactly
// how a follower localizes "same log, different era" vs "forked log".
func TestPrefixHashDetectsFork(t *testing.T) {
	a := newStreamFixture(t)
	b := newStreamFixture(t)
	a.run(1, 12)
	b.run(1, 12)

	an, ah := a.mgr.StreamHash()
	bn, bh := b.mgr.StreamHash()
	if an != bn || ah != bh {
		t.Fatalf("identical workloads disagree: (%d, %016x) vs (%d, %016x)", an, ah, bn, bh)
	}

	// Fork: same number of further records, different contents.
	a.run(2, 5)
	b.run(3, 5)
	an2, ah2 := a.mgr.StreamHash()
	bn2, bh2 := b.mgr.StreamHash()
	if an2 != bn2 {
		t.Fatalf("forked logs at different positions: %d vs %d", an2, bn2)
	}
	if ah2 == bh2 {
		t.Fatal("forked histories produced the same prefix hash")
	}
	// The shared prefix still agrees on both sides of the fork.
	aph, err := a.mgr.PrefixHash(an)
	if err != nil {
		t.Fatal(err)
	}
	bph, err := b.mgr.PrefixHash(bn)
	if err != nil {
		t.Fatal(err)
	}
	if aph != bph || aph != ah {
		t.Fatalf("common-prefix hashes disagree: a=%016x b=%016x, want %016x", aph, bph, ah)
	}
}

// TestAdoptStreamSurvivesReopen: a bootstrapping replica grafts the
// primary's identity, position, and hash onto its empty log under the
// snapshot's epoch, with the snapshot as its checkpoint, and all of it
// must survive a crash-restart — the adopted lineage is what the replica
// resumes from and what post-promotion forks are detected against.
func TestAdoptStreamSurvivesReopen(t *testing.T) {
	p := newStreamFixture(t)
	p.run(1, 18)
	next, hash := p.mgr.StreamHash()
	snapshot := historyBytes(t, p.st)

	fdir := t.TempDir()
	fst := newTestStore(t)
	fmgr, _, err := Open(fdir, fst, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := fst.LoadHistory(bytes.NewReader(snapshot)); err != nil {
		t.Fatal(err)
	}
	// Adoption never rewinds an era, and is exclusive to empty logs.
	if err := fmgr.AdoptStream(fst, p.mgr.LogID(), next, 0, hash); err == nil {
		t.Fatal("adopting a lower epoch succeeded")
	}
	if err := p.mgr.AdoptStream(p.st, "other", 0, 9, PrefixHashSeed); err == nil {
		t.Fatal("adopting onto a log with its own records succeeded")
	}
	if err := fmgr.AdoptStream(fst, p.mgr.LogID(), next, 2, hash); err != nil {
		t.Fatal(err)
	}
	if got := fmgr.Epoch(); got != 2 {
		t.Fatalf("adopted epoch = %d, want 2", got)
	}
	if n, h := fmgr.StreamHash(); n != next || h != hash {
		t.Fatalf("adopted stream hash = (%d, %016x), want (%d, %016x)", n, h, next, hash)
	}
	if err := fmgr.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := newTestStore(t)
	mgr2, stats, err := Open(fdir, st2, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if !stats.CheckpointLoaded || !bytes.Equal(historyBytes(t, st2), snapshot) {
		t.Fatalf("reopened store does not hold the adopted snapshot (checkpoint loaded %v)", stats.CheckpointLoaded)
	}
	if got := mgr2.LogID(); got != p.mgr.LogID() {
		t.Fatalf("reopened log id = %q, want the adopted %q", got, p.mgr.LogID())
	}
	if got := mgr2.Epoch(); got != 2 {
		t.Fatalf("reopened adopted epoch = %d, want 2", got)
	}
	if n, h := mgr2.StreamHash(); n != next || h != hash {
		t.Fatalf("reopened adopted stream hash = (%d, %016x), want (%d, %016x)", n, h, next, hash)
	}
	if got, err := mgr2.PrefixHash(next); err != nil || got != hash {
		t.Fatalf("PrefixHash(%d) = (%016x, %v), want (%016x, nil)", next, got, err, hash)
	}
}

// TestTornSidecarIsNotAStreamPosition: a crash while AdoptStream writes
// the active segment's sidecar must leave a log that never claimed the
// primary's lineage. A sidecar written in place would be torn to "12" of
// "123 <hash>" and read back as stream position 12 under the node's own
// identity.
func TestTornSidecarIsNotAStreamPosition(t *testing.T) {
	dir := t.TempDir()
	fs := chaos.NewCrashFS(2)
	st := newTestStore(t)
	mgr, _, err := Open(dir, st, Options{
		NoSync: true,
		OpenFile: func(name string, flag int, perm os.FileMode) (File, error) {
			return fs.OpenFile(name, flag, perm)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ownID := mgr.LogID()
	adopted := strings.Repeat("ab", 16)
	if err := mgr.AdoptStream(st, adopted, 123, 5, 0xfeed); err == nil {
		t.Fatal("adoption survived a 2-byte crash budget")
	}
	mgr.Close()

	mgr2, _, err := Open(dir, newTestStore(t), Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after a crash mid-adoption: %v", err)
	}
	defer mgr2.Close()
	if got := mgr2.NextIndex(); got != 0 {
		t.Errorf("NextIndex after a crash mid-adoption = %d, want 0", got)
	}
	if got := mgr2.LogID(); got != ownID {
		t.Errorf("log id = %q, want the node's own %q", got, ownID)
	}
	if got := mgr2.Epoch(); got != 1 {
		t.Errorf("epoch = %d, want 1", got)
	}
}

// TestOneFieldSidecarFailsOpen: a sidecar is only ever installed whole as
// "start hash", so one that is not fails recovery, naming the file,
// instead of being trusted as a stream position.
func TestOneFieldSidecarFailsOpen(t *testing.T) {
	f := newStreamFixture(t)
	f.run(1, 10)
	if err := f.mgr.Checkpoint(f.st); err != nil {
		t.Fatal(err)
	}
	f.run(2, 5)
	f.mgr.Close()
	seqs, err := listSegments(f.dir)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("segments after checkpoint = %v, %v", seqs, err)
	}
	idx := segmentIdxPath(f.dir, seqs[0])
	if err := os.WriteFile(idx, []byte("10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(f.dir, newTestStore(t), Options{NoSync: true})
	if err == nil || !strings.Contains(err.Error(), filepath.Base(idx)) {
		t.Fatalf("open over a one-field sidecar = %v, want an error naming %s", err, filepath.Base(idx))
	}
}
