package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/temporal"
)

// streamFixture is a WAL-backed store with the append hook installed,
// plus a deterministic workload driver.
type streamFixture struct {
	t     *testing.T
	dir   string
	st    *graph.Store
	mgr   *Manager
	clock *temporal.Clock
}

func newStreamFixture(t *testing.T) *streamFixture {
	t.Helper()
	dir := t.TempDir()
	st := graph.NewStore(testSchema(t), temporal.NewManualClock(t0), obs.NewRegistry())
	mgr, _, err := Open(dir, st, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	st.SetMutationHook(mgr.Append)
	return &streamFixture{t: t, dir: dir, st: st, mgr: mgr, clock: st.Clock()}
}

func (f *streamFixture) run(seed int64, n int) {
	f.t.Helper()
	if got := workload(f.t, f.st, f.clock, seed, n); got != n {
		f.t.Fatalf("workload acked %d/%d mutations", got, n)
	}
}

// replayInto decodes a shipped batch and applies every group to st.
func replayInto(t *testing.T, st *graph.Store, batch []byte) int {
	t.Helper()
	applied := 0
	for len(batch) > 0 {
		ms, ends, err := DecodeGroup(batch)
		if err != nil {
			t.Fatalf("decoding shipped batch: %v", err)
		}
		if _, err := st.ApplyMutation(ms...); err != nil {
			t.Fatalf("applying shipped group: %v", err)
		}
		batch = batch[ends[len(ends)-1]:]
		applied += len(ms)
	}
	return applied
}

// TestStreamIndexStableAcrossReopen pins the global-index contract: the
// stream position is the count of records ever appended, and both
// NextIndex and BaseIndex survive restarts — including after checkpoints
// have pruned the early segments whose record counts originally defined
// the positions.
func TestStreamIndexStableAcrossReopen(t *testing.T) {
	f := newStreamFixture(t)
	f.run(1, 40)
	if got := f.mgr.NextIndex(); got != 40 {
		t.Fatalf("NextIndex = %d, want 40", got)
	}
	if got := f.mgr.BaseIndex(); got != 0 {
		t.Fatalf("BaseIndex = %d, want 0", got)
	}

	if err := f.mgr.Checkpoint(f.st); err != nil {
		t.Fatal(err)
	}
	if got := f.mgr.BaseIndex(); got != 40 {
		t.Fatalf("BaseIndex after checkpoint = %d, want 40", got)
	}
	f.run(2, 25)
	if got := f.mgr.NextIndex(); got != 65 {
		t.Fatalf("NextIndex = %d, want 65", got)
	}
	f.mgr.Close()

	// Reopen: segment 1 is gone, so only the ".idx" sidecar knows the
	// surviving segment starts at 40.
	st2 := newTestStore(t)
	mgr2, _, err := Open(f.dir, st2, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if got := mgr2.NextIndex(); got != 65 {
		t.Fatalf("NextIndex after reopen = %d, want 65", got)
	}
	if got := mgr2.BaseIndex(); got != 40 {
		t.Fatalf("BaseIndex after reopen = %d, want 40", got)
	}
}

// TestReadRecordsRoundTrip ships the whole stream in one batch and in
// byte-capped batches; replaying either onto a fresh store must
// reproduce the primary's history byte for byte.
func TestReadRecordsRoundTrip(t *testing.T) {
	f := newStreamFixture(t)
	f.run(3, 120)
	want := historyBytes(t, f.st)

	t.Run("one batch", func(t *testing.T) {
		batch, next, err := f.mgr.ReadRecords(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if next != 120 {
			t.Fatalf("next = %d, want 120", next)
		}
		replica := newTestStore(t)
		if n := replayInto(t, replica, batch); n != 120 {
			t.Fatalf("replayed %d records, want 120", n)
		}
		if !bytes.Equal(historyBytes(t, replica), want) {
			t.Fatal("replica history differs from primary")
		}
	})

	t.Run("capped batches", func(t *testing.T) {
		replica := newTestStore(t)
		var cur uint64
		batches := 0
		for cur < f.mgr.NextIndex() {
			batch, next, err := f.mgr.ReadRecords(cur, 200)
			if err != nil {
				t.Fatal(err)
			}
			if next <= cur {
				t.Fatalf("batch at %d made no progress", cur)
			}
			replayInto(t, replica, batch)
			cur = next
			batches++
		}
		if batches < 2 {
			t.Fatalf("cap of 200 bytes produced only %d batch(es)", batches)
		}
		if !bytes.Equal(historyBytes(t, replica), want) {
			t.Fatal("replica history differs from primary")
		}
	})

	// Caught-up readers get an empty batch, not an error.
	batch, next, err := f.mgr.ReadRecords(f.mgr.NextIndex(), 0)
	if err != nil || len(batch) != 0 || next != f.mgr.NextIndex() {
		t.Fatalf("caught-up read = (%d bytes, next %d, %v)", len(batch), next, err)
	}
	// Positions beyond the end are the reader's bug.
	if _, _, err := f.mgr.ReadRecords(f.mgr.NextIndex()+1, 0); err == nil {
		t.Fatal("read beyond log end succeeded")
	}
}

// TestReconnectAtRotationBoundary drives the exact segment-rotation edge:
// a follower that disconnects with its last applied record being the
// final record of a sealed segment must resume — from a position that is
// simultaneously "end of pruned segment N" and "start of live segment
// N+1" — without a re-bootstrap, and without skipping or repeating a
// record.
func TestReconnectAtRotationBoundary(t *testing.T) {
	f := newStreamFixture(t)
	f.run(4, 30)

	// Follower replicates everything, then the stream is severed.
	replica := newTestStore(t)
	batch, next, err := f.mgr.ReadRecords(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, replica, batch)
	if next != 30 {
		t.Fatalf("follower applied through %d, want 30", next)
	}

	// While it is away, the primary checkpoints (sealing and pruning the
	// only segment the follower ever read) and keeps writing.
	if err := f.mgr.Checkpoint(f.st); err != nil {
		t.Fatal(err)
	}
	if got := f.mgr.BaseIndex(); got != 30 {
		t.Fatalf("BaseIndex = %d, want the rotation boundary 30", got)
	}
	f.run(5, 17)

	// Reconnect at exactly the boundary: position 30 is the first record
	// of the rotated segment, so this must stream — not ErrTruncatedStream.
	batch, next, err = f.mgr.ReadRecords(30, 0)
	if err != nil {
		t.Fatalf("resume at rotation boundary: %v", err)
	}
	if n := replayInto(t, replica, batch); n != 17 {
		t.Fatalf("resumed batch carried %d records, want 17", n)
	}
	if next != 47 {
		t.Fatalf("resumed through %d, want 47", next)
	}
	if !bytes.Equal(historyBytes(t, replica), historyBytes(t, f.st)) {
		t.Fatal("replica history differs from primary after boundary resume")
	}

	// One record earlier is inside the pruned segment: that reader is
	// told to bootstrap.
	if _, _, err := f.mgr.ReadRecords(29, 0); !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("read into pruned segment: err = %v, want ErrTruncatedStream", err)
	}
}

// TestBootstrapFromMidStreamCheckpoint is the new-follower path: the
// checkpoint it bootstraps from was taken mid-stream (writes continued
// after it), so the follower must load the snapshot, resume the record
// feed at the returned index, and converge on the primary's history.
func TestBootstrapFromMidStreamCheckpoint(t *testing.T) {
	f := newStreamFixture(t)

	// No checkpoint yet: bootstrap must say so.
	if _, _, _, err := f.mgr.Snapshot(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Snapshot on fresh log: err = %v, want ErrNoCheckpoint", err)
	}

	f.run(6, 50)
	if err := f.mgr.Checkpoint(f.st); err != nil {
		t.Fatal(err)
	}
	f.run(7, 35)

	rc, resume, _, err := f.mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	replica := newTestStore(t)
	if err := replica.LoadHistory(rc); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if resume != 50 {
		t.Fatalf("snapshot resume index = %d, want 50", resume)
	}

	batch, next, err := f.mgr.ReadRecords(resume, 0)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, replica, batch)
	if next != 85 {
		t.Fatalf("caught up through %d, want 85", next)
	}
	if !bytes.Equal(historyBytes(t, replica), historyBytes(t, f.st)) {
		t.Fatal("bootstrapped replica history differs from primary")
	}
	mustNoViolations(t, replica)
}

// TestSnapshotOverlapIsIdempotent covers the rotation overlap window: a
// checkpoint taken after more writes landed contains records at or past
// the follower's resume index, so the resumed feed re-delivers mutations
// the snapshot already reflects. ApplyMutation must absorb them.
func TestSnapshotOverlapIsIdempotent(t *testing.T) {
	f := newStreamFixture(t)
	f.run(8, 20)
	if err := f.mgr.Checkpoint(f.st); err != nil {
		t.Fatal(err)
	}
	f.run(9, 20)

	rc, resume, _, err := f.mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	replica := newTestStore(t)
	if err := replica.LoadHistory(rc); err != nil {
		t.Fatal(err)
	}
	rc.Close()

	// Second checkpoint AFTER the snapshot was opened: the new snapshot
	// covers through 40, but our replica resumes from 20. The feed below
	// the new base is gone — and that is fine, because replaying from any
	// index ≤ applied state must be a no-op prefix.
	if err := f.mgr.Checkpoint(f.st); err != nil {
		t.Fatal(err)
	}
	f.run(10, 10)

	if _, _, err := f.mgr.ReadRecords(resume, 0); !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("resume below new base: err = %v, want ErrTruncatedStream", err)
	}
	// The follower re-bootstraps from the fresher checkpoint; records it
	// already holds replay as no-ops is not required here — LoadHistory
	// needs an empty store — so it starts clean, as the protocol demands.
	rc2, resume2, _, err := f.mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	replica2 := newTestStore(t)
	if err := replica2.LoadHistory(rc2); err != nil {
		t.Fatal(err)
	}
	rc2.Close()
	batch, next, err := f.mgr.ReadRecords(resume2, 0)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, replica2, batch)
	if next != 50 {
		t.Fatalf("caught up through %d, want 50", next)
	}
	if !bytes.Equal(historyBytes(t, replica2), historyBytes(t, f.st)) {
		t.Fatal("re-bootstrapped replica history differs from primary")
	}
}

// TestChangedWakesWaiters pins the long-poll primitive: grab the
// channel, re-check NextIndex, select — no lost wakeups.
func TestChangedWakesWaiters(t *testing.T) {
	f := newStreamFixture(t)
	f.run(11, 3)

	ch := f.mgr.Changed()
	if f.mgr.NextIndex() != 3 {
		t.Fatalf("NextIndex = %d, want 3", f.mgr.NextIndex())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Error("append did not wake the waiter")
		}
	}()
	f.run(12, 1)
	<-done
	if f.mgr.NextIndex() != 4 {
		t.Fatalf("NextIndex = %d, want 4", f.mgr.NextIndex())
	}
}

// TestLogIDStableAcrossReopen pins log identity: minted once per
// directory, 32 hex chars, stable across restarts, distinct per log.
func TestLogIDStableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	open := func(d string) *Manager {
		t.Helper()
		mgr, _, err := Open(d, newTestStore(t), Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return mgr
	}
	mgr := open(dir)
	id := mgr.LogID()
	if len(id) != 32 {
		t.Fatalf("LogID() = %q, want 32 hex chars", id)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	mgr2 := open(dir)
	defer mgr2.Close()
	if mgr2.LogID() != id {
		t.Fatalf("log identity changed across reopen: %q -> %q", id, mgr2.LogID())
	}
	mgr3 := open(t.TempDir())
	defer mgr3.Close()
	if mgr3.LogID() == id {
		t.Fatal("two distinct WAL directories share a log identity")
	}
}

// oracleReadRecords is the full-scan stream read the sparse frame index
// replaced: load the whole segment and walk every frame from its first
// byte, stopping at the byte budget only on a group boundary. The
// equivalence tests hold ReadRecords to it.
func oracleReadRecords(mgr *Manager, from uint64, maxBytes int) ([]byte, uint64, error) {
	mgr.mu.Lock()
	segs := slices.Clone(mgr.segs)
	next := mgr.next
	mgr.mu.Unlock()

	if from > next {
		return nil, from, fmt.Errorf("wal: stream position %d is beyond the log end %d", from, next)
	}
	if from == next {
		return nil, from, nil
	}
	if from < segs[0].start {
		return nil, from, fmt.Errorf("%w (want %d, oldest on disk %d)", ErrTruncatedStream, from, segs[0].start)
	}
	var out []byte
	cur := from
	for i := segFor(segs, from); i < len(segs) && cur < next; i++ {
		segEnd := next
		if i+1 < len(segs) {
			segEnd = segs[i+1].start
		}
		if cur >= segEnd {
			continue
		}
		path := segmentPath(mgr.dir, segs[i].seq)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, from, err
		}
		off := 0
		for skip := cur - segs[i].start; skip > 0; skip-- {
			n, err := frameSize(data[off:])
			if err != nil {
				return nil, from, err
			}
			off += n
		}
		for cur < segEnd {
			n, err := frameSize(data[off:])
			if err != nil {
				return nil, from, err
			}
			out = append(out, data[off:off+n]...)
			off += n
			cur++
			if maxBytes > 0 && len(out) >= maxBytes && !continued(data[off-n:off]) {
				return out, cur, nil
			}
		}
	}
	return out, cur, nil
}

// oraclePrefixHash is the full-scan PrefixHash: fold every checksum from
// the segment's first record.
func oraclePrefixHash(mgr *Manager, pos uint64) (uint64, error) {
	mgr.mu.Lock()
	segs := slices.Clone(mgr.segs)
	next, end := mgr.next, mgr.hash
	mgr.mu.Unlock()

	if pos > next {
		return 0, fmt.Errorf("wal: stream position %d is beyond the log end %d", pos, next)
	}
	if pos == next {
		return end, nil
	}
	if pos < segs[0].start {
		return 0, ErrTruncatedStream
	}
	seg := segs[segFor(segs, pos)]
	path := segmentPath(mgr.dir, seg.seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	h, off := seg.hash, 0
	for k := seg.start; k < pos; k++ {
		n, err := frameSize(data[off:])
		if err != nil {
			return 0, err
		}
		h = ChainHash(h, FrameChecksum(data[off:off+n]))
		off += n
	}
	return h, nil
}

// checkAgainstOracle compares ReadRecords at every retained position and
// byte budget, and PrefixHash at every retained position, with the
// full-scan oracle.
func checkAgainstOracle(t *testing.T, mgr *Manager) {
	t.Helper()
	base, next := mgr.BaseIndex(), mgr.NextIndex()
	if next-base < 2*markEvery {
		t.Fatalf("only %d records retained; the check needs marks to seek to", next-base)
	}
	for from := base; from < next; from++ {
		for _, maxBytes := range []int{0, 1, 200, 1 << 20} {
			got, gotNext, err := mgr.ReadRecords(from, maxBytes)
			want, wantNext, werr := oracleReadRecords(mgr, from, maxBytes)
			if err != nil || werr != nil {
				t.Fatalf("ReadRecords(%d, %d): %v; oracle: %v", from, maxBytes, err, werr)
			}
			if gotNext != wantNext || !bytes.Equal(got, want) {
				t.Fatalf("ReadRecords(%d, %d) = %d bytes, next %d; oracle %d bytes, next %d",
					from, maxBytes, len(got), gotNext, len(want), wantNext)
			}
		}
	}
	for pos := base; pos <= next; pos++ {
		got, err := mgr.PrefixHash(pos)
		want, werr := oraclePrefixHash(mgr, pos)
		if err != nil || werr != nil || got != want {
			t.Fatalf("PrefixHash(%d) = %016x, %v; oracle %016x, %v", pos, got, err, want, werr)
		}
	}
	if base > 0 {
		if _, _, err := mgr.ReadRecords(base-1, 0); !IsTruncatedStream(err) {
			t.Fatalf("ReadRecords below the base: %v; want ErrTruncatedStream", err)
		}
		if _, err := mgr.PrefixHash(base - 1); !IsTruncatedStream(err) {
			t.Fatalf("PrefixHash below the base: %v; want ErrTruncatedStream", err)
		}
	}
}

// TestStreamReadsMatchFullScan holds the indexed ReadRecords and
// PrefixHash to the full-scan oracle wherever the marks come from:
// appends into one segment, reads spanning a rotation, a mid-stream
// checkpoint, marks rebuilt by recovery over a truncated torn tail,
// grouped appends after that recovery, and an adopted stream starting at
// a position that is not a multiple of markEvery.
func TestStreamReadsMatchFullScan(t *testing.T) {
	dir := t.TempDir()
	failSnapshot := false
	opts := Options{NoSync: true, OpenFile: func(name string, flag int, perm os.FileMode) (File, error) {
		if failSnapshot && filepath.Base(name) == checkpointTemp {
			return nil, errors.New("injected snapshot failure")
		}
		return os.OpenFile(name, flag, perm)
	}}
	var st *graph.Store
	var mgr *Manager
	maxGroup := 1
	open := func() RecoveryStats {
		t.Helper()
		st = newTestStore(t)
		m, stats, err := Open(dir, st, opts)
		if err != nil {
			t.Fatal(err)
		}
		mgr = m
		t.Cleanup(func() { m.Close() })
		st.SetMutationHook(mgr.Append)
		return stats
	}
	run := func(seed int64, n int) {
		t.Helper()
		if got := groupWorkload(t, st, st.Clock(), seed, n, maxGroup); got != n {
			t.Fatalf("workload acked %d/%d mutations", got, n)
		}
	}
	// A checkpoint whose snapshot fails has already rotated: the sealed
	// segment stays on disk, so reads span the two.
	rotateOnly := func() {
		t.Helper()
		failSnapshot = true
		if err := mgr.Checkpoint(st); err == nil {
			t.Fatal("checkpoint with a failing snapshot succeeded")
		}
		failSnapshot = false
	}

	open()
	run(1, 150)
	checkAgainstOracle(t, mgr)

	rotateOnly()
	run(2, 100)
	checkAgainstOracle(t, mgr)

	if err := mgr.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	run(3, 90)
	rotateOnly()
	run(4, 170)
	if mgr.BaseIndex() != 250 {
		t.Fatalf("BaseIndex = %d after the checkpoint; want 250", mgr.BaseIndex())
	}
	checkAgainstOracle(t, mgr)

	// Tear the final record and recover: marks come from the replay scan.
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) != 2 {
		t.Fatalf("segments before reopen: %v, %v; want two", seqs, err)
	}
	last := segmentPath(dir, seqs[1])
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	if stats := open(); !stats.TailTruncated {
		t.Fatalf("recovery stats %+v; want a truncated tail", stats)
	}
	if mgr.NextIndex() != 509 {
		t.Fatalf("NextIndex after recovery = %d; want 509", mgr.NextIndex())
	}
	checkAgainstOracle(t, mgr)
	maxGroup = 8
	run(5, 160)
	checkAgainstOracle(t, mgr)

	t.Run("adopted stream", func(t *testing.T) {
		ast := newTestStore(t)
		amgr, _, err := Open(t.TempDir(), ast, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer amgr.Close()
		if err := amgr.AdoptStream(ast, strings.Repeat("cd", 16), 1000, 2, 0xfeed); err != nil {
			t.Fatal(err)
		}
		ast.SetMutationHook(amgr.Append)
		if got := groupWorkload(t, ast, ast.Clock(), 6, 150, 8); got != 150 {
			t.Fatalf("workload acked %d/150 mutations", got)
		}
		checkAgainstOracle(t, amgr)
	})
}

// TestStreamReadsDuringAppends reads and hashes random positions while
// another goroutine appends and checkpoints, so the race detector sees
// readers indexing copied marks while Append extends them; every sample
// must agree with the oracle over the final log.
func TestStreamReadsDuringAppends(t *testing.T) {
	f := newStreamFixture(t)
	f.run(1, 30)

	done := make(chan struct{})
	go func() {
		defer close(done)
		if got := workload(t, f.st, f.clock, 2, 300); got != 300 {
			t.Errorf("workload acked %d/300 mutations", got)
		}
		if err := f.mgr.Checkpoint(f.st); err != nil {
			t.Error(err)
		}
		if got := workload(t, f.st, f.clock, 3, 300); got != 300 {
			t.Errorf("workload acked %d/300 mutations", got)
		}
	}()

	type sample struct {
		from, next uint64
		batch      []byte
		hash       uint64
	}
	var samples []sample
	rng := rand.New(rand.NewSource(1))
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		base, next := f.mgr.BaseIndex(), f.mgr.NextIndex()
		if next == base {
			continue
		}
		from := base + uint64(rng.Int63n(int64(next-base)))
		batch, end, err := f.mgr.ReadRecords(from, []int{0, 200}[rng.Intn(2)])
		if IsTruncatedStream(err) {
			continue // a checkpoint contracted the position meanwhile
		}
		if err != nil {
			t.Fatal(err)
		}
		hash, err := f.mgr.PrefixHash(end)
		if IsTruncatedStream(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) < 400 {
			samples = append(samples, sample{from: from, next: end, batch: batch, hash: hash})
		}
	}

	checked := 0
	for _, s := range samples {
		if s.from < f.mgr.BaseIndex() {
			continue
		}
		want, _, err := oracleReadRecords(f.mgr, s.from, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(want, s.batch) {
			t.Fatalf("batch read at %d during appends is not a prefix of the final log", s.from)
		}
		frames := 0
		for b := s.batch; len(b) > 0; frames++ {
			n, err := frameSize(b)
			if err != nil {
				t.Fatal(err)
			}
			b = b[n:]
		}
		if uint64(frames) != s.next-s.from {
			t.Fatalf("batch at %d holds %d frames but advanced to %d", s.from, frames, s.next)
		}
		if h, err := oraclePrefixHash(f.mgr, s.next); err != nil || h != s.hash {
			t.Fatalf("PrefixHash(%d) during appends = %016x; oracle over the final log %016x, %v", s.next, s.hash, h, err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no sample read during the appends survived the checkpoint")
	}
	t.Logf("%d of %d samples read during the appends checked against the final log", checked, len(samples))
	checkAgainstOracle(t, f.mgr)
}

// TestReadRecordsCostFollowsResult pins the sparse index's gain: reading
// or hashing one record near the end of the active segment allocates the
// same whether the segment holds 1k or 16k records, and well under a
// whole-segment read.
func TestReadRecordsCostFollowsResult(t *testing.T) {
	f := newStreamFixture(t)
	insertHosts := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := f.st.InsertNode("Host", graph.Fields{"id": i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// bytesPerCall is the heap allocated per call, averaged over runs.
	bytesPerCall := func(call func() error) float64 {
		if err := call(); err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_ = call() // checked above
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	measure := func() (read, hash float64) {
		next := f.mgr.NextIndex()
		read = bytesPerCall(func() error { _, _, err := f.mgr.ReadRecords(next-1, 0); return err })
		hash = bytesPerCall(func() error { _, err := f.mgr.PrefixHash(next - 1); return err })
		return read, hash
	}

	// Both sizes are multiples of markEvery, so each read walks the
	// longest run of frames from a mark.
	insertHosts(0, 1<<10)
	read1k, hash1k := measure()
	insertHosts(1<<10, 1<<14)
	read16k, hash16k := measure()
	t.Logf("bytes allocated per call at 1k / 16k records: ReadRecords %.0f / %.0f, PrefixHash %.0f / %.0f",
		read1k, read16k, hash1k, hash16k)
	for _, c := range []struct {
		name       string
		small, big float64
	}{{"ReadRecords", read1k, read16k}, {"PrefixHash", hash1k, hash16k}} {
		if ratio := max(c.small, c.big) / min(c.small, c.big); ratio > 1.5 {
			t.Errorf("%s of the last record allocates %.0f B at 1k records and %.0f B at 16k (%.2fx); want within 1.5x",
				c.name, c.small, c.big, ratio)
		}
		if c.big >= 64<<10 {
			t.Errorf("%s of the last record allocates %.0f B at 16k records; want under 64 KB", c.name, c.big)
		}
	}

	// wal.stream_read_bytes counts what the read took off the disk: the
	// frames from the nearest mark to the durable end, not the segment.
	readBytes := f.st.Registry().Counter("wal.stream_read_bytes")
	before := readBytes.Value()
	next := f.mgr.NextIndex()
	if _, _, err := f.mgr.ReadRecords(next-1, 0); err != nil {
		t.Fatal(err)
	}
	f.mgr.mu.Lock()
	_, off, _ := f.mgr.segs[len(f.mgr.segs)-1].markAt(next - 1)
	size := f.mgr.size
	f.mgr.mu.Unlock()
	if got := readBytes.Value() - before; got != size-off {
		t.Errorf("wal.stream_read_bytes = %d after one read of the last record; want %d, the bytes from its mark (segment %d bytes)",
			got, size-off, size)
	}
}
