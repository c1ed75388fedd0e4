package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/temporal"
)

// copyDir copies every regular file of src into a fresh temp dir.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// runGolden executes a deterministic workload, sent as groups of 1 to 8
// mutations, against a WAL-backed store, optionally checkpointing at
// mutation checkpointAt, and returns the live store plus the
// acknowledgement ledger: every acknowledged mutation with the segment
// and offset its group ends at.
func runGolden(t testing.TB, dir string, seed int64, n, checkpointAt int) (*graph.Store, []ackedMutation) {
	t.Helper()
	st := newTestStore(t)
	mgr, _, err := Open(dir, st, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var acked []ackedMutation
	seg := func() uint64 {
		seqs, err := listSegments(dir)
		if err != nil || len(seqs) == 0 {
			t.Fatalf("listSegments: %v %v", seqs, err)
		}
		return seqs[len(seqs)-1]
	}
	captureAcked(st, mgr, seg, &acked)
	if checkpointAt > 0 {
		if got := groupWorkload(t, st, st.Clock(), seed, checkpointAt, 8); got != checkpointAt {
			t.Fatalf("golden workload acked %d/%d before checkpoint", got, checkpointAt)
		}
		if err := mgr.Checkpoint(st); err != nil {
			t.Fatal(err)
		}
		n -= checkpointAt
		seed++
	}
	if got := groupWorkload(t, st, st.Clock(), seed, n, 8); got != n {
		t.Fatalf("golden workload acked %d/%d", got, n)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return st, acked
}

// referenceStore incrementally replays acked[:k] mutations, reusing the
// store across successively larger prefixes.
type referenceStore struct {
	t     testing.TB
	st    *graph.Store
	next  int
	bytes []byte
}

func newReferenceStore(t testing.TB) *referenceStore {
	r := &referenceStore{t: t, st: newTestStore(t)}
	r.bytes = historyBytes(t, r.st)
	return r
}

// historyAt returns the serialized history of the store holding exactly
// the first k acknowledged mutations. k must not decrease across calls.
func (r *referenceStore) historyAt(acked []ackedMutation, k int) []byte {
	if k < r.next {
		r.t.Fatalf("reference store cannot rewind: at %d, asked for %d", r.next, k)
	}
	for ; r.next < k; r.next++ {
		m := acked[r.next].m
		if _, err := r.st.ApplyMutation(&m); err != nil {
			r.t.Fatalf("reference replay of mutation %d (%s uid %d): %v", r.next, m.Op, m.UID, err)
		}
		r.bytes = nil
	}
	if r.bytes == nil {
		r.bytes = historyBytes(r.t, r.st)
	}
	return r.bytes
}

// TestCrashPointProperty is the headline durability property: for every
// byte offset at which the active log can be cut — every possible crash
// point of a randomized workload of grouped writes — recovery produces a
// store whose full temporal history equals the reference store holding
// exactly the acknowledged prefix of whole groups that made it to disk.
// No acknowledged write is lost, no torn record surfaces, and no group is
// recovered in part: a cut on a frame boundary inside a group is a torn
// tail like a cut mid-frame.
func TestCrashPointProperty(t *testing.T) {
	golden := t.TempDir()
	_, acked := runGolden(t, golden, 42, 30, 0)
	data, err := os.ReadFile(segmentPath(golden, 1))
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(data))
	if want := acked[len(acked)-1].end; total != want {
		t.Fatalf("segment size %d != last acked end %d", total, want)
	}

	stride := int64(1)
	if testing.Short() {
		stride = 13
	}
	offsets := make([]int64, 0, total/stride+2)
	for off := int64(0); off < total; off += stride {
		offsets = append(offsets, off)
	}
	offsets = append(offsets, total)
	ref := newReferenceStore(t)
	ends := make(map[int64]bool, len(acked))
	for _, a := range acked {
		ends[a.end] = true
	}
	if len(ends) == len(acked) {
		t.Fatal("the golden run wrote no group of more than one record")
	}
	k := 0
	for _, off := range offsets {
		// Acknowledged prefix of whole groups that fully fits in off bytes.
		for k < len(acked) && acked[k].end <= off {
			k++
		}
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		st := newTestStore(t)
		mgr, stats, err := Open(dir, st, Options{NoSync: true})
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		if stats.RecordsApplied != k {
			t.Fatalf("offset %d: applied %d records, want %d", off, stats.RecordsApplied, k)
		}
		wantTorn := off != 0 && !ends[off]
		if stats.TailTruncated != wantTorn {
			t.Fatalf("offset %d: TailTruncated = %v, want %v (%+v)", off, stats.TailTruncated, wantTorn, stats)
		}
		if got, want := historyBytes(t, st), ref.historyAt(acked, k); !bytes.Equal(got, want) {
			t.Fatalf("offset %d: recovered history (%d records) differs from acknowledged prefix", off, k)
		}
		if vs := st.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("offset %d: recovered store violates invariants: %v", off, vs)
		}
		mgr.Close()
	}
	if k != len(acked) {
		t.Fatalf("sweep never reached the full prefix: %d/%d", k, len(acked))
	}
}

// TestCrashPointPropertyAcrossCheckpoint sweeps crash offsets over the
// active segment of a log that has already been checkpointed, so recovery
// exercises checkpoint load + overlapping-segment replay at every cut.
func TestCrashPointPropertyAcrossCheckpoint(t *testing.T) {
	golden := t.TempDir()
	_, acked := runGolden(t, golden, 99, 120, 60)
	active := acked[len(acked)-1].seg
	if active < 2 {
		t.Fatalf("checkpoint did not rotate: active segment %d", active)
	}
	data, err := os.ReadFile(segmentPath(golden, active))
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(data))

	// Offsets to test: every group boundary in the active segment, its
	// immediate neighbors, and offset zero (crash right after rotation).
	offsets := map[int64]bool{0: true, 1: true, total: true}
	ends := map[int64]bool{0: true}
	for _, a := range acked {
		if a.seg != active {
			continue
		}
		ends[a.end] = true
		offsets[a.end] = true
		if a.end > 0 {
			offsets[a.end-1] = true
		}
		if a.end < total {
			offsets[a.end+1] = true
		}
	}
	sorted := make([]int64, 0, len(offsets))
	for off := range offsets {
		sorted = append(sorted, off)
	}
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}

	ref := newReferenceStore(t)
	base := 0
	for _, a := range acked {
		if a.seg != active {
			base++
		}
	}
	k := base
	for _, off := range sorted {
		for k < len(acked) && acked[k].seg == active && acked[k].end <= off {
			k++
		}
		dir := copyDir(t, golden)
		if err := os.Truncate(segmentPath(dir, active), off); err != nil {
			t.Fatal(err)
		}
		st := newTestStore(t)
		mgr, stats, err := Open(dir, st, Options{NoSync: true})
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		if !stats.CheckpointLoaded {
			t.Fatalf("offset %d: checkpoint not loaded", off)
		}
		if wantTorn := !ends[off]; stats.TailTruncated != wantTorn {
			t.Fatalf("offset %d: TailTruncated = %v, want %v", off, stats.TailTruncated, wantTorn)
		}
		if got, want := historyBytes(t, st), ref.historyAt(acked, k); !bytes.Equal(got, want) {
			t.Fatalf("offset %d: recovered history (%d records) differs from acknowledged prefix", off, k)
		}
		if vs := st.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("offset %d: recovered store violates invariants: %v", off, vs)
		}
		mgr.Close()
	}
	if k != len(acked) {
		t.Fatalf("sweep never reached the full prefix: %d/%d", k, len(acked))
	}
}

// TestChaosCrashRecovery runs the workload against a WAL on a crash-
// injected filesystem: after a fixed byte budget, the write in flight is
// torn and every later write, fsync, and truncate fails — including the
// manager's own rollback repair. Recovery with a healthy filesystem must
// restore exactly the acknowledged prefix.
func TestChaosCrashRecovery(t *testing.T) {
	chaosCrashRecovery(t, 1)
}

// TestChaosCrashRecoveryGrouped is TestChaosCrashRecovery with writes
// sent as groups of 1 to 8 records: the crash tears a group's one write,
// and recovery must drop all of that group, the records it wrote whole
// included.
func TestChaosCrashRecoveryGrouped(t *testing.T) {
	chaosCrashRecovery(t, 8)
}

func chaosCrashRecovery(t *testing.T, maxGroup int) {
	budgets := []int64{0, 1, 37, 256, 900, 2000, 5000}
	for _, budget := range budgets {
		fs := chaos.NewCrashFS(budget)
		dir := t.TempDir()
		st := newTestStore(t)
		mgr, _, err := Open(dir, st, Options{
			NoSync: true,
			OpenFile: func(name string, flag int, perm os.FileMode) (File, error) {
				return fs.OpenFile(name, flag, perm)
			},
		})
		if err != nil {
			t.Fatalf("budget %d: open: %v", budget, err)
		}
		var acked []ackedMutation
		captureAcked(st, mgr, func() uint64 { return 1 }, &acked)
		n := groupWorkload(t, st, st.Clock(), budget, 400, maxGroup)
		if n == 400 && budget < 5000 {
			t.Fatalf("budget %d: workload survived the crash budget", budget)
		}
		if n != len(acked) {
			t.Fatalf("budget %d: %d acked hooks vs %d acked mutations", budget, len(acked), n)
		}
		mgr.Close()

		// The dying process could not repair its torn tail (truncate fails
		// post-crash), so recovery must cope with whatever is on disk.
		st2 := newTestStore(t)
		mgr2, stats, err := Open(dir, st2, Options{NoSync: true})
		if err != nil {
			t.Fatalf("budget %d: recovery: %v", budget, err)
		}
		if fs.Crashed() && stats.RecordsApplied < len(acked) {
			t.Fatalf("budget %d: lost acknowledged writes: applied %d < acked %d",
				budget, stats.RecordsApplied, len(acked))
		}
		ref := newReferenceStore(t)
		if !bytes.Equal(historyBytes(t, st2), ref.historyAt(acked, len(acked))) {
			t.Fatalf("budget %d: recovered history differs from acknowledged prefix", budget)
		}
		if vs := st2.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("budget %d: recovered store violates invariants: %v", budget, vs)
		}
		mgr2.Close()
	}
}

// TestChaosAppendFailureLatches verifies that once an append cannot be
// rolled back (the crash also breaks Truncate), the manager refuses all
// further appends instead of risking interleaved garbage.
func TestChaosAppendFailureLatches(t *testing.T) {
	fs := chaos.NewCrashFS(64)
	dir := t.TempDir()
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
	st.SetMutationHook(mgr.Append)
	var firstErr error
	for i := 0; i < 50 && firstErr == nil; i++ {
		_, firstErr = st.InsertNode("Host", graph.Fields{"id": i})
	}
	if firstErr == nil {
		t.Fatal("no append failed within budget")
	}
	if !errors.Is(firstErr, chaos.ErrCrashed) {
		t.Fatalf("first failure = %v, want ErrCrashed in chain", firstErr)
	}
	// The store must have rejected the mutation, not half-applied it.
	mustNoViolations(t, st)
	if _, err := st.InsertNode("Host", graph.Fields{"id": 10_000}); err == nil {
		t.Fatal("append after unrepairable failure succeeded")
	}
}

// TestCrashDuringCheckpoint cuts the crash budget so the machine dies
// while writing checkpoint.tmp; the half-written temp must be discarded
// and the sealed segments must still recover the full history.
func TestCrashDuringCheckpoint(t *testing.T) {
	// First measure a healthy run to find the byte cost of the log phase.
	probeDir := t.TempDir()
	probeStore := newTestStore(t)
	probeMgr, _, err := Open(probeDir, probeStore, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	probeStore.SetMutationHook(probeMgr.Append)
	workload(t, probeStore, probeStore.Clock(), 5, 80)
	logBytes := probeMgr.Size()
	probeMgr.Close()

	// Now rerun with a budget that survives the log writes but dies inside
	// the checkpoint snapshot.
	fs := chaos.NewCrashFS(logBytes + 100)
	dir := t.TempDir()
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
	st.SetMutationHook(mgr.Append)
	if n := workload(t, st, st.Clock(), 5, 80); n != 80 {
		t.Fatalf("workload acked %d/80 before checkpoint", n)
	}
	if err := mgr.Checkpoint(st); err == nil {
		t.Fatal("checkpoint survived the crash budget")
	}
	mgr.Close()

	st2 := newTestStore(t)
	mgr2, stats, err := Open(dir, st2, Options{NoSync: true})
	if err != nil {
		t.Fatalf("recovery after mid-checkpoint crash: %v", err)
	}
	defer mgr2.Close()
	if stats.CheckpointLoaded {
		t.Error("half-written checkpoint was trusted")
	}
	if !bytes.Equal(historyBytes(t, st), historyBytes(t, st2)) {
		t.Error("recovery after mid-checkpoint crash lost history")
	}
	mustNoViolations(t, st2)
}

// TestRecoverRejectsUnterminatedGroupMidLog: a segment that ends inside a
// group cannot be a crash tail when a later segment exists (a group never
// spans two segments, and a segment is synced whole before rotation), so
// recovery fails loudly instead of truncating.
func TestRecoverRejectsUnterminatedGroupMidLog(t *testing.T) {
	at := temporal.Nanos(t0.Add(time.Minute))
	group, err := AppendGroup(nil, []*graph.Mutation{
		{Op: graph.OpInsertNode, UID: 1, Class: "Host", Fields: graph.Fields{"id": 1}, At: at},
		{Op: graph.OpInsertNode, UID: 2, Class: "Host", Fields: graph.Fields{"id": 2}, At: at + int64(time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := DecodeRecord(group)
	if err != nil {
		t.Fatal(err)
	}
	later, err := AppendGroup(nil, []*graph.Mutation{
		{Op: graph.OpInsertNode, UID: 3, Class: "Host", Fields: graph.Fields{"id": 3}, At: at + int64(time.Hour)},
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(segmentPath(dir, 1), group[:first], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(dir, 2), later, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, newTestStore(t), Options{NoSync: true}); err == nil || !IsTorn(err) {
		t.Fatalf("recovery over an unterminated mid-log group = %v, want a torn-record error", err)
	}

	// The same cut in the final segment is an ordinary torn tail.
	if err := os.Remove(segmentPath(dir, 2)); err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t)
	mgr, stats, err := Open(dir, st, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if !stats.TailTruncated || stats.DroppedBytes != int64(first) || stats.RecordsApplied != 0 {
		t.Fatalf("stats = %+v, want the whole %d-byte group dropped", stats, first)
	}
	if live, _ := st.Counts(); live != 0 {
		t.Fatalf("recovered %d objects from an unterminated group", live)
	}
}

// TestReplayRejectsUIDBeyondFrontier: a logged insert naming a UID far
// past the store's allocation frontier (1<<62) is an error, both in
// crash recovery and in a shipped group a follower applies, never a
// table sized for it. The group before it recovers normally.
func TestReplayRejectsUIDBeyondFrontier(t *testing.T) {
	at := temporal.Nanos(t0.Add(time.Minute))
	good, err := AppendGroup(nil, []*graph.Mutation{
		{Op: graph.OpInsertNode, UID: 1, Class: "Host", Fields: graph.Fields{"id": 1}, At: at},
	})
	if err != nil {
		t.Fatal(err)
	}
	far, err := AppendGroup(nil, []*graph.Mutation{
		{Op: graph.OpInsertNode, UID: 1 << 62, Class: "Host", Fields: graph.Fields{"id": 2}, At: at + int64(time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(segmentPath(dir, 1), append(good, far...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, newTestStore(t), Options{NoSync: true}); err == nil || !strings.Contains(err.Error(), "allocation frontier") {
		t.Fatalf("recovery over a record naming uid 1<<62 = %v, want an allocation-frontier error", err)
	}

	st := newTestStore(t)
	for i, group := range [][]byte{good, far} {
		ms, _, err := DecodeGroup(group)
		if err != nil {
			t.Fatal(err)
		}
		_, err = st.ApplyMutation(ms...)
		if i == 0 && err != nil {
			t.Fatalf("applying the valid group: %v", err)
		}
		if i == 1 && (err == nil || !strings.Contains(err.Error(), "allocation frontier")) {
			t.Fatalf("applying a shipped group naming uid 1<<62 = %v, want an allocation-frontier error", err)
		}
	}
	if lo, hi := st.UIDRange(); lo != 1 || hi != 2 {
		t.Fatalf("UID range [%d, %d) after the rejected group, want [1, 2)", lo, hi)
	}
	mustNoViolations(t, st)
}

// crashOpen opens dir with every file it writes going through fs.
func crashOpen(t *testing.T, dir string, st *graph.Store, fs *chaos.CrashFS, noSync bool) *Manager {
	t.Helper()
	mgr, _, err := Open(dir, st, Options{
		NoSync: noSync,
		OpenFile: func(name string, flag int, perm os.FileMode) (File, error) {
			return fs.OpenFile(name, flag, perm)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// crashStride is the byte step of the crash-point sweeps below: every
// byte, or a sample of them in -short mode.
func crashStride() int64 {
	if testing.Short() {
		return 7
	}
	return 1
}

// TestCrashDuringAdoptStream sweeps a crash through every byte a
// replica's bootstrap graft writes — the sidecar, epoch and identity
// files and the snapshot checkpoint. Recovery must find one of the two
// states the graft allows: the empty log at position 0 over an empty
// store, or the whole snapshot at the resume index under the primary's
// identity and epoch. Never an adopted position over a store without the
// snapshot.
func TestCrashDuringAdoptStream(t *testing.T) {
	p := newStreamFixture(t)
	p.run(1, 12)
	next, hash := p.mgr.StreamHash()
	snapshot, empty := historyBytes(t, p.st), historyBytes(t, newTestStore(t))

	var sawEmpty, sawFull bool
	for budget := int64(0); !sawFull; budget += crashStride() {
		dir := t.TempDir()
		st := newTestStore(t)
		mgr := crashOpen(t, dir, st, chaos.NewCrashFS(budget), true)
		if err := st.LoadHistory(bytes.NewReader(snapshot)); err != nil {
			t.Fatal(err)
		}
		err := mgr.AdoptStream(st, p.mgr.LogID(), next, 2, hash)
		mgr.Close()

		st2 := newTestStore(t)
		mgr2, _, oerr := Open(dir, st2, Options{NoSync: true})
		if oerr != nil {
			t.Fatalf("budget %d: recovery failed: %v", budget, oerr)
		}
		pos, h := mgr2.StreamHash()
		got := historyBytes(t, st2)
		switch {
		case pos == 0 && h == PrefixHashSeed && bytes.Equal(got, empty):
			sawEmpty = true
		case pos == next && h == hash && bytes.Equal(got, snapshot) && mgr2.LogID() == p.mgr.LogID() && mgr2.Epoch() == 2:
			sawFull = true
			if err != nil {
				t.Logf("budget %d: graft committed, then failed: %v", budget, err)
			}
		default:
			t.Fatalf("budget %d: recovered position %d (hash %016x, log %s, epoch %d) over a %d-byte history; want empty at 0 or the snapshot at %d",
				budget, pos, h, mgr2.LogID(), mgr2.Epoch(), len(got), next)
		}
		if err == nil && !sawFull {
			t.Fatalf("budget %d: AdoptStream succeeded but recovery lost it", budget)
		}
		mgr2.Close()
	}
	if !sawEmpty {
		t.Fatal("no crash point recovered the empty log")
	}
}

// TestCrashDuringVerbatimAppend sweeps a crash through every byte of one
// shipped group a replica logs before applying it. Recovery must find
// the log and store before the group or after it, whole; and a failed
// append must leave the live store unchanged.
func TestCrashDuringVerbatimAppend(t *testing.T) {
	p := newStreamFixture(t)
	if got := groupWorkload(t, p.st, p.clock, 3, 6, 6); got != 6 {
		t.Fatalf("workload acked %d/6", got)
	}
	raw, _, err := p.mgr.ReadRecords(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ms, ends, err := DecodeGroup(raw)
	if err != nil {
		t.Fatal(err)
	}
	group := raw[:ends[len(ends)-1]]
	ref := newTestStore(t)
	empty := historyBytes(t, ref)
	if _, err := ref.ApplyMutation(ms...); err != nil {
		t.Fatal(err)
	}
	after := historyBytes(t, ref)

	var sawBefore, sawAfter bool
	for budget := int64(0); !sawAfter; budget = min(budget+crashStride(), int64(len(group))) {
		dir := t.TempDir()
		st := newTestStore(t)
		mgr := crashOpen(t, dir, st, chaos.NewCrashFS(budget), false)
		_, err := st.ApplyLogged(func() error { return mgr.AppendFrames(group, len(ms)) }, ms...)
		if err != nil && !bytes.Equal(historyBytes(t, st), empty) {
			t.Fatalf("budget %d: the append failed (%v) but the store applied the group", budget, err)
		}
		mgr.Close()

		st2 := newTestStore(t)
		mgr2, _, oerr := Open(dir, st2, Options{NoSync: true})
		if oerr != nil {
			t.Fatalf("budget %d: recovery failed: %v", budget, oerr)
		}
		got, _, rerr := mgr2.ReadRecords(0, 0)
		switch pos := mgr2.NextIndex(); {
		case pos == 0 && bytes.Equal(historyBytes(t, st2), empty):
			sawBefore = true
		case pos == uint64(len(ms)) && rerr == nil && bytes.Equal(got, group) && bytes.Equal(historyBytes(t, st2), after):
			sawAfter = true
		default:
			t.Fatalf("budget %d: recovered position %d; want 0 or the whole %d-record group, byte for byte", budget, pos, len(ms))
		}
		if err == nil && mgr2.NextIndex() == 0 {
			t.Fatalf("budget %d: AppendFrames succeeded but recovery lost the group", budget)
		}
		mgr2.Close()
	}
	if !sawBefore {
		t.Fatal("no crash point recovered the log before the group")
	}
}
