package wal

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/temporal"
)

var t0 = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s := schema.New()
	must := func(_ *schema.Class, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.DefineNode("VM", "", schema.Field{Name: "status", Type: schema.TypeString}))
	must(s.DefineNode("Host", ""))
	must(s.DefineEdge("HostedOn", ""))
	must(s.DefineEdge("ConnectsTo", ""))
	s.AllowEdge("HostedOn", "VM", "Host")
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestStore(t testing.TB) *graph.Store {
	t.Helper()
	return graph.NewStore(testSchema(t), temporal.NewManualClock(t0), nil)
}

// ackedMutation is one acknowledged write of a golden run together with
// the log offset its record ends at (within the then-active segment).
type ackedMutation struct {
	m   graph.Mutation
	seg uint64
	end int64
}

func cloneMutation(m *graph.Mutation) graph.Mutation {
	c := *m
	if m.Fields != nil {
		c.Fields = m.Fields.Clone()
	}
	return c
}

// captureAcked chains the manager's Append with a recorder of every
// acknowledged mutation and its end offset.
func captureAcked(st *graph.Store, mgr *Manager, seg func() uint64, out *[]ackedMutation) {
	st.SetMutationHook(func(ctx context.Context, m *graph.Mutation) error {
		if err := mgr.Append(ctx, m); err != nil {
			return err
		}
		*out = append(*out, ackedMutation{m: cloneMutation(m), seg: seg(), end: mgr.Size()})
		return nil
	})
}

// workload drives a deterministic randomized mutation mix (inserts,
// updates, deletes with cascades) against the store, stopping at the
// first failed mutation — the moment the simulated process died. It
// returns how many mutations were acknowledged.
func workload(t testing.TB, st *graph.Store, clock *temporal.Clock, seed int64, n int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Namespace unique ids by seed so successive workload phases against
	// the same store never collide on the schema-unique "id" field.
	nextID := int(seed)*1_000_000 + 1
	acked := 0
	var nodes, edges []graph.UID
	prune := func(uids []graph.UID) []graph.UID {
		out := uids[:0]
		for _, uid := range uids {
			if st.Object(uid).Current() != nil {
				out = append(out, uid)
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		if clock != nil && rng.Intn(3) == 0 {
			clock.Advance(time.Duration(1+rng.Intn(120)) * time.Second)
		}
		var err error
		switch p := rng.Float64(); {
		case p < 0.35 || len(nodes) < 2:
			class, fields := "Host", graph.Fields{"id": nextID}
			if rng.Intn(2) == 0 {
				class, fields = "VM", graph.Fields{"id": nextID, "status": "Green"}
			}
			nextID++
			var uid graph.UID
			if uid, err = st.InsertNode(class, fields); err == nil {
				nodes = append(nodes, uid)
			}
		case p < 0.55:
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			var uid graph.UID
			if uid, err = st.InsertEdge("ConnectsTo", src, dst, graph.Fields{"id": nextID}); err == nil {
				edges = append(edges, uid)
			}
			nextID++
		case p < 0.80:
			uid := nodes[rng.Intn(len(nodes))]
			obj := st.Object(uid)
			fields := obj.Current().Fields.Clone()
			if obj.Class.Name == "VM" {
				fields["status"] = []string{"Green", "Yellow", "Red"}[rng.Intn(3)]
			}
			err = st.Update(uid, fields)
		default:
			if len(edges) > 0 && rng.Intn(2) == 0 {
				err = st.Delete(edges[rng.Intn(len(edges))])
			} else {
				err = st.Delete(nodes[rng.Intn(len(nodes))])
			}
			nodes, edges = prune(nodes), prune(edges)
		}
		if err != nil {
			t.Logf("workload: mutation %d failed: %v", i, err)
			return acked
		}
		acked++
	}
	return acked
}

func historyBytes(t testing.TB, st *graph.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustNoViolations fails the test when the store breaks any invariant.
func mustNoViolations(t testing.TB, st *graph.Store) {
	t.Helper()
	for _, v := range st.CheckInvariants() {
		t.Errorf("invariant violation: %s", v)
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	mgr, stats, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointLoaded || stats.RecordsApplied != 0 {
		t.Fatalf("fresh open recovered something: %+v", stats)
	}
	st.SetMutationHook(mgr.Append)
	clock := st.Clock()
	if n := workload(t, st, clock, 7, 200); n != 200 {
		t.Fatalf("workload acked %d/200", n)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := newTestStore(t)
	mgr2, stats, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if stats.TailTruncated || stats.RecordsSkipped != 0 {
		t.Errorf("clean log recovered dirty: %+v", stats)
	}
	if stats.RecordsApplied != 200 {
		t.Errorf("RecordsApplied = %d, want 200", stats.RecordsApplied)
	}
	if !bytes.Equal(historyBytes(t, st), historyBytes(t, st2)) {
		t.Error("recovered history differs from original")
	}
	mustNoViolations(t, st2)

	// The recovered store accepts new writes with monotonic timestamps.
	st2.SetMutationHook(mgr2.Append)
	if _, err := st2.InsertNode("Host", graph.Fields{"id": 100000}); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
}

func TestCheckpointContractsLog(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	mgr, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetMutationHook(mgr.Append)
	workload(t, st, st.Clock(), 11, 150)
	if err := mgr.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	if mgr.Size() != 0 {
		t.Errorf("active segment size after checkpoint = %d", mgr.Size())
	}
	seqs, _ := listSegments(dir)
	if len(seqs) != 1 || seqs[0] != 2 {
		t.Errorf("segments after checkpoint = %v, want [2]", seqs)
	}
	workload(t, st, st.Clock(), 12, 150)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := newTestStore(t)
	mgr2, stats, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if !stats.CheckpointLoaded {
		t.Error("checkpoint not loaded")
	}
	if !bytes.Equal(historyBytes(t, st), historyBytes(t, st2)) {
		t.Error("checkpoint+log recovery differs from original")
	}
	mustNoViolations(t, st2)

	// A second checkpoint from the recovered manager still works.
	if err := mgr2.Checkpoint(st2); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	mgr, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var acked []ackedMutation
	captureAcked(st, mgr, func() uint64 { return 1 }, &acked)
	workload(t, st, st.Clock(), 3, 50)
	mgr.Close()

	path := segmentPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way through the final record: a torn append.
	cut := acked[len(acked)-2].end + 3
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := newTestStore(t)
	mgr2, stats, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if !stats.TailTruncated || stats.DroppedBytes != 3 {
		t.Errorf("stats = %+v, want tail truncation of 3 bytes", stats)
	}
	if stats.RecordsApplied != len(acked)-1 {
		t.Errorf("RecordsApplied = %d, want %d", stats.RecordsApplied, len(acked)-1)
	}
	if fi, _ := os.Stat(path); fi.Size() != acked[len(acked)-2].end {
		t.Errorf("torn tail not truncated on disk: size %d", fi.Size())
	}
	mustNoViolations(t, st2)

	// Appends after a truncated recovery extend the repaired log cleanly.
	st2.SetMutationHook(mgr2.Append)
	if _, err := st2.InsertNode("Host", graph.Fields{"id": 999999}); err != nil {
		t.Fatal(err)
	}
	mgr2.Close()
	st3 := newTestStore(t)
	mgr3, stats, err := Open(dir, st3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr3.Close()
	if stats.TailTruncated {
		t.Error("repaired log still reads as torn")
	}
	if !bytes.Equal(historyBytes(t, st2), historyBytes(t, st3)) {
		t.Error("post-repair append lost")
	}
}

func TestRecoverRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	mgr, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetMutationHook(mgr.Append)
	workload(t, st, st.Clock(), 5, 50)
	// Seal segment 1 by checkpointing... no: corruption must be mid-log in
	// a sealed segment. Rotate via checkpoint, then corrupt the sealed
	// segment after removing the checkpoint so recovery must read it.
	if err := mgr.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	workload(t, st, st.Clock(), 6, 50)
	mgr.Close()

	// Simulate a non-tail corruption: flip one byte in the middle of the
	// first half of segment 2 while valid records follow it.
	path := segmentPath(dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), data...)
	corrupted[20] ^= 0xFF
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	// The final segment tolerates this (truncate-at-first-bad-record) —
	// but a sealed, non-final segment must not. Add a segment after it.
	if err := os.WriteFile(segmentPath(dir, 3), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := newTestStore(t)
	if _, _, err := Open(dir, st2, Options{}); err == nil {
		t.Fatal("mid-log corruption silently accepted")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestOpenIgnoresStaleCheckpointTemp(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	mgr, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetMutationHook(mgr.Append)
	workload(t, st, st.Clock(), 9, 40)
	mgr.Close()
	// A crash mid-checkpoint leaves checkpoint.tmp; it must be discarded,
	// not trusted.
	if err := os.WriteFile(filepath.Join(dir, checkpointTemp), []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := newTestStore(t)
	mgr2, stats, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if !stats.StaleTempRemoved {
		t.Error("stale checkpoint temp not reported")
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointTemp)); !os.IsNotExist(err) {
		t.Error("stale checkpoint temp still present")
	}
	if !bytes.Equal(historyBytes(t, st), historyBytes(t, st2)) {
		t.Error("recovery with stale temp differs")
	}
}

func TestOpenRequiresEmptyStore(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	mgr, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetMutationHook(mgr.Append)
	workload(t, st, st.Clock(), 2, 20)
	if err := mgr.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	dirty := newTestStore(t)
	if _, err := dirty.InsertNode("Host", graph.Fields{"id": 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, dirty, Options{}); err == nil {
		t.Fatal("recovery into a non-empty store accepted")
	}
}

func TestConcurrentMutationsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st := graph.NewStore(testSchema(t), nil, reg) // wall clock: concurrent writers
	mgr, _, err := Open(dir, st, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st.SetMutationHook(mgr.Append)

	const writers, each = 4, 120
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				uid, err := st.InsertNode("VM", graph.Fields{"id": w*100000 + i, "status": "Green"})
				if err != nil {
					t.Error(err)
					return
				}
				switch i % 3 {
				case 1:
					if err := st.Update(uid, graph.Fields{"id": w*100000 + i, "status": "Red"}); err != nil {
						t.Error(err)
					}
				case 2:
					if err := st.Delete(uid); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 6; i++ {
			if err := mgr.Checkpoint(st); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("wal.appends").Value() != writers*each*5/3 {
		// 120 inserts + 40 updates + 40 deletes per writer.
		t.Errorf("wal.appends = %d, want %d", reg.Counter("wal.appends").Value(), writers*each*5/3)
	}

	st2 := graph.NewStore(testSchema(t), nil, nil)
	mgr2, _, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if !bytes.Equal(historyBytes(t, st), historyBytes(t, st2)) {
		t.Error("recovery after concurrent churn differs from live store")
	}
	mustNoViolations(t, st2)
}

func TestRecordCodec(t *testing.T) {
	m := &graph.Mutation{
		Op: graph.OpInsertEdge, UID: 42, Class: "ConnectsTo", Src: 7, Dst: 9,
		Fields: graph.Fields{"id": 42}, At: t0.Add(time.Hour),
	}
	frame, err := encodeRecord(m)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := decodeRecord(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("decode: %v (n=%d)", err, n)
	}
	if got.Op != m.Op || got.UID != m.UID || got.Class != m.Class ||
		got.Src != m.Src || got.Dst != m.Dst || !got.At.Equal(m.At) {
		t.Errorf("round trip mismatch: %+v", got)
	}

	for name, corrupt := range map[string]func([]byte) []byte{
		"torn header":  func(b []byte) []byte { return b[:5] },
		"torn payload": func(b []byte) []byte { return b[:len(b)-2] },
		"flipped crc":  func(b []byte) []byte { c := append([]byte(nil), b...); c[5] ^= 1; return c },
		"flipped byte": func(b []byte) []byte { c := append([]byte(nil), b...); c[12] ^= 1; return c },
		"huge length":  func(b []byte) []byte { c := append([]byte(nil), b...); c[3] = 0xFF; return c },
	} {
		if _, _, err := decodeRecord(corrupt(frame)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
