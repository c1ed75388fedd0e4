package graph

import (
	"bytes"
	"testing"

	"repro/internal/temporal"
)

// FuzzLoadHistory throws arbitrary bytes at LoadHistory, the decoder
// every checkpoint recovery reads and every snapshot a follower
// bootstraps from. Whatever the input, the load either fails and leaves
// the store empty, with no table page allocated, or builds a store that
// passes CheckInvariants and writes a stream back that loads to the same
// history. Seeds: a valid checkpoint, and the same checkpoint naming UID
// 1<<62, which must fail before a table directory is sized for it.
func FuzzLoadHistory(f *testing.F) {
	st, _ := buildHistoryFixture(f)
	var buf bytes.Buffer
	if err := st.WriteHistory(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(editHistory(f, buf.Bytes(), func(h *history) { h.object(f, 7).UID = 1 << 62 }))
	sch := testSchema(f)

	f.Fuzz(func(t *testing.T, in []byte) {
		st := NewStore(sch, temporal.NewManualClock(t0), nil)
		if err := st.LoadHistory(bytes.NewReader(in)); err != nil {
			if st.objectCount() != 0 || tableSizes(st) != [3]int{} || st.nextUID != 1 {
				t.Fatalf("failed load (%v) left the store non-empty", err)
			}
			return
		}
		if vs := st.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("loaded store breaks %d invariants, first: %s", len(vs), vs[0])
		}
		var out bytes.Buffer
		if err := st.WriteHistory(&out); err != nil {
			t.Fatal(err)
		}
		again := NewStore(sch, temporal.NewManualClock(t0), nil)
		if err := again.LoadHistory(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("reloading the written history: %v", err)
		}
		var out2 bytes.Buffer
		if err := again.WriteHistory(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("history changed across a write/load round trip:\n%x\n%x", out.Bytes(), out2.Bytes())
		}
	})
}
