package wal

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
)

// fuzzSeedMutations are realistic mutations whose encoded frames seed
// the corpus: every op, edge endpoints, rich field payloads, and
// non-UTC timestamps, so the fuzzer starts from real wire bytes rather
// than having to discover the frame layout from scratch.
func fuzzSeedMutations() []*graph.Mutation {
	at := time.Date(2017, 2, 15, 9, 30, 0, 123456789, time.UTC)
	return []*graph.Mutation{
		{Op: graph.OpInsertNode, UID: 1, Class: "ComputeHost",
			Fields: graph.Fields{"id": 1001, "name": "host-1", "rack": "rz", "status": "Active"}, At: at},
		{Op: graph.OpInsertEdge, UID: 2, Class: "OnServer", Src: 7, Dst: 1,
			Fields: graph.Fields{"id": 2001}, At: at.Add(time.Second)},
		{Op: graph.OpUpdate, UID: 1,
			Fields: graph.Fields{"status": "Maintenance", "weight": 2.5, "note": "unicode ✓ \"quoted\""},
			At:     at.Add(2 * time.Second).In(time.FixedZone("NPT", 5*3600+45*60))},
		{Op: graph.OpDelete, UID: 2, At: at.Add(3 * time.Second)},
	}
}

// FuzzDecodeRecord throws arbitrary bytes at the WAL frame decoder and
// pins its contract: it never panics, never over-consumes, classifies
// every failure as torn or corrupt (the two outcomes recovery and the
// replication follower branch on), and accepted frames survive an
// encode/decode round trip.
func FuzzDecodeRecord(f *testing.F) {
	var frames [][]byte
	for _, m := range fuzzSeedMutations() {
		frame, err := appendRecord(nil, m, false)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, frame)
		f.Add(frame)
	}
	// A shipped batch (two whole frames back to back), a two-record group
	// (the first frame carries the continuation mark), a torn tail, a
	// flipped payload byte, and degenerate headers.
	f.Add(append(append([]byte{}, frames[0]...), frames[1]...))
	group, err := appendGroup(nil, fuzzSeedMutations()[:2])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(group)
	f.Add(frames[0][:len(frames[0])-3])
	bad := append([]byte{}, frames[2]...)
	bad[len(bad)-1] ^= 0x40
	f.Add(bad)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := DecodeRecord(b)
		if err != nil {
			if m != nil || n != 0 {
				t.Fatalf("failed decode returned (m=%v, n=%d); want (nil, 0)", m, n)
			}
			if !IsTorn(err) && !IsCorrupt(err) {
				t.Fatalf("decode error is neither torn nor corrupt: %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("nil mutation with nil error")
		}
		if n < frameHeaderSize || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if got := FrameChecksum(b[:n]); got != uint32frame(b[4:8]) {
			t.Fatalf("FrameChecksum = %08x, header says %08x", got, uint32frame(b[4:8]))
		}
		// Round trip: a mutation the decoder accepts must re-encode, and
		// decoding the re-encoded frame must reproduce it field for field,
		// its continuation mark included.
		more := continued(b[:n])
		frame, err := appendRecord(nil, m, more)
		if err != nil {
			t.Fatalf("re-encoding accepted mutation: %v", err)
		}
		if continued(frame) != more {
			t.Fatalf("round trip changed the continuation mark: %v", more)
		}
		m2, n2, err := DecodeRecord(frame)
		if err != nil {
			t.Fatalf("re-decoding re-encoded frame: %v", err)
		}
		if n2 != len(frame) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(frame))
		}
		if m2.Op != m.Op || m2.UID != m.UID || m2.Class != m.Class || m2.Src != m.Src || m2.Dst != m.Dst {
			t.Fatalf("round trip changed identity: %+v -> %+v", m, m2)
		}
		if !m2.At.Equal(m.At) {
			t.Fatalf("round trip changed timestamp: %v -> %v", m.At, m2.At)
		}
		if !reflect.DeepEqual(m2.Fields, m.Fields) {
			t.Fatalf("round trip changed fields: %v -> %v", m.Fields, m2.Fields)
		}
	})
}
