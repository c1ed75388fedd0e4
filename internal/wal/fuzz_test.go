package wal

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/temporal"
)

// fuzzSeedMutations are realistic mutations whose encoded frames seed
// the corpus: every op, edge endpoints and rich field payloads, so the
// fuzzer starts from real wire bytes rather than having to discover the
// frame layout from scratch.
func fuzzSeedMutations() []*graph.Mutation {
	at := temporal.Nanos(time.Date(2017, 2, 15, 9, 30, 0, 123456789, time.UTC))
	return []*graph.Mutation{
		{Op: graph.OpInsertNode, UID: 1, Class: "ComputeHost",
			Fields: graph.Fields{"id": 1001, "name": "host-1", "rack": "rz", "status": "Active"}, At: at},
		{Op: graph.OpInsertEdge, UID: 2, Class: "OnServer", Src: 7, Dst: 1,
			Fields: graph.Fields{"id": 2001}, At: at + int64(time.Second)},
		{Op: graph.OpUpdate, UID: 1,
			Fields: graph.Fields{"status": "Maintenance", "weight": 2.5, "note": "unicode ✓ \"quoted\""},
			At:     at + int64(2*time.Second)},
		{Op: graph.OpDelete, UID: 2, At: at + int64(3*time.Second)},
	}
}

// FuzzDecodeRecord throws arbitrary bytes at the WAL frame decoder and
// pins its contract: it never panics, never over-consumes, classifies
// every failure as torn, corrupt or a retired format (the outcomes
// recovery and the replication follower branch on), and re-encoding an
// accepted frame reproduces it byte for byte — the canonical encoding
// byte-identical replicas rely on. A reused Decoder decodes every input
// as a fresh DecodeGroup does.
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
	// flipped payload byte, a record of the retired JSON format, and
	// degenerate headers.
	f.Add(append(append([]byte{}, frames[0]...), frames[1]...))
	group, err := AppendGroup(nil, fuzzSeedMutations()[:2])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(group)
	f.Add(frames[0][:len(frames[0])-3])
	bad := append([]byte{}, frames[2]...)
	bad[len(bad)-1] ^= 0x40
	f.Add(bad)
	f.Add(rawFrame(`{"op":"delete","uid":2,"at":"2017-02-15T09:30:03Z"}`))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})

	// The Decoder the differential check reuses, its maps left holding
	// the seed group's fields.
	var dec Decoder
	if _, _, err := dec.Group(group); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecoderMatches(t, &dec, b)
		m, n, err := DecodeRecord(b)
		if err != nil {
			if m != nil || n != 0 {
				t.Fatalf("failed decode returned (m=%v, n=%d); want (nil, 0)", m, n)
			}
			var fe *graph.FormatError
			if !IsTorn(err) && !IsCorrupt(err) && !errors.As(err, &fe) {
				t.Fatalf("decode error is neither torn, corrupt nor a format error: %v", err)
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
		// Canonical: the accepted mutation, with its continuation mark,
		// re-encodes to exactly the frame it was decoded from.
		frame, err := appendRecord(nil, m, continued(b[:n]))
		if err != nil {
			t.Fatalf("re-encoding accepted mutation: %v", err)
		}
		if !bytes.Equal(frame, b[:n]) {
			t.Fatalf("re-encoding changed the frame:\n%x\n%x", b[:n], frame)
		}
	})
}
