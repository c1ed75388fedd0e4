package wal

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/temporal"
)

// checkDecoderMatches decodes b with d, whose maps hold whatever its
// last group left in them, and with DecodeGroup's fresh storage: both
// must give the same mutations and frame ends, or the same error text.
// The store lays each decoded map out as a record, so equal mutations
// make equal records and equal validation errors.
func checkDecoderMatches(t testing.TB, d *Decoder, b []byte) {
	t.Helper()
	want, wantEnds, wantErr := DecodeGroup(b)
	got, gotEnds, gotErr := d.Group(b)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("Decoder.Group error %v, DecodeGroup error %v", gotErr, wantErr)
	case wantErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("Decoder.Group error %q, DecodeGroup error %q", gotErr, wantErr)
		}
	case !reflect.DeepEqual(gotEnds, wantEnds):
		t.Fatalf("Decoder.Group ends %v, DecodeGroup ends %v", gotEnds, wantEnds)
	default:
		if len(got) != len(want) {
			t.Fatalf("Decoder.Group decoded %d records, DecodeGroup %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(*got[i], *want[i]) {
				t.Fatalf("record %d: Decoder.Group %+v, DecodeGroup %+v", i, *got[i], *want[i])
			}
		}
	}
}

// TestDecoderMatchesFreshDecode: one Decoder decodes a run of random
// groups — every op, field maps of every size and kind, nested values,
// groups past the storage it keeps — and damaged copies of them (a
// flipped byte, a cut tail) between them, and gives each what a fresh
// decode gives: no entry a reused map held before survives into the
// next group.
func TestDecoderMatchesFreshDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var d Decoder
	for g := 0; g < 400; g++ {
		n := 1 + rng.Intn(12)
		if g%50 == 49 {
			n = maxKeptGroup + 1 + rng.Intn(20)
		}
		ms := make([]*graph.Mutation, n)
		for i := range ms {
			op := graph.MutationOp(1 + rng.Intn(4))
			m := &graph.Mutation{Op: op, UID: graph.UID(1 + rng.Int63n(1<<20)),
				At: temporal.Nanos(t0) + rng.Int63n(int64(time.Hour))}
			switch op {
			case graph.OpInsertEdge:
				m.Src, m.Dst = graph.UID(rng.Intn(1000)), graph.UID(rng.Intn(1000))
				fallthrough
			case graph.OpInsertNode:
				m.Class = "Class"
				fallthrough
			case graph.OpUpdate:
				if rng.Intn(8) > 0 {
					m.Fields, _ = randomMap(rng, 2)
				}
			}
			ms[i] = m
		}
		b, err := AppendGroup(nil, ms)
		if err != nil {
			t.Fatal(err)
		}
		checkDecoderMatches(t, &d, b)
		bad := append([]byte(nil), b...)
		switch rng.Intn(3) {
		case 0:
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		case 1:
			bad = bad[:rng.Intn(len(bad))]
		}
		checkDecoderMatches(t, &d, bad)
	}
}
