package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// rawFrame frames payload with a valid length and CRC: a hand-built
// record, or one of the retired JSON log format.
func rawFrame(payload string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum([]byte(payload), castagnoli))
	return append(b, payload...)
}

// randomValue draws a field value of any kind the codec encodes, nesting
// lists and maps up to depth more levels, and the value it must decode
// as: every integer kind comes back as int64, float32 as float64.
func randomValue(rng *rand.Rand, depth int) (in, want any) {
	kinds := 10
	if depth == 0 {
		kinds = 8 // no containers at the bottom
	}
	switch rng.Intn(kinds) {
	case 0:
		s := fmt.Sprintf("s%d-✓-\x00-%q", rng.Int63(), "quoted")
		return s, s
	case 1:
		n := rng.Int63() - rng.Int63()
		return n, n
	case 2:
		n := int(rng.Int31()) - int(rng.Int31())
		return n, int64(n)
	case 3:
		n := int32(rng.Int31())
		return n, int64(n)
	case 4:
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		return f, f
	case 5:
		f := float32(rng.NormFloat64())
		return f, float64(f)
	case 6:
		b := rng.Intn(2) == 0
		return b, b
	case 7:
		n := rng.Uint32()
		return []any{int8(n), int16(n), uint8(n), uint16(n), n, uint64(n)}[n%6],
			[]any{int64(int8(n)), int64(int16(n)), int64(uint8(n)), int64(uint16(n)), int64(n), int64(n)}[n%6]
	case 8:
		n := rng.Intn(4)
		in, want := make([]any, n), make([]any, n)
		for i := range in {
			in[i], want[i] = randomValue(rng, depth-1)
		}
		return in, want
	default:
		in, want := randomMap(rng, depth-1)
		return map[string]any(in), map[string]any(want)
	}
}

func randomMap(rng *rand.Rand, depth int) (in, want graph.Fields) {
	n := 1 + rng.Intn(6)
	in, want = graph.Fields{}, graph.Fields{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("f%d", rng.Intn(20))
		in[k], want[k] = randomValue(rng, depth)
	}
	return in, want
}

// TestRecordRoundTripProperty: random mutations of every op, with field
// values of every kind the codec encodes — nested lists and maps
// included — decode to their input: fields reflect.DeepEqual with every
// integer as int64, At equal under time.Equal, whatever its zone.
func TestRecordRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	zones := []*time.Location{time.UTC, time.FixedZone("NPT", 5*3600+45*60), time.FixedZone("W", -7*3600)}
	for i := 0; i < 2000; i++ {
		op := graph.MutationOp(1 + rng.Intn(4))
		m := &graph.Mutation{Op: op, UID: graph.UID(1 + rng.Int63n(1<<40)),
			At: t0.Add(time.Duration(rng.Int63n(int64(100 * 365 * 24 * time.Hour)))).In(zones[rng.Intn(len(zones))])}
		var want graph.Fields
		switch op {
		case graph.OpInsertEdge:
			m.Src, m.Dst = graph.UID(rng.Int63()), graph.UID(rng.Intn(1000))
			fallthrough
		case graph.OpInsertNode:
			m.Class = fmt.Sprintf("Class%d", rng.Intn(5))
			fallthrough
		case graph.OpUpdate:
			m.Fields, want = randomMap(rng, 3)
		}
		more := rng.Intn(2) == 0
		frame, err := appendRecord(nil, m, more)
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		got, n, err := DecodeRecord(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("mutation %d: decode = %v after %d of %d bytes", i, err, n, len(frame))
		}
		if continued(frame) != more {
			t.Fatalf("mutation %d: continuation mark %v, want %v", i, continued(frame), more)
		}
		if got.Op != m.Op || got.UID != m.UID || got.Class != m.Class || got.Src != m.Src || got.Dst != m.Dst {
			t.Fatalf("mutation %d: identity %+v, want %+v", i, got, m)
		}
		if !got.At.Equal(m.At) {
			t.Fatalf("mutation %d: At %v, want %v", i, got.At, m.At)
		}
		if !reflect.DeepEqual(got.Fields, want) {
			t.Fatalf("mutation %d: fields\n%#v\nwant\n%#v", i, got.Fields, want)
		}
		if again, _ := appendRecord(nil, got, more); !bytes.Equal(again, frame) {
			t.Fatalf("mutation %d: re-encoding the decoded record changed its frame", i)
		}
	}
}

// TestRecordCodecRejectsNonCanonical: payloads the encoder never writes
// — unknown flag bits or op, a non-minimal varint, trailing bytes, fields
// on a delete — are corruption even under a valid CRC, so every accepted
// frame has one encoding. (internal/codec's tests cover the field map.)
func TestRecordCodecRejectsNonCanonical(t *testing.T) {
	at := binary.AppendVarint(nil, t0.UnixNano())
	frame := func(head []byte, tail ...byte) []byte {
		return rawFrame(string(append(append(append([]byte(nil), head...), at...), tail...)))
	}
	update := []byte{0, byte(graph.OpUpdate), 5}
	if _, _, err := DecodeRecord(frame(update, 0)); err != nil {
		t.Fatalf("hand-built update rejected: %v", err)
	}
	for name, b := range map[string][]byte{
		"flag bit 1":      frame([]byte{2, byte(graph.OpUpdate), 5}, 0),
		"unknown op":      frame([]byte{0, 9, 5}, 0),
		"non-minimal uid": frame([]byte{0, byte(graph.OpUpdate), 0x85, 0x00}, 0),
		"trailing byte":   frame(update, 0, 0),
		"delete fields":   frame([]byte{0, byte(graph.OpDelete), 5}, 0),
	} {
		if _, _, err := DecodeRecord(b); !IsCorrupt(err) {
			t.Errorf("%s: err = %v, want corrupt", name, err)
		}
	}
}

// TestAppendRecordAllocations: encoding a record of up to 16 fields into
// a buffer with room allocates nothing.
func TestAppendRecordAllocations(t *testing.T) {
	fields := graph.Fields{}
	for i := 0; i < 16; i++ {
		switch i % 4 {
		case 0:
			fields[fmt.Sprintf("s%02d", i)] = "value"
		case 1:
			fields[fmt.Sprintf("i%02d", i)] = i * 1000
		case 2:
			fields[fmt.Sprintf("f%02d", i)] = float64(i) / 3
		default:
			fields[fmt.Sprintf("b%02d", i)] = i%2 == 0
		}
	}
	m := &graph.Mutation{Op: graph.OpInsertNode, UID: 1 << 20, Class: "ComputeHost", Fields: fields, At: t0}
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = appendRecord(buf[:0], m, true); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("appendRecord allocated %.1f times per record, want 0", allocs)
	}
}

// TestRetiredFormatRefused: a log segment of JSON records and a
// nepal-history/1 checkpoint, every CRC valid, fail Open with a
// *graph.FormatError naming the file, and Open leaves both byte for byte
// as they were: an old log is refused, never truncated as a corrupt tail.
func TestRetiredFormatRefused(t *testing.T) {
	segment := append(
		rawFrame(`{"op":"insert_node","uid":1,"class":"Host","fields":{"id":1},"at":"2017-02-15T00:01:00Z"}`),
		rawFrame(`{"op":"update","uid":1,"fields":{"id":1},"at":"2017-02-15T00:02:00Z"}`)...)
	checkpoint := []byte(`{"format":"nepal-history/1","objects":1,"next_uid":2}` + "\n" +
		`{"uid":1,"class":"Host","versions":[{"fields":{"id":1},"start":"2017-02-15T00:01:00Z"}]}` + "\n")
	for name, files := range map[string]map[string][]byte{
		"segment":    {filepath.Base(segmentPath("", 1)): segment},
		"checkpoint": {checkpointName: checkpoint},
		"both":       {filepath.Base(segmentPath("", 1)): segment, checkpointName: checkpoint},
	} {
		dir := t.TempDir()
		for f, data := range files {
			if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err := Open(dir, newTestStore(t), Options{NoSync: true})
		var fe *graph.FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: Open = %v, want a *graph.FormatError", name, err)
		}
		if IsCorrupt(err) || IsTorn(err) {
			t.Errorf("%s: a retired format reads as damage: %v", name, err)
		}
		if _, ok := files[filepath.Base(fe.File)]; !ok || filepath.Dir(fe.File) != dir {
			t.Errorf("%s: FormatError names %q, want one of the written files", name, fe.File)
		}
		if !strings.Contains(err.Error(), fe.File) {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
		for f, data := range files {
			got, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("%s: Open changed %s (err %v): %d bytes, was %d", name, f, err, len(got), len(data))
			}
		}
	}
}

// TestFlippedContinuationIsCorruption: the continuation mark lives inside
// the CRC, so flipping it — ending a group early, or running one into the
// next — is a checksum failure, never a merged or split group. In the
// final segment, recovery keeps the groups before the damaged one and
// drops that group whole.
func TestFlippedContinuationIsCorruption(t *testing.T) {
	at := t0.Add(time.Minute)
	insert := func(uid graph.UID) *graph.Mutation {
		return &graph.Mutation{Op: graph.OpInsertNode, UID: uid, Class: "Host",
			Fields: graph.Fields{"id": int(uid)}, At: at.Add(time.Duration(uid) * time.Second)}
	}
	first, err := appendGroup(nil, []*graph.Mutation{insert(1)})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := appendGroup(nil, []*graph.Mutation{insert(2), insert(3)})
	if err != nil {
		t.Fatal(err)
	}
	_, firstOfPair, err := decodeRecord(pair)
	if err != nil {
		t.Fatal(err)
	}
	for name, flagAt := range map[string]int{
		"group ended early":        frameHeaderSize,               // the pair's first frame loses its mark
		"group runs into the next": firstOfPair + frameHeaderSize, // the pair's last frame gains one
	} {
		bad := append([]byte(nil), pair...)
		bad[flagAt] ^= flagMore
		if _, _, err := DecodeGroup(bad); !IsCorrupt(err) {
			t.Fatalf("%s: DecodeGroup = %v, want corrupt", name, err)
		}
		dir := t.TempDir()
		log := append(append(append([]byte(nil), first...), bad...), first...)
		if err := os.WriteFile(segmentPath(dir, 1), log, 0o644); err != nil {
			t.Fatal(err)
		}
		st := newTestStore(t)
		mgr, stats, err := Open(dir, st, Options{NoSync: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mgr.Close()
		if stats.RecordsApplied != 1 || !stats.TailTruncated || stats.DroppedBytes != int64(len(log)-len(first)) {
			t.Fatalf("%s: stats = %+v, want the first group applied and everything from the damaged group dropped", name, stats)
		}
		if live, _ := st.Counts(); live != 1 {
			t.Fatalf("%s: %d objects recovered, want 1", name, live)
		}
	}
}
