package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/codec"
	"repro/internal/graph"
)

// Wire format: every record is a length-prefixed, checksummed frame
//
//	[4 bytes little-endian payload length]
//	[4 bytes little-endian CRC-32C of the payload]
//	[payload]
//
// and the payload is one mutation in the binary codec (internal/codec):
//
//	flags   one byte; bit 0 is the continuation mark, the others are zero
//	op      one byte, graph.MutationOp
//	uid     uvarint
//	src dst uvarints, insert_edge only
//	at      zigzag varint of Unix nanoseconds
//	class   length-prefixed string, inserts only
//	fields  a codec field map, inserts and updates only
//
// Records come in groups: the records of one store batch (one Mutate
// call, one /v1/ingest request) are written with one write and made
// durable with one sync, and recovery and replication apply a group whole
// or not at all. Every record of a group but the last carries the
// continuation mark, inside the CRC, so a flipped mark is corruption and
// can never merge or split a group; a log ending in a record that carries
// the mark ends inside a group, the torn tail of a crash mid-append.
//
// The CRC covers only the payload; the length prefix is validated by
// bounds (a frame can never exceed maxRecordSize), so any bit flip in
// either field is caught before a byte of the payload is trusted. A
// record that does not fully fit in the remaining bytes is a torn tail —
// the crash left a partial write — and is distinguished from checksum
// corruption so recovery can report what it truncated.
//
// The payload is canonical — decoding rejects every byte string the
// encoder would not produce — so re-encoding a decoded record reproduces
// its frame byte for byte. A frame whose CRC holds but whose payload is a
// JSON document ('{' where the flags byte belongs) is a record of the
// retired JSON log format: a *graph.FormatError, never corruption, so
// recovery refuses an old log instead of truncating it as a torn tail.

// recordFormat names the record encoding, in FormatErrors.
const recordFormat = "nepal-wal/2"

// legacyRecordFormat names the retired JSON record encoding.
const legacyRecordFormat = "nepal-wal/1 (JSON)"

const (
	frameHeaderSize = 8
	// maxRecordSize bounds one mutation's payload; a length prefix above
	// it is treated as corruption, not as an instruction to allocate.
	maxRecordSize = 16 << 20
)

// flagMore is the continuation mark in a payload's flags byte.
const flagMore = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks an incomplete final frame (crash mid-append).
var errTorn = errors.New("wal: torn record")

// errCorrupt marks a frame whose length, checksum or payload is invalid.
var errCorrupt = errors.New("wal: corrupt record")

// AppendGroup appends the wire frames of one group of mutations to dst:
// every frame but the last carries the continuation mark. The log writes
// its groups with it, and the Go client writes a /v1/ingest batch with
// it. On error dst comes back as it was, and the error is a
// *graph.BatchError naming the record that could not be encoded.
func AppendGroup(dst []byte, ms []*graph.Mutation) ([]byte, error) {
	start := len(dst)
	for i, m := range ms {
		var err error
		if dst, err = appendRecord(dst, m, i < len(ms)-1); err != nil {
			return dst[:start], &graph.BatchError{Index: i, Err: err}
		}
	}
	return dst, nil
}

// appendRecord appends one mutation's wire frame to dst, with the
// continuation mark when more records of its group follow. It encodes
// what m's op carries and nothing else, and allocates nothing when dst
// has room and m has at most 16 fields per nesting level. On error dst
// comes back as it was.
func appendRecord(dst []byte, m *graph.Mutation, more bool) ([]byte, error) {
	if m.Op < graph.OpInsertNode || m.Op > graph.OpDelete {
		return dst, fmt.Errorf("wal: encoding mutation uid %d: unknown op %s", m.UID, m.Op)
	}
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	flags := byte(0)
	if more {
		flags = flagMore
	}
	dst = append(dst, flags, byte(m.Op))
	dst = binary.AppendUvarint(dst, uint64(m.UID))
	if m.Op == graph.OpInsertEdge {
		dst = binary.AppendUvarint(dst, uint64(m.Src))
		dst = binary.AppendUvarint(dst, uint64(m.Dst))
	}
	dst = binary.AppendVarint(dst, m.At)
	if m.Op == graph.OpInsertNode || m.Op == graph.OpInsertEdge {
		dst = codec.AppendString(dst, m.Class)
	}
	var err error
	if m.Op != graph.OpDelete {
		dst, err = codec.AppendFields(dst, m.Fields)
	}
	if err != nil {
		return dst[:start], fmt.Errorf("wal: encoding mutation %s uid %d: %w", m.Op, m.UID, err)
	}
	payload := dst[start+frameHeaderSize:]
	if len(payload) > maxRecordSize {
		return dst[:start], fmt.Errorf("wal: mutation %s uid %d encodes to %d bytes (max %d)",
			m.Op, m.UID, len(payload), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// continued reports whether a whole frame carries the continuation mark:
// more records of its group follow it.
func continued(frame []byte) bool {
	return frame[frameHeaderSize]&flagMore != 0
}

// uint32frame reads the little-endian length prefix of a frame.
func uint32frame(b []byte) uint32 {
	return binary.LittleEndian.Uint32(b[0:4])
}

// verifyFrameChecksum checks a complete frame's CRC without decoding the
// payload.
func verifyFrameChecksum(frame []byte) error {
	payload := frame[frameHeaderSize:]
	want := binary.LittleEndian.Uint32(frame[4:8])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", errCorrupt, want, got)
	}
	return nil
}

// DecodeGroup reads the group at the front of b: whole frames up to and
// including the first without the continuation mark. It returns the
// group's mutations and, for each, the byte offset in b just past its
// frame. A b that ends inside the group — mid-frame, or on a frame
// boundary before the group's last record — is torn (IsTorn): recovery
// and the replication follower apply a group whole or not at all. The
// mutations point into one slab, sized from the frame headers before any
// is decoded; every string is copied, so none aliases b.
func DecodeGroup(b []byte) ([]*graph.Mutation, []int, error) {
	n := groupLen(b)
	slab := make([]graph.Mutation, 0, n)
	ends := make([]int, 0, n)
	for off := 0; ; {
		slab = append(slab, graph.Mutation{})
		size, err := decodeRecordInto(&slab[len(slab)-1], b[off:])
		if err != nil {
			return nil, nil, err
		}
		off += size
		ends = append(ends, off)
		if !continued(b[off-size : off]) {
			break
		}
	}
	ms := make([]*graph.Mutation, len(slab))
	for i := range slab {
		ms[i] = &slab[i]
	}
	return ms, ends, nil
}

// groupLen counts the frames of the group at the front of b from their
// headers and continuation marks alone, without checking a CRC: it only
// sizes DecodeGroup's slab, which decodes and verifies every frame.
func groupLen(b []byte) int {
	n := 1
	for off := 0; len(b)-off > frameHeaderSize && continued(b[off:]); n++ {
		size, err := frameLen(b[off:])
		if err != nil {
			break
		}
		off += size
	}
	return n
}

// FrameChecksum reads the stored CRC-32C out of a frame's header — the
// value the chained prefix hash is built over. The frame must be at
// least a whole header (callers pass frames DecodeRecord or frameSize
// already validated).
func FrameChecksum(frame []byte) uint32 {
	return binary.LittleEndian.Uint32(frame[4:8])
}

// IsTorn reports whether err marks an incomplete frame — the benign end
// of a cut-off batch or a crash tail, as opposed to corruption.
func IsTorn(err error) bool { return errors.Is(err, errTorn) }

// IsCorrupt reports whether err marks an invalid frame (bad length,
// checksum, or payload).
func IsCorrupt(err error) bool { return errors.Is(err, errCorrupt) }

// DecodeRecord reads one frame from the front of b, returning the decoded
// mutation and the number of bytes consumed. It returns a torn error
// (IsTorn) when b ends before the frame does, a corrupt one (IsCorrupt)
// when the length bound, the checksum, or the payload is invalid, and a
// *graph.FormatError when the payload is a record of the retired JSON
// format.
func DecodeRecord(b []byte) (*graph.Mutation, int, error) {
	m := new(graph.Mutation)
	n, err := decodeRecordInto(m, b)
	if err != nil {
		return nil, 0, err
	}
	return m, n, nil
}

// decodeRecordInto is DecodeRecord into a zero mutation the caller owns.
func decodeRecordInto(m *graph.Mutation, b []byte) (int, error) {
	n, err := frameSize(b)
	if err != nil {
		return 0, err
	}
	payload := b[frameHeaderSize:n]
	if payload[0] == '{' {
		return 0, &graph.FormatError{Got: legacyRecordFormat, Want: recordFormat}
	}
	var r codec.Reader
	r.Reset(payload)
	if r.Byte()&^flagMore != 0 {
		return 0, fmt.Errorf("%w: unknown flag bits %#x", errCorrupt, payload[0])
	}
	m.Op, m.UID = graph.MutationOp(r.Byte()), graph.UID(r.Uvarint())
	switch m.Op {
	case graph.OpInsertNode, graph.OpUpdate, graph.OpDelete:
	case graph.OpInsertEdge:
		m.Src, m.Dst = graph.UID(r.Uvarint()), graph.UID(r.Uvarint())
	default:
		r.Fail("unknown op %d", m.Op)
	}
	m.At = r.Varint()
	if m.Op == graph.OpInsertNode || m.Op == graph.OpInsertEdge {
		m.Class = r.Str()
	}
	if m.Op != graph.OpDelete {
		m.Fields = r.Fields()
	}
	r.Done()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	return n, nil
}
