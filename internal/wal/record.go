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
// is decoded; every string is copied, so none aliases b. What DecodeGroup
// returns is fresh and may be kept; Decoder.Group is the same decode
// into storage reused from one group to the next.
func DecodeGroup(b []byte) ([]*graph.Mutation, []int, error) {
	n := groupLen(b)
	var r codec.Reader
	slab, ends, err := decodeGroup(&r, b, make([]graph.Mutation, 0, n), make([]int, 0, n), nil)
	if err != nil {
		return nil, nil, err
	}
	return pointTo(slab, make([]*graph.Mutation, 0, len(slab))), ends, nil
}

// Decoder decodes record groups into storage it reuses from one group to
// the next: the mutations, their frame ends and their field maps, whose
// names it interns. The paths that hand a decoded group straight to the
// store — framed ingest, recovery replay, a replica's apply — decode with
// one, because the store lays every field map out as a record of its own
// before the write returns (see graph.MutationHook): a group then costs
// its values and the store's records, and no map, mutation or field name
// of its own. The zero Decoder is ready to use; it is not safe for
// concurrent use.
type Decoder struct {
	slab []graph.Mutation
	ms   []*graph.Mutation
	ends []int
	maps []graph.Fields // record i of a group decodes into maps[i]
	r    codec.Reader
}

// maxKeptGroup bounds the records a Decoder keeps storage for, so one
// rare huge group does not pin its maps for every later one.
const maxKeptGroup = 256

// Group decodes the group at the front of b as DecodeGroup does. What it
// returns — the mutations, their field maps and the ends — is valid only
// until the next call; the values inside the maps are fresh and may be
// kept.
func (d *Decoder) Group(b []byte) ([]*graph.Mutation, []int, error) {
	d.r.InternNames()
	slab, ends, err := decodeGroup(&d.r, b, d.slab[:0], d.ends[:0], d)
	if err != nil {
		return nil, nil, err
	}
	if len(slab) > maxKeptGroup {
		return pointTo(slab, nil), ends, nil
	}
	d.slab, d.ends, d.ms = slab, ends, pointTo(slab, d.ms[:0])
	return d.ms, ends, nil
}

// fields returns the empty map record i of a group decodes its fields
// into.
func (d *Decoder) fields(i int) graph.Fields {
	if i >= maxKeptGroup {
		return make(graph.Fields)
	}
	for len(d.maps) <= i {
		d.maps = append(d.maps, make(graph.Fields))
	}
	clear(d.maps[i])
	return d.maps[i]
}

// decodeGroup appends the records of the group at the front of b to slab
// and their frame ends to ends. Their field maps are d's, or fresh when d
// is nil.
func decodeGroup(r *codec.Reader, b []byte, slab []graph.Mutation, ends []int, d *Decoder) ([]graph.Mutation, []int, error) {
	for off := 0; ; {
		i := len(slab)
		slab = append(slab, graph.Mutation{})
		var fields graph.Fields
		if d != nil {
			fields = d.fields(i)
		}
		size, err := decodeRecordInto(r, &slab[i], b[off:], fields)
		if err != nil {
			return nil, nil, err
		}
		off += size
		ends = append(ends, off)
		if !continued(b[off-size : off]) {
			return slab, ends, nil
		}
	}
}

// pointTo appends a pointer to each of slab's mutations to ms.
func pointTo(slab []graph.Mutation, ms []*graph.Mutation) []*graph.Mutation {
	for i := range slab {
		ms = append(ms, &slab[i])
	}
	return ms
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
	var r codec.Reader
	n, err := decodeRecordInto(&r, m, b, nil)
	if err != nil {
		return nil, 0, err
	}
	return m, n, nil
}

// decodeRecordInto is DecodeRecord into a zero mutation the caller owns,
// read by r. An insert's or update's fields are decoded into fields when
// it is non-nil (and empty), else into a fresh map; either way a record
// with no fields gets nil.
func decodeRecordInto(r *codec.Reader, m *graph.Mutation, b []byte, fields graph.Fields) (int, error) {
	n, err := frameSize(b)
	if err != nil {
		return 0, err
	}
	payload := b[frameHeaderSize:n]
	if payload[0] == '{' {
		return 0, &graph.FormatError{Got: legacyRecordFormat, Want: recordFormat}
	}
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
	switch {
	case m.Op == graph.OpDelete:
	case fields == nil:
		m.Fields = r.Fields()
	default:
		if r.FieldsInto(fields); len(fields) > 0 {
			m.Fields = fields
		}
	}
	r.Done()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	return n, nil
}
