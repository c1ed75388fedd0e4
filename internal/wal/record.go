package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/graph"
)

// Wire format: every record is a length-prefixed, checksummed frame
//
//	[4 bytes little-endian payload length]
//	[4 bytes little-endian CRC-32C of the payload]
//	[payload: one JSON mutation document]
//
// Records come in groups: the records of one store batch (one Mutate
// call, one /v1/ingest request) are written with one write and made
// durable with one sync, and recovery and replication apply a group whole
// or not at all. Every record of a group but the last carries the
// continuation mark — its payload starts with {"more":true, — so the CRC
// covers it, a single-record group is exactly the pre-group record
// format, and a log ending in a record that carries the mark ends inside
// a group, the torn tail of a crash mid-append.
//
// The CRC covers only the payload; the length prefix is validated by
// bounds (a frame can never exceed maxRecordSize), so any bit flip in
// either field is caught before a byte of the payload is trusted. A
// record that does not fully fit in the remaining bytes is a torn tail —
// the crash left a partial write — and is distinguished from checksum
// corruption so recovery can report what it truncated.

const (
	frameHeaderSize = 8
	// maxRecordSize bounds one mutation document; a length prefix above it
	// is treated as corruption, not as an instruction to allocate.
	maxRecordSize = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks an incomplete final frame (crash mid-append).
var errTorn = errors.New("wal: torn record")

// errCorrupt marks a frame whose length or checksum is invalid.
var errCorrupt = errors.New("wal: corrupt record")

// recordDoc is the JSON payload of one logged mutation. More, the
// continuation mark, is encoded first (and only when set), so a reader
// finds it by the payload's prefix without decoding the document.
type recordDoc struct {
	More   bool         `json:"more,omitempty"`
	Op     string       `json:"op"`
	UID    int64        `json:"uid"`
	Class  string       `json:"class,omitempty"`
	Src    int64        `json:"src,omitempty"`
	Dst    int64        `json:"dst,omitempty"`
	Fields graph.Fields `json:"fields,omitempty"`
	At     string       `json:"at"`
}

const recordTimeLayout = time.RFC3339Nano

// moreMark is the payload prefix of a record that carries the
// continuation mark.
var moreMark = []byte(`{"more":true,`)

// appendGroup appends the wire frames of one group of mutations to dst:
// every frame but the last carries the continuation mark.
func appendGroup(dst []byte, ms []*graph.Mutation) ([]byte, error) {
	for i, m := range ms {
		var err error
		if dst, err = appendRecord(dst, m, i < len(ms)-1); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendRecord appends one mutation's wire frame to dst, with the
// continuation mark when more records of its group follow.
func appendRecord(dst []byte, m *graph.Mutation, more bool) ([]byte, error) {
	payload, err := json.Marshal(recordDoc{
		More:   more,
		Op:     m.Op.String(),
		UID:    int64(m.UID),
		Class:  m.Class,
		Src:    int64(m.Src),
		Dst:    int64(m.Dst),
		Fields: m.Fields,
		At:     m.At.Format(recordTimeLayout),
	})
	if err != nil {
		return dst, fmt.Errorf("wal: encoding mutation %s uid %d: %w", m.Op, m.UID, err)
	}
	if len(payload) > maxRecordSize {
		return dst, fmt.Errorf("wal: mutation %s uid %d encodes to %d bytes (max %d)",
			m.Op, m.UID, len(payload), maxRecordSize)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...), nil
}

// continued reports whether a whole frame carries the continuation mark:
// more records of its group follow it.
func continued(frame []byte) bool {
	return bytes.HasPrefix(frame[frameHeaderSize:], moreMark)
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

// DecodeRecord reads one frame from the front of b, returning the decoded
// mutation and the number of bytes consumed — the exported form the
// watch feed uses to turn shipped records into events. IsTorn
// distinguishes "the batch ends mid-frame" from real corruption.
func DecodeRecord(b []byte) (*graph.Mutation, int, error) {
	return decodeRecord(b)
}

// DecodeGroup reads the group at the front of b: whole frames up to and
// including the first without the continuation mark. It returns the
// group's mutations and, for each, the byte offset in b just past its
// frame. A b that ends inside the group — mid-frame, or on a frame
// boundary before the group's last record — is torn (IsTorn): recovery
// and the replication follower apply a group whole or not at all.
func DecodeGroup(b []byte) ([]*graph.Mutation, []int, error) {
	var ms []*graph.Mutation
	var ends []int
	for off := 0; ; {
		m, n, err := decodeRecord(b[off:])
		if err != nil {
			return nil, nil, err
		}
		ms = append(ms, m)
		off += n
		ends = append(ends, off)
		if !continued(b[off-n : off]) {
			return ms, ends, nil
		}
	}
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
// checksum, or payload document).
func IsCorrupt(err error) bool { return errors.Is(err, errCorrupt) }

// decodeRecord reads one frame from the front of b, returning the decoded
// mutation and the number of bytes consumed. It returns errTorn when b
// ends before the frame does and errCorrupt when the length bound, the
// checksum, or the payload document is invalid.
func decodeRecord(b []byte) (*graph.Mutation, int, error) {
	if len(b) < frameHeaderSize {
		return nil, 0, errTorn
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > maxRecordSize {
		return nil, 0, fmt.Errorf("%w: implausible length prefix %d", errCorrupt, n)
	}
	if len(b) < frameHeaderSize+int(n) {
		return nil, 0, errTorn
	}
	payload := b[frameHeaderSize : frameHeaderSize+int(n)]
	want := binary.LittleEndian.Uint32(b[4:8])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", errCorrupt, want, got)
	}
	var doc recordDoc
	if err := json.Unmarshal(payload, &doc); err != nil {
		return nil, 0, fmt.Errorf("%w: undecodable payload: %v", errCorrupt, err)
	}
	if doc.More != bytes.HasPrefix(payload, moreMark) {
		return nil, 0, fmt.Errorf("%w: continuation mark out of place", errCorrupt)
	}
	op, err := graph.ParseMutationOp(doc.Op)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	at, err := time.Parse(recordTimeLayout, doc.At)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: bad timestamp %q: %v", errCorrupt, doc.At, err)
	}
	return &graph.Mutation{
		Op:     op,
		UID:    graph.UID(doc.UID),
		Class:  doc.Class,
		Src:    graph.UID(doc.Src),
		Dst:    graph.UID(doc.Dst),
		Fields: doc.Fields,
		At:     at,
	}, frameHeaderSize + int(n), nil
}
