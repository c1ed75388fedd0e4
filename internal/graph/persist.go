package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/codec"
	"repro/internal/temporal"
)

// ErrTruncated reports a persisted stream that ended before the declared
// content was read — the on-disk file lost its tail. Callers distinguish
// it (via errors.Is) from semantic corruption, which is never recoverable.
var ErrTruncated = errors.New("graph: truncated stream")

// ErrStoreNotEmpty reports an attempt to load a full history into a store
// that already holds objects; restores require a fresh store.
var ErrStoreNotEmpty = errors.New("graph: store is not empty")

// FormatError reports a persisted stream — a checkpoint, a snapshot
// download, a log record — whose format is not the one this build reads:
// a future or foreign version, or the retired JSON format. It is never
// corruption: the bytes are intact, and recovery must refuse them rather
// than truncate them.
type FormatError struct {
	File string // the file or URL the stream came from, when known
	Got  string // the format found in the stream
	Want string // the format this build reads
}

func (e *FormatError) Error() string {
	msg := fmt.Sprintf("unsupported stream format %q (this build reads %q)", e.Got, e.Want)
	if e.File != "" {
		msg = e.File + ": " + msg
	}
	return "graph: " + msg
}

// SetFormatFile records file in err's *FormatError, if err carries one,
// and reports whether it did. The caller that opened the file or URL
// names it; the decoder that found the format does not know it.
func SetFormatFile(err error, file string) bool {
	var fe *FormatError
	if errors.As(err, &fe) {
		fe.File = file
		return true
	}
	return false
}

// History persistence: WriteHistory serializes the complete temporal
// store — every object with its full version history — and LoadHistory
// reconstructs it into an empty store. Unlike the Snapshot format (which
// carries only the live state of external sources), the history format is
// Nepal's own checkpoint, backup/restore and snapshot-shipping
// representation, in the binary codec (internal/codec):
//
//	format tag   length-prefixed string, HistoryFormat
//	objects      uvarint count
//	next_uid     uvarint
//	then per object, in ascending UID order, a uvarint byte length and:
//	  uid        uvarint, the gap from the previous object's UID
//	  class      length-prefixed name
//	  src dst    uvarints (0 for a node)
//	  versions   uvarint count, then per version a zigzag varint start
//	             (Unix nanoseconds), a uvarint end (0 while the version
//	             is open, else end−start+1) and a codec field map
//
// Each object is length-prefixed so a multi-million object store streams
// through one reused buffer without building one giant value in memory.

// HistoryFormat identifies the history stream format and version.
const HistoryFormat = "nepal-history/2"

// maxFormatTag bounds the format tag a reader will read: a longer one is
// not a history stream.
const maxFormatTag = 64

// maxObjectSize bounds one encoded object, like the log's maxRecordSize.
const maxObjectSize = 64 << 20

// WriteHistory streams the full store (all objects, all versions) to w.
func (st *Store) WriteHistory(w io.Writer) error {
	st.mu.RLock()
	defer st.mu.RUnlock()

	bw := bufio.NewWriterSize(w, 64<<10)
	hdr := codec.AppendString(nil, HistoryFormat)
	hdr = binary.AppendUvarint(hdr, uint64(st.objectCount()))
	hdr = binary.AppendUvarint(hdr, uint64(st.nextUID))
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("graph: writing history header: %w", err)
	}
	var obj, size []byte
	prev := UID(0)
	for uid := UID(1); uid < st.nextUID; uid++ {
		o := st.objects.at(uid)
		if o == nil {
			continue
		}
		doc := objectDoc{UID: uid, Class: o.Class.Name, Src: o.Src, Dst: o.Dst, Versions: o.Versions}
		var err error
		if obj, err = appendObject(obj[:0], &doc, prev); err != nil {
			return fmt.Errorf("graph: encoding history object %d: %w", uid, err)
		}
		prev = uid
		size = binary.AppendUvarint(size[:0], uint64(len(obj)))
		if _, err = bw.Write(size); err == nil {
			_, err = bw.Write(obj)
		}
		if err != nil {
			return fmt.Errorf("graph: writing history object %d: %w", uid, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flushing history stream: %w", err)
	}
	return nil
}

// objectDoc is one object of a history stream: what WriteHistory encodes
// and LoadHistory decodes, before schema validation.
type objectDoc struct {
	UID      UID
	Class    string
	Src, Dst UID
	Versions []Version
}

// appendObject appends one object's history encoding; prev is the UID of
// the object before it in the stream.
func appendObject(dst []byte, o *objectDoc, prev UID) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(o.UID-prev))
	dst = codec.AppendString(dst, o.Class)
	dst = binary.AppendUvarint(dst, uint64(o.Src))
	dst = binary.AppendUvarint(dst, uint64(o.Dst))
	dst = binary.AppendUvarint(dst, uint64(len(o.Versions)))
	for _, v := range o.Versions {
		var err error
		if dst, err = codec.AppendTime(dst, v.Period.Start); err != nil {
			return dst, err
		}
		end := uint64(0)
		if !v.Period.IsCurrent() {
			d := v.Period.End.Sub(v.Period.Start)
			if d < 0 || d == math.MaxInt64 { // Sub saturates past ~292 years
				return dst, fmt.Errorf("version period %v does not encode", v.Period)
			}
			end = uint64(d) + 1
		}
		dst = binary.AppendUvarint(dst, end)
		if dst, err = codec.AppendFields(dst, v.Fields); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// readObject reads one length-prefixed object encoding into buf. It
// grows buf a megabyte at a time as bytes arrive, so a corrupt length
// costs what the stream actually holds, not what it claims.
func readObject(br *bufio.Reader, buf []byte) ([]byte, error) {
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return buf, err
	}
	if size > maxObjectSize {
		return buf, fmt.Errorf("object of %d bytes exceeds the %d-byte bound", size, maxObjectSize)
	}
	buf = buf[:0]
	for len(buf) < int(size) {
		l := len(buf)
		n := min(int(size)-l, 1<<20)
		buf = slices.Grow(buf, n)[:l+n]
		if _, err := io.ReadFull(br, buf[l:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// decodeObject decodes one object's encoding; prev is the UID of the
// object before it in the stream.
func decodeObject(r *codec.Reader, prev UID) objectDoc {
	doc := objectDoc{UID: prev + UID(r.Uvarint()), Class: r.Name()}
	doc.Src, doc.Dst = UID(r.Uvarint()), UID(r.Uvarint())
	n := r.Uvarint()
	if n > uint64(r.Len()/3) { // a version takes at least three bytes
		r.Fail("version count %d exceeds the %d bytes left", n, r.Len())
		return doc
	}
	doc.Versions = make([]Version, n)
	for i := range doc.Versions {
		start := r.Time()
		period := temporal.Current(start)
		if end := r.Uvarint(); end > 0 {
			if end-1 > math.MaxInt64 {
				r.Fail("version end out of range")
			}
			period = temporal.Between(start, start.Add(time.Duration(end-1)))
		}
		doc.Versions[i] = Version{Fields: r.Fields(), Period: period}
	}
	r.Done()
	return doc
}

// objectCount counts the objects in the table.
func (st *Store) objectCount() int {
	n := 0
	for uid := UID(0); uid < st.objects.end(); uid++ {
		if st.objects.at(uid) != nil {
			n++
		}
	}
	return n
}

// readHistoryHeader reads and checks the header of a history stream,
// returning its object count and next_uid. A stream in the retired JSON
// format, or under any other format tag, is a *FormatError.
func readHistoryHeader(br *bufio.Reader) (objects, nextUID uint64, err error) {
	if b, _ := br.Peek(1); len(b) == 1 && b[0] == '{' {
		line, _ := br.ReadSlice('\n')
		return 0, 0, &FormatError{Got: legacyFormat(line), Want: HistoryFormat}
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, streamErr(err, "history ended before the header")
	}
	if n > maxFormatTag {
		return 0, 0, &FormatError{Got: fmt.Sprintf("(a %d-byte tag)", n), Want: HistoryFormat}
	}
	tag := make([]byte, n)
	if _, err := io.ReadFull(br, tag); err != nil {
		return 0, 0, streamErr(err, "history ended inside the format tag")
	}
	if string(tag) != HistoryFormat {
		return 0, 0, &FormatError{Got: string(tag), Want: HistoryFormat}
	}
	if objects, err = binary.ReadUvarint(br); err == nil {
		nextUID, err = binary.ReadUvarint(br)
	}
	if err != nil {
		return 0, 0, streamErr(err, "history ended inside the header")
	}
	return objects, nextUID, nil
}

// legacyFormat names the format of a JSON history header line: its
// "format" value, or "JSON" when it has none.
func legacyFormat(line []byte) string {
	const key = `"format":"`
	if i := bytes.Index(line, []byte(key)); i >= 0 {
		rest := line[i+len(key):]
		if j := bytes.IndexByte(rest, '"'); j >= 0 && j <= maxFormatTag {
			return string(rest[:j])
		}
	}
	return "JSON"
}

// streamErr maps a read error to ErrTruncated when the stream simply
// ended, and wraps it otherwise.
func streamErr(err error, what string) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s", ErrTruncated, what)
	}
	return fmt.Errorf("graph: %s: %w", what, err)
}

// LoadHistory reconstructs a previously written history stream into st,
// which must be empty. Every version is validated against the schema
// (the strong-typing guarantee holds across restore), the live unique
// indexes, adjacency, class indexes, and statistics are rebuilt, and the
// staged store must pass CheckInvariants — the same checker behind
// `nepal -fsck` — so a history loads exactly when the store it builds is
// one the live write path could have produced. The store's clock is
// advanced past the newest stored timestamp so post-restore writes stay
// strictly monotonic.
//
// The load is atomic: everything is staged into scratch state and
// installed only after the whole stream has decoded and validated, so on
// any error — a truncated download, a torn file, a validation failure —
// st is left exactly as it was (empty) and a retry with a fresh stream
// is clean. Replication followers rely on this to survive a snapshot
// download severed mid-stream.
func (st *Store) LoadHistory(r io.Reader) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n := st.objectCount(); n != 0 {
		return fmt.Errorf("%w: LoadHistory requires an empty store, found %d objects",
			ErrStoreNotEmpty, n)
	}

	br := bufio.NewReaderSize(r, 64<<10)
	objects, nextUID, err := readHistoryHeader(br)
	if err != nil {
		return err
	}

	// Stage into a scratch store sharing the schema; st is untouched
	// until the commit at the bottom.
	tmp := NewStore(st.schema, nil, nil)
	var latest time.Time
	var buf []byte
	var rd codec.Reader
	rd.InternNames()
	prev := UID(0)
	for i := uint64(0); i < objects; i++ {
		if buf, err = readObject(br, buf); err != nil {
			return streamErr(err, fmt.Sprintf("history declares %d objects but ended inside object %d", objects, i+1))
		}
		rd.Reset(buf)
		doc := decodeObject(&rd, prev)
		if err := rd.Err(); err != nil {
			return fmt.Errorf("graph: decoding history object %d/%d: %w", i+1, objects, err)
		}
		obj, err := tmp.restoreObject(&doc)
		if err != nil {
			return err
		}
		prev = obj.UID
		for _, v := range obj.Versions {
			if v.Period.Start.After(latest) {
				latest = v.Period.Start
			}
			if !v.Period.IsCurrent() && v.Period.End.After(latest) {
				latest = v.Period.End
			}
		}
	}
	if _, err := br.ReadByte(); err == nil {
		return fmt.Errorf("graph: trailing data after the %d declared history objects", objects)
	} else if err != io.EOF {
		return fmt.Errorf("graph: reading past the %d declared history objects: %w", objects, err)
	}

	if nextUID > math.MaxInt64 || UID(nextUID)-tmp.nextUID > maxUIDGap {
		return fmt.Errorf("graph: history header next_uid %d lies beyond the allocation frontier %d",
			nextUID, tmp.nextUID)
	}
	if v := tmp.CheckInvariants(); len(v) > 0 {
		return fmt.Errorf("graph: history fails %d invariant checks, first: %s", len(v), v[0])
	}

	// Commit: install the fully validated state.
	st.objects, st.out, st.in = tmp.objects, tmp.out, tmp.in
	st.byClass, st.unique = tmp.byClass, tmp.unique
	st.classCount = tmp.classCount
	st.versionCount, st.liveCount = tmp.versionCount, tmp.liveCount
	if tmp.nextUID > st.nextUID {
		st.nextUID = tmp.nextUID
	}
	if UID(nextUID) > st.nextUID {
		st.nextUID = UID(nextUID)
	}
	// Advance the clock beyond everything restored.
	if !latest.IsZero() {
		st.clock.EnsureAfter(latest)
	}
	return nil
}

// restoreObject validates one decoded object's class and versions
// against the schema and installs it with its indexes. Structural
// invariants — version order, open versions, edge endpoints and
// lifetimes, unique values — are LoadHistory's CheckInvariants pass.
func (st *Store) restoreObject(doc *objectDoc) (*Object, error) {
	uid := doc.UID
	cls, ok := st.schema.Class(doc.Class)
	if !ok {
		return nil, fmt.Errorf("graph: history object %d has unknown class %q", uid, doc.Class)
	}
	if cls.Abstract {
		return nil, fmt.Errorf("graph: history object %d uses abstract class %q", uid, doc.Class)
	}
	if err := st.admitUID(uid); err != nil {
		return nil, err
	}
	if st.objects.at(uid) != nil {
		return nil, fmt.Errorf("graph: duplicate uid %d in history", uid)
	}
	if cls.IsEdge() {
		for _, end := range []UID{doc.Src, doc.Dst} {
			if err := st.admitUID(end); err != nil {
				return nil, fmt.Errorf("%w (an endpoint of history edge %d)", err, uid)
			}
		}
	}
	for vi, v := range doc.Versions {
		if err := st.schema.ValidateRecord(doc.Class, v.Fields); err != nil {
			return nil, fmt.Errorf("graph: history object %d version %d: %w", uid, vi, err)
		}
	}

	obj := &Object{UID: uid, Class: cls, Src: doc.Src, Dst: doc.Dst, Versions: doc.Versions}
	st.versionCount += len(obj.Versions)
	*st.objects.slot(uid) = obj
	st.byClass[doc.Class] = append(st.byClass[doc.Class], uid)
	if obj.IsEdge() {
		st.appendAdjacency(obj.Src, obj.Dst, uid)
	}
	if uid >= st.nextUID {
		st.nextUID = uid + 1
	}
	if cur := obj.Current(); cur != nil {
		st.classCount[doc.Class]++
		st.liveCount++
		st.recordUnique(cls, cur.Fields, uid)
	}
	return obj, nil
}
