package graph

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/temporal"
)

// ErrTruncated reports a persisted stream that ended before the declared
// content was read — the on-disk file lost its tail. Callers distinguish
// it (via errors.Is) from semantic corruption, which is never recoverable.
var ErrTruncated = errors.New("graph: truncated stream")

// ErrStoreNotEmpty reports an attempt to load a full history into a store
// that already holds objects; restores require a fresh store.
var ErrStoreNotEmpty = errors.New("graph: store is not empty")

// FormatError reports a persisted stream whose format tag is not one this
// build can read (a future or foreign format version).
type FormatError struct {
	Got  string // the format tag found in the stream
	Want string // the format this build reads
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("graph: unsupported stream format %q (this build reads %q)", e.Got, e.Want)
}

// History persistence: WriteHistory serializes the complete temporal
// store — every object with its full version history — and LoadHistory
// reconstructs it into an empty store. Unlike the Snapshot format (which
// carries only the live state of external sources), the history format is
// Nepal's own backup/restore and fixture-shipping representation: a
// header line followed by one JSON document per object, so multi-million
// object stores stream without building one giant value in memory.

// historyHeader is the first line of a history stream.
type historyHeader struct {
	Format  string `json:"format"`
	Objects int    `json:"objects"`
	NextUID int64  `json:"next_uid"`
}

// historyFormat identifies the stream format and version.
const historyFormat = "nepal-history/1"

// objectDoc is the wire form of one object with its versions.
type objectDoc struct {
	UID      int64        `json:"uid"`
	Class    string       `json:"class"`
	Src      int64        `json:"src,omitempty"`
	Dst      int64        `json:"dst,omitempty"`
	Versions []versionDoc `json:"versions"`
}

// versionDoc is the wire form of one version; End is empty for the
// current (open) version.
type versionDoc struct {
	Fields Fields `json:"fields"`
	Start  string `json:"start"`
	End    string `json:"end,omitempty"`
}

const historyTimeLayout = time.RFC3339Nano

// WriteHistory streams the full store (all objects, all versions) to w.
func (st *Store) WriteHistory(w io.Writer) error {
	st.mu.RLock()
	defer st.mu.RUnlock()

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(historyHeader{
		Format:  historyFormat,
		Objects: len(st.objects),
		NextUID: int64(st.nextUID),
	}); err != nil {
		return fmt.Errorf("graph: writing history header: %w", err)
	}
	for uid := UID(1); uid < st.nextUID; uid++ {
		obj := st.objects[uid]
		if obj == nil {
			continue
		}
		doc := objectDoc{
			UID:   int64(obj.UID),
			Class: obj.Class.Name,
			Src:   int64(obj.Src),
			Dst:   int64(obj.Dst),
		}
		for _, v := range obj.Versions {
			vd := versionDoc{Fields: v.Fields, Start: v.Period.Start.Format(historyTimeLayout)}
			if !v.Period.IsCurrent() {
				vd.End = v.Period.End.Format(historyTimeLayout)
			}
			doc.Versions = append(doc.Versions, vd)
		}
		if err := enc.Encode(doc); err != nil {
			return fmt.Errorf("graph: writing history object %d: %w", uid, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flushing history stream: %w", err)
	}
	return nil
}

// LoadHistory reconstructs a previously written history stream into st,
// which must be empty. Every version is validated against the schema
// (the strong-typing guarantee holds across restore), structural
// invariants are re-checked (edge endpoints exist and are nodes, version
// periods are ordered and non-overlapping, at most one open version),
// and the live unique indexes, adjacency, class indexes, and statistics
// are rebuilt. The store's clock is advanced past the newest stored
// timestamp so post-restore writes stay strictly monotonic.
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
	if len(st.objects) != 0 {
		return fmt.Errorf("%w: LoadHistory requires an empty store, found %d objects",
			ErrStoreNotEmpty, len(st.objects))
	}

	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr historyHeader
	if err := dec.Decode(&hdr); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: history ended before the header", ErrTruncated)
		}
		return fmt.Errorf("graph: reading history header: %w", err)
	}
	if hdr.Format != historyFormat {
		return &FormatError{Got: hdr.Format, Want: historyFormat}
	}
	if hdr.Objects < 0 || hdr.NextUID < 0 {
		return fmt.Errorf("graph: history header has negative counts (objects=%d, next_uid=%d)",
			hdr.Objects, hdr.NextUID)
	}

	// Stage into a scratch store sharing the schema; st is untouched
	// until the commit at the bottom.
	tmp := NewStore(st.schema, nil, nil)
	var latest time.Time
	for i := 0; i < hdr.Objects; i++ {
		var doc objectDoc
		if err := dec.Decode(&doc); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("%w: history declares %d objects but ended after %d",
					ErrTruncated, hdr.Objects, i)
			}
			return fmt.Errorf("graph: reading history object %d/%d: %w", i+1, hdr.Objects, err)
		}
		obj, err := tmp.restoreObject(&doc)
		if err != nil {
			return err
		}
		for _, v := range obj.Versions {
			if v.Period.Start.After(latest) {
				latest = v.Period.Start
			}
			if !v.Period.IsCurrent() && v.Period.End.After(latest) {
				latest = v.Period.End
			}
		}
	}
	if dec.More() {
		return fmt.Errorf("graph: trailing data after the %d declared history objects", hdr.Objects)
	}

	// Endpoint integrity: every edge's endpoints must exist and be nodes,
	// and the endpoints must already exist whenever the edge does.
	for _, obj := range tmp.objects {
		if !obj.IsEdge() {
			continue
		}
		for _, end := range []UID{obj.Src, obj.Dst} {
			other := tmp.objects[end]
			if other == nil || other.IsEdge() {
				return fmt.Errorf("graph: history edge %d references invalid endpoint %d", obj.UID, end)
			}
		}
		tmp.out[obj.Src] = append(tmp.out[obj.Src], obj.UID)
		tmp.in[obj.Dst] = append(tmp.in[obj.Dst], obj.UID)
	}

	// Commit: install the fully validated state.
	st.objects, st.out, st.in = tmp.objects, tmp.out, tmp.in
	st.byClass, st.unique = tmp.byClass, tmp.unique
	st.classCount = tmp.classCount
	st.versionCount, st.liveCount = tmp.versionCount, tmp.liveCount
	if tmp.nextUID > st.nextUID {
		st.nextUID = tmp.nextUID
	}
	if UID(hdr.NextUID) > st.nextUID {
		st.nextUID = UID(hdr.NextUID)
	}
	// Advance the clock beyond everything restored.
	if !latest.IsZero() {
		st.clock.EnsureAfter(latest)
	}
	return nil
}

// restoreObject validates and installs one object document.
func (st *Store) restoreObject(doc *objectDoc) (*Object, error) {
	cls, ok := st.schema.Class(doc.Class)
	if !ok {
		return nil, fmt.Errorf("graph: history object %d has unknown class %q", doc.UID, doc.Class)
	}
	if cls.Abstract {
		return nil, fmt.Errorf("graph: history object %d uses abstract class %q", doc.UID, doc.Class)
	}
	if doc.UID <= 0 {
		return nil, fmt.Errorf("graph: history object has invalid uid %d", doc.UID)
	}
	uid := UID(doc.UID)
	if _, dup := st.objects[uid]; dup {
		return nil, fmt.Errorf("graph: duplicate uid %d in history", uid)
	}
	if len(doc.Versions) == 0 {
		return nil, fmt.Errorf("graph: history object %d has no versions", uid)
	}

	obj := &Object{UID: uid, Class: cls, Src: UID(doc.Src), Dst: UID(doc.Dst)}
	var prevEnd time.Time
	for vi, vd := range doc.Versions {
		if err := st.schema.ValidateRecord(doc.Class, vd.Fields); err != nil {
			return nil, fmt.Errorf("graph: history object %d version %d: %w", uid, vi, err)
		}
		start, err := time.Parse(historyTimeLayout, vd.Start)
		if err != nil {
			return nil, fmt.Errorf("graph: history object %d version %d start: %w", uid, vi, err)
		}
		period := temporal.Current(start)
		if vd.End != "" {
			end, err := time.Parse(historyTimeLayout, vd.End)
			if err != nil {
				return nil, fmt.Errorf("graph: history object %d version %d end: %w", uid, vi, err)
			}
			period = temporal.Between(start, end)
			if period.IsEmpty() {
				return nil, fmt.Errorf("graph: history object %d version %d has empty period", uid, vi)
			}
		} else if vi != len(doc.Versions)-1 {
			return nil, fmt.Errorf("graph: history object %d has an open non-final version", uid)
		}
		if vi > 0 && start.Before(prevEnd) {
			return nil, fmt.Errorf("graph: history object %d versions overlap", uid)
		}
		prevEnd = period.End
		obj.Versions = append(obj.Versions, Version{Fields: vd.Fields.Clone(), Period: period})
		st.versionCount++
	}

	st.objects[uid] = obj
	st.byClass[doc.Class] = append(st.byClass[doc.Class], uid)
	if uid >= st.nextUID {
		st.nextUID = uid + 1
	}
	if cur := obj.Current(); cur != nil {
		st.classCount[doc.Class]++
		st.liveCount++
		if err := st.claimUnique(cls, cur.Fields, 0); err != nil {
			return nil, fmt.Errorf("graph: history object %d: %w", uid, err)
		}
		st.recordUnique(cls, cur.Fields, uid)
	}
	return obj, nil
}
