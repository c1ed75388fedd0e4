package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/wal"
)

// handleIngest applies one /v1/ingest batch. The body is a WAL record
// group when the request's Content-Type is ContentTypeWAL, an
// IngestRequest in JSON otherwise; both decode to the same mutation
// records and take the same path from there.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w, r) {
		return
	}
	rq := obs.RequestFrom(r.Context())
	dec := rq.Root.StartChild("Decode", "")
	var ms []*graph.Mutation
	var err error
	if r.Header.Get("Content-Type") == ContentTypeWAL {
		d := decoderPool.Get().(*wal.Decoder)
		defer decoderPool.Put(d)
		ms, err = decodeIngestFrames(w, r, d)
	} else {
		ms, err = decodeIngestJSON(w, r)
	}
	dec.Finish()
	if err == nil && len(ms) == 0 {
		err = errors.New("empty ops")
	}
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.adm.release()
	// The batch is one atomic store write: one Mutate validates, logs
	// (one WAL group, one sync) and applies every op, or none. It runs
	// under the Execute phase span so a WAL-backed store's append span
	// nests inside the request trace.
	ex := rq.Root.StartChild("Execute", "")
	err = s.db.Store().Mutate(obs.ContextWithSpan(r.Context(), ex), ms...)
	ex.Finish()
	if err != nil {
		var be *graph.BatchError
		switch {
		case errors.As(err, &be):
			err = errors.New(rejectedMsg(be.Index, ingestOpName(ms[be.Index].Op), be.Err))
		case len(ms) == 1:
			err = errors.New(rejectedMsg(0, ingestOpName(ms[0].Op), err))
		default:
			err = fmt.Errorf("%v; nothing was applied", err)
		}
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	resp := IngestResponse{UIDs: make([]int64, len(ms)), Applied: len(ms)}
	for i, m := range ms {
		if m.Op == graph.OpInsertNode || m.Op == graph.OpInsertEdge {
			resp.UIDs[i] = int64(m.UID)
		}
	}
	resp.Epoch = s.stampEpoch(w)
	writeJSON(w, http.StatusOK, resp)
}

// rejectedMsg names the op that rejected an ingest batch. A batch is
// atomic, so nothing of it was applied.
func rejectedMsg(i int, op string, err error) string {
	return fmt.Sprintf("op %d (%s): %v; nothing was applied", i, op, err)
}

// decodeIngestJSON reads an IngestRequest. Numbers in fields are read by
// Number, so they are the values a WAL-framed batch carries.
func decodeIngestJSON(w http.ResponseWriter, r *http.Request) ([]*graph.Mutation, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request body: %w", err)
	}
	slab := make([]graph.Mutation, len(req.Ops))
	ms := make([]*graph.Mutation, len(req.Ops))
	for i, op := range req.Ops {
		m, err := op.Mutation()
		if err != nil {
			return nil, errors.New(rejectedMsg(i, op.Op, err))
		}
		if err := fieldNumbers(m.Fields); err != nil {
			return nil, fmt.Errorf("decoding request body: %w", err)
		}
		slab[i] = m
		ms[i] = &slab[i]
	}
	return ms, nil
}

// decodeIngestFrames reads a ContentTypeWAL body: exactly one record
// group, decoded by the log's own decoder into d's storage, which the
// handler keeps until the batch is applied. A record must leave to the
// store what the store stamps — every record's At, an insert's UID. The
// decoded mutations copy every string, so the pooled body buffer goes
// back as soon as they are decoded. An empty body is an empty batch.
func decodeIngestFrames(w http.ResponseWriter, r *http.Request, d *wal.Decoder) ([]*graph.Mutation, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return nil, fmt.Errorf("decoding request body: %w", err)
	}
	b := buf.Bytes()
	if len(b) == 0 {
		return nil, nil
	}
	ms, ends, err := d.Group(b)
	switch {
	case wal.IsTorn(err):
		return nil, errors.New("decoding request body: the body ends inside its record group (a torn frame, or a last frame carrying the continuation mark)")
	case err != nil:
		return nil, fmt.Errorf("decoding request body: %w", err)
	case ends[len(ends)-1] != len(b):
		return nil, fmt.Errorf("decoding request body: %d bytes after the record group", len(b)-ends[len(ends)-1])
	}
	for i, m := range ms {
		switch {
		case m.At != 0:
			return nil, fmt.Errorf("decoding request body: record %d (%s) carries a transaction time; the store stamps it", i, ingestOpName(m.Op))
		case m.UID != 0 && (m.Op == graph.OpInsertNode || m.Op == graph.OpInsertEdge):
			return nil, fmt.Errorf("decoding request body: record %d (%s) carries a UID; the store assigns an insert's", i, ingestOpName(m.Op))
		}
	}
	return ms, nil
}

// decoderPool recycles the decoders WAL-framed ingest bodies are decoded
// with: a batch's mutations and field maps are the decoder's until the
// handler returns, and the store has laid them out as records by then.
var decoderPool = sync.Pool{New: func() any { return new(wal.Decoder) }}

// bodyPool recycles the buffers WAL-framed ingest bodies are read into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the buffers kept: a rare large batch's buffer is
// dropped rather than pinned in the pool.
const maxPooledBody = 64 << 10

func putBody(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledBody {
		return
	}
	buf.Reset()
	bodyPool.Put(buf)
}
