package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/wal"
)

// TestIngestSendsOneRecordGroup: Ingest posts a batch as one WAL record
// group that the log's decoder reads back to the batch's records, and
// each request's body is its own: a second, shorter batch encoded in the
// same pooled scratch leaves the first body as it was sent.
func TestIngestSendsOneRecordGroup(t *testing.T) {
	var bodies [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != server.ContentTypeWAL {
			t.Errorf("Content-Type %q, want %q", ct, server.ContentTypeWAL)
		}
		b, _ := io.ReadAll(r.Body)
		bodies = append(bodies, b)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"uids":[0],"applied":1}`)
	}))
	defer srv.Close()
	c := New(srv.URL)
	batch := []server.IngestOp{
		{Op: "insert-node", Class: "ComputeHost", UID: 99, Fields: map[string]any{"id": 7, "name": "h7"}},
		{Op: "insert-edge", Class: "OnServer", Src: 3, Dst: 4, Fields: map[string]any{"id": int64(8)}},
		{Op: "update", UID: 5, Class: "ignored", Fields: map[string]any{"status": "Red", "load": 0.5}},
		{Op: "delete", UID: 6, Fields: map[string]any{"ignored": true}},
	}
	want := []graph.Mutation{
		{Op: graph.OpInsertNode, Class: "ComputeHost", Fields: graph.Fields{"id": int64(7), "name": "h7"}},
		{Op: graph.OpInsertEdge, Class: "OnServer", Src: 3, Dst: 4, Fields: graph.Fields{"id": int64(8)}},
		{Op: graph.OpUpdate, UID: 5, Fields: graph.Fields{"status": "Red", "load": 0.5}},
		{Op: graph.OpDelete, UID: 6},
	}
	for _, ops := range [][]server.IngestOp{batch, batch[3:]} {
		if _, err := c.Ingest(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range [][]graph.Mutation{want, want[3:]} {
		ms, ends, err := wal.DecodeGroup(bodies[i])
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if ends[len(ends)-1] != len(bodies[i]) {
			t.Fatalf("body %d: the group ends at byte %d of %d", i, ends[len(ends)-1], len(bodies[i]))
		}
		got := make([]graph.Mutation, len(ms))
		for j, m := range ms {
			got[j] = *m
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("body %d decodes to %+v, want %+v", i, got, w)
		}
	}
}

// TestIngestUnframableFailsBeforeSending: an op name or a field value
// the codec cannot carry fails Ingest in the client, naming the op, and
// nothing reaches the server.
func TestIngestUnframableFailsBeforeSending(t *testing.T) {
	f := newFakeEndpoint(t)
	c := New(f.srv.URL)
	ok := server.IngestOp{Op: "delete", UID: 1}
	for _, tc := range []struct {
		ops   []server.IngestOp
		named string
	}{
		{[]server.IngestOp{ok, {Op: "warp"}}, "op 1 (warp)"},
		{[]server.IngestOp{ok, ok, {Op: "update", UID: 2, Fields: map[string]any{"at": struct{}{}}}}, "op 2 (update)"},
		{[]server.IngestOp{{Op: "insert-node", Class: "Host", Fields: map[string]any{"name": nil}}}, "op 0 (insert-node)"},
	} {
		_, err := c.Ingest(context.Background(), tc.ops)
		if err == nil || !strings.Contains(err.Error(), tc.named) {
			t.Errorf("Ingest = %v, want an error naming %s", err, tc.named)
		}
	}
	if n := f.hits.Load(); n != 0 {
		t.Fatalf("%d requests reached the server", n)
	}
}
