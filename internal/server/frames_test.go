package server_test

import (
	"net/http"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/wal"
)

// checkFramesDecode decodes a framed ingest body as the server does,
// with a reused wal.Decoder whose maps hold another group's fields, and
// with a fresh wal.DecodeGroup: both give the same error text, or the
// same records — each insert's field map validated against its class
// and laid out as a record, with the same error text or the same record.
func checkFramesDecode(t *testing.T, d *wal.Decoder, sch *schema.Schema, body []byte) {
	t.Helper()
	want, _, wantErr := wal.DecodeGroup(body)
	got, _, gotErr := d.Group(body)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("reused decoder: %v; fresh decode: %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	for i := range want {
		if !reflect.DeepEqual(*got[i], *want[i]) {
			t.Fatalf("record %d: reused decoder %+v, fresh decode %+v", i, *got[i], *want[i])
		}
		c, ok := sch.Class(want[i].Class)
		if !ok || c.Abstract {
			continue
		}
		gerr, werr := sch.ValidateRecord(c.Name, got[i].Fields), sch.ValidateRecord(c.Name, want[i].Fields)
		if (gerr == nil) != (werr == nil) || werr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("record %d validates as %v after the reused decoder, %v after a fresh decode", i, gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(c.NewRecord(got[i].Fields, nil), c.NewRecord(want[i].Fields, nil)) {
			t.Fatalf("record %d lays out differently after the reused decoder", i)
		}
	}
}

// TestIngestFramesAllocations bounds what a framed ingest of ten full-
// record updates allocates, request and recorder included. The decoder's
// field maps, mutations and names are reused from batch to batch, so a
// map per decoded record (and its interned-away names) coming back
// breaks the bound by well over ten allocations.
func TestIngestFramesAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds allocations to every request")
	}
	db := newDemoDB(t)
	st := db.Store()
	var ms []*graph.Mutation
	for _, uid := range st.BySubtree(st.Schema().MustClass(schema.NodeRoot)) {
		if len(ms) < 10 {
			ms = append(ms, &graph.Mutation{Op: graph.OpUpdate, UID: uid, Fields: st.Object(uid).Current().Fields})
		}
	}
	body, err := wal.AppendGroup(nil, ms)
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(db, server.Config{}).Handler()
	post := func() {
		if rec := postFrames(h, body); rec.Code != http.StatusOK {
			t.Fatalf("%d %s", rec.Code, rec.Body)
		}
	}
	post() // warm the pools
	allocs := testing.AllocsPerRun(100, post)
	t.Logf("a framed batch of %d updates allocates %.0f times", len(ms), allocs)
	if allocs > 180 {
		t.Errorf("a framed batch of %d updates allocates %.0f times, want at most 180", len(ms), allocs)
	}
}

// raceEnabled reports a -race build; race_test.go sets it.
var raceEnabled bool
