package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/server"
	"repro/internal/wal"
)

// TestIngestBatchIsAtomic: a /v1/ingest batch whose third op fails
// answers 400 naming that op, and applies and logs none of the batch —
// the WAL's next index and the store's version count stand still, and
// the two inserts before the failing op are nowhere.
func TestIngestBatchIsAtomic(t *testing.T) {
	_, db, _, c := newWatchServer(t, server.Config{})
	ctx := context.Background()
	gauges := func() (any, any) {
		snap := db.Registry().Snapshot()
		return snap["wal.next_index"], snap["store.versions"]
	}
	next0, versions0 := gauges()
	before := historyOf(t, db.Store())

	_, err := c.Ingest(ctx, []server.IngestOp{
		{Op: "insert-node", Class: "ComputeHost", Fields: map[string]any{"id": 9301, "name": "a", "rack": "r", "status": "Active"}},
		{Op: "insert-node", Class: "ComputeHost", Fields: map[string]any{"id": 9302, "name": "b", "rack": "r", "status": "Active"}},
		{Op: "update", UID: 1 << 40, Fields: map[string]any{"id": 9303}},
	})
	if err == nil {
		t.Fatal("a batch with a failing op was acknowledged")
	}
	for _, want := range []string{"400", "op 2 (update)", "nothing was applied"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if next, versions := gauges(); next != next0 || versions != versions0 {
		t.Errorf("wal.next_index %v -> %v, store.versions %v -> %v; want both unchanged", next0, next, versions0, versions)
	}
	if !bytes.Equal(historyOf(t, db.Store()), before) {
		t.Error("a rejected batch changed the stored history")
	}
	if _, ok := db.Store().LookupUnique("Node", "id", 9301); ok {
		t.Error("an op before the failing one was applied")
	}

	// The same batch without its failing op is acknowledged whole, as one
	// log group.
	resp, err := c.Ingest(ctx, []server.IngestOp{
		{Op: "insert-node", Class: "ComputeHost", Fields: map[string]any{"id": 9301, "name": "a", "rack": "r", "status": "Active"}},
		{Op: "insert-node", Class: "ComputeHost", Fields: map[string]any{"id": 9302, "name": "b", "rack": "r", "status": "Active"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 2 || resp.UIDs[0] == 0 || resp.UIDs[1] != resp.UIDs[0]+1 {
		t.Fatalf("response %+v, want two applied inserts with consecutive UIDs", resp)
	}
	if h := db.Registry().Histogram("wal.group_records").Snapshot(); h.Count == 0 || h.Sum < 2 {
		t.Errorf("wal.group_records = %+v, want the two-record group observed", h)
	}
}

func historyOf(t testing.TB, st *graph.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzOps decodes fuzz bytes into /v1/ingest requests, four bytes per op:
// the first picks the op (or ends the request), the others the class,
// the unique id and the UIDs an op targets. Ids and UIDs come from small
// ranges, so ops collide on unique ids, reference objects earlier ops of
// the same batch inserted (a fresh store numbers its UIDs from 1) and
// objects earlier ops deleted.
func fuzzOps(data []byte) [][]server.IngestOp {
	var reqs [][]server.IngestOp
	var cur []server.IngestOp
	for len(data) >= 4 && len(reqs) < 4 {
		k, a, b, c := data[0], data[1], data[2], data[3]
		data = data[4:]
		id := int64(a % 16)
		src, dst := int64(1+b%12), int64(1+c%12)
		var op server.IngestOp
		switch k % 7 {
		case 0:
			op = server.IngestOp{Op: "insert-node", Class: "ComputeHost",
				Fields: map[string]any{"id": id, "name": fmt.Sprint("h", id), "rack": "r", "status": "Active"}}
		case 1:
			op = server.IngestOp{Op: "insert-node", Class: netmodel.VM,
				Fields: map[string]any{"id": id, "name": fmt.Sprint("v", id), "status": "Green"}}
		case 2:
			class := []string{netmodel.OnServer, netmodel.PhysicalLink, netmodel.HostedOn, "Nope"}[a%4]
			op = server.IngestOp{Op: "insert-edge", Class: class, Src: src, Dst: dst,
				Fields: map[string]any{"id": 100 + id}}
		case 3:
			op = server.IngestOp{Op: "update", UID: src, Fields: map[string]any{"id": id, "status": "Red"}}
		case 4:
			op = server.IngestOp{Op: "delete", UID: src}
		case 5:
			if k >= 128 {
				op = server.IngestOp{Op: "warp", UID: src}
				break
			}
			fallthrough
		default:
			if len(cur) > 0 {
				reqs, cur = append(reqs, cur), nil
			}
			continue
		}
		if cur = append(cur, op); len(cur) == 12 {
			reqs, cur = append(reqs, cur), nil
		}
	}
	if len(cur) > 0 {
		reqs = append(reqs, cur)
	}
	return reqs
}

// FuzzIngest sends random op lists through the server's handler to a
// store over a WAL, and holds every answer to the batch contract: no
// panic; a 200 applied every op; any other answer left the history and
// the WAL's next index as they were; the store's invariants hold
// throughout; and recovery from the log rebuilds the live history.
func FuzzIngest(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 2, 0, 0, 2, 1, 0, 1})                     // two hosts and a link between them
	f.Add([]byte{1, 3, 0, 0, 0, 4, 0, 0, 2, 0, 0, 1, 4, 0, 1, 0})         // VM on a host, then the VM deleted
	f.Add([]byte{0, 5, 0, 0, 0, 5, 0, 0})                                 // a duplicate unique id
	f.Add([]byte{0, 6, 0, 0, 4, 0, 0, 0, 3, 6, 0, 0})                     // update of a uid deleted earlier
	f.Add([]byte{0, 7, 0, 0, 6, 0, 0, 0, 0, 8, 0, 0, 2, 1, 0, 1})         // two requests, an edge across them
	f.Add([]byte{0, 9, 0, 0, 133, 0, 0, 0, 3, 9, 0, 0})                   // an unknown op
	f.Add([]byte{0, 10, 0, 0, 1, 11, 0, 0, 2, 0, 1, 0, 2, 2, 1, 0, 4, 0}) // a host, a VM, edges, a cascade
	f.Fuzz(checkIngest)
}

// checkIngest is FuzzIngest's property over one input.
func checkIngest(t *testing.T, data []byte) {
	reqs := fuzzOps(data)
	if len(reqs) == 0 {
		return
	}
	dir := t.TempDir()
	db, err := core.Open(netmodel.MustSchema(), core.WithWALOptions(dir, wal.Options{NoSync: true}))
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(db, server.Config{})
	h := s.Handler()
	st := db.Store()
	for _, ops := range reqs {
		before, next := historyOf(t, st), db.WAL().NextIndex()
		body, err := json.Marshal(server.IngestRequest{Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var resp server.IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("undecodable 200 answer %q: %v", rec.Body, err)
			}
			if resp.Applied != len(ops) || len(resp.UIDs) != len(ops) {
				t.Fatalf("200 answer applied %d ops with %d UIDs, the batch has %d", resp.Applied, len(resp.UIDs), len(ops))
			}
			if got := db.WAL().NextIndex(); got < next || got > next+uint64(len(ops)) {
				t.Fatalf("an acknowledged batch of %d ops moved the WAL from %d to %d", len(ops), next, got)
			}
		case http.StatusBadRequest:
			if !strings.Contains(rec.Body.String(), "nothing was applied") {
				t.Fatalf("rejection %q does not say nothing was applied", rec.Body)
			}
			if got := db.WAL().NextIndex(); got != next {
				t.Fatalf("a rejected batch moved the WAL from %d to %d", next, got)
			}
			if !bytes.Equal(historyOf(t, st), before) {
				t.Fatal("a rejected batch changed the stored history")
			}
		default:
			t.Fatalf("answer %d: %s", rec.Code, rec.Body)
		}
		if vs := st.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("invariants violated: %v", vs)
		}
	}
	live := historyOf(t, st)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	re, err := core.Open(netmodel.MustSchema(), core.WithWALOptions(dir, wal.Options{NoSync: true}))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if !bytes.Equal(historyOf(t, re.Store()), live) {
		t.Fatal("recovery from the log differs from the live history")
	}
}
