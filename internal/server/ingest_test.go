package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// TestIngestBatchIsAtomic: a /v1/ingest batch whose third op fails
// answers 400 naming that op, and applies and logs none of the batch —
// the WAL's next index and the store's version count stand still, and
// the two inserts before the failing op are nowhere.
func TestIngestBatchIsAtomic(t *testing.T) {
	_, db, _, c := newWatchServer(t, server.Config{})
	ctx := context.Background()
	gauges := func() (float64, float64) {
		snap := scrape(db.Registry())
		return snap[obs.PromName("wal.next_index")], snap[obs.PromName("store.versions")]
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
// throughout; and recovery from the log rebuilds the live history. Each
// op list also goes, through the Go client and so as a WAL-framed body,
// to a twin store on the same manual clock: both transports must give
// the same status, error code and message and the same UIDs, and leave
// byte-identical logs and histories. An op the client cannot frame fails
// in the client, naming the op the JSON answer names.
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

// fuzzClockStart is where both stores of a FuzzIngest input start their
// manual clocks, so equal writes get equal transaction times.
var fuzzClockStart = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// openFuzzDB opens an empty store over a fresh WAL, on a manual clock.
func openFuzzDB(t *testing.T, dir string) *core.DB {
	t.Helper()
	db, err := core.Open(netmodel.MustSchema(), core.WithWALOptions(dir, wal.Options{NoSync: true}),
		core.WithClock(temporal.NewManualClock(fuzzClockStart)))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// walOf returns every record db's log holds.
func walOf(t *testing.T, db *core.DB) []byte {
	t.Helper()
	frames, _, err := db.WAL().ReadRecords(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// checkIngest is FuzzIngest's property over one input.
func checkIngest(t *testing.T, data []byte) {
	reqs := fuzzOps(data)
	if len(reqs) == 0 {
		return
	}
	dir := t.TempDir()
	db := openFuzzDB(t, dir)
	s := server.New(db, server.Config{})
	h := s.Handler()
	st := db.Store()
	twin := openFuzzDB(t, t.TempDir())
	ts := server.New(twin, server.Config{})
	hs := httptest.NewServer(ts.Handler())
	defer func() {
		hs.Close()
		ts.Shutdown(context.Background())
	}()
	c := client.New(hs.URL)
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
		sameIngestAnswer(t, ops, rec, c)
	}
	live := historyOf(t, st)
	if !bytes.Equal(walOf(t, twin), walOf(t, db)) {
		t.Fatal("the framed batches logged other records than the JSON ones")
	}
	if !bytes.Equal(historyOf(t, twin.Store()), live) {
		t.Fatal("the framed batches left another history than the JSON ones")
	}
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

// sameIngestAnswer posts ops through c, as a WAL-framed body, and holds
// the answer to the JSON answer rec: the same UIDs, or the same status,
// code and message. When an op cannot be framed, c fails before sending,
// naming the op the JSON rejection names.
func sameIngestAnswer(t *testing.T, ops []server.IngestOp, rec *httptest.ResponseRecorder, c *client.Client) {
	t.Helper()
	resp, err := c.Ingest(context.Background(), ops)
	var ae *client.APIError
	errors.As(err, &ae)
	for i, op := range ops {
		if _, merr := op.Mutation(); merr != nil {
			named := fmt.Sprintf("op %d (%s)", i, op.Op)
			if err == nil || ae != nil || !strings.Contains(err.Error(), named) || !strings.Contains(rec.Body.String(), named) {
				t.Fatalf("unframable %s: client answered %v, JSON %d %s", named, err, rec.Code, rec.Body)
			}
			return
		}
	}
	if rec.Code == http.StatusOK {
		var want server.IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if err != nil || !reflect.DeepEqual(*resp, want) {
			t.Fatalf("framed batch answered %+v, %v; JSON %+v", resp, err, want)
		}
		return
	}
	var want server.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if ae == nil || ae.Status != rec.Code || ae.Code != want.Error.Code || ae.Message != want.Error.Message {
		t.Fatalf("framed batch answered %v; JSON %d %s: %s", err, rec.Code, want.Error.Code, want.Error.Message)
	}
}

// frameCase is one WAL-framed /v1/ingest body and whether the server
// takes it.
type frameCase struct {
	name string
	body []byte
	ok   bool
}

// frameCases are a good body and one of every body the server refuses.
func frameCases(t testing.TB) []frameCase {
	host := func(id int64) *graph.Mutation {
		return &graph.Mutation{Op: graph.OpInsertNode, Class: "ComputeHost",
			Fields: graph.Fields{"id": id, "name": fmt.Sprint("f", id), "rack": "r", "status": "Active"}}
	}
	group := func(ms ...*graph.Mutation) []byte {
		b, err := wal.AppendGroup(nil, ms)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := group(host(9401), host(9402))
	_, first, err := wal.DecodeRecord(good)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)-1] ^= 0x40
	stamped := host(9403)
	stamped.At = 5
	numbered := host(9404)
	numbered.UID = 7
	return []frameCase{
		{"two inserts", good, true},
		{"torn frame", good[:len(good)-3], false},
		{"corrupt frame", corrupt, false},
		{"trailing bytes", append(bytes.Clone(good), 0), false},
		{"last frame carries the continuation mark", good[:first], false},
		{"nonzero At", group(stamped), false},
		{"insert with a UID", group(numbered), false},
		{"a JSON document", []byte(`{"ops":[{"op":"delete","uid":1}]}`), false},
	}
}

// postFrames posts body to h as a WAL-framed ingest batch.
func postFrames(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", server.ContentTypeWAL)
	h.ServeHTTP(rec, req)
	return rec
}

// TestIngestFramesRefused: a framed body is exactly one record group that
// leaves UIDs and times to the store; anything else answers 400
// bad_request "decoding request body: ..." and applies nothing.
func TestIngestFramesRefused(t *testing.T) {
	_, db, _, _ := newWatchServer(t, server.Config{})
	h := server.New(db, server.Config{}).Handler()
	for _, tc := range frameCases(t) {
		before, next := historyOf(t, db.Store()), db.WAL().NextIndex()
		rec := postFrames(h, tc.body)
		if tc.ok {
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", tc.name, rec.Code, rec.Body)
			}
			continue
		}
		var eb server.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusBadRequest ||
			eb.Error.Code != "bad_request" || !strings.HasPrefix(eb.Error.Message, "decoding request body: ") {
			t.Fatalf("%s: %d %s; want 400 bad_request decoding request body", tc.name, rec.Code, rec.Body)
		}
		t.Logf("%s: %s", tc.name, eb.Error.Message)
		if db.WAL().NextIndex() != next || !bytes.Equal(historyOf(t, db.Store()), before) {
			t.Fatalf("%s: a refused body changed the log or the history", tc.name)
		}
	}
}

// FuzzIngestFrames posts raw bytes as a WAL-framed /v1/ingest body to a
// store over a WAL: no input panics the server, every answer is a 200 or
// a 400, and a 400 leaves the history and the WAL's next index as they
// were. A reused decoder, as the server's, decodes the body as a fresh
// one does (checkFramesDecode).
func FuzzIngestFrames(f *testing.F) {
	cases := frameCases(f)
	for _, tc := range cases {
		f.Add(tc.body)
	}
	sch := netmodel.MustSchema()
	var dec wal.Decoder // left holding a good body's fields
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFramesDecode(t, &dec, sch, cases[0].body)
		checkFramesDecode(t, &dec, sch, body)
		db := openFuzzDB(t, t.TempDir())
		s := server.New(db, server.Config{})
		defer s.Shutdown(context.Background())
		before, next := historyOf(t, db.Store()), db.WAL().NextIndex()
		rec := postFrames(s.Handler(), body)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			if db.WAL().NextIndex() != next || !bytes.Equal(historyOf(t, db.Store()), before) {
				t.Fatalf("refused body (%s) changed the log or the history", rec.Body)
			}
		default:
			t.Fatalf("answer %d: %s", rec.Code, rec.Body)
		}
		if vs := db.Store().CheckInvariants(); len(vs) != 0 {
			t.Fatalf("invariants violated: %v", vs)
		}
	})
}

// TestIngestKeepsLargeIntegers: an integer above 2^53 survives ingest
// exactly over both body forms, nested in a list of maps too — stored as
// an int64 its unique index finds.
func TestIngestKeepsLargeIntegers(t *testing.T) {
	const big = 9007199254740993 // 2^53 + 1: the nearest float64 is 2^53
	for _, form := range []string{"json", "frames"} {
		t.Run(form, func(t *testing.T) {
			_, db, url, c := newWatchServer(t, server.Config{})
			if form == "json" {
				body := fmt.Sprintf(`{"ops": [{"op": "insert-node", "class": "ComputeHost", "fields": {"id": %d,
					"name": "hbig", "rack": "r", "status": "Active", "alarms": [{"code": "c", "severity": %d}]}}]}`, big, big)
				resp, err := http.Post(url+"/v1/ingest", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("ingest answered %d", resp.StatusCode)
				}
			} else if _, err := c.Ingest(context.Background(), []server.IngestOp{{Op: "insert-node", Class: "ComputeHost",
				Fields: map[string]any{"id": int64(big), "name": "hbig", "rack": "r", "status": "Active",
					"alarms": []any{map[string]any{"code": "c", "severity": int64(big)}}}}}); err != nil {
				t.Fatal(err)
			}
			uid, ok := db.Store().LookupUnique("Node", "id", int64(big))
			if !ok {
				t.Fatalf("no node with id %d", int64(big))
			}
			fields := db.Store().Object(uid).Current().Fields
			if v := fields["id"]; v != any(int64(big)) {
				t.Fatalf("stored id = %v (%T), want int64 %d", v, v, int64(big))
			}
			want := []any{map[string]any{"code": "c", "severity": int64(big)}}
			if !reflect.DeepEqual(fields["alarms"], want) {
				t.Fatalf("stored alarms = %#v, want %#v", fields["alarms"], want)
			}
		})
	}
}
