package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

// TestPreparedPanelsShareOneShape: eight prepared statements that differ
// only in a literal share one digest and one compiled shape, and each
// answers for its own literal.
func TestPreparedPanelsShareOneShape(t *testing.T) {
	db := newDemoDB(t)
	_, c := newTestServer(t, db, server.Config{})
	ctx := context.Background()
	names := []string{"host-1", "host-2", "tor-1", "tor-2", "spine-1", "vm-1", "vm-2", "vm-3"}
	var digest string
	for round := range 2 {
		for i, name := range names {
			stmt, err := c.Prepare(ctx, fmt.Sprintf("Select source(P).name From PATHS P Where P MATCHES Node(id=%d)", 1001+i))
			if err != nil {
				t.Fatal(err)
			}
			if digest == "" {
				digest = stmt.Digest()
			}
			if stmt.Digest() != digest {
				t.Errorf("panel %d: digest %s, panel 0 has %s", i, stmt.Digest(), digest)
			}
			res, err := stmt.Exec(ctx, nil)
			if err != nil {
				t.Fatalf("round %d, panel %d: %v", round, i, err)
			}
			if len(res.Rows) != 1 || res.Rows[0].Values[0] != name {
				t.Errorf("round %d, panel %d: rows %v, want %s", round, i, res.Rows, name)
			}
			if !res.Cached {
				t.Errorf("round %d, panel %d: execute not answered from the statement table", round, i)
			}
		}
	}
	if n, _ := db.StatementTable(); n != 1 {
		t.Errorf("statement table holds %d shapes for eight panels of one shape", n)
	}
}

// TestRedefinedViewOverTheWire: /v1/query answers a statement over a
// redefined view with the new definition, though the same text was
// compiled against the old one.
func TestRedefinedViewOverTheWire(t *testing.T) {
	db := newDemoDB(t)
	_, c := newTestServer(t, db, server.Config{})
	ctx := context.Background()
	for _, v := range []struct {
		rpe  string
		rows int
	}{{"VM()->OnServer()->Host()", 3}, {"VNF()", 2}, {"VM()->OnServer()->Host()", 3}} {
		if err := db.DefineView("V", v.rpe); err != nil {
			t.Fatal(err)
		}
		res, err := c.Query(ctx, "Select source(P).name From V P", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != v.rows {
			t.Errorf("V as %s: %d rows, want %d", v.rpe, len(res.Rows), v.rows)
		}
	}
}

// seedStatements are statements whose parameters cover every literal
// kind, a negative number, an IN list and an AT timestamp.
var seedStatements = []string{
	"Select source(P).name From PATHS P Where P MATCHES Node(id=1001)",
	"Select source(P).name From PATHS P Where P MATCHES VM(name='vm-1')->OnServer()->Host(rack IN ('r1', 'r2'))",
	"AT '2030-01-01 10:00' Select source(P).name From PATHS P Where P MATCHES VNF(serviceId >= -7)->ComposedOf()->VFC()",
	"Retrieve P From PATHS P Where P MATCHES VM(name =~ 'vm-*', status != 'Red')",
	"Select count(P) From PATHS P Where P MATCHES Switch(status='Active', portCount < 3)",
}

// queryStatuses are the statuses /v1/query documents: an answer,
// bad_request or parse_error, limit, overloaded, canceled and deadline.
// /v1/watch/query answers 200 or 400 to a primary's subscriber.
var queryStatuses = []int{http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity,
	http.StatusTooManyRequests, 499, http.StatusGatewayTimeout}

// FuzzQueryRequest throws arbitrary bytes at /v1/query as the body, and
// arbitrary name, q and queue values at /v1/watch/query, over a
// WAL-backed server whose limits bound every evaluation. A standing
// query's stream is opened under a canceled context, so it ends after
// its first snapshot. The contract: nothing panics, nothing answers 5xx,
// and every status is one the handlers document.
func FuzzQueryRequest(f *testing.F) {
	db := newDemoDB(f, core.WithWALOptions(f.TempDir(), wal.Options{NoSync: true}),
		core.WithLimits(exec.Limits{MaxPaths: 1000, MaxEdgesScanned: 100_000, MaxDuration: time.Second}))
	h := server.New(db, server.Config{}).Handler()
	queryBody := func(req server.QueryRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for _, src := range seedStatements {
		f.Add(queryBody(server.QueryRequest{Query: src}), "panel", src, "")
	}
	f.Add(queryBody(server.QueryRequest{Query: retrieveQ, Explain: server.ExplainAnalyze, Limits: &server.Limits{MaxPaths: 1}}),
		"", retrieveQ, strconv.Itoa(repl.MaxQueue))
	f.Add(queryBody(server.QueryRequest{Query: selectQ, Explain: server.ExplainPlan, At: "2030-01-01"}),
		"overflow", selectQ, "9223372036854775807")
	f.Add(queryBody(server.QueryRequest{Query: seedStatements[2], At: "2030-01-01"}), "", "Select", strconv.Itoa(repl.MaxQueue+1))
	f.Add(queryBody(server.QueryRequest{Query: selectQ, MinTimestamp: "yesterday", TimeoutMS: -1}), "", "", "-1")
	f.Add([]byte(`{"handle": "AAAA"}`), "", "AT '1999-01-01' "+retrieveQ, "0")
	f.Add([]byte(`{"query": `), "", retrieveQ, "many")
	f.Add([]byte(nil), "", "", "")
	f.Fuzz(func(t *testing.T, body []byte, name, q, queue string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if !slices.Contains(queryStatuses, rec.Code) {
			t.Fatalf("POST /v1/query %q: status %d: %s", body, rec.Code, rec.Body)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		target := "/v1/watch/query?" + url.Values{"name": {name}, "q": {q}, "queue": {queue}}.Encode()
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body)
		}
	})
}
