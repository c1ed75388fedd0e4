package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/rpe"
	"repro/internal/server"
)

// TestPreparedPanelsShareOneShape: eight prepared statements that differ
// only in a literal share one digest and one compiled shape, and each,
// executed by its handle, answers for its own literal.
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

// handleStatements are FuzzExecuteHandle's prepared statements: their
// parameters cover every literal kind, a negative number, an IN list and
// an AT timestamp.
var handleStatements = []string{
	"Select source(P).name From PATHS P Where P MATCHES Node(id=1001)",
	"Select source(P).name From PATHS P Where P MATCHES VM(name='vm-1')->OnServer()->Host(rack IN ('r1', 'r2'))",
	"AT '2030-01-01 10:00' Select source(P).name From PATHS P Where P MATCHES VNF(serviceId >= -7)->ComposedOf()->VFC()",
	"Retrieve P From PATHS P Where P MATCHES VM(name =~ 'vm-*', status != 'Red')",
	"Select count(P) From PATHS P Where P MATCHES Switch(status='Active', portCount < 3)",
}

// literalKinds is the sequence of literal kinds in text, numbers as one
// kind: what an EXPLAIN shows of how a statement's literals were bound.
func literalKinds(t testing.TB, text string) string {
	toks, err := rpe.Lex(text)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	var kinds []byte
	for _, tk := range toks {
		switch tk.Kind {
		case rpe.KindString:
			kinds = append(kinds, 's')
		case rpe.KindInt, rpe.KindFloat:
			kinds = append(kinds, 'n')
		}
	}
	return string(kinds)
}

// FuzzExecuteHandle throws arbitrary handles at /v1/execute over a server
// holding a few prepared shapes. The contract: nothing panics; the answer
// is 200, 400 (literals that do not fit the shape) or 410 (a malformed
// handle, or a shape not prepared); and a handle that executes binds exactly the
// literal kinds its shape expects — it re-encodes to itself, and its plan
// shows a literal of the same kind wherever the prepared statement's
// does.
func FuzzExecuteHandle(f *testing.F) {
	db := newDemoDB(f)
	s := server.New(db, server.Config{})
	h := s.Handler()
	kinds := map[string]string{} // digest -> the literal kinds of its plan
	for _, src := range handleStatements {
		p, err := db.Prepare(src)
		if err != nil {
			f.Fatal(err)
		}
		kinds[p.Digest()] = literalKinds(f, p.Explain())
		f.Add(p.Handle())
		f.Add(p.Handle() + "A")
	}
	f.Add("")
	f.Add("AAAA")
	f.Fuzz(func(t *testing.T, handle string) {
		body, err := json.Marshal(server.ExecuteRequest{Handle: handle})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/execute", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusGone:
			return
		case http.StatusOK:
		default:
			t.Fatalf("handle %q: status %d: %s", handle, rec.Code, rec.Body)
		}
		p, err := db.PrepareHandle(handle)
		if err != nil {
			t.Fatalf("handle %q executed, but does not bind: %v", handle, err)
		}
		if again := p.Handle(); again != handle {
			t.Fatalf("handle %q re-encodes as %q", handle, again)
		}
		want, ok := kinds[p.Digest()]
		if !ok {
			t.Fatalf("handle %q bound a shape of unknown digest %s", handle, p.Digest())
		}
		if got := literalKinds(t, p.Explain()); got != want {
			t.Fatalf("handle %q binds literal kinds %s, the prepared statement %s", handle, got, want)
		}
	})
}
