package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/netmodel"
	"repro/internal/query"
	"repro/internal/rpe"
	"repro/internal/server"
)

func TestRunDemoQuery(t *testing.T) {
	q := "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()"
	var out bytes.Buffer
	if err := run(options{model: "netmodel", demo: true, backend: "gremlin", q: q, out: &out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rows)") {
		t.Errorf("query output missing row count: %q", out.String())
	}
}

func TestRunExplainAndCodegen(t *testing.T) {
	q := "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)"
	var out bytes.Buffer
	if err := run(options{model: "netmodel", demo: true, backend: "relational", q: q, explain: true, out: &out}); err != nil {
		t.Fatal(err)
	}
	for _, gen := range []string{"sql", "gremlin", "script"} {
		if err := run(options{model: "netmodel", demo: true, backend: "gremlin", q: q, gen: gen, out: &out}); err != nil {
			t.Fatalf("codegen %s: %v", gen, err)
		}
	}
	if err := run(options{model: "netmodel", backend: "gremlin", gen: "ddl", out: &out}); err != nil {
		t.Fatal(err)
	}
	if err := run(options{model: "netmodel", demo: true, backend: "gremlin", q: q, gen: "cobol", out: &out}); err == nil {
		t.Fatal("unknown codegen target accepted")
	}
}

// TestRunExplainAnalyzeShape asserts the -explain-analyze output shape on
// both backends: an annotated plan tree whose operator lines carry wall
// time, row counts, and EdgesScanned.
func TestRunExplainAnalyzeShape(t *testing.T) {
	bottomUp := "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)"
	// Both ends pinned by id: the forward half searches toward host-2,
	// and its breadth-first search shows as the Goal operator.
	hostHost := "Retrieve P From PATHS P Where P MATCHES Host(id=1001)->[PhysicalLink()]{1,4}->Host(id=1002)"
	for _, backend := range []string{"gremlin", "relational"} {
		for _, tc := range []struct {
			q          string
			want, gone []string
		}{
			{bottomUp, []string{"Anchor Host(id=1001)", "ExtendBlock {1,6}"}, []string{"Goal"}},
			{hostHost, []string{
				"Anchor Host(id=1001)",
				"ExtendBlock {1,4}",
				"Goal: forward toward Host(id=1002) within 3 hops",
				"Goal (distances to the pinned end)  [time=",
				"probes=3 rows_in=1 rows_out=4 edges_scanned=",
			}, nil},
		} {
			var out bytes.Buffer
			err := run(options{model: "netmodel", demo: true, backend: backend, q: tc.q,
				explainAnalyze: true, out: &out})
			if err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			text := out.String()
			for _, want := range append([]string{
				"-- variable P [" + backend + "] --",
				"RPE: ",
				"time=",
				"rows_out=",
				"edges_scanned=",
				"Eval: time=",
				"Query: time=",
			}, tc.want...) {
				if !strings.Contains(text, want) {
					t.Errorf("%s: explain-analyze output missing %q:\n%s", backend, want, text)
				}
			}
			for _, gone := range tc.gone {
				if strings.Contains(text, gone) {
					t.Errorf("%s: explain-analyze output holds %q:\n%s", backend, gone, text)
				}
			}
		}
	}
}

func TestRunMetricsAndSlowLog(t *testing.T) {
	q := "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()"
	var out bytes.Buffer
	err := run(options{model: "netmodel", demo: true, backend: "relational", q: q,
		metrics: true, slowQuery: time.Nanosecond, out: &out})
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"SLOW QUERY",    // every query is slower than 1ns
		"-- metrics --", // Prometheus exposition of the registry
		"\nengine_relational_evals 1\n",
		"\nengine_relational_eval_latency_ms_count 1\n",
		"\ndb_queries 1\n",
		"# TYPE store_class_scans counter",
		"# TYPE backend_relational_anchor_probes counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestSlowQueryBlockShape: a local query over -slow-query prints, before
// its rows, the block with the statement, its digest, the run's metrics
// and each variable's plan.
func TestSlowQueryBlockShape(t *testing.T) {
	q := "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)"
	var out bytes.Buffer
	if err := run(options{model: "netmodel", demo: true, backend: "gremlin", q: q,
		slowQuery: time.Nanosecond, out: &out}); err != nil {
		t.Fatal(err)
	}
	toks, err := rpe.Lex(q)
	if err != nil {
		t.Fatal(err)
	}
	digest, _ := query.Fingerprint(toks)
	text := out.String()
	last := -1
	for _, want := range []string{
		"SLOW QUERY (",
		"\n  query: " + q + "\n",
		"\n  digest: " + digest + "\n",
		"\n  metrics: anchors=",
		"\n  plan> -- variable P --\n",
		"\n  plan> Select: {Host(id=1001)}",
		"\nP\n", // the rows follow the block
		"(2 rows)",
	} {
		i := strings.Index(text, want)
		if i <= last {
			t.Fatalf("output missing %q after offset %d:\n%s", want, last, text)
		}
		last = i
	}
}

// TestSlowQueryUnderThresholdPrintsNoBlock: a local query faster than
// -slow-query prints its rows and no SLOW QUERY block.
func TestSlowQueryUnderThresholdPrintsNoBlock(t *testing.T) {
	q := "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()"
	var out bytes.Buffer
	if err := run(options{model: "netmodel", demo: true, backend: "gremlin", q: q,
		slowQuery: time.Hour, out: &out}); err != nil {
		t.Fatal(err)
	}
	if text := out.String(); strings.Contains(text, "SLOW QUERY") || !strings.Contains(text, "rows)") {
		t.Errorf("query under the threshold printed a slow-query block or no rows:\n%s", text)
	}
}

// TestSlowQueryRefusedWhenServing: -slow-query reports local queries
// only, so combining it with -serve (or -follow) is refused with a
// pointer to the server's trace store.
func TestSlowQueryRefusedWhenServing(t *testing.T) {
	for _, opt := range []options{
		{model: "netmodel", demo: true, backend: "gremlin", serveAddr: "127.0.0.1:0", slowQuery: time.Second},
		{model: "netmodel", backend: "gremlin", serveAddr: "127.0.0.1:0", followURL: "http://127.0.0.1:1",
			walDir: t.TempDir(), slowQuery: time.Second},
	} {
		err := run(opt)
		if err == nil || !strings.Contains(err.Error(), "/debug/traces") {
			t.Errorf("serve=%q follow=%q with -slow-query = %v; want a refusal naming /debug/traces",
				opt.serveAddr, opt.followURL, err)
		}
	}
}

// TestSlowQueryRefusedWhenConnecting: a -connect client runs its query
// on the server, so -slow-query is refused there too — against a live
// server, before any query is sent or any row printed.
func TestSlowQueryRefusedWhenConnecting(t *testing.T) {
	db, err := core.Open(netmodel.MustSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netmodel.BuildDemo(db.Store(), 1000); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(db, server.Config{}).Handler())
	defer ts.Close()
	var out bytes.Buffer
	err = run(options{connectURL: ts.URL, slowQuery: time.Nanosecond, out: &out,
		q: "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)"})
	if err == nil || !strings.Contains(err.Error(), "/debug/traces") {
		t.Errorf("-connect with -slow-query = %v; want a refusal naming /debug/traces", err)
	}
	if out.Len() != 0 {
		t.Errorf("the refused run printed %q", out.String())
	}
}

func TestRunStdinQueries(t *testing.T) {
	in := strings.NewReader(`
-- a comment line
Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()
`)
	var out bytes.Buffer
	if err := run(options{model: "netmodel", demo: true, backend: "gremlin", in: in, out: &out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rows)") {
		t.Errorf("stdin query output missing row count: %q", out.String())
	}
}

func TestRunModelsAndErrors(t *testing.T) {
	q := "Retrieve P From PATHS P Where P MATCHES LegacyNode(id=1)"
	var out bytes.Buffer
	for _, model := range []string{"legacy", "legacy66"} {
		if err := run(options{model: model, backend: "relational", q: q, out: &out}); err != nil {
			t.Fatalf("model %s: %v", model, err)
		}
	}
	if err := run(options{model: "bogus", backend: "gremlin", q: q, out: &out}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if err := run(options{model: "netmodel", backend: "oracle", q: q, out: &out}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if err := run(options{model: "netmodel", dataPath: "/does/not/exist.json", backend: "gremlin", q: q, out: &out}); err == nil {
		t.Fatal("missing data file accepted")
	}
}

func TestRunWithSchemaFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "schema.json")
	doc := `{"node_types": {"Thing": {"fields": {"color": {"type": "string"}}}}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	q := "Retrieve P From PATHS P Where P MATCHES Thing(color='red')"
	var out bytes.Buffer
	if err := run(options{schemaPath: path, backend: "gremlin", q: q, out: &out}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGuardrailFlags(t *testing.T) {
	q := "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()"
	// A crossed limit surfaces as a single run error (main prints it as
	// one line and exits 1).
	var out bytes.Buffer
	err := run(options{model: "netmodel", demo: true, backend: "gremlin", q: q, maxPaths: 1, out: &out})
	if err == nil {
		t.Fatal("max-paths=1 query succeeded")
	}
	if !errors.Is(err, exec.ErrLimitExceeded) {
		t.Errorf("limit error = %v, want exec.ErrLimitExceeded", err)
	}
	if strings.Contains(fmt.Sprintf("%v", err), "\n") {
		t.Errorf("limit error is not one line: %q", err)
	}
	// Generous guardrails leave the query untouched.
	out.Reset()
	if err := run(options{model: "netmodel", demo: true, backend: "gremlin", q: q,
		timeout: time.Minute, maxPaths: 1 << 20, maxEdges: 1 << 20, out: &out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(3 rows)") {
		t.Errorf("guarded query output = %q, want 3 rows", out.String())
	}
}
