package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
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
	q := "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)"
	for _, backend := range []string{"gremlin", "relational"} {
		var out bytes.Buffer
		err := run(options{model: "netmodel", demo: true, backend: backend, q: q,
			explainAnalyze: true, out: &out})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		text := out.String()
		for _, want := range []string{
			"-- variable P [" + backend + "] --",
			"RPE: ",
			"Anchor Host(id=1001)",
			"ExtendBlock {1,6}",
			"time=",
			"rows_out=",
			"edges_scanned=",
			"Eval: time=",
			"Query: time=",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("%s: explain-analyze output missing %q:\n%s", backend, want, text)
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
