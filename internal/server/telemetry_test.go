package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/server"
)

// syncBuffer is a goroutine-safe buffer for capturing the access log
// while requests are still landing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// accessLine is the subset of an access-log line the tests inspect.
type accessLine struct {
	TraceID      string `json:"trace_id"`
	Path         string `json:"path"`
	Status       int    `json:"status"`
	Outcome      string `json:"outcome"`
	Digest       string `json:"digest"`
	EdgesScanned int    `json:"edges_scanned"`
	Error        string `json:"error"`
}

func (b *syncBuffer) entries(t *testing.T) []accessLine {
	t.Helper()
	b.mu.Lock()
	raw := b.buf.String()
	b.mu.Unlock()
	var out []accessLine
	for _, line := range strings.Split(strings.TrimRight(raw, "\n"), "\n") {
		if line == "" {
			continue
		}
		var e accessLine
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("access log line is not JSON: %v\n%s", err, line)
		}
		out = append(out, e)
	}
	return out
}

// TestQueryTraceEndToEnd is the tentpole acceptance path: a query
// through the client returns a trace ID that resolves at
// /debug/traces/{id} to a span tree holding the server phases and,
// nested under Execute, the engine's operator spans.
func TestQueryTraceEndToEnd(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	ctx := context.Background()

	res, err := c.Query(ctx, retrieveQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("query response has no trace id")
	}
	if obs.ParseTraceID(res.TraceID) != res.TraceID {
		t.Fatalf("trace id %q is not well-formed", res.TraceID)
	}

	detail, err := c.Trace(ctx, res.TraceID)
	if err != nil {
		t.Fatalf("trace lookup: %v", err)
	}
	if detail.TraceID != res.TraceID {
		t.Fatalf("trace detail id = %q, want %q", detail.TraceID, res.TraceID)
	}
	if detail.Statement != retrieveQ {
		t.Errorf("trace statement = %q", detail.Statement)
	}
	if detail.Outcome != "ok" || detail.Status != 200 {
		t.Errorf("trace outcome = %q status = %d", detail.Outcome, detail.Status)
	}
	if detail.EdgesScanned == 0 {
		t.Error("trace did not capture edges scanned")
	}
	if detail.Spans == nil {
		t.Fatal("trace has no span tree")
	}
	if detail.Spans.Name != "Request" {
		t.Fatalf("root span = %q, want Request", detail.Spans.Name)
	}

	phases := map[string]*server.SpanNode{}
	for _, ch := range detail.Spans.Children {
		phases[ch.Name] = ch
	}
	for _, want := range []string{"Decode", "Admission", "PlanCache", "Execute", "Encode"} {
		if phases[want] == nil {
			t.Errorf("trace missing server phase %q (have %v)", want, spanNames(detail.Spans.Children))
		}
	}
	exec := phases["Execute"]
	if exec == nil {
		t.Fatal("no Execute phase")
	}
	// The engine's operator DAG nests under Execute via the Query span.
	var query *server.SpanNode
	for _, ch := range exec.Children {
		if ch.Name == "Query" {
			query = ch
		}
	}
	if query == nil {
		t.Fatalf("Execute phase has no Query span (children %v)", spanNames(exec.Children))
	}
	if len(query.Children) == 0 {
		t.Error("Query span has no operator children")
	}
	if detail.Rendered == "" || !strings.Contains(detail.Rendered, "Request") {
		t.Error("trace rendering missing")
	}

	// The trace also appears in the list endpoint.
	list, err := c.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range list.Traces {
		if tr.TraceID == res.TraceID {
			found = true
		}
	}
	if !found {
		t.Error("trace missing from /debug/traces list")
	}
}

func spanNames(nodes []*server.SpanNode) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	return out
}

// TestExplainAnalyzeTraceHoldsOperators: EXPLAIN ANALYZE is a traced
// run of the request itself, so its trace holds the operator DAG under
// Execute like any other query's — and with telemetry off it still
// renders the annotated plan.
func TestExplainAnalyzeTraceHoldsOperators(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	ctx := context.Background()
	// Bottom-up searches from its one pinned end; Host-Host, pinned at
	// both, also runs the Goal operator's breadth-first search.
	hostHost := "Retrieve P From PATHS P Where P MATCHES Host(id=1001)->[PhysicalLink()]{1,4}->Host(id=1002)"
	for q, want := range map[string][]string{
		retrieveQ: {"Select", "Extend"},
		hostHost:  {"Select", "Extend", "Goal"},
	} {
		_, res, err := c.ExplainAnalyze(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		detail, err := c.Trace(ctx, res.TraceID)
		if err != nil {
			t.Fatalf("trace lookup: %v", err)
		}
		var query *server.SpanNode
		for _, ph := range detail.Spans.Children {
			for _, ch := range ph.Children {
				if ph.Name == "Execute" && ch.Name == "Query" {
					query = ch
				}
			}
		}
		if query == nil {
			t.Fatalf("explain analyze trace has no Query span under Execute:\n%s", detail.Rendered)
		}
		ops := map[string]*server.SpanNode{}
		walkSpans(query, func(n *server.SpanNode) { ops[n.Name] = n })
		for _, op := range want {
			if ops[op] == nil {
				t.Errorf("%s: Query span holds no %s operator", q, op)
			}
		}
		switch g := ops["Goal"]; {
		case g == nil:
		case q == retrieveQ:
			t.Errorf("%s: a Goal span where no half has a goal", q)
		case g.Counters["edges_scanned"] == 0 || g.RowsIn != 1 || g.RowsOut != 4:
			t.Errorf("Goal span %+v: want edges scanned, 1 goal node and 4 nodes reached", g)
		}
	}

	_, dark := newTestServer(t, newDemoDB(t), server.Config{DisableTelemetry: true})
	text, _, err := dark.ExplainAnalyze(ctx, hostHost)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "time=") || !strings.Contains(text, "Extend") || !strings.Contains(text, "Goal (distances to the pinned end)") {
		t.Errorf("explain analyze without telemetry rendered:\n%s", text)
	}
}

// TestWALErrorsCarryEnvelope: the replication feed's errors are the
// server's typed envelope — the body carries the trace ID, and the
// access log and the trace store record the typed code, not a bare
// HTTP status.
func TestWALErrorsCarryEnvelope(t *testing.T) {
	db, err := core.Open(netmodel.MustSchema(), core.WithWAL(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	logBuf := &syncBuffer{}
	s, c := newTestServer(t, db, server.Config{AccessLog: logBuf})
	t.Cleanup(func() { db.Close() })

	resp, err := http.Get(c.Base() + "/v1/wal?from=abc")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb server.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	trace := resp.Header.Get(obs.TraceHeader)
	if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" || eb.Error.TraceID != trace {
		t.Fatalf("GET /v1/wal?from=abc = %d %+v (trace header %q); want 400 bad_request with the trace id",
			resp.StatusCode, eb.Error, trace)
	}
	entries := logBuf.entries(t)
	if len(entries) != 1 || entries[0].TraceID != trace || entries[0].Outcome != "bad_request" {
		t.Errorf("access log = %+v, want one bad_request line for trace %s", entries, trace)
	}
	list, err := c.Traces(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].Outcome != "bad_request" || list.Traces[0].Error == "" {
		t.Errorf("trace summaries = %+v, want one bad_request", list.Traces)
	}
	if rq := s.Traces().Get(trace); rq == nil || rq.Outcome != "bad_request" {
		t.Errorf("retained trace = %+v, want outcome bad_request", rq)
	}
}

// TestUnroutedRequestsAreTyped: a path no route takes answers 404
// not_found, and a route asked with the wrong method 405
// method_not_allowed with its Allow header, both in the typed envelope
// with the trace ID and logged under their code. On an in-memory server,
// which mounts no replication feed, /v1/wal is such a path.
func TestUnroutedRequestsAreTyped(t *testing.T) {
	logBuf := &syncBuffer{}
	_, c := newTestServer(t, newDemoDB(t), server.Config{AccessLog: logBuf})
	for _, tc := range []struct {
		path   string
		status int
		code   string
		allow  string
	}{
		{"/v1/nope", http.StatusNotFound, "not_found", ""},
		{"/v1/query", http.StatusMethodNotAllowed, "method_not_allowed", "POST"},
		{"/v1/wal?from=0", http.StatusNotFound, "not_found", ""},
	} {
		resp, err := http.Get(c.Base() + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var eb server.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: body is not the typed envelope: %v", tc.path, err)
		}
		trace := resp.Header.Get(obs.TraceHeader)
		if resp.StatusCode != tc.status || eb.Error.Code != tc.code || eb.Error.TraceID == "" || eb.Error.TraceID != trace {
			t.Errorf("GET %s = %d %+v (trace header %q); want %d %s with the trace id",
				tc.path, resp.StatusCode, eb.Error, trace, tc.status, tc.code)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("GET %s: Allow %q; want %q", tc.path, got, tc.allow)
		}
		entries := logBuf.entries(t)
		if e := entries[len(entries)-1]; e.TraceID != trace || e.Status != tc.status || e.Outcome != tc.code {
			t.Errorf("GET %s: access line %+v; want status %d, outcome %s", tc.path, e, tc.status, tc.code)
		}
	}
}

// TestIngestTraceIncludesWAL checks a mutating request on a WAL-backed
// store produces a trace whose Execute phase contains the WALAppend
// span — the context carried the request span through the store's
// mutation hook into the WAL manager.
func TestIngestTraceIncludesWAL(t *testing.T) {
	db := newDemoDB(t, core.WithWAL(t.TempDir()))
	t.Cleanup(func() { db.Close() })
	_, c := newTestServer(t, db, server.Config{})

	// The client forwards a caller-chosen trace ID; the server must
	// adopt it rather than mint its own.
	id := obs.NewTraceID()
	ctx := obs.WithTraceID(context.Background(), id)
	if _, err := c.Ingest(ctx, []server.IngestOp{
		{Op: "insert-node", Class: "ComputeHost",
			Fields: map[string]any{"id": 9100, "name": "wal-1", "rack": "r9", "status": "Active"}},
	}); err != nil {
		t.Fatal(err)
	}

	detail, err := c.Trace(context.Background(), id)
	if err != nil {
		t.Fatalf("forwarded trace id did not resolve: %v", err)
	}
	var walSpans int
	walkSpans(detail.Spans, func(n *server.SpanNode) {
		if n.Name == "WALAppend" {
			walSpans++
		}
	})
	if walSpans == 0 {
		t.Fatalf("ingest trace has no WALAppend span:\n%s", detail.Rendered)
	}
}

func walkSpans(n *server.SpanNode, fn func(*server.SpanNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		walkSpans(c, fn)
	}
}

// TestAccessLog429Regression pins the fix the issue calls out: a
// request rejected at admission (429) still produces exactly one
// access-log line, tagged with its trace ID — as does every other
// request in the run.
func TestAccessLog429Regression(t *testing.T) {
	db := newDemoDB(t, core.WithAccessorWrapper(func(a plan.Accessor) plan.Accessor {
		return chaos.Wrap(a, chaos.WithLatency(3*time.Millisecond))
	}))
	logBuf := &syncBuffer{}
	_, c := newTestServer(t, db, server.Config{
		MaxInFlight: 1, MaxQueue: -1, AccessLog: logBuf,
	})
	ctx := context.Background()

	slow := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, retrieveQ, nil)
		slow <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow query never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := c.Query(ctx, selectQ, nil)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 429 {
		t.Fatalf("want 429 while saturated, got %v", err)
	}
	if ae.TraceID == "" {
		t.Error("429 error carries no trace id")
	}
	if err := <-slow; err != nil {
		t.Fatalf("in-flight query failed: %v", err)
	}

	var queryLines []accessLine
	for _, e := range logBuf.entries(t) {
		if e.TraceID == "" {
			t.Errorf("access entry without trace id: %+v", e)
		}
		if e.Path == "/v1/query" {
			queryLines = append(queryLines, e)
		}
	}
	// Exactly one line per query request: the slow success and the 429.
	if len(queryLines) != 2 {
		t.Fatalf("got %d /v1/query access lines, want 2: %+v", len(queryLines), queryLines)
	}
	var rejected *accessLine
	for i := range queryLines {
		if queryLines[i].Status == 429 {
			rejected = &queryLines[i]
		}
	}
	if rejected == nil {
		t.Fatalf("no 429 access line: %+v", queryLines)
	}
	if rejected.Outcome != "overloaded" {
		t.Errorf("429 outcome = %q, want overloaded", rejected.Outcome)
	}
	if rejected.TraceID != ae.TraceID {
		t.Errorf("429 access line trace %q != client-observed %q", rejected.TraceID, ae.TraceID)
	}
}

// TestAccessLogMalformedBody checks a request that dies in decode (bad
// JSON) still logs exactly one line with its trace ID and error.
func TestAccessLogMalformedBody(t *testing.T) {
	logBuf := &syncBuffer{}
	s := server.New(newDemoDB(t), server.Config{AccessLog: logBuf})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	headerTrace := resp.Header.Get(obs.TraceHeader)
	if headerTrace == "" {
		t.Fatal("response has no trace header")
	}
	var eb struct {
		Error server.ErrorDetail `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.TraceID != headerTrace {
		t.Errorf("error envelope trace %q != header %q", eb.Error.TraceID, headerTrace)
	}

	entries := logBuf.entries(t)
	if len(entries) != 1 {
		t.Fatalf("got %d access lines, want 1: %+v", len(entries), entries)
	}
	e := entries[0]
	if e.TraceID != headerTrace || e.Status != 400 || e.Outcome != "bad_request" || e.Error == "" {
		t.Errorf("malformed-body access line = %+v", e)
	}
}

// TestAccessLogAndTraceStoreShareRecord checks both request sinks are
// fed from one record: the access-log line and the retained trace carry
// the same trace ID, digest, outcome, and scan volume, for a success and
// for a typed failure.
func TestAccessLogAndTraceStoreShareRecord(t *testing.T) {
	logBuf := &syncBuffer{}
	s, c := newTestServer(t, newDemoDB(t), server.Config{AccessLog: logBuf})
	ctx := context.Background()
	if _, err := c.Query(ctx, retrieveQ, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "Retrieve P From PATHS P Where P MATCHES Nope()", nil); err == nil {
		t.Fatal("query over an unknown class succeeded")
	}

	var lines []accessLine
	for _, e := range logBuf.entries(t) {
		if e.Path == "/v1/query" {
			lines = append(lines, e)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("got %d /v1/query access lines, want 2", len(lines))
	}
	for _, e := range lines {
		rq := s.Traces().Get(e.TraceID)
		if rq == nil {
			t.Fatalf("access line %s has no retained trace", e.TraceID)
		}
		if rq.TraceID != e.TraceID || rq.Digest != e.Digest || rq.Outcome != e.Outcome ||
			rq.EdgesScanned != e.EdgesScanned || rq.Status != e.Status || rq.Error != e.Error {
			t.Errorf("sinks disagree:\n access %+v\n trace  %+v", e, *rq)
		}
	}
	if ok, bad := lines[0], lines[1]; ok.Outcome != "ok" || ok.Digest == "" || ok.EdgesScanned == 0 ||
		bad.Outcome != "parse_error" || bad.Error == "" {
		t.Errorf("unexpected records: ok=%+v failed=%+v", ok, bad)
	}
}

// TestMetricsPrometheusNegotiation checks /metrics has one format: the
// Prometheus exposition with histogram series, whatever the Accept
// header asks for.
func TestMetricsPrometheusNegotiation(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	ctx := context.Background()
	if _, err := c.Query(ctx, selectQ, nil); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodGet, c.Base()+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Errorf("Accept: application/json answered Content-Type %q, want the exposition's", ct)
	}
	if !strings.Contains(string(body), "# TYPE server_requests counter") {
		t.Error("exposition asked for as JSON is missing server.requests")
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE server_requests counter",
		"# HELP ",
		"# TYPE server_request_latency_ms histogram",
		`server_request_latency_ms_bucket{le="+Inf"}`,
		"server_request_latency_ms_sum",
		"server_request_latency_ms_count",
		"# TYPE db_query_edges_scanned histogram",
		"nepal_build_info{",
		"# TYPE nepal_uptime_seconds gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	// Sample lines must use sanitized names (help text may echo the
	// dotted registry spelling).
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if strings.Contains(name, ".") {
			t.Errorf("unsanitized metric name in sample line %q", line)
		}
	}
}

// TestHealthzBuildAndRecovery checks /healthz surfaces uptime, build
// identity, and — on a WAL-backed store — the recovery stats.
func TestHealthzBuildAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db := newDemoDB(t, core.WithWAL(dir))
	t.Cleanup(func() { db.Close() })
	_, c := newTestServer(t, db, server.Config{})

	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", h.UptimeSeconds)
	}
	if h.Version == "" || h.Commit == "" {
		t.Errorf("build identity missing: version=%q commit=%q", h.Version, h.Commit)
	}
	if h.Recovery == nil {
		t.Fatal("WAL-backed health has no recovery stats")
	}
}

// TestTraceNotFound pins the miss behavior of /debug/traces/{id}.
func TestTraceNotFound(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	_, err := c.Trace(context.Background(), "feedfacefeedfacefeedfacefeedface")
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 404 || ae.Code != "not_found" {
		t.Fatalf("trace miss: got %v", err)
	}
}

// TestDisableTelemetry checks the dark path: responses still carry
// trace IDs (they are cheap and load-bearing for logs), but no traces
// are retained.
func TestDisableTelemetry(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{DisableTelemetry: true})
	ctx := context.Background()
	res, err := c.Query(ctx, selectQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Error("dark mode should still assign trace ids")
	}
	list, err := c.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 0 {
		t.Errorf("dark mode retained %d traces", len(list.Traces))
	}
}
