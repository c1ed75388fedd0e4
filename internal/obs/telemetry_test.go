package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Histogram ---

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines (meaningful under -race) and checks no observation is
// lost: the count, sum, and bucket totals all reconcile.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(i % 200))
			}
		}(g)
	}
	wg.Wait()
	snap := h.Snapshot()
	if want := int64(goroutines * perG); snap.Count != want {
		t.Fatalf("count = %d, want %d", snap.Count, want)
	}
	var sum int64
	for _, b := range snap.Buckets {
		sum += b.Count
	}
	if sum != snap.Count {
		t.Fatalf("bucket counts total %d, count %d", sum, snap.Count)
	}
	last := snap.Buckets[len(snap.Buckets)-1]
	if last.CumulativeCount != snap.Count {
		t.Fatalf("+Inf cumulative = %d, want %d", last.CumulativeCount, snap.Count)
	}
}

// TestHistogramBucketBoundaries pins the inclusivity convention: a
// value exactly on a bound lands in that bound's bucket (le is
// inclusive, matching Prometheus).
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	for _, v := range []float64{0, 1, 1.5, 10, 10.5, 1e9} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if len(snap.Buckets) != 3 {
		t.Fatalf("got %d buckets, want 3", len(snap.Buckets))
	}
	// le=1 holds {0, 1}; le=10 holds {1.5, 10}; +Inf holds {10.5, 1e9}.
	wantPer := []int64{2, 2, 2}
	wantCum := []int64{2, 4, 6}
	for i, b := range snap.Buckets {
		if b.Count != wantPer[i] || b.CumulativeCount != wantCum[i] {
			t.Errorf("bucket %d (le=%v): count=%d cum=%d, want %d/%d",
				i, b.UpperBound, b.Count, b.CumulativeCount, wantPer[i], wantCum[i])
		}
	}
	if !math.IsInf(snap.Buckets[2].UpperBound, 1) {
		t.Errorf("last bucket bound = %v, want +Inf", snap.Buckets[2].UpperBound)
	}
	if snap.Sum != 0+1+1.5+10+10.5+1e9 {
		t.Errorf("sum = %v", snap.Sum)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if snap := h.Snapshot(); snap.Count != 0 {
		t.Fatalf("nil snapshot count = %d", snap.Count)
	}
}

// --- Prometheus exposition ---

// TestWritePrometheusFormat pins the exposition format: # HELP and
// # TYPE headers, sanitized names, cumulative histogram _bucket series
// with an +Inf bound, _sum/_count, and labeled constant-1 info gauges.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.requests").Add(3)
	r.SetHelp("server.requests", "Total HTTP requests.")
	r.Gauge("server.in_flight").Set(2)
	r.GaugeFunc("nepal.uptime_seconds", func() float64 { return 1.5 })
	r.SetInfo("nepal.build_info", map[string]string{"version": "v1.2.3", "commit": "abc"})
	h := r.HistogramBuckets("server.request_latency_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var buf bytes.Buffer
	WritePrometheus(&buf, r)
	out := buf.String()

	for _, want := range []string{
		"# HELP server_requests Total HTTP requests.\n",
		"# TYPE server_requests counter\n",
		"server_requests 3\n",
		"# TYPE server_in_flight gauge\n",
		"server_in_flight 2\n",
		"# TYPE nepal_uptime_seconds gauge\n",
		"nepal_uptime_seconds 1.5\n",
		"# TYPE nepal_build_info gauge\n",
		`nepal_build_info{commit="abc",version="v1.2.3"} 1` + "\n",
		"# TYPE server_request_latency_ms histogram\n",
		`server_request_latency_ms_bucket{le="1"} 1` + "\n",
		`server_request_latency_ms_bucket{le="10"} 2` + "\n",
		`server_request_latency_ms_bucket{le="+Inf"} 3` + "\n",
		"server_request_latency_ms_sum 55.5\n",
		"server_request_latency_ms_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.Count(line, " ") != 1 && !strings.Contains(line, "} ") {
			t.Errorf("malformed sample line %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if PromName(name) != name {
			t.Errorf("unsanitized metric name in %q", line)
		}
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"server.requests":  "server_requests",
		"wal.fsync_ms":     "wal_fsync_ms",
		"9lives":           "_9lives",
		"a-b c":            "a_b_c",
		"ok_name:and:more": "ok_name:and:more",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// --- Trace IDs and context propagation ---

func TestParseTraceID(t *testing.T) {
	valid := "4bf92f3577b34da6a3ce929d0e0e4736"
	cases := []struct {
		in, want string
	}{
		{valid, valid},
		{strings.ToUpper(valid), valid},                 // normalized to lowercase
		{"00-" + valid + "-00f067aa0ba902b7-01", valid}, // traceparent
		{"", ""},
		{"short", ""},
		{valid + "00", ""},            // wrong length
		{strings.Repeat("0", 32), ""}, // all-zero sentinel
		{strings.Repeat("g", 32), ""}, // non-hex
		{"00-" + strings.Repeat("0", 32) + "-x", ""}, // traceparent, zero id
	}
	for _, c := range cases {
		if got := ParseTraceID(c.in); got != c.want {
			t.Errorf("ParseTraceID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNewTraceIDWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if ParseTraceID(id) != id {
			t.Fatalf("NewTraceID produced unparseable id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestTraceContextPropagation(t *testing.T) {
	ctx := context.Background()
	if TraceIDFrom(ctx) != "" {
		t.Fatal("empty context has a trace id")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("empty context has a span")
	}
	id := NewTraceID()
	ctx = WithTraceID(ctx, id)
	if got := TraceIDFrom(ctx); got != id {
		t.Fatalf("TraceIDFrom = %q, want %q", got, id)
	}
	sp := NewSpan("Request", "GET /")
	ctx = ContextWithSpan(ctx, sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatalf("SpanFromContext = %p, want %p", got, sp)
	}
	// Nil-safe no-op attachment.
	if got := WithTraceID(ctx, ""); got != ctx {
		t.Error("WithTraceID(\"\") should return ctx unchanged")
	}
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Error("ContextWithSpan(nil) should return ctx unchanged")
	}
}

// TestTraceIDOffPathZeroAlloc pins the disabled-telemetry contract:
// looking up a trace ID or span on a context that carries neither
// allocates nothing.
func TestTraceIDOffPathZeroAlloc(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if TraceIDFrom(ctx) != "" {
			t.Fatal("unexpected trace id")
		}
		if SpanFromContext(ctx) != nil {
			t.Fatal("unexpected span")
		}
	}); n != 0 {
		t.Fatalf("off-path lookups allocate %v times per run, want 0", n)
	}
}

// --- Trace store ---

func mkTrace(id string, start time.Time, outcome string, dur time.Duration) *Request {
	return &Request{
		TraceID: id, Start: start, Method: "POST", Path: "/v1/query",
		Status: 200, Outcome: outcome, Duration: dur,
	}
}

// TestTraceStoreTailSampling checks the two-ring retention: a burst of
// healthy traffic evicts old healthy traces but cannot flush errored or
// slow ones out of the interesting ring.
func TestTraceStoreTailSampling(t *testing.T) {
	base := time.Now()
	s := NewTraceStore(4, 100*time.Millisecond)

	bad := mkTrace("bad1", base, "http_429", time.Millisecond)
	slow := mkTrace("slow1", base.Add(time.Millisecond), "ok", 150*time.Millisecond)
	s.Observe(bad)
	s.Observe(slow)
	// Flood with healthy traces: 10 > keep, so every early entry leaves
	// the recent ring.
	for i := 0; i < 10; i++ {
		s.Observe(mkTrace(fmt.Sprintf("ok%02d", i), base.Add(time.Duration(2+i)*time.Millisecond), "ok", time.Millisecond))
	}

	if got := s.Get("bad1"); got != bad {
		t.Fatal("errored trace evicted by healthy burst")
	}
	if got := s.Get("slow1"); got != slow {
		t.Fatal("slow trace evicted by healthy burst")
	}
	if s.Get("ok00") != nil {
		t.Fatal("old healthy trace should have been evicted")
	}
	if s.Get("ok09") == nil {
		t.Fatal("newest healthy trace missing")
	}

	list := s.List()
	// 4 recent + 2 interesting.
	if len(list) != 6 {
		t.Fatalf("List len = %d, want 6", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i].Start.After(list[i-1].Start) {
			t.Fatal("List not newest-first")
		}
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
}

// TestTraceStoreInterestingEviction fills the interesting ring past
// capacity and checks byID stays consistent (no leaks, no dangling
// lookups) when a trace leaves both rings.
func TestTraceStoreInterestingEviction(t *testing.T) {
	base := time.Now()
	s := NewTraceStore(2, time.Hour)
	for i := 0; i < 5; i++ {
		s.Observe(mkTrace(fmt.Sprintf("err%d", i), base.Add(time.Duration(i)*time.Millisecond), "internal", time.Millisecond))
	}
	// keep=2: recent holds err3,err4; interesting holds err3,err4 too.
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	for i := 0; i < 3; i++ {
		if s.Get(fmt.Sprintf("err%d", i)) != nil {
			t.Fatalf("err%d should be fully evicted", i)
		}
	}
	for i := 3; i < 5; i++ {
		if s.Get(fmt.Sprintf("err%d", i)) == nil {
			t.Fatalf("err%d should be retained", i)
		}
	}
}

func TestTraceStoreNilSafe(t *testing.T) {
	var s *TraceStore
	s.Observe(mkTrace("x", time.Now(), "ok", 0))
	if s.Get("x") != nil || s.List() != nil || s.Len() != 0 {
		t.Fatal("nil store should be inert")
	}
}

func TestRequestInteresting(t *testing.T) {
	slow := 100 * time.Millisecond
	cases := []struct {
		name string
		tr   *Request
		want bool
	}{
		{"nil", nil, false},
		{"healthy", mkTrace("a", time.Time{}, "ok", time.Millisecond), false},
		{"errored outcome", mkTrace("b", time.Time{}, "http_429", time.Millisecond), true},
		{"slow", mkTrace("c", time.Time{}, "ok", slow), true},
		{"error text", &Request{TraceID: "e", Outcome: "ok", Error: "boom"}, true},
	}
	for _, c := range cases {
		if got := c.tr.Interesting(slow); got != c.want {
			t.Errorf("%s: Interesting = %v, want %v", c.name, got, c.want)
		}
	}
}

// --- Access log ---

func TestAccessLogJSONLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)
	l.Log(&Request{
		Start: time.Now(), TraceID: "abc", Method: "POST", Path: "/v1/query",
		Status: 200, Outcome: "ok", Duration: 1500 * time.Microsecond, BytesOut: 42,
	})
	l.Log(&Request{
		Start: time.Now(), TraceID: "def", Method: "POST", Path: "/v1/query",
		Status: 429, Outcome: "saturated", Duration: 100 * time.Microsecond, Error: "queue full",
	})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var e struct {
		TraceID    string  `json:"trace_id"`
		Status     int     `json:"status"`
		Outcome    string  `json:"outcome"`
		DurationMS float64 `json:"duration_ms"`
		Error      string  `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if e.TraceID != "def" || e.Status != 429 || e.Outcome != "saturated" || e.DurationMS != 0.1 || e.Error != "queue full" {
		t.Fatalf("round-tripped entry = %+v", e)
	}
}

// TestAccessLogGoldenLine pins the access-log line byte for byte for a
// fully populated record: field order, durations in milliseconds, every
// optional field present, and string escaping (quote, backslash, tab,
// control character, invalid UTF-8). The span tree is not logged.
func TestAccessLogGoldenLine(t *testing.T) {
	var buf bytes.Buffer
	NewAccessLog(&buf).Log(&Request{
		Start:         time.Date(2026, 8, 9, 12, 0, 0, 123456789, time.UTC),
		TraceID:       "4bf92f3577b34da6a3ce929d0e0e4736",
		Method:        "POST",
		Path:          "/v1/query",
		Status:        422,
		Outcome:       "limit",
		Duration:      12345678 * time.Nanosecond,
		AdmissionWait: 250 * time.Microsecond,
		Statement:     "Retrieve P From PATHS P Where P MATCHES Host(name='h\"1\\')\t\x01é\xff",
		Digest:        "deadbeefcafef00d",
		EdgesScanned:  4096,
		BytesOut:      187,
		Epoch:         3,
		Error:         "limit: max_paths 10 exceeded",
		Root:          NewSpan("Request", "POST /v1/query"),
	})
	const want = `{"time":"2026-08-09T12:00:00.123456789Z","trace_id":"4bf92f3577b34da6a3ce929d0e0e4736",` +
		`"method":"POST","path":"/v1/query","status":422,"outcome":"limit","duration_ms":12.345678,` +
		`"admission_wait_ms":0.25,` +
		`"statement":"Retrieve P From PATHS P Where P MATCHES Host(name='h\"1\\')\t\u0001é�",` +
		`"digest":"deadbeefcafef00d","edges_scanned":4096,"bytes_out":187,"epoch":3,` +
		`"error":"limit: max_paths 10 exceeded"}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("access-log line changed:\n got %s\nwant %s", got, want)
	}
}

func TestAccessLogNilSafe(t *testing.T) {
	if l := NewAccessLog(nil); l != nil {
		t.Fatal("NewAccessLog(nil) should be nil")
	}
	var l *AccessLog
	l.Log(&Request{TraceID: "x"}) // must not panic
}
