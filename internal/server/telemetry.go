package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
)

// Request telemetry: the middleware around the mux that gives every
// request — successful, rejected at admission, or malformed — a trace
// ID, a root span with per-phase children, exactly one access-log line,
// and (tail-sampled) a slot in the in-memory trace store. Handlers reach
// their request's record through rtFrom(ctx) to attach phase spans and
// annotate the statement and result.

// requestTelemetry is one request's mutable telemetry record. It lives
// on the request context; the middleware creates and finalizes it,
// handlers fill it in. All methods are nil-receiver safe so handlers
// never branch on whether telemetry is wired.
type requestTelemetry struct {
	traceID       string
	root          *obs.Span // nil when tracing is disabled
	admissionWait time.Duration
	statement     string
	stmtHash      string
	digest        string
	outcome       string // set by writeErr; empty means derive from status
	edges         int
	errMsg        string
}

type telemetryKey struct{}

// rtFrom returns the request's telemetry record, or nil when the
// request did not pass through the telemetry middleware.
func rtFrom(ctx context.Context) *requestTelemetry {
	rt, _ := ctx.Value(telemetryKey{}).(*requestTelemetry)
	return rt
}

// child starts a phase span under the request's root span; it returns
// nil (a valid no-op span) when tracing is disabled.
func (rt *requestTelemetry) child(name, detail string) *obs.Span {
	if rt == nil {
		return nil
	}
	return rt.root.StartChild(name, detail)
}

// id returns the request's trace ID ("" without middleware).
func (rt *requestTelemetry) id() string {
	if rt == nil {
		return ""
	}
	return rt.traceID
}

// setStatement records the statement a request executes, with its
// stable hash (the same handle /v1/prepare returns).
func (rt *requestTelemetry) setStatement(src string) {
	if rt == nil {
		return
	}
	rt.statement = src
	rt.stmtHash = Handle(src)
}

// setDigest records the statement's literal-masked fingerprint so the
// access log, trace store, and trace summaries all carry the key into
// the per-digest statistics surfaces.
func (rt *requestTelemetry) setDigest(digest string) {
	if rt == nil || digest == "" {
		return
	}
	rt.digest = digest
}

// recordResult captures result-derived telemetry: engine scan volume
// and the statement digest the engine stamped.
func (rt *requestTelemetry) recordResult(res *exec.Result) {
	if rt == nil || res == nil {
		return
	}
	rt.edges = res.Metrics.EdgesScanned
	if res.Digest != "" {
		rt.digest = res.Digest
	}
}

// statusWriter captures the response status and body size for the
// access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming handlers (the
// /v1/watch SSE modes) can push events through the telemetry wrapper.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// telemetry wraps the mux with the request telemetry layer: trace-ID
// extraction/generation (X-Nepal-Trace, bare or traceparent form), the
// "Request" root span, request counting and latency, one access-log
// line per request, and trace-store capture for /v1 requests.
func (s *Server) telemetry() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.mRequests.Add(1)

		rt := &requestTelemetry{}
		rt.traceID = obs.ParseTraceID(r.Header.Get(obs.TraceHeader))
		if rt.traceID == "" {
			rt.traceID = obs.NewTraceID()
		}
		ctx := obs.WithTraceID(r.Context(), rt.traceID)
		if !s.cfg.DisableTelemetry {
			rt.root = obs.NewSpan("Request", r.Method+" "+r.URL.Path)
			ctx = obs.ContextWithSpan(ctx, rt.root)
		}
		ctx = context.WithValue(ctx, telemetryKey{}, rt)
		// Echo the trace ID before the handler writes anything, so even
		// responses that fail mid-body carry it.
		w.Header().Set(obs.TraceHeader, rt.traceID)

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(sw, r.WithContext(ctx))

		dur := time.Since(start)
		rt.root.Finish()
		s.mLatency.Observe(float64(dur) / 1e6)

		outcome := rt.outcome
		if outcome == "" {
			if sw.status < 400 {
				outcome = "ok"
			} else {
				outcome = fmt.Sprintf("http_%d", sw.status)
			}
		}

		// The handler stamped the node's primary epoch on the response (when
		// it has one); lifting it off the header here gives every access-log
		// line its era without threading epoch through each handler.
		epoch, _ := strconv.ParseUint(sw.Header().Get(HeaderEpoch), 10, 64)

		s.accessLog.Log(obs.AccessEntry{
			Time:            start,
			TraceID:         rt.traceID,
			Method:          r.Method,
			Path:            r.URL.Path,
			Status:          sw.status,
			Outcome:         outcome,
			DurationMS:      float64(dur) / 1e6,
			AdmissionWaitMS: float64(rt.admissionWait) / 1e6,
			StatementHash:   rt.stmtHash,
			Statement:       rt.statement,
			Digest:          rt.digest,
			EdgesScanned:    rt.edges,
			BytesOut:        sw.bytes,
			Epoch:           epoch,
			Error:           rt.errMsg,
		})

		// The trace store holds API requests only: scrapes of /metrics,
		// /healthz, and the trace endpoints themselves would drown the
		// traffic an operator is diagnosing.
		if !s.cfg.DisableTelemetry && strings.HasPrefix(r.URL.Path, "/v1/") {
			s.traces.Observe(&obs.RequestTrace{
				ID:            rt.traceID,
				Start:         start,
				Method:        r.Method,
				Path:          r.URL.Path,
				Statement:     rt.statement,
				StatementHash: rt.stmtHash,
				Digest:        rt.digest,
				Status:        sw.status,
				Outcome:       outcome,
				Duration:      dur,
				EdgesScanned:  rt.edges,
				Error:         rt.errMsg,
				Root:          rt.root,
			})
		}
	})
}

// handleTraces serves GET /debug/traces: every retained trace, newest
// first, as summaries.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	list := s.traces.List()
	out := TraceListResponse{Traces: make([]TraceSummary, 0, len(list))}
	for _, t := range list {
		out.Traces = append(out.Traces, traceSummaryOut(t))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraceByID serves GET /debug/traces/{id}: the full span tree of
// one retained trace, structured and rendered.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t := s.traces.Get(id)
	if t == nil {
		writeErr(w, r, http.StatusNotFound, "not_found",
			fmt.Sprintf("trace %q not retained (expired from the trace store or never sampled)", id))
		return
	}
	writeJSON(w, http.StatusOK, traceDetailOut(t))
}

func traceSummaryOut(t *obs.RequestTrace) TraceSummary {
	return TraceSummary{
		TraceID:       t.ID,
		Start:         t.Start,
		Method:        t.Method,
		Path:          t.Path,
		Statement:     t.Statement,
		StatementHash: t.StatementHash,
		Digest:        t.Digest,
		Status:        t.Status,
		Outcome:       t.Outcome,
		DurationMS:    float64(t.Duration) / 1e6,
		EdgesScanned:  t.EdgesScanned,
		Error:         t.Error,
	}
}

func traceDetailOut(t *obs.RequestTrace) TraceDetail {
	return TraceDetail{
		TraceSummary: traceSummaryOut(t),
		Spans:        spanOut(t.Root),
		Rendered:     obs.RenderTree(t.Root),
	}
}

func spanOut(sp *obs.Span) *SpanNode {
	if sp == nil {
		return nil
	}
	in, out := sp.Rows()
	n := &SpanNode{
		Name:       sp.Name(),
		Detail:     sp.Detail(),
		DurationMS: float64(sp.Duration()) / 1e6,
		RowsIn:     in,
		RowsOut:    out,
		Counters:   sp.Counters(),
	}
	for _, c := range sp.Children() {
		n.Children = append(n.Children, spanOut(c))
	}
	return n
}
