package server

import (
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
// and (tail-sampled) a slot in the in-memory trace store. All three are
// fed from one obs.Request allocated here; handlers reach it through
// obs.RequestFrom(ctx) to attach phase spans (rq.Root.StartChild is a
// no-op when spans are off) and annotate the statement and result.

// recordResult captures result-derived telemetry: engine scan volume
// and the statement digest the engine stamped.
func recordResult(rq *obs.Request, res *exec.Result) {
	rq.EdgesScanned = res.Metrics.EdgesScanned
	if res.Digest != "" {
		rq.Digest = res.Digest
	}
}

// statusWriter records the response status and body size on the
// request's telemetry record.
type statusWriter struct {
	http.ResponseWriter
	rq *obs.Request
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.rq.Status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	n, err := sw.ResponseWriter.Write(b)
	sw.rq.BytesOut += int64(n)
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
		rq := &obs.Request{Start: time.Now(), Method: r.Method, Path: r.URL.Path, Status: http.StatusOK}
		s.mRequests.Add(1)

		rq.TraceID = obs.ParseTraceID(r.Header.Get(obs.TraceHeader))
		if rq.TraceID == "" {
			rq.TraceID = obs.NewTraceID()
		}
		ctx := obs.WithTraceID(r.Context(), rq.TraceID)
		if !s.cfg.DisableTelemetry {
			rq.Root = obs.NewSpan("Request", r.Method+" "+r.URL.Path)
			ctx = obs.ContextWithSpan(ctx, rq.Root)
		}
		ctx = obs.WithRequest(ctx, rq)
		// Echo the trace ID before the handler writes anything, so even
		// responses that fail mid-body carry it.
		w.Header().Set(obs.TraceHeader, rq.TraceID)

		s.mux.ServeHTTP(&statusWriter{ResponseWriter: w, rq: rq}, r.WithContext(ctx))

		rq.Duration = time.Since(rq.Start)
		rq.Root.Finish()
		s.mLatency.Observe(float64(rq.Duration) / 1e6)
		if rq.Outcome == "" { // writeErr sets it for typed failures
			if rq.Status < 400 {
				rq.Outcome = "ok"
			} else {
				rq.Outcome = fmt.Sprintf("http_%d", rq.Status)
			}
		}
		// The handler stamped the node's primary epoch on the response (when
		// it has one); lifting it off the header here gives every access-log
		// line its era without threading epoch through each handler.
		rq.Epoch, _ = strconv.ParseUint(w.Header().Get(HeaderEpoch), 10, 64)

		s.accessLog.Log(rq)
		// The trace store holds API requests only: scrapes of /metrics,
		// /healthz, and the trace endpoints themselves would drown the
		// traffic an operator is diagnosing.
		if strings.HasPrefix(rq.Path, "/v1/") {
			s.traces.Observe(rq)
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
		obs.WriteError(w, r, http.StatusNotFound, "not_found",
			fmt.Sprintf("trace %q not retained (expired from the trace store or never sampled)", id))
		return
	}
	writeJSON(w, http.StatusOK, traceDetailOut(t))
}

func traceSummaryOut(t *obs.Request) TraceSummary {
	return TraceSummary{
		TraceID:      t.TraceID,
		Start:        t.Start,
		Method:       t.Method,
		Path:         t.Path,
		Statement:    t.Statement,
		Digest:       t.Digest,
		Status:       t.Status,
		Outcome:      t.Outcome,
		DurationMS:   float64(t.Duration) / 1e6,
		EdgesScanned: t.EdgesScanned,
		Error:        t.Error,
	}
}

func traceDetailOut(t *obs.Request) TraceDetail {
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
