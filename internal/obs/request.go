package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"time"
)

// Request is one HTTP request's telemetry record. The server middleware
// allocates exactly one per request — admission rejections, malformed
// bodies, and governance aborts included — handlers fill it through the
// context (RequestFrom), and on completion the same pointer goes to the
// access log (one JSON line) and, tail-sampled, to the trace store. The
// record is not modified after it is handed to the sinks.
type Request struct {
	// Start is the request arrival time.
	Start time.Time
	// TraceID tags the request's end-to-end trace; the same ID appears
	// in the response header, error envelope, access log, and trace store.
	TraceID string
	Method  string
	Path    string
	Status  int
	// Outcome is the request's terminal classification: "ok" or the
	// error envelope's machine-readable code ("overloaded", "deadline",
	// "limit", "parse_error", "bad_request", "internal", ...).
	Outcome  string
	Duration time.Duration
	// AdmissionWait is the time spent queued for an execution slot (0 for
	// endpoints that bypass admission).
	AdmissionWait time.Duration
	// Statement is the statement's text, as the engine ran it.
	Statement string
	// Digest is the literal-masked statement fingerprint — the key into
	// GET /v1/stats/statements.
	Digest string
	// EdgesScanned is the query's engine-side scan volume.
	EdgesScanned int
	// BytesOut is the response body size written.
	BytesOut int64
	// Epoch is the primary epoch the response was served under (0 when
	// the node has none), correlating each request with its failover era.
	Epoch uint64
	Error string
	// Root is the "Request" span whose children are the server phases
	// (admission, decode, execute, encode), with the engine's operator
	// DAG and the WAL append nested below; nil when spans are disabled.
	Root *Span
}

// Interesting reports whether the request should survive tail-sampling
// eviction: errored or slower than the threshold.
func (rq *Request) Interesting(slow time.Duration) bool {
	if rq == nil {
		return false
	}
	if rq.Outcome != "" && rq.Outcome != "ok" {
		return true
	}
	if rq.Error != "" {
		return true
	}
	return slow > 0 && rq.Duration >= slow
}

type requestKey struct{}

// WithRequest returns a context carrying the request's record.
func WithRequest(ctx context.Context, rq *Request) context.Context {
	return context.WithValue(ctx, requestKey{}, rq)
}

// RequestFrom returns the context's request record, or nil when the
// context did not pass through the server middleware.
func RequestFrom(ctx context.Context) *Request {
	rq, _ := ctx.Value(requestKey{}).(*Request)
	return rq
}

// ErrorBody is the JSON error envelope every non-2xx API answer carries.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the typed error: Code is a stable machine-readable
// string ("parse_error", "overloaded", "deadline", "canceled", "limit",
// "not_primary", "wal_truncated", "internal", ...), Message the human
// one. TraceID links the failure to its server-side trace —
// quote it when reporting a problem.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	TraceID string `json:"trace_id,omitempty"`
}

// WriteError writes the JSON error envelope with status. Under the
// server's telemetry middleware it stamps the request's trace ID into the
// envelope and records code and msg on the request (RequestFrom), so the
// access log and the trace store classify the failure the way the client
// saw it.
func WriteError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	d := ErrorDetail{Code: code, Message: msg}
	if rq := RequestFrom(r.Context()); rq != nil {
		rq.Outcome, rq.Error = code, msg
		d.TraceID = rq.TraceID
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: d})
}
