package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// Request-scoped trace context: every request entering the system gets a
// 128-bit trace ID (16 random bytes, 32 lowercase hex characters — the
// W3C trace-context trace-id format), carried on the wire in the
// X-Nepal-Trace header and in-process on the context. Spans, retained
// traces, access-log lines, and error envelopes are all tagged with it,
// so a client-reported failure is greppable end to end.
//
// Propagation is context-based and allocation-free when disabled:
// TraceIDFrom and SpanFromContext on a context that carries nothing are
// plain Value lookups returning zero values — no allocation, no branch
// beyond the lookup itself (pinned by TestTraceIDOffPathZeroAlloc; the
// end-to-end cost is obs.telemetry_cost_us in BENCHMARK.json).

// TraceHeader is the HTTP header carrying the trace ID. The server
// forwards an incoming value (so callers chain traces across hops) or
// generates a fresh ID, and always echoes the ID on the response.
const TraceHeader = "X-Nepal-Trace"

// traceIDLen is the hex length of a trace ID (128 bits).
const traceIDLen = 32

// traceFallback seeds the collision-resistant fallback IDs used if the
// system's random source ever fails.
var traceFallback atomic.Uint64

// NewTraceID returns a fresh 32-hex-character random trace ID.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The platform random source failed (effectively impossible on
		// supported systems); fall back to a time+counter ID rather than
		// propagate an error through every request path.
		return fmt.Sprintf("%016x%016x", uint64(time.Now().UnixNano()), traceFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// ParseTraceID extracts a trace ID from a header value: either a bare
// 32-hex-character ID or a W3C traceparent ("00-<32 hex>-<16 hex>-<2
// hex>"). It returns the normalized (lowercase) ID, or "" when the value
// is empty or malformed — callers then mint a fresh ID.
func ParseTraceID(v string) string {
	if len(v) > traceIDLen && v[2] == '-' {
		// traceparent form: version "-" trace-id "-" parent-id "-" flags.
		if len(v) < 3+traceIDLen {
			return ""
		}
		v = v[3 : 3+traceIDLen]
	}
	if len(v) != traceIDLen {
		return ""
	}
	out := make([]byte, 0, traceIDLen)
	zero := true
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= '0' && c <= '9':
			if c != '0' {
				zero = false
			}
		case c >= 'a' && c <= 'f':
			zero = false
		case c >= 'A' && c <= 'F':
			c += 'a' - 'A'
			zero = false
		default:
			return ""
		}
		out = append(out, c)
	}
	if zero { // all-zero is the W3C "invalid" sentinel
		return ""
	}
	return string(out)
}

type traceIDKey struct{}
type spanKey struct{}

// WithTraceID returns a context carrying the trace ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom returns the context's trace ID, or "" when none is set.
// The miss path performs no allocation.
func TraceIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// ContextWithSpan returns a context carrying the span, under which
// downstream components (the executor, the WAL) attach their own child
// spans to the request's trace.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the context's span, or nil when tracing is off.
// The miss path performs no allocation.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
