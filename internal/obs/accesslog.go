package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// AccessEntry is one structured access-log record: exactly one is
// emitted per HTTP request the server sees, whatever its fate —
// admission rejections, malformed bodies, and governance aborts
// included — so the log is a complete, greppable request ledger keyed
// by trace ID.
type AccessEntry struct {
	// Time is the request arrival time.
	Time time.Time `json:"time"`
	// TraceID tags the request's end-to-end trace; the same ID appears
	// in the response header, error envelope, slow log, and trace store.
	TraceID string `json:"trace_id"`
	Method  string `json:"method"`
	Path    string `json:"path"`
	Status  int    `json:"status"`
	// Outcome is the request's terminal classification: "ok" or the
	// error envelope's machine-readable code ("overloaded", "deadline",
	// "limit", "parse_error", "bad_request", "internal", ...).
	Outcome    string  `json:"outcome"`
	DurationMS float64 `json:"duration_ms"`
	// AdmissionWaitMS is the time spent queued for an execution slot
	// (0 for endpoints that bypass admission).
	AdmissionWaitMS float64 `json:"admission_wait_ms,omitempty"`
	// StatementHash is the stable SHA-256 handle of the statement text
	// (the same handle /v1/prepare returns), for cardinality-safe
	// aggregation; Statement is the raw text.
	StatementHash string `json:"statement_hash,omitempty"`
	Statement     string `json:"statement,omitempty"`
	// Digest is the literal-masked statement fingerprint — the key into
	// GET /v1/stats/statements, shared with the slow log and trace store.
	Digest string `json:"digest,omitempty"`
	// EdgesScanned is the query's engine-side scan volume.
	EdgesScanned int `json:"edges_scanned,omitempty"`
	// BytesOut is the response body size written.
	BytesOut int64 `json:"bytes_out"`
	// Epoch is the primary epoch the response was served under (0 when
	// the node has none), correlating each request with its failover era.
	Epoch uint64 `json:"epoch,omitempty"`
	Error string `json:"error,omitempty"`
}

// AccessLog writes one JSON line per entry to an underlying writer,
// serialized so concurrent requests never interleave partial lines. A
// nil *AccessLog is a valid disabled log.
type AccessLog struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte // reused line buffer; guarded by mu
}

// NewAccessLog returns a log writing to w; a nil w returns a nil
// (disabled) log.
func NewAccessLog(w io.Writer) *AccessLog {
	if w == nil {
		return nil
	}
	return &AccessLog{w: w}
}

// Log writes one entry as a single JSON line. Safe on a nil receiver.
//
// The line is encoded by hand into a buffer reused across entries:
// the access log sits on the per-request telemetry path, where
// reflection-based encoding was a measurable share of the traced
// overhead BenchmarkTelemetryOverhead pins. The output is plain JSON
// that round-trips through encoding/json.
func (l *AccessLog) Log(e AccessEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	b := l.buf[:0]
	b = append(b, `{"time":"`...)
	b = e.Time.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","trace_id":`...)
	b = appendJSONString(b, e.TraceID)
	b = append(b, `,"method":`...)
	b = appendJSONString(b, e.Method)
	b = append(b, `,"path":`...)
	b = appendJSONString(b, e.Path)
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(e.Status), 10)
	b = append(b, `,"outcome":`...)
	b = appendJSONString(b, e.Outcome)
	b = append(b, `,"duration_ms":`...)
	b = strconv.AppendFloat(b, e.DurationMS, 'f', -1, 64)
	if e.AdmissionWaitMS != 0 {
		b = append(b, `,"admission_wait_ms":`...)
		b = strconv.AppendFloat(b, e.AdmissionWaitMS, 'f', -1, 64)
	}
	if e.StatementHash != "" {
		b = append(b, `,"statement_hash":`...)
		b = appendJSONString(b, e.StatementHash)
	}
	if e.Statement != "" {
		b = append(b, `,"statement":`...)
		b = appendJSONString(b, e.Statement)
	}
	if e.Digest != "" {
		b = append(b, `,"digest":`...)
		b = appendJSONString(b, e.Digest)
	}
	if e.EdgesScanned != 0 {
		b = append(b, `,"edges_scanned":`...)
		b = strconv.AppendInt(b, int64(e.EdgesScanned), 10)
	}
	b = append(b, `,"bytes_out":`...)
	b = strconv.AppendInt(b, e.BytesOut, 10)
	if e.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendUint(b, e.Epoch, 10)
	}
	if e.Error != "" {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, e.Error)
	}
	b = append(b, '}', '\n')
	l.w.Write(b)
	l.buf = b
	l.mu.Unlock()
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes, control characters, and invalid UTF-8.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"':
				b = append(b, '\\', '"')
			case '\\':
				b = append(b, '\\', '\\')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `�`...)
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
