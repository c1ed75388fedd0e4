package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// AccessLog writes one JSON line per request to an underlying writer,
// serialized so concurrent requests never interleave partial lines —
// a complete, greppable request ledger keyed by trace ID. A nil
// *AccessLog is a valid disabled log.
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

// Log writes one request as a single JSON line. Safe on a nil receiver.
//
// The line is encoded by hand into a buffer reused across requests:
// the access log sits on the per-request telemetry path, where
// reflection-based encoding was a measurable share of the traced
// overhead (obs.telemetry_cost_us in BENCHMARK.json). The output is
// plain JSON that round-trips through encoding/json; durations are
// written in milliseconds.
func (l *AccessLog) Log(e *Request) {
	if l == nil {
		return
	}
	l.mu.Lock()
	b := l.buf[:0]
	b = append(b, `{"time":"`...)
	b = e.Start.AppendFormat(b, time.RFC3339Nano)
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
	b = strconv.AppendFloat(b, float64(e.Duration)/1e6, 'f', -1, 64)
	if e.AdmissionWait != 0 {
		b = append(b, `,"admission_wait_ms":`...)
		b = strconv.AppendFloat(b, float64(e.AdmissionWait)/1e6, 'f', -1, 64)
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
