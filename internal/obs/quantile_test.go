package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramQuantilePinned pins p50/p95/p99 against a known uniform
// distribution: values 1..100 into decade-width buckets put exactly 10
// observations in each bucket, so linear interpolation lands on the
// exact percentile values.
func TestHistogramQuantilePinned(t *testing.T) {
	bounds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := NewHistogram(bounds)
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 50},
		{0.95, 95},
		{0.99, 99},
		{0.10, 10},
		{1.00, 100},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestHistogramQuantileSkewed pins quantiles on a skewed distribution:
// 90 fast observations in the first bucket, 10 slow in the last.
func TestHistogramQuantileSkewed(t *testing.T) {
	h := NewHistogram([]float64{1, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(900)
	}
	// p50 rank 50 falls in the first bucket (cum 90): 0 + 1*(50/90).
	if got, want := h.Quantile(0.50), 50.0/90.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	// p95 rank 95 falls in the (1,1000] bucket: 1 + 999*(95-90)/10.
	if got, want := h.Quantile(0.95), 1+999*0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("p95 = %v, want %v", got, want)
	}
	// p99 rank 99: 1 + 999*(99-90)/10.
	if got, want := h.Quantile(0.99), 1+999*0.9; math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 = %v, want %v", got, want)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v, want 0", got)
	}
	h := NewHistogram([]float64{1, 2})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// Observations past the last bound clamp to the largest finite bound.
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("overflow-bucket quantile = %v, want clamp to 2", got)
	}
	// q outside [0,1] clamps rather than panicking.
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Errorf("q<0 should clamp to 0: %v vs %v", got, h.Quantile(0))
	}
	if got := h.Quantile(2); got != h.Quantile(1) {
		t.Errorf("q>1 should clamp to 1: %v vs %v", got, h.Quantile(1))
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]float64{10, 20})
	b := NewHistogram([]float64{10, 20})
	a.Observe(5)
	b.Observe(15)
	b.Observe(25)
	a.Merge(b.Snapshot())
	snap := a.Snapshot()
	if snap.Count != 3 || math.Abs(snap.Sum-45) > 1e-9 {
		t.Fatalf("merged count/sum = %d/%v, want 3/45", snap.Count, snap.Sum)
	}
	if snap.Buckets[0].Count != 1 || snap.Buckets[1].Count != 1 || snap.Buckets[2].Count != 1 {
		t.Fatalf("merged buckets wrong: %+v", snap.Buckets)
	}
	// Mismatched layouts fall back to totals-only absorption.
	c := NewHistogram([]float64{1})
	c.Merge(b.Snapshot())
	if got := c.Snapshot(); got.Count != 2 || math.Abs(got.Sum-40) > 1e-9 {
		t.Fatalf("mismatched merge count/sum = %d/%v, want 2/40", got.Count, got.Sum)
	}
	// Nil receiver and empty snapshot are no-ops.
	var nilH *Histogram
	nilH.Merge(b.Snapshot())
	before := a.Snapshot().Count
	a.Merge(HistogramSnapshot{})
	if a.Snapshot().Count != before {
		t.Fatalf("empty-snapshot merge changed the histogram")
	}
}

// TestAccessLogDigestField is the JSON access-log regression: the
// digest field appears after statement, round-trips through
// encoding/json, and is omitted when empty.
func TestAccessLogDigestField(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)
	l.Log(&Request{
		Start:     time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC),
		TraceID:   "t1",
		Method:    "POST",
		Path:      "/v1/query",
		Status:    200,
		Outcome:   "ok",
		Statement: "Host(id=1)",
		Digest:    "deadbeefcafef00d",
	})
	line := buf.String()
	if !strings.Contains(line, `"statement":"Host(id=1)","digest":"deadbeefcafef00d"`) {
		t.Errorf("digest not encoded after statement: %s", line)
	}
	var back struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal([]byte(line), &back); err != nil {
		t.Fatalf("access line does not round-trip: %v\n%s", err, line)
	}
	if back.Digest != "deadbeefcafef00d" {
		t.Errorf("round-tripped digest = %q", back.Digest)
	}

	buf.Reset()
	l.Log(&Request{Start: time.Now(), TraceID: "t2", Method: "GET", Path: "/healthz", Status: 200, Outcome: "ok"})
	if strings.Contains(buf.String(), "digest") {
		t.Errorf("empty digest should be omitted: %s", buf.String())
	}
}

// TestTraceStoreConcurrency is the trace-store half of the concurrency
// satellite: concurrent Observe (insert + evict), Get, and List under
// -race -count=2.
func TestTraceStoreConcurrency(t *testing.T) {
	s := NewTraceStore(16, 50*time.Millisecond)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				tr := &Request{
					TraceID:  fmt.Sprintf("w%d-%d", w, i),
					Start:    time.Now(),
					Method:   "POST",
					Path:     "/v1/query",
					Digest:   "deadbeefcafef00d",
					Status:   200,
					Outcome:  "ok",
					Duration: time.Duration(i%100) * time.Millisecond, // mix of slow and fast
				}
				if i%17 == 0 {
					tr.Status = 500
					tr.Outcome = "internal"
				}
				s.Observe(tr)
			}
		}(w)
	}
	var readWG sync.WaitGroup
	for r := 0; r < 4; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, tr := range s.List() {
					if tr.Digest != "deadbeefcafef00d" {
						t.Errorf("trace %s lost its digest: %q", tr.TraceID, tr.Digest)
						return
					}
				}
				s.Get(fmt.Sprintf("w%d-%d", r, i%400))
				s.Len()
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readWG.Wait()
}
