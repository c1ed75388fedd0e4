package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	root := NewSpan("Eval", "VNF()->Host()")
	sel := root.StartChild("Select", "Host(id=5)")
	sel.AddRows(0, 1)
	sel.Finish()
	ext := root.Child("Extend", "Vertical()")
	ext.AddDuration(3 * time.Millisecond)
	ext.AddDuration(2 * time.Millisecond)
	ext.AddRows(10, 7)
	ext.Add("edges_scanned", 40)
	ext.Add("edges_scanned", 2)
	root.Finish()

	if root.Name() != "Eval" || root.Detail() != "VNF()->Host()" {
		t.Errorf("root identity = %q/%q", root.Name(), root.Detail())
	}
	if d := root.Duration(); d <= 0 {
		t.Errorf("finished root duration = %v, want > 0", d)
	}
	// Finishing twice must not double-count.
	d1 := root.Duration()
	root.Finish()
	if d2 := root.Duration(); d2 != d1 {
		t.Errorf("double Finish changed duration: %v -> %v", d1, d2)
	}
	if got := len(root.Children()); got != 2 {
		t.Fatalf("children = %d, want 2", got)
	}
	if d := ext.Duration(); d != 5*time.Millisecond {
		t.Errorf("accumulated extend duration = %v, want 5ms", d)
	}
	if in, out := ext.Rows(); in != 10 || out != 7 {
		t.Errorf("extend rows = %d/%d, want 10/7", in, out)
	}
	if n := ext.Counter("edges_scanned"); n != 42 {
		t.Errorf("edges_scanned = %d, want 42", n)
	}
	var names []string
	root.Walk(func(s *Span) { names = append(names, s.Name()) })
	if strings.Join(names, ",") != "Eval,Select,Extend" {
		t.Errorf("walk order = %v", names)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	// Every operation must be a no-op, not a panic.
	s.Finish()
	s.AddDuration(time.Second)
	s.AddRows(1, 2)
	s.Add("c", 3)
	s.SetDetail("d")
	s.Walk(func(*Span) { t.Fatal("nil span walked") })
	c := s.StartChild("a", "b")
	if c != nil || s.Child("a", "b") != nil {
		t.Fatal("nil span must return nil children")
	}
	if s.Duration() != 0 || s.Counter("c") != 0 || s.Annotations() != "" {
		t.Fatal("nil span must read as zero")
	}
	if got := RenderTree(nil); got != "" {
		t.Fatalf("RenderTree(nil) = %q", got)
	}
}

func TestRenderTreeShape(t *testing.T) {
	root := NewSpan("Eval", "expr")
	ext := root.Child("Extend", "Vertical()")
	ext.Add("edges_scanned", 12)
	ext.AddRows(3, 4)
	root.Finish()
	out := RenderTree(root)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("render lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Eval expr  [time=") {
		t.Errorf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  Extend Vertical()") ||
		!strings.Contains(lines[1], "edges_scanned=12") ||
		!strings.Contains(lines[1], "rows_in=3") ||
		!strings.Contains(lines[1], "rows_out=4") {
		t.Errorf("extend line = %q", lines[1])
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 9, 10, 11, 99, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 9 {
		t.Fatalf("count = %d, want 9", s.Count)
	}
	if math.Abs(s.Sum-1232.0) > 1e-9 {
		t.Errorf("sum = %v, want 1232", s.Sum)
	}
	// Upper bounds are inclusive: values land in the first bucket whose
	// bound >= v.
	wantPer := []int64{2, 3, 3, 1} // <=1, <=10, <=100, +Inf
	wantCum := []int64{2, 5, 8, 9}
	if len(s.Buckets) != 4 {
		t.Fatalf("buckets = %d, want 4", len(s.Buckets))
	}
	for i, b := range s.Buckets {
		if b.Count != wantPer[i] || b.CumulativeCount != wantCum[i] {
			t.Errorf("bucket %d (le=%v): count=%d cum=%d, want %d/%d",
				i, b.UpperBound, b.Count, b.CumulativeCount, wantPer[i], wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[3].UpperBound, 1) {
		t.Errorf("last bucket bound = %v, want +Inf", s.Buckets[3].UpperBound)
	}
}

func TestRegistryCreatesAndReuses(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("engine.evals")
	c.Add(2)
	if r.Counter("engine.evals") != c {
		t.Error("counter not reused by name")
	}
	r.Gauge("engine.live").Set(7)
	r.Histogram("engine.latency_ms").Observe(3.5)
	snap := scrape(r)
	if snap["engine_evals"] != 2 {
		t.Errorf("counter sample = %v", snap["engine_evals"])
	}
	if snap["engine_live"] != 7 {
		t.Errorf("gauge sample = %v", snap["engine_live"])
	}
	if n, ok := snap["engine_latency_ms_count"]; !ok || n != 1 {
		t.Errorf("histogram count sample = %v (present %v)", n, ok)
	}
}

// scrape reads r's Prometheus exposition into a map from each sample's
// series (its name, with labels if any) to its value.
func scrape(r *Registry) map[string]float64 {
	var sb strings.Builder
	WritePrometheus(&sb, r)
	out := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			panic(fmt.Sprintf("sample %q: %v", line, err))
		}
		out[line[:i]] = v
	}
	return out
}

// families counts the metric families of r's exposition.
func families(r *Registry) int {
	var sb strings.Builder
	WritePrometheus(&sb, r)
	return strings.Count(sb.String(), "# TYPE ")
}

// TestRegistryInclude: Include shares src's metric objects with r (an
// update through either shows in both), repeating it changes nothing,
// and including a registry into itself is a no-op.
func TestRegistryInclude(t *testing.T) {
	src, r := NewRegistry(), NewRegistry()
	src.Counter("db.queries").Add(3)
	src.Histogram("db.query_latency_ms").Observe(1)
	src.GaugeFunc("store.versions", func() float64 { return 9 })
	r.Counter("server.requests").Add(1)

	r.Include(src)
	r.Include(src)
	if r.Counter("db.queries") != src.Counter("db.queries") ||
		r.Histogram("db.query_latency_ms") != src.Histogram("db.query_latency_ms") {
		t.Fatal("included metrics are copies, not the source's objects")
	}
	src.Counter("db.queries").Add(1)
	snap := scrape(r)
	if snap["db_queries"] != 4 || snap["store_versions"] != 9 || snap["server_requests"] != 1 {
		t.Errorf("exposition after including twice = %v", snap)
	}
	if n := families(r); n != 4 {
		t.Errorf("exposition holds %d metrics, want 4: %v", n, snap)
	}

	before, nBefore := scrape(src), families(src)
	src.Include(src)
	var none *Registry
	none.Include(src)
	r.Include(nil)
	if after := scrape(src); families(src) != nBefore || after["db_queries"] != before["db_queries"] {
		t.Errorf("self-include changed the registry: %v -> %v", before, after)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("a").Add(1)
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(1)
	var sb strings.Builder
	WritePrometheus(&sb, r)
	if sb.Len() != 0 {
		t.Error("nil registry exposition must be empty")
	}
}

// TestRegistrySnapshotUnderConcurrentWriters hammers one registry from
// many goroutines while scraping it concurrently; run under -race this
// is the data-race check, and the final totals must be exact.
func TestRegistrySnapshotUnderConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 2000
	var readersWG, writersWG sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent scrapers: each exposition must be internally consistent
	// (the +Inf bucket's cumulative count matches the histogram's count).
	for i := 0; i < 2; i++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := scrape(r)
				if v, ok := snap["shared"]; ok && v < 0 {
					t.Error("negative counter observed")
					return
				}
				if n, ok := snap["lat_count"]; ok {
					if per := snap[`lat_bucket{le="+Inf"}`]; per != n {
						t.Errorf("inconsistent histogram exposition: buckets=%v count=%v", per, n)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				r.Counter("shared").Add(1)
				r.Counter("own." + string(rune('a'+w))).Add(2)
				r.Gauge("g").Set(int64(i))
				r.Histogram("lat").Observe(float64(i % 50))
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readersWG.Wait()

	if got := r.Counter("shared").Value(); got != writers*perWriter {
		t.Errorf("shared counter = %d, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		name := "own." + string(rune('a'+w))
		if got := r.Counter(name).Value(); got != 2*perWriter {
			t.Errorf("%s = %d, want %d", name, got, 2*perWriter)
		}
	}
	hs := r.Histogram("lat").Snapshot()
	if hs.Count != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", hs.Count, writers*perWriter)
	}
	var cum int64
	for _, b := range hs.Buckets {
		cum += b.Count
	}
	if cum != hs.Count {
		t.Errorf("bucket total %d != count %d", cum, hs.Count)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Nanosecond:   "500ns",
		1500 * time.Nanosecond:  "1.5µs",
		2500 * time.Microsecond: "2.50ms",
		3 * time.Second:         "3.00s",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}
