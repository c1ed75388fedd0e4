package obs

import (
	"runtime"
	"testing"
)

// TestRegisterRuntime: the four runtime gauges read live values at
// scrape time.
func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	runtime.GC()
	snap := scrape(r)
	for name, min := range map[string]float64{
		"go.heap_inuse_bytes":     1,
		"go.gc_cycles":            1,
		"go.gc_pause_cpu_seconds": 0,
		"go.goroutines":           1,
	} {
		v, ok := snap[PromName(name)]
		if !ok || v < min {
			t.Errorf("%s = %v, want a number of at least %v", name, v, min)
		}
	}
	RegisterRuntime(nil) // a nil registry publishes nothing, and must not panic
}
