package obs

import "runtime/metrics"

// RegisterRuntime publishes four Go runtime signals on the registry, read
// from runtime/metrics at scrape time only, so serving a request pays
// nothing for them:
//
//   - go.heap_inuse_bytes: bytes in in-use heap spans (live and
//     not-yet-swept objects plus their spans' free slots), MemStats'
//     HeapInuse;
//   - go.gc_cycles: completed GC cycles since the process started;
//   - go.gc_pause_cpu_seconds: cumulative stop-the-world GC pause, as CPU
//     time (each pause counts GOMAXPROCS times its wall time);
//   - go.goroutines: live goroutines.
//
// Safe on a nil registry.
func RegisterRuntime(r *Registry) {
	for _, g := range []struct {
		name, help string
		samples    []string
	}{
		{"go.heap_inuse_bytes", "Bytes in in-use heap spans (Go runtime HeapInuse).",
			[]string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}},
		{"go.gc_cycles", "Completed GC cycles since the process started.",
			[]string{"/gc/cycles/total:gc-cycles"}},
		{"go.gc_pause_cpu_seconds", "Cumulative stop-the-world GC pause, in CPU seconds (GOMAXPROCS times the wall time).",
			[]string{"/cpu/classes/gc/pause:cpu-seconds"}},
		{"go.goroutines", "Live goroutines.",
			[]string{"/sched/goroutines:goroutines"}},
	} {
		r.GaugeFunc(g.name, func() float64 { return readRuntime(g.samples) })
		r.SetHelp(g.name, g.help)
	}
}

// readRuntime reads the named runtime metrics and returns their sum.
func readRuntime(names []string) float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	sum := 0.0
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			sum += float64(s.Value.Uint64())
		case metrics.KindFloat64:
			sum += s.Value.Float64()
		}
	}
	return sum
}
