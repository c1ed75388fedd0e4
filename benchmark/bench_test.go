package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func readBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smallRun is one workload at 1/50 of its size with three passes.
func smallRun(t *testing.T, workload string, trace bool) (*result, string) {
	t.Helper()
	var log bytes.Buffer
	dir := t.TempDir()
	res, err := run(config{workload: workload, seed: 7, seconds: 20, trace: trace,
		scale: 0.02, passes: 3, outDir: dir, log: &log})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, log.String())
	}
	if leftover, _ := filepath.Glob(filepath.Join(dir, "run-*")); len(leftover) > 0 {
		t.Errorf("%s left its scratch directories behind: %v", workload, leftover)
	}
	return res, dir
}

// signed are differences of two measurements, which noise can push below
// zero on operations this small.
var signed = map[string]bool{"core.exec_overhead_us": true, "server.self_us": true, "client.transport_us": true,
	"wal.append_us": true, "obs.telemetry_cost_us": true, "harness.trace_overhead_pct": true}

// exact counts: a second run on the same seed must repeat them to the digit.
var exact = []string{"plan.edges_per_op", "plan.paths_per_op", "wal.fsyncs_per_mutation",
	"wal.bytes_per_mutation", "server.plan_cache_hit_rate"}

// TestWorkloads runs every workload small, plain and traced, and holds
// what it prints to BENCHMARK.json: every metric named there and no
// other, with its unit, finite, positive where it must be; the exact
// counts repeating on the same seed; and a span file whose spans nest.
func TestWorkloads(t *testing.T) {
	contract := readBenchmarkJSON(t)
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(contract.Workloads), len(workloads))
	}
	for _, w := range contract.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain, _ := smallRun(t, w.Name, false)
			if len(plain.Metrics) != len(contract.EndToEnd) {
				t.Errorf("plain run printed %d metrics, BENCHMARK.json lists %d end-to-end", len(plain.Metrics), len(contract.EndToEnd))
			}
			for _, m := range contract.EndToEnd {
				got, ok := plain.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive finite value in %s", m.Name, got, ok, m.Unit)
				}
			}

			traced, dir := smallRun(t, w.Name, true)
			again, _ := smallRun(t, w.Name, true)
			if len(traced.Metrics) != len(contract.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json lists %d per-layer", len(traced.Metrics), len(contract.PerLayer))
			}
			for _, m := range contract.PerLayer {
				got, ok := traced.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (got.Value < 0 && !signed[m.Name]) {
					t.Errorf("per-layer %s: got %+v (present %v), want a finite non-negative value in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range exact {
				if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s is an exact count but two runs on one seed gave %v and %v", name, a, b)
				}
			}

			raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(raw, &file); err != nil {
				t.Fatal(err)
			}
			if len(file.Spans) == 0 {
				t.Fatal("the span file is empty")
			}
			if err := checkSpans(file.Spans); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCheckSpans(t *testing.T) {
	ok := []span{{ID: 1, Op: 5, Name: "op", Start: 0, End: 100}, {ID: 2, Parent: 1, Op: 5, Name: "wal.fsync", Start: 10, End: 90}}
	if err := checkSpans(ok); err != nil {
		t.Errorf("nested spans rejected: %v", err)
	}
	for name, bad := range map[string][]span{
		"leaves its parent": {ok[0], {ID: 2, Parent: 1, Op: 5, Name: "wal.fsync", Start: 10, End: 101}},
		"another op":        {ok[0], {ID: 2, Parent: 1, Op: 6, Name: "wal.fsync", Start: 10, End: 90}},
		"missing parent":    {{ID: 2, Parent: 9, Op: 5, Name: "wal.fsync", Start: 10, End: 90}},
	} {
		if checkSpans(bad) == nil {
			t.Errorf("a span that %s was accepted", name)
		}
	}
	if self := selfTimes(ok)["op"]; len(self) != 1 || self[0] != 20 {
		t.Errorf("self time of a 100 ns span with an 80 ns child = %v, want [20ns]", self)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 29, 7, 22, 11, 16})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
