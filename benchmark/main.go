// Command benchmark is the repository's performance baseline: one named
// workload per invocation, measured end to end and, in a traced run,
// layer by layer. BENCHMARK.json at the repository root names the
// command, the workloads and every metric; README.md in this directory
// says why each is there.
//
//	go run ./benchmark --workload serve-interactive --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks fixtures and sequences (the tier-1 test runs at
	// 1/50); passes overrides the pass count derived from seconds.
	scale  float64
	passes int
	outDir string
	// anchors is filled by the first set-up that needs them.
	anchors *anchors
	log     io.Writer
}

// setupTimes is what set-up cost, by part.
type setupTimes struct {
	build       time.Duration
	serverStart time.Duration
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metric sets of BENCHMARK.json, which the
// test holds them to.
var endToEnd = []metricDef{{"setup_s", "s"}, {"alloc_kb_per_op", "KB"}, {"heap_mb", "MB"}}

// timings are the client-observed time metrics. They were end-to-end
// metrics and are per-layer ones: this host's speed moves 12-16% in
// regimes that outlast a run, so between runs of the same code they
// spread 9-22% on three workloads of four, which no bound the driver
// allows (25% at most, three times the spread) can hold. A plain run
// still prints them, from all its passes; a traced run reports them from
// its three plain passes.
var timings = []metricDef{
	{"harness.ops_per_s", "1/s"}, {"harness.op_p50_ms", "ms"}, {"harness.op_p95_ms", "ms"}, {"harness.cpu_ms_per_op", "ms"},
}

func (s *summary) timings() map[string]float64 {
	return map[string]float64{
		"harness.ops_per_s":     float64(s.ops) / s.wall.Seconds(),
		"harness.op_p50_ms":     ms(quantile(s.sorted, 0.50)),
		"harness.op_p95_ms":     ms(quantile(s.sorted, 0.95)),
		"harness.cpu_ms_per_op": ms(s.cpuPerOp),
	}
}

var perLayer = []metricDef{
	{"rpe.check_us", "us"}, {"plan.build_us", "us"}, {"core.prepare_us", "us"},
	{"plan.eval_us", "us"}, {"plan.eval_ns_per_edge", "ns"}, {"plan.edges_per_op", "count"},
	{"plan.paths_per_op", "count"}, {"plan.alloc_kb_per_path", "KB"},
	{"gremlin.eval_ns_per_edge", "ns"}, {"relational.eval_ns_per_edge", "ns"},
	{"temporal.hist_snap_ratio", "ratio"},
	{"graph.probe_ns", "ns"}, {"graph.apply_us", "us"}, {"graph.bytes_per_version", "B"},
	{"graph.load_objects_per_s", "1/s"},
	{"core.exec_overhead_us", "us"},
	{"wal.append_us", "us"}, {"wal.fsync_us", "us"}, {"wal.fsyncs_per_mutation", "count"},
	{"wal.bytes_per_mutation", "B"}, {"wal.checkpoint_ms", "ms"}, {"wal.checkpoint_bytes", "B"},
	{"wal.recovery_ms", "ms"}, {"wal.replay_records_per_s", "1/s"},
	{"server.handler_us", "us"}, {"server.self_us", "us"}, {"server.plan_cache_hit_rate", "ratio"},
	{"server.response_bytes_per_op", "B"}, {"server.admission_wait_mean_us", "us"},
	{"server.ingest_us_per_mutation", "us"}, {"obs.telemetry_cost_us", "us"},
	{"client.transport_us", "us"},
	{"watch.delivery_p50_ms", "ms"}, {"watch.delivery_p95_ms", "ms"}, {"watch.evals_per_mutation", "count"},
	{"feed.write_ack_p50_ms", "ms"}, {"feed.write_ack_p95_ms", "ms"}, {"harness.writer_late_p95_ms", "ms"},
	{"harness.pass_spread_pct", "%"}, {"harness.raw_p99_ms", "ms"}, {"harness.trace_overhead_pct", "%"},
	timings[0], timings[1], timings[2], timings[3],
}

// workloads maps each name to its constructor and the passes it makes in
// a 20-second run (a pass takes 6.5, 1.9 and 2.8 s on the reference
// host); other --seconds scale that.
var workloads = map[string]struct {
	build  func(config, *scratch) (scenario, setupTimes, error)
	passes int // 0 = as many as fit the writer's schedule
}{
	"path-mining":       {newPathMining, 3},
	"serve-interactive": {newServeInteractive, 9},
	"ingest-durable":    {newIngestDurable, 7},
	"feed-mixed":        {newFeedMixed, 0},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{scale: 1, log: os.Stdout}
	var trace int
	var agree int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: path-mining, serve-interactive, ingest-durable, feed-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the operation sequence is drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "seconds the measured phase is sized for")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_out", "directory for scratch logs and the span file")
	flag.IntVar(&agree, "agree", 0, "run two interleaved sets of N runs per workload and compare them")
	flag.Parse()
	cfg.trace = trace != 0

	if agree > 0 {
		if err := runAgree(agree, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
}

// run executes one workload and returns its result. An error means the
// run could not be made; a wrong answer is a result with Correct false.
func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	// One process, every core, and never more client connections than
	// cores: the server under test and its clients share the sandbox.
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg.anchors = new(anchors)
	sc, err := newScratch(cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer sc.remove()

	var problems []error
	if err := oracle(cfg); err != nil {
		problems = append(problems, err)
	}
	// Set-up is the fixture build, the server start and one warm-up pass,
	// each time in fresh state. A single one moved 12-31% between runs, so
	// it is done up to three times over, as long as one more fits in a
	// third of the measured time; the median is reported and the last kept.
	var scn scenario
	var warm passRec
	var setups []time.Duration
	for spent := time.Duration(0); ; {
		var st setupTimes
		if scn, st, err = w.build(cfg, sc); err != nil {
			return nil, fmt.Errorf("setting up %s: %w", cfg.workload, err)
		}
		if warm = scn.pass(0, nil); warm.err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", warm.err)
		}
		fmt.Fprintf(cfg.log, "set-up: fixture build %.3f s, server start %.3f s, warm-up pass %.3f s\n",
			st.build.Seconds(), st.serverStart.Seconds(), warm.wall.Seconds())
		setups = append(setups, st.build+st.serverStart+warm.wall)
		last := setups[len(setups)-1]
		spent += last
		if cfg.trace || len(setups) == 3 || (spent+last).Seconds() > cfg.seconds/3 {
			break
		}
		if err := scn.finish(); err != nil {
			problems = append(problems, err)
		}
	}
	setup := median(setups)
	passes := cfg.passes
	if passes == 0 && w.passes > 0 {
		// The pass count is fixed by -seconds, so heap and allocation
		// totals repeat; only a host so slow that the passes would take
		// half as long again makes fewer.
		passes = int(float64(w.passes)*cfg.seconds/20 + 0.5)
		passes = max(3, min(passes, int(1.5*cfg.seconds/warm.wall.Seconds())))
	}

	res := &result{Metrics: map[string]metric{}}
	emit := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				problems = append(problems, fmt.Errorf("metric %s was not measured", d.name))
			}
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
			fmt.Fprintf(cfg.log, "%-32s %14.4f %s\n", d.name, v, d.unit)
		}
	}

	var sum summary
	if !cfg.trace {
		runtime.GC()
		recs, err := measure(scn, passes, -1, nil)
		if len(recs) == 0 {
			return nil, errors.Join(errors.New("no complete pass was measured"), err)
		}
		if err != nil {
			problems = append(problems, err)
		}
		heap := heapAlloc()
		sum = summarize(recs, warm, scn.classOf)
		emit(endToEnd, map[string]float64{
			"setup_s":         setup.Seconds(),
			"alloc_kb_per_op": sum.allocPerOp / 1024,
			"heap_mb":         float64(heap) / (1 << 20),
		})
		for _, d := range timings { // for the reader: per-layer metrics are a traced run's result
			fmt.Fprintf(cfg.log, "%-32s %14.4f %s\n", d.name, sum.timings()[d.name], d.unit)
		}
		fmt.Fprintf(cfg.log, "%d passes of %d operations: %d latency samples; pass spread %.2f%%, undenoised p99 %.3f ms\n",
			len(recs), sum.ops, sum.samples, sum.spreadPct, ms(sum.rawP99))
	} else {
		out := layers{}
		sum, err = tracedRun(cfg, sc, scn, warm, out)
		if err != nil {
			problems = append(problems, err)
		}
		emit(perLayer, out)
	}

	fmt.Fprint(cfg.log, sum.classLines(scn.classes()))
	for _, win := range []struct{ q, half float64 }{{0.50, 0.05}, {0.95, 0.02}} {
		desc, straddles := sum.placement(win.q, win.half, scn.classes())
		fmt.Fprintf(cfg.log, "ranks p%.0f±%.0f%% are %s\n", win.q*100, win.half*100, desc)
		// Enforced on what is reported: a traced or shrunken run has too
		// few samples to place a percentile.
		if straddles && !cfg.trace && cfg.scale >= 1 {
			problems = append(problems, fmt.Errorf("p%.0f straddles two operation classes: its ranks are %s", win.q*100, desc))
		}
	}
	if err := scn.finish(); err != nil {
		problems = append(problems, err)
	}
	if sum.firstErr != nil {
		problems = append(problems, sum.firstErr)
	}
	res.Attempted = int64(sum.samples)
	res.Failed = sum.errs + sum.mismatch
	res.Correct = res.Failed == 0 && len(problems) == 0
	fmt.Fprintf(cfg.log, "attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, p := range problems {
		fmt.Fprintln(cfg.log, "WRONG:", p)
	}
	return res, nil
}

// tracedRun makes three plain passes and one traced pass, replays every
// tenth operation stage by stage, probes the layers in isolation, writes
// the span file and fills the per-layer metrics.
func tracedRun(cfg config, sc *scratch, scn scenario, warm passRec, out layers) (summary, error) {
	tr := newTracer()
	recs, err := measure(scn, 4, 3, tr)
	if len(recs) < 4 {
		return summary{}, errors.Join(err, fmt.Errorf("traced run made %d of 4 passes", len(recs)))
	}
	traced := recs[3]
	sum := summarize(recs[:3], warm, scn.classOf)
	out["harness.pass_spread_pct"] = sum.spreadPct
	out["harness.raw_p99_ms"] = ms(sum.rawP99)
	out["harness.trace_overhead_pct"] = 100 * (float64(traced.wall)/float64(sum.wall) - 1)
	for name, v := range sum.timings() {
		out[name] = v
	}
	var edges, paths, cached int64
	for _, lane := range traced.sigs {
		for _, s := range lane {
			edges, paths = edges+s.edges, paths+s.paths
			if s.cached {
				cached++
			}
		}
	}
	out["plan.edges_per_op"] = float64(edges) / float64(sum.ops)
	out["plan.paths_per_op"] = float64(paths) / float64(sum.ops)
	out["server.plan_cache_hit_rate"] = float64(cached) / float64(sum.ops)

	errs := []error{err}
	if err := replay(scn.replayOps(), tr, out); err != nil {
		errs = append(errs, err)
	}
	if srv := scn.main().srv; srv != nil { // always, once the replay has run
		adm := srv.Registry().Histogram("server.admission_wait_ms").Snapshot()
		out["server.admission_wait_mean_us"] = 1e3 * adm.Sum / float64(max(1, adm.Count))
	}

	var own *feedStats
	if f, ok := scn.(*feedMixed); ok {
		own = &f.feed.stats
	}
	if err := probes(cfg, sc, own, out); err != nil {
		errs = append(errs, err)
	}
	// A workload that writes reports its own log traffic, not the probe's.
	switch w := scn.(type) {
	case *ingestDurable:
		out["wal.fsyncs_per_mutation"] = float64(w.device.syncs) / float64(w.mutations)
		out["wal.bytes_per_mutation"] = float64(w.device.bytes) / float64(w.mutations)
	case *feedMixed:
		out["wal.fsyncs_per_mutation"] = float64(own.device.syncs) / float64(own.deviceWrites)
		out["wal.bytes_per_mutation"] = float64(own.device.bytes) / float64(own.deviceWrites)
	}

	spans := tr.snapshot()
	if err := checkSpans(spans); err != nil {
		errs = append(errs, err)
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	if err := writeSpans(path, spans); err != nil {
		errs = append(errs, err)
	}
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(cfg.log, "%d spans written to %s:", len(spans), path)
	for _, n := range names {
		fmt.Fprintf(cfg.log, " %s×%d", n, byName[n])
	}
	fmt.Fprintln(cfg.log)
	return sum, errors.Join(errs...)
}
