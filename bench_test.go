package repro

// Benchmark harness: one testing.B benchmark per row of the paper's
// evaluation (Table 1, Table 2, and the §6 in-text experiments). Each
// benchmark iteration runs one query instance end to end — parse, check,
// plan, evaluate — matching the paper's "first query submitted to final
// paths table completed" measurement. cmd/nepalbench runs the same mixes
// through internal/bench and prints the paper-formatted tables.
//
// Fixture sizes: the virtualized service graph is full paper scale
// (~2k nodes / ~9k edges, 33 VNFs, 60-day history). The legacy topology
// is a laptop-scale fraction of the paper's 1.6M-node feed with the same
// shape; scale it up via cmd/nepalbench -services.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rpe"
	"repro/internal/workload"
)

const benchLegacyServices = 8000

var (
	serviceOnce    sync.Once
	serviceFixture *bench.ServiceFixture

	legacyOnce   sync.Once
	legacySingle *bench.LegacyFixture
	legacySubbed *bench.LegacyFixture
)

func serviceFx(b *testing.B) *bench.ServiceFixture {
	b.Helper()
	serviceOnce.Do(func() {
		f, err := bench.BuildServiceFixture()
		if err != nil {
			panic(err)
		}
		serviceFixture = f
	})
	return serviceFixture
}

func legacyFx(b *testing.B) (*bench.LegacyFixture, *bench.LegacyFixture) {
	b.Helper()
	legacyOnce.Do(func() {
		var err error
		legacySingle, err = bench.BuildLegacyFixture(benchLegacyServices, false)
		if err != nil {
			panic(err)
		}
		legacySubbed, err = bench.BuildLegacyFixture(benchLegacyServices, true)
		if err != nil {
			panic(err)
		}
	})
	return legacySingle, legacySubbed
}

// benchQueries runs one query per iteration, cycling through sampled
// instances, against snapshot or history views.
func benchQueries(b *testing.B, eng *plan.Engine, hist bool, f *bench.ServiceFixture, gen func(i int) string) {
	st := eng.Accessor().Store()
	view := graph.CurrentView(st)
	if hist {
		view = graph.PointView(st, f.HistAt)
	}
	// Pre-sample instances so generation cost stays out of the loop.
	instances := make([]string, 32)
	for i := range instances {
		instances[i] = gen(i)
	}
	// Warm lazily built backend indexes before timing.
	if _, _, err := bench.RunQuery(eng, view, instances[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	totalPaths := 0
	for i := 0; i < b.N; i++ {
		n, _, err := bench.RunQuery(eng, view, instances[i%len(instances)])
		if err != nil {
			b.Fatal(err)
		}
		totalPaths += n
	}
	b.ReportMetric(float64(totalPaths)/float64(b.N), "paths/query")
}

// ---- Table 1: virtualized service graph (paper §6, Table 1) ----

func benchTable1(b *testing.B, mix string, hist bool) {
	f := serviceFx(b)
	eng := f.Engine("relational")
	s := workload.NewServiceSampler(f.Store, f.Service, 1001)
	gens := map[string]func(i int) string{
		"topdown":   s.TopDown,
		"bottomup":  func(int) string { return s.BottomUp() },
		"vmvm":      func(int) string { return s.VMVM() },
		"hosthost4": func(int) string { return s.HostHost(4) },
		"hosthost6": func(int) string { return s.HostHost(6) },
	}
	benchQueries(b, eng, hist, f, gens[mix])
}

func BenchmarkTable1_TopDown_Snapshot(b *testing.B)  { benchTable1(b, "topdown", false) }
func BenchmarkTable1_TopDown_History(b *testing.B)   { benchTable1(b, "topdown", true) }
func BenchmarkTable1_BottomUp_Snapshot(b *testing.B) { benchTable1(b, "bottomup", false) }
func BenchmarkTable1_BottomUp_History(b *testing.B)  { benchTable1(b, "bottomup", true) }
func BenchmarkTable1_VMVM4_Snapshot(b *testing.B)    { benchTable1(b, "vmvm", false) }
func BenchmarkTable1_VMVM4_History(b *testing.B)     { benchTable1(b, "vmvm", true) }
func BenchmarkTable1_HostHost4_Snapshot(b *testing.B) {
	benchTable1(b, "hosthost4", false)
}
func BenchmarkTable1_HostHost4_History(b *testing.B) { benchTable1(b, "hosthost4", true) }
func BenchmarkTable1_HostHost6_Snapshot(b *testing.B) {
	benchTable1(b, "hosthost6", false)
}
func BenchmarkTable1_HostHost6_History(b *testing.B) { benchTable1(b, "hosthost6", true) }

// Backend comparison on the Table 1 top-down mix (the retargetable
// architecture: same query, both backends).
func BenchmarkTable1_TopDown_GremlinBackend(b *testing.B) {
	f := serviceFx(b)
	eng := f.Engine("gremlin")
	s := workload.NewServiceSampler(f.Store, f.Service, 1001)
	benchQueries(b, eng, false, f, s.TopDown)
}

// ---- Table 2: legacy topology (paper §6, Table 2) ----

func benchTable2(b *testing.B, mix string, hist bool) {
	single, _ := legacyFx(b)
	eng := single.Engine("relational")
	s := workload.NewLegacySampler(single.Legacy, 2002)
	gens := map[string]func(i int) string{
		"servicepath": func(int) string { return s.ServicePath() },
		"reversepath": func(int) string { return s.ReversePath() },
		"topdown":     func(int) string { return s.TopDown() },
		"bottomup":    func(int) string { return s.BottomUp() },
	}
	st := eng.Accessor().Store()
	view := graph.CurrentView(st)
	if hist {
		view = graph.PointView(st, single.HistAt)
	}
	instances := make([]string, 16)
	for i := range instances {
		instances[i] = gens[mix](i)
	}
	if _, _, err := bench.RunQuery(eng, view, instances[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	totalPaths := 0
	for i := 0; i < b.N; i++ {
		n, _, err := bench.RunQuery(eng, view, instances[i%len(instances)])
		if err != nil {
			b.Fatal(err)
		}
		totalPaths += n
	}
	b.ReportMetric(float64(totalPaths)/float64(b.N), "paths/query")
}

func BenchmarkTable2_ServicePath_Snapshot(b *testing.B) { benchTable2(b, "servicepath", false) }
func BenchmarkTable2_ServicePath_History(b *testing.B)  { benchTable2(b, "servicepath", true) }
func BenchmarkTable2_ReversePath_Snapshot(b *testing.B) { benchTable2(b, "reversepath", false) }
func BenchmarkTable2_ReversePath_History(b *testing.B)  { benchTable2(b, "reversepath", true) }
func BenchmarkTable2_TopDown_Snapshot(b *testing.B)     { benchTable2(b, "topdown", false) }
func BenchmarkTable2_TopDown_History(b *testing.B)      { benchTable2(b, "topdown", true) }
func BenchmarkTable2_BottomUp_Snapshot(b *testing.B)    { benchTable2(b, "bottomup", false) }
func BenchmarkTable2_BottomUp_History(b *testing.B)     { benchTable2(b, "bottomup", true) }

// ---- §6 ablation: 66 edge subclasses vs a single edge class ----

func benchAblation(b *testing.B, subclassed bool, mix string) {
	single, subbed := legacyFx(b)
	f := single
	if subclassed {
		f = subbed
	}
	eng := f.Engine("relational")
	s := workload.NewLegacySampler(f.Legacy, 3003)
	gen := func(int) string { return s.BottomUp() }
	if mix == "reverse" {
		gen = func(int) string { return s.ReversePath() }
	}
	st := eng.Accessor().Store()
	view := graph.CurrentView(st)
	instances := make([]string, 16)
	for i := range instances {
		instances[i] = gen(i)
	}
	if _, _, err := bench.RunQuery(eng, view, instances[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.RunQuery(eng, view, instances[i%len(instances)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEdgeSubclassing_BottomUp_SingleClass(b *testing.B) {
	benchAblation(b, false, "bottomup")
}
func BenchmarkAblationEdgeSubclassing_BottomUp_Subclassed(b *testing.B) {
	benchAblation(b, true, "bottomup")
}
func BenchmarkAblationEdgeSubclassing_ReversePath_SingleClass(b *testing.B) {
	benchAblation(b, false, "reverse")
}
func BenchmarkAblationEdgeSubclassing_ReversePath_Subclassed(b *testing.B) {
	benchAblation(b, true, "reverse")
}

// ---- Observability overhead: uninstrumented vs metered vs traced ----

// BenchmarkObsOverhead compares the evaluation cost of the three
// instrumentation levels on the Table 1 top-down mix, with parsing and
// planning hoisted out of the loop so only the search pipeline is timed:
//
//	Baseline — EvalMetered, no registry attached (the default DB.Query
//	           path when Instrument was never called)
//	Metered  — a registry attached, so every evaluation also updates the
//	           engine counters/histogram
//	Traced   — EvalWith{Traced}, building the full operator-DAG span tree
//
// The acceptance bar is Metered ≤ 1.05× Baseline (instrumentation off the
// per-edge hot path: one branch per probe plus per-eval counter updates);
// Traced is expected to cost more and is reported for scale.
func BenchmarkObsOverhead(b *testing.B) {
	f := serviceFx(b)
	s := workload.NewServiceSampler(f.Store, f.Service, 4004)
	view := graph.CurrentView(f.Store)
	plans := make([]*plan.Plan, 16)
	for i := range plans {
		c, err := rpe.CheckString(s.TopDown(i), f.Store.Schema())
		if err != nil {
			b.Fatal(err)
		}
		if plans[i], err = plan.Build(c, f.Store.Stats()); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B, eng *plan.Engine, eval func(*plan.Plan) error) {
		if err := eval(plans[0]); err != nil { // warm backend indexes
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eval(plans[i%len(plans)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Baseline", func(b *testing.B) {
		eng := f.Engine("relational")
		run(b, eng, func(p *plan.Plan) error {
			_, _, err := eng.EvalMetered(view, p)
			return err
		})
	})
	b.Run("Metered", func(b *testing.B) {
		eng := f.Engine("relational")
		eng.SetRegistry(obs.NewRegistry())
		run(b, eng, func(p *plan.Plan) error {
			_, _, err := eng.EvalMetered(view, p)
			return err
		})
	})
	b.Run("Traced", func(b *testing.B) {
		eng := f.Engine("relational")
		run(b, eng, func(p *plan.Plan) error {
			_, _, _, err := eng.EvalWith(view, p, plan.EvalOpts{Traced: true})
			return err
		})
	})
}

// ---- Governance overhead: ungoverned vs governed evaluation ----

// BenchmarkGovernanceOverhead compares the Table 1 top-down mix with the
// query-governance layer off and on:
//
//	Ungoverned — EvalMetered; the governor is nil and every checkpoint is a
//	             single nil check (the default path when no context
//	             deadline and no Limits are set)
//	Governed   — EvalWith under a cancellable context and generous Limits,
//	             so every checkpoint, edge charge, and path charge runs
//	             for real but nothing trips
//
// The acceptance bar is Ungoverned within noise of the pre-governance
// baseline (the nil fast path adds no measurable cost to the hot loops);
// Governed is expected to cost a few percent and is reported for scale.
func BenchmarkGovernanceOverhead(b *testing.B) {
	f := serviceFx(b)
	s := workload.NewServiceSampler(f.Store, f.Service, 4004)
	view := graph.CurrentView(f.Store)
	plans := make([]*plan.Plan, 16)
	for i := range plans {
		c, err := rpe.CheckString(s.TopDown(i), f.Store.Schema())
		if err != nil {
			b.Fatal(err)
		}
		if plans[i], err = plan.Build(c, f.Store.Stats()); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B, eng *plan.Engine, eval func(*plan.Plan) error) {
		if err := eval(plans[0]); err != nil { // warm backend indexes
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eval(plans[i%len(plans)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Ungoverned", func(b *testing.B) {
		eng := f.Engine("relational")
		run(b, eng, func(p *plan.Plan) error {
			_, _, err := eng.EvalMetered(view, p)
			return err
		})
	})
	b.Run("Governed", func(b *testing.B) {
		eng := f.Engine("relational")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		lim := plan.Limits{MaxPaths: 1 << 30, MaxEdgesScanned: 1 << 30, MaxDuration: time.Hour}
		run(b, eng, func(p *plan.Plan) error {
			_, _, _, err := eng.EvalWith(view, p, plan.EvalOpts{Gov: plan.NewGovernor(ctx, lim)})
			return err
		})
	})
}

// ---- §6 storage: history overhead vs naive snapshot copies ----

func BenchmarkHistoryOverhead(b *testing.B) {
	f := serviceFx(b)
	single, _ := legacyFx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = workload.HistoryOverhead(f.Store)
		_ = workload.HistoryOverhead(single.Store)
	}
	b.ReportMetric(workload.HistoryOverhead(f.Store)*100, "virt-overhead-%")
	b.ReportMetric(workload.HistoryOverhead(single.Store)*100, "legacy-overhead-%")
	b.ReportMetric(workload.NaiveCopyOverhead(60)*100, "naive-60-copies-%")
}

// TestHistoryOverheadShape asserts the §6 storage claim as a test: the
// temporal store's 60-day history costs a few percent, versus ~5,900% for
// 60 independent copies.
func TestHistoryOverheadShape(t *testing.T) {
	f, err := bench.BuildServiceFixture()
	if err != nil {
		t.Fatal(err)
	}
	virt := workload.HistoryOverhead(f.Store)
	if virt <= 0 || virt > 0.25 {
		t.Errorf("virtualized service history overhead = %.1f%%, want a few percent (paper: 6%%)", virt*100)
	}
	lf, err := bench.BuildLegacyFixture(2000, false)
	if err != nil {
		t.Fatal(err)
	}
	legacy := workload.HistoryOverhead(lf.Store)
	if legacy <= virt/2 || legacy > 0.40 {
		t.Errorf("legacy history overhead = %.1f%%, want ~16%%", legacy*100)
	}
	if naive := workload.NaiveCopyOverhead(60); naive < 50 {
		t.Errorf("naive copies overhead = %.0f%%, want ~5900%%", naive*100)
	}
	t.Logf("history overhead: virt %.1f%% (paper 6%%), legacy %.1f%% (paper 16%%), naive 60 copies %.0f%%",
		virt*100, legacy*100, workload.NaiveCopyOverhead(60)*100)
}
