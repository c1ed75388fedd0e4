// Package bench is the harness behind cmd/nepalbench and this package's
// Test*Shape reproductions: it builds the evaluation fixtures
// (virtualized service graph with 60-day history; legacy topology in
// single-class and subclassed loads) and runs the query mixes of the
// paper's Table 1, Table 2, and §6 in-text experiments, reporting the
// same columns the paper reports — average path count, snapshot time,
// history time.
package bench

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/relational"
	"repro/internal/rpe"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// LoadTime is the fixed transaction time fixtures are loaded at; the
// "snapshot" measurements run at current time (after 60 days of churn)
// and the "history" measurements run at a point in the middle of the
// history.
var LoadTime = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

// Row is one benchmark table row: the measured counterpart of the paper's
// (Type, #paths, Time snap, Time hist) columns, plus the scan volume
// averaged over the snapshot runs.
type Row struct {
	Type      string
	Instances int
	AvgPaths  float64
	Snap      time.Duration
	Hist      time.Duration
	// Paper columns for side-by-side reporting (zero when the paper gives
	// no figure for the cell).
	PaperPaths float64
	PaperSnap  time.Duration
	PaperHist  time.Duration
	// SlowSamples counts instances slower than 4x the median — the
	// bottom-up tail statistic of §6.
	SlowSamples int
	// AvgEdgesScanned averages the Extend read volume per instance — the
	// scan-volume counterpart of the timing columns, independent of
	// machine speed.
	AvgEdgesScanned float64
}

// ServiceFixture is the Table 1 dataset: the virtualized service graph
// with a two-month churn history.
type ServiceFixture struct {
	Store   *graph.Store
	Service *workload.Service
	// HistAt is the mid-history instant history-mode queries run at.
	HistAt time.Time
}

// BuildServiceFixture constructs the Table 1 dataset deterministically.
func BuildServiceFixture() (*ServiceFixture, error) {
	clock := temporal.NewManualClock(LoadTime)
	st := graph.NewStore(netmodel.MustSchema(), clock)
	svc, err := workload.BuildService(st, workload.DefaultServiceConfig())
	if err != nil {
		return nil, err
	}
	if err := workload.ApplyServiceChurn(st, svc, clock, workload.DefaultServiceChurn()); err != nil {
		return nil, err
	}
	return &ServiceFixture{
		Store:   st,
		Service: svc,
		HistAt:  LoadTime.Add(30 * 24 * time.Hour),
	}, nil
}

// Engine builds a fresh engine of the named backend over the fixture.
func (f *ServiceFixture) Engine(backend string) *plan.Engine {
	return engineFor(f.Store, backend)
}

func engineFor(st *graph.Store, backend string) *plan.Engine {
	if backend == "relational" {
		return plan.NewEngine(relational.New(st))
	}
	return plan.NewEngine(gremlin.New(st))
}

// RunQuery plans and evaluates one RPE instance, returning the path count,
// the elapsed time — measured, like the paper, "from when the first query
// was submitted to when the final paths table is completed" — and the
// evaluation's operator-pipeline counters.
func RunQuery(eng *plan.Engine, view graph.View, src string) (int, time.Duration, plan.Metrics, error) {
	st := eng.Accessor().Store()
	start := time.Now()
	c, err := rpe.CheckString(src, st.Schema())
	if err != nil {
		return 0, 0, plan.Metrics{}, err
	}
	p, err := plan.Build(c, st.Stats())
	if err != nil {
		return 0, 0, plan.Metrics{}, err
	}
	set, m, err := eng.EvalMetered(view, p)
	if err != nil {
		return 0, 0, m, err
	}
	return set.Len(), time.Since(start), m, nil
}

// runMix runs n instances from gen in both snapshot and history views and
// aggregates a Row.
func runMix(eng *plan.Engine, histAt time.Time, name string, n int, gen func(i int) string) (Row, error) {
	st := eng.Accessor().Store()
	// Warm the backend: derived indexes (the relational per-class hash
	// indexes) build lazily on first access and must not be billed to the
	// first instance.
	if _, _, _, err := RunQuery(eng, graph.CurrentView(st), gen(0)); err != nil {
		return Row{}, err
	}
	row := Row{Type: name, Instances: n}
	var totalPaths, totalEdges int
	var snapTotal, histTotal time.Duration
	var times []time.Duration
	for i := 0; i < n; i++ {
		src := gen(i)
		paths, d, m, err := RunQuery(eng, graph.CurrentView(st), src)
		if err != nil {
			return row, fmt.Errorf("bench: %s instance %d: %w", name, i, err)
		}
		totalPaths += paths
		totalEdges += m.EdgesScanned
		snapTotal += d
		times = append(times, d)
		_, dh, _, err := RunQuery(eng, graph.PointView(st, histAt), src)
		if err != nil {
			return row, fmt.Errorf("bench: %s instance %d (hist): %w", name, i, err)
		}
		histTotal += dh
	}
	row.AvgPaths = float64(totalPaths) / float64(n)
	row.AvgEdgesScanned = float64(totalEdges) / float64(n)
	row.Snap = snapTotal / time.Duration(n)
	row.Hist = histTotal / time.Duration(n)
	med := median(times)
	for _, d := range times {
		if d > 4*med {
			row.SlowSamples++
		}
	}
	return row, nil
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return sorted[len(sorted)/2]
}

// Table1 runs the five Table 1 query mixes on the fixture. Instance
// counts follow the paper: 33 top-down (one per distinct VNF), 50 for the
// rest; smaller values may be passed for quick runs.
func Table1(f *ServiceFixture, backend string, instances int) ([]Row, error) {
	eng := f.Engine(backend)
	sampler := workload.NewServiceSampler(f.Store, f.Service, 1001)
	topDownN := min(instances, 33)
	specs := []struct {
		name       string
		n          int
		gen        func(i int) string
		paperPaths float64
		paperSnap  time.Duration
		paperHist  time.Duration
	}{
		{"Top-down", topDownN, sampler.TopDown, 19.5, 58 * time.Millisecond, 73 * time.Millisecond},
		{"Bottom-up", instances, func(int) string { return sampler.BottomUp() }, 2.3, 61 * time.Millisecond, 72 * time.Millisecond},
		{"VM-VM (4)", instances, func(int) string { return sampler.VMVM() }, 215.9, 184 * time.Millisecond, 206 * time.Millisecond},
		{"Host-Host (4)", instances, func(int) string { return sampler.HostHost(4) }, 18.5, 67 * time.Millisecond, 81 * time.Millisecond},
		{"Host-Host (6)", instances, func(int) string { return sampler.HostHost(6) }, 561.7, 670 * time.Millisecond, 680 * time.Millisecond},
	}
	var rows []Row
	for _, s := range specs {
		row, err := runMix(eng, f.HistAt, s.name, s.n, s.gen)
		if err != nil {
			return nil, err
		}
		row.PaperPaths, row.PaperSnap, row.PaperHist = s.paperPaths, s.paperSnap, s.paperHist
		rows = append(rows, row)
	}
	return rows, nil
}

// LegacyFixture is the Table 2 / ablation dataset in one load mode.
type LegacyFixture struct {
	Store  *graph.Store
	Legacy *workload.Legacy
	HistAt time.Time
}

// BuildLegacyFixture constructs the legacy dataset. services scales the
// graph (the paper's feed corresponds to ~1.2M; benchmarks default to a
// laptop-scale fraction with the same shape).
func BuildLegacyFixture(services int, subclassed bool) (*LegacyFixture, error) {
	cfg := workload.DefaultLegacyConfig()
	cfg.Services = services
	cfg.Subclassed = subclassed
	sch, err := workload.LegacySchema(subclassed)
	if err != nil {
		return nil, err
	}
	clock := temporal.NewManualClock(LoadTime)
	st := graph.NewStore(sch, clock)
	l, err := workload.BuildLegacy(st, cfg)
	if err != nil {
		return nil, err
	}
	if err := workload.ApplyLegacyChurn(st, l, clock, workload.DefaultLegacyChurn(l)); err != nil {
		return nil, err
	}
	return &LegacyFixture{Store: st, Legacy: l, HistAt: LoadTime.Add(30 * 24 * time.Hour)}, nil
}

// Engine builds a fresh engine of the named backend over the fixture.
func (f *LegacyFixture) Engine(backend string) *plan.Engine {
	return engineFor(f.Store, backend)
}

// Table2 runs the four Table 2 query mixes. The reverse-path mining query
// runs fewer instances (it is orders of magnitude heavier, 9.8s each in
// the paper).
func Table2(f *LegacyFixture, backend string, instances int) ([]Row, error) {
	eng := f.Engine(backend)
	sampler := workload.NewLegacySampler(f.Legacy, 2002)
	reverseN := max(instances/5, 1)
	specs := []struct {
		name       string
		n          int
		gen        func(i int) string
		paperPaths float64
		paperSnap  time.Duration
		paperHist  time.Duration
	}{
		{"Service path", instances, func(int) string { return sampler.ServicePath() }, 32.9, 38 * time.Millisecond, 40 * time.Millisecond},
		{"Reverse path", reverseN, func(int) string { return sampler.ReversePath() }, 391000, 9844 * time.Millisecond, 9520 * time.Millisecond},
		{"Top-down", instances, func(int) string { return sampler.TopDown() }, 4.4, 29 * time.Millisecond, 39 * time.Millisecond},
		{"Bottom-up", instances, func(int) string { return sampler.BottomUp() }, 73.18, 672 * time.Millisecond, 772 * time.Millisecond},
	}
	var rows []Row
	for _, s := range specs {
		row, err := runMix(eng, f.HistAt, s.name, s.n, s.gen)
		if err != nil {
			return nil, err
		}
		row.PaperPaths, row.PaperSnap, row.PaperHist = s.paperPaths, s.paperSnap, s.paperHist
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationRow compares one query mix across the two load modes. The
// EdgesScanned columns carry the experiment's causal evidence: timing can
// vary with machine and load, but the scan-volume collapse from full
// telemetry fan-in to per-class index probes is deterministic.
type AblationRow struct {
	Type             string
	SingleClass      time.Duration
	Subclassed       time.Duration
	PaperSingle      time.Duration
	PaperSubclassed  time.Duration
	SingleClassPaths float64
	SubclassedPaths  float64
	SingleClassEdges float64
	SubclassedEdges  float64
}

// Ablation reproduces the §6 edge-subclassing experiment: the two slowest
// legacy queries re-run after reloading the graph with 66 edge subclasses.
// Paper: reverse path 9.844s -> 8.390s (modest), bottom-up 0.672s ->
// 0.049s (interactive).
func Ablation(single, sub *LegacyFixture, backend string, instances int) ([]AblationRow, error) {
	mixes := []struct {
		name        string
		n           int
		gen         func(s *workload.LegacySampler) func(int) string
		paperSingle time.Duration
		paperSub    time.Duration
	}{
		{"Reverse path", max(instances/5, 1),
			func(s *workload.LegacySampler) func(int) string {
				return func(int) string { return s.ReversePath() }
			}, 9844 * time.Millisecond, 8390 * time.Millisecond},
		{"Bottom-up", instances,
			func(s *workload.LegacySampler) func(int) string {
				return func(int) string { return s.BottomUp() }
			}, 672 * time.Millisecond, 49 * time.Millisecond},
	}
	var out []AblationRow
	for _, m := range mixes {
		rowS, err := runMix(single.Engine(backend), single.HistAt, m.name, m.n,
			m.gen(workload.NewLegacySampler(single.Legacy, 3003)))
		if err != nil {
			return nil, err
		}
		rowC, err := runMix(sub.Engine(backend), sub.HistAt, m.name, m.n,
			m.gen(workload.NewLegacySampler(sub.Legacy, 3003)))
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Type:             m.name,
			SingleClass:      rowS.Snap,
			Subclassed:       rowC.Snap,
			PaperSingle:      m.paperSingle,
			PaperSubclassed:  m.paperSub,
			SingleClassPaths: rowS.AvgPaths,
			SubclassedPaths:  rowC.AvgPaths,
			SingleClassEdges: rowS.AvgEdgesScanned,
			SubclassedEdges:  rowC.AvgEdgesScanned,
		})
	}
	return out, nil
}

// OverheadResult reports the §6 storage experiment.
type OverheadResult struct {
	Dataset       string
	Overhead      float64 // measured: (versions-live)/live over 60 days
	PaperOverhead float64
	NaiveCopies   float64 // the conventional 60-copy alternative
}

// HistoryOverheads measures storage overhead on both fixtures.
func HistoryOverheads(svc *ServiceFixture, legacy *LegacyFixture) []OverheadResult {
	return []OverheadResult{
		{Dataset: "virtualized service", Overhead: workload.HistoryOverhead(svc.Store),
			PaperOverhead: 0.06, NaiveCopies: workload.NaiveCopyOverhead(60)},
		{Dataset: "legacy topology", Overhead: workload.HistoryOverhead(legacy.Store),
			PaperOverhead: 0.16, NaiveCopies: workload.NaiveCopyOverhead(60)},
	}
}
