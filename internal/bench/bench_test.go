package bench

import (
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rpe"
	"repro/internal/workload"
)

// Tests here assert the *shape* of the paper's evaluation results on
// CI-scale fixtures: who wins, in which direction, and by roughly what
// kind of factor — not absolute times (our substrate is an embedded
// engine, not the authors' testbed). cmd/nepalbench prints the full
// side-by-side tables.

const testLegacyServices = 3000

func TestTable1Shape(t *testing.T) {
	f, err := BuildServiceFixture()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table1(f, "relational", 12)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Type] = r
		t.Logf("%-14s paths=%6.1f snap=%-12v hist=%-12v (paper: %6.1f, %v, %v)",
			r.Type, r.AvgPaths, r.Snap, r.Hist, r.PaperPaths, r.PaperSnap, r.PaperHist)
	}

	// Path-count shape (Table 1): top-down ~20, bottom-up ~2, VM-VM and
	// Host-Host(6) in the hundreds-ish regime, Host-Host(6) >> Host-Host(4).
	if r := byName["Top-down"]; r.AvgPaths < 5 || r.AvgPaths > 80 {
		t.Errorf("top-down avg paths = %.1f, paper 19.5", r.AvgPaths)
	}
	if r := byName["Bottom-up"]; r.AvgPaths < 1 || r.AvgPaths > 15 {
		t.Errorf("bottom-up avg paths = %.1f, paper 2.3", r.AvgPaths)
	}
	if byName["Host-Host (6)"].AvgPaths < 4*byName["Host-Host (4)"].AvgPaths {
		t.Errorf("Host-Host(6) paths (%.1f) must dwarf Host-Host(4) (%.1f)",
			byName["Host-Host (6)"].AvgPaths, byName["Host-Host (4)"].AvgPaths)
	}
	// Time shape: Host-Host(6) is by far the slowest (the paper's scaling
	// probe: 0.67s vs <0.2s for everything else).
	for _, other := range []string{"Top-down", "Bottom-up", "Host-Host (4)"} {
		if byName["Host-Host (6)"].Snap < 2*byName[other].Snap {
			t.Errorf("Host-Host(6) (%v) must clearly exceed %s (%v)",
				byName["Host-Host (6)"].Snap, other, byName[other].Snap)
		}
	}
	// History queries are only moderately slower than snapshot queries
	// (paper: e.g. .058 -> .073). Allow generous headroom for CI jitter.
	for name, r := range byName {
		if r.Hist > 5*r.Snap+2*time.Millisecond {
			t.Errorf("%s: history time %v >> snapshot %v; paper shows moderate slowdown", name, r.Hist, r.Snap)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	f, err := BuildLegacyFixture(testLegacyServices, false)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table2(f, "relational", 10)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Type] = r
		t.Logf("%-13s paths=%9.1f edges=%9.1f snap=%-12v hist=%-12v (paper: %9.1f, %v, %v)",
			r.Type, r.AvgPaths, r.AvgEdgesScanned, r.Snap, r.Hist, r.PaperPaths, r.PaperSnap, r.PaperHist)
	}
	for _, msg := range table2Shape(byName) {
		t.Error(msg)
	}
	// The check has teeth: with the reverse mix replaced by the service
	// mix, "reverse dwarfs service" must fail.
	swapped := maps.Clone(byName)
	swapped["Reverse path"] = byName["Service path"]
	if len(table2Shape(swapped)) == 0 {
		t.Error("the Table 2 shape check passes with the reverse mix replaced by the service mix")
	}
}

// table2Shape checks Table 2's shape on what the program counts exactly —
// paths returned and edges scanned per instance — and returns one message
// per violation. Wall times are only logged: a 10-query mean of
// sub-millisecond queries is at the mercy of whatever else the host runs.
func table2Shape(byName map[string]Row) []string {
	var bad []string
	rev, svc := byName["Reverse path"], byName["Service path"]
	// The reverse mining query returns orders of magnitude more paths and
	// scans orders of magnitude more edges than the forwards service path.
	if rev.AvgPaths < 20*svc.AvgPaths {
		bad = append(bad, fmt.Sprintf("reverse path count (%.0f) must dwarf service path (%.0f)", rev.AvgPaths, svc.AvgPaths))
	}
	if rev.AvgEdgesScanned < 10*svc.AvgEdgesScanned {
		bad = append(bad, fmt.Sprintf("reverse path edges scanned (%.0f) must dwarf service path (%.0f)",
			rev.AvgEdgesScanned, svc.AvgEdgesScanned))
	}
	// Top-down is interactive and lighter than bottom-up on the
	// single-class load (paper: 0.029s vs 0.672s).
	td, bu := byName["Top-down"], byName["Bottom-up"]
	if bu.AvgPaths <= td.AvgPaths || bu.AvgEdgesScanned <= td.AvgEdgesScanned {
		bad = append(bad, fmt.Sprintf("bottom-up (%.1f paths, %.0f edges scanned) must be heavier than top-down (%.1f, %.0f) on the single-class load",
			bu.AvgPaths, bu.AvgEdgesScanned, td.AvgPaths, td.AvgEdgesScanned))
	}
	return bad
}

func TestAblationShape(t *testing.T) {
	single, err := BuildLegacyFixture(testLegacyServices, false)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := BuildLegacyFixture(testLegacyServices, true)
	if err != nil {
		t.Fatal(err)
	}

	// Per-rack comparison: heavy racks (bulk telemetry fan-in) are the
	// paper's slow tail on the single-class load; the subclassed reload
	// eliminates the tail entirely.
	heavyTimes := func(f *LegacyFixture) (heavy, light time.Duration) {
		eng := f.Engine("relational")
		view := graph.CurrentView(f.Store)
		s := workload.NewLegacySampler(f.Legacy, 1)
		if _, _, _, err := RunQuery(eng, view, s.BottomUp()); err != nil {
			t.Fatal(err)
		}
		heavySet := map[graph.UID]bool{}
		for _, r := range f.Legacy.HeavyRacks {
			heavySet[r] = true
		}
		var hN, lN int
		for i, rack := range f.Legacy.Racks {
			if i >= 30 {
				break
			}
			// Best of three: the few heavy racks are averaged, and one
			// collector cycle or scheduling stall in a sub-millisecond
			// query would otherwise stand for the whole class.
			var d time.Duration
			for k := 0; k < 3; k++ {
				_, dk, _, err := RunQuery(eng, view, s.BottomUpAt(rack))
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 || dk < d {
					d = dk
				}
			}
			if heavySet[rack] {
				heavy += d
				hN++
			} else {
				light += d
				lN++
			}
		}
		return heavy / time.Duration(hN), light / time.Duration(lN)
	}
	sHeavy, sLight := heavyTimes(single)
	cHeavy, cLight := heavyTimes(sub)
	t.Logf("bottom-up single-class: heavy=%v light=%v; subclassed: heavy=%v light=%v",
		sHeavy, sLight, cHeavy, cLight)

	if sHeavy < 2*sLight {
		t.Errorf("single-class heavy racks (%v) must show the slow tail over light racks (%v)", sHeavy, sLight)
	}
	if cHeavy > 2*cLight+time.Millisecond {
		t.Errorf("subclassed load must flatten the tail: heavy %v vs light %v", cHeavy, cLight)
	}
	if float64(sHeavy) < 1.5*float64(cHeavy) {
		t.Errorf("subclassing must make heavy-rack bottom-up clearly faster: %v -> %v", sHeavy, cHeavy)
	}

	// The packaged ablation mix reports the same direction.
	rows, err := Ablation(single, sub, "relational", 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-13s single=%v subclassed=%v (paper: %v -> %v)",
			r.Type, r.SingleClass, r.Subclassed, r.PaperSingle, r.PaperSubclassed)
		if r.SingleClassPaths != r.SubclassedPaths {
			t.Errorf("%s: load modes disagree on results: %.1f vs %.1f paths",
				r.Type, r.SingleClassPaths, r.SubclassedPaths)
		}
	}
	// The mix's wall-time delta is asserted only at heavy-rack granularity
	// above (and deterministically via scan volume in
	// TestAblationScanVolume): with few instances on a CI-scale fixture the
	// random rack sample may miss the heavy racks entirely, and light racks
	// are a wash.
}

// TestHistoryOverheadExperiment asserts the §6 storage claim: the
// temporal store's 60-day history costs a few percent (paper: 6% and
// 16%), versus ~5,900% for 60 independent copies.
func TestHistoryOverheadExperiment(t *testing.T) {
	svc, err := BuildServiceFixture()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := BuildLegacyFixture(testLegacyServices, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := HistoryOverheads(svc, legacy)
	for _, r := range rows {
		t.Logf("%s: measured %.1f%% (paper %.0f%%), naive 60 copies: %.0f%%",
			r.Dataset, r.Overhead*100, r.PaperOverhead*100, r.NaiveCopies*100)
		if r.Overhead <= 0 || r.Overhead > 3*r.PaperOverhead {
			t.Errorf("%s overhead %.3f out of band (paper %.2f)", r.Dataset, r.Overhead, r.PaperOverhead)
		}
		if r.NaiveCopies < 50 {
			t.Errorf("naive copy overhead %.0f%%, want ~5900%%", r.NaiveCopies*100)
		}
	}
	// The legacy feed churns more than the service graph (paper: 16% vs
	// 6%) but stays far below its 60-copy alternative.
	virt, leg := rows[0].Overhead, rows[1].Overhead
	if leg <= virt/2 || leg > 0.40 {
		t.Errorf("legacy history overhead = %.1f%% (virtualized %.1f%%), want ~16%%", leg*100, virt*100)
	}
}

func TestBackendsAgreeOnTable1Mix(t *testing.T) {
	f, err := BuildServiceFixture()
	if err != nil {
		t.Fatal(err)
	}
	// The retargetable architecture: both backends must return identical
	// path counts for the same instances.
	s1 := workload.NewServiceSampler(f.Store, f.Service, 77)
	s2 := workload.NewServiceSampler(f.Store, f.Service, 77)
	grem := f.Engine("gremlin")
	rel := f.Engine("relational")
	view := graph.CurrentView(f.Store)
	for i := 0; i < 8; i++ {
		q1, q2 := s1.TopDown(i), s2.TopDown(i)
		if q1 != q2 {
			t.Fatal("samplers diverged")
		}
		n1, _, _, err := RunQuery(grem, view, q1)
		if err != nil {
			t.Fatal(err)
		}
		n2, _, _, err := RunQuery(rel, view, q2)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 {
			t.Errorf("instance %d: gremlin %d paths, relational %d", i, n1, n2)
		}
	}
}

// TestAblationScanVolume asserts the ablation's mechanism deterministically
// via engine metrics rather than wall time: on the single-class load a
// bottom-up query at a heavy rack scans its full telemetry fan-in, while
// the subclassed load's per-class index probes return only the vertical
// edges — the "automatic elimination of many useless edges from the
// navigation joins".
func TestAblationScanVolume(t *testing.T) {
	single, err := BuildLegacyFixture(testLegacyServices, false)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := BuildLegacyFixture(testLegacyServices, true)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(f *LegacyFixture, rackIdx int) plan.Metrics {
		eng := f.Engine("relational")
		view := graph.CurrentView(f.Store)
		s := workload.NewLegacySampler(f.Legacy, 1)
		src := s.BottomUpAt(f.Legacy.HeavyRacks[rackIdx])
		_, _, m, err := RunQuery(eng, view, src)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	mSingle := scan(single, 0)
	mSub := scan(sub, 0)
	t.Logf("single-class: %s", mSingle)
	t.Logf("subclassed:   %s", mSub)

	if mSingle.PathsEmitted != mSub.PathsEmitted {
		t.Fatalf("load modes disagree: %d vs %d paths", mSingle.PathsEmitted, mSub.PathsEmitted)
	}
	// The heavy rack carries TelemetryPerHeavyRack irrelevant in-edges; the
	// single-class scan must read them all, the subclassed probe none.
	if mSingle.EdgesScanned < mSub.EdgesScanned*10 {
		t.Errorf("single-class must scan >=10x the edges: %d vs %d",
			mSingle.EdgesScanned, mSub.EdgesScanned)
	}
	if mSingle.ElementsRejected < 1000 {
		t.Errorf("single-class heavy rack must reject its telemetry fan-in (rejected=%d)",
			mSingle.ElementsRejected)
	}
}

// TestAblationTraceCounters re-asserts the §6 scan-volume collapse from
// the operator-DAG trace itself: the Extend spans' edges_scanned counters
// (not wall time, not the aggregate Metrics) must show the single-class
// load reading >=10x the edges of the subclassed load, and the rendered
// EXPLAIN ANALYZE must surface the numbers.
func TestAblationTraceCounters(t *testing.T) {
	single, err := BuildLegacyFixture(testLegacyServices, false)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := BuildLegacyFixture(testLegacyServices, true)
	if err != nil {
		t.Fatal(err)
	}
	trace := func(f *LegacyFixture) (int64, string) {
		eng := f.Engine("relational")
		view := graph.CurrentView(f.Store)
		s := workload.NewLegacySampler(f.Legacy, 1)
		src := s.BottomUpAt(f.Legacy.HeavyRacks[0])
		c, err := rpe.CheckString(src, f.Store.Schema())
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Build(c, f.Store.Stats())
		if err != nil {
			t.Fatal(err)
		}
		_, _, span, err := eng.EvalWith(view, p, plan.EvalOpts{Traced: true})
		if err != nil {
			t.Fatal(err)
		}
		var edges int64
		span.Walk(func(s *obs.Span) {
			if s.Name() == "Extend" {
				edges += s.Counter("edges_scanned")
			}
		})
		return edges, p.ExplainAnalyze(span)
	}
	eSingle, explSingle := trace(single)
	eSub, explSub := trace(sub)
	t.Logf("trace edges_scanned: single-class=%d subclassed=%d", eSingle, eSub)
	t.Logf("single-class EXPLAIN ANALYZE:\n%s", explSingle)
	t.Logf("subclassed EXPLAIN ANALYZE:\n%s", explSub)

	if eSub <= 0 {
		t.Fatal("subclassed trace recorded no Extend scans")
	}
	if eSingle < 10*eSub {
		t.Errorf("trace counters must show the >=10x scan collapse: %d vs %d", eSingle, eSub)
	}
	for _, expl := range []string{explSingle, explSub} {
		if !strings.Contains(expl, "edges_scanned=") || !strings.Contains(expl, "time=") {
			t.Errorf("EXPLAIN ANALYZE missing measurements:\n%s", expl)
		}
	}
}
