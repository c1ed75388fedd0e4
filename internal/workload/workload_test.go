package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/relational"
	"repro/internal/rpe"
	"repro/internal/temporal"
)

var t0 = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

func buildServiceGraph(t *testing.T, cfg ServiceConfig) (*graph.Store, *Service, *temporal.Clock) {
	t.Helper()
	clock := temporal.NewManualClock(t0)
	st := graph.NewStore(netmodel.MustSchema(), clock, nil)
	svc, err := BuildService(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, svc, clock
}

func smallServiceConfig() ServiceConfig {
	cfg := DefaultServiceConfig()
	cfg.VNFs = 8
	cfg.VFCsPerVNF = 6
	cfg.Hosts = 40
	cfg.TORs = 8
	cfg.Spines = 3
	cfg.VNets = 10
	cfg.VRouters = 4
	cfg.IdleVMs = 6
	return cfg
}

func TestServiceGraphScale(t *testing.T) {
	st, svc, _ := buildServiceGraph(t, DefaultServiceConfig())
	live, _ := st.Counts()
	nodes := len(svc.VNFs) + len(svc.VFCs) + len(svc.VMs) + len(svc.Hosts) +
		len(svc.Switches) + len(svc.VNets) + len(svc.VRouters)
	edges := live - nodes
	t.Logf("virtualized service: %d nodes, %d edges, %d VNFs", nodes, edges, len(svc.VNFs))
	// Paper scale: ~2,000 nodes and ~11,000 edges, 33 distinct VNFs.
	if nodes < 1200 || nodes > 3000 {
		t.Errorf("nodes = %d, want ~2000", nodes)
	}
	if edges < 6000 || edges > 16000 {
		t.Errorf("edges = %d, want ~11000", edges)
	}
	if len(svc.VNFs) != 33 {
		t.Errorf("VNFs = %d, want 33", len(svc.VNFs))
	}
}

func TestServiceGraphDeterministic(t *testing.T) {
	st1, _, _ := buildServiceGraph(t, smallServiceConfig())
	st2, _, _ := buildServiceGraph(t, smallServiceConfig())
	l1, v1 := st1.Counts()
	l2, v2 := st2.Counts()
	if l1 != l2 || v1 != v2 {
		t.Errorf("generator not deterministic: (%d,%d) vs (%d,%d)", l1, v1, l2, v2)
	}
}

func TestServiceSamplersReturnPaths(t *testing.T) {
	st, svc, _ := buildServiceGraph(t, smallServiceConfig())
	eng := plan.NewEngine(gremlin.New(st))
	sampler := NewServiceSampler(st, svc, 42)
	view := graph.CurrentView(st)

	run := func(src string) int {
		t.Helper()
		c, err := rpe.CheckString(src, st.Schema())
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		p, err := plan.Build(c, st.Stats())
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		set, _, err := eng.EvalMetered(view, p)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return set.Len()
	}

	for i := 0; i < 5; i++ {
		if n := run(sampler.TopDown(i)); n == 0 {
			t.Errorf("top-down instance %d returned no paths", i)
		}
		if n := run(sampler.BottomUp()); n == 0 {
			t.Errorf("bottom-up instance %d returned no paths", i)
		}
		if n := run(sampler.VMVM()); n == 0 {
			t.Errorf("vm-vm instance %d returned no paths", i)
		}
		if n := run(sampler.HostHost(4)); n == 0 {
			t.Errorf("host-host instance %d returned no paths", i)
		}
	}
	// Host-Host(6) explores strictly more paths than Host-Host(4) between
	// the same endpoints — Table 1's scaling probe.
	s2 := NewServiceSampler(st, svc, 7)
	q4 := s2.HostHost(4)
	s3 := NewServiceSampler(st, svc, 7)
	q6 := s3.HostHost(6)
	if run(q6) <= run(q4) {
		t.Errorf("Host-Host(6) (%d paths) must exceed Host-Host(4) (%d paths)", run(q6), run(q4))
	}
}

func TestServiceChurnHistoryOverhead(t *testing.T) {
	st, svc, clock := buildServiceGraph(t, DefaultServiceConfig())
	if err := ApplyServiceChurn(st, svc, clock, DefaultServiceChurn()); err != nil {
		t.Fatal(err)
	}
	overhead := HistoryOverhead(st)
	t.Logf("virtualized service 60-day history overhead: %.1f%% (paper: 6%%)", overhead*100)
	if overhead <= 0.01 || overhead > 0.30 {
		t.Errorf("overhead = %.3f, want a few percent", overhead)
	}
	if naive := NaiveCopyOverhead(60); naive != 59 {
		t.Errorf("naive copy overhead = %v", naive)
	}
	// History remains consistent: queries at load time still see the
	// original placements.
	eng := plan.NewEngine(gremlin.New(st))
	c, err := rpe.CheckString("VM()->OnServer()->Host()", st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(c, st.Stats())
	if err != nil {
		t.Fatal(err)
	}
	past, _, err := eng.EvalMetered(graph.PointView(st, t0.Add(time.Minute)), p)
	if err != nil {
		t.Fatal(err)
	}
	if past.Len() != len(svc.VMs) {
		t.Errorf("placements at load time = %d, want %d", past.Len(), len(svc.VMs))
	}
}

func legacyStore(t *testing.T, cfg LegacyConfig) (*graph.Store, *Legacy, *temporal.Clock) {
	t.Helper()
	sch, err := LegacySchema(cfg.Subclassed)
	if err != nil {
		t.Fatal(err)
	}
	clock := temporal.NewManualClock(t0)
	st := graph.NewStore(sch, clock, nil)
	l, err := BuildLegacy(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, l, clock
}

func smallLegacyConfig(subclassed bool) LegacyConfig {
	return LegacyConfig{Seed: 7, Services: 600, Subclassed: subclassed,
		TelemetryPerHeavyRack: 150, NoiseEdges: 300}
}

func TestLegacySchemaModes(t *testing.T) {
	single, err := LegacySchema(false)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(single.EdgeClasses()); got != 2 { // Edge root + LegacyLink
		t.Errorf("single-class edge classes = %d", got)
	}
	sub, err := LegacySchema(true)
	if err != nil {
		t.Fatal(err)
	}
	// Edge root + LegacyLink + 2 abstract parents + 66 indicator classes.
	if got := len(sub.EdgeClasses()); got != 2+2+NumTypeIndicators {
		t.Errorf("subclassed edge classes = %d, want %d", got, 2+2+NumTypeIndicators)
	}
	// Vertical indicators descend from LegacyVertical.
	va := sub.MustClass(EdgeClassOf(TIAssign))
	if !va.IsSubclassOf(sub.MustClass(LegacyVertical)) {
		t.Error("L_assign must descend from LegacyVertical")
	}
	tc := sub.MustClass(EdgeClassOf(TITrunkConn))
	if !tc.IsSubclassOf(sub.MustClass(LegacyConn)) {
		t.Error("L_trunkconn must descend from LegacyConn")
	}
}

func TestLegacyQueriesBothModes(t *testing.T) {
	for _, subclassed := range []bool{false, true} {
		st, l, _ := legacyStore(t, smallLegacyConfig(subclassed))
		eng := plan.NewEngine(relational.New(st))
		sampler := NewLegacySampler(l, 3)
		view := graph.CurrentView(st)

		counts := map[string]int{}
		for name, gen := range map[string]func() string{
			"service path": sampler.ServicePath,
			"reverse path": sampler.ReversePath,
			"top-down":     sampler.TopDown,
			"bottom-up":    sampler.BottomUp,
		} {
			src := gen()
			c, err := rpe.CheckString(src, st.Schema())
			if err != nil {
				t.Fatalf("mode=%v %s: %v", subclassed, name, err)
			}
			p, err := plan.Build(c, st.Stats())
			if err != nil {
				t.Fatalf("mode=%v %s: %v", subclassed, name, err)
			}
			set, _, err := eng.EvalMetered(view, p)
			if err != nil {
				t.Fatalf("mode=%v %s: %v", subclassed, name, err)
			}
			counts[name] = set.Len()
			if set.Len() == 0 {
				t.Errorf("mode=%v %s returned no paths (%s)", subclassed, name, src)
			}
		}
		t.Logf("subclassed=%v counts=%v", subclassed, counts)
		// Shape: the reverse mining query dwarfs the forwards service path.
		if counts["reverse path"] <= counts["service path"] {
			t.Errorf("mode=%v: reverse path (%d) must exceed service path (%d)",
				subclassed, counts["reverse path"], counts["service path"])
		}
	}
}

// TestLegacyModesAgree is the ablation's correctness precondition: both
// load modes must return identical path structures for equivalent queries.
func TestLegacyModesAgree(t *testing.T) {
	stS, lS, _ := legacyStore(t, smallLegacyConfig(false))
	stC, lC, _ := legacyStore(t, smallLegacyConfig(true))
	engS := plan.NewEngine(relational.New(stS))
	engC := plan.NewEngine(relational.New(stC))

	// The same rack index exists in both deterministic builds.
	for i := 0; i < len(lS.Racks); i++ {
		sS := NewLegacySampler(lS, 9)
		sC := NewLegacySampler(lC, 9)
		qS := sS.BottomUpAt(lS.Racks[i])
		qC := sC.BottomUpAt(lC.Racks[i])

		run := func(st *graph.Store, eng *plan.Engine, src string) int {
			c, err := rpe.CheckString(src, st.Schema())
			if err != nil {
				t.Fatal(err)
			}
			p, err := plan.Build(c, st.Stats())
			if err != nil {
				t.Fatal(err)
			}
			set, _, err := eng.EvalMetered(graph.CurrentView(st), p)
			if err != nil {
				t.Fatal(err)
			}
			return set.Len()
		}
		nS := run(stS, engS, qS)
		nC := run(stC, engC, qC)
		if nS != nC {
			t.Errorf("rack %d: single-class returns %d paths, subclassed %d", i, nS, nC)
		}
	}
}

func TestLegacyChurnOverhead(t *testing.T) {
	st, l, clock := legacyStore(t, smallLegacyConfig(false))
	if err := ApplyLegacyChurn(st, l, clock, DefaultLegacyChurn(l)); err != nil {
		t.Fatal(err)
	}
	overhead := HistoryOverhead(st)
	t.Logf("legacy 60-day history overhead: %.1f%% (paper: 16%%)", overhead*100)
	if overhead < 0.05 || overhead > 0.40 {
		t.Errorf("overhead = %.3f, want ~16%%", overhead)
	}
}

func TestTypeIndicatorsCount(t *testing.T) {
	tis := TypeIndicators()
	if len(tis) != NumTypeIndicators {
		t.Fatalf("indicators = %d, want %d", len(tis), NumTypeIndicators)
	}
	seen := map[string]bool{}
	for _, ti := range tis {
		if seen[ti] {
			t.Errorf("duplicate indicator %q", ti)
		}
		seen[ti] = true
	}
}

// TestChurnHistoryDigest pins the churned fixtures byte for byte: the
// SHA-256 of WriteHistory over the small service and legacy fixtures,
// each with a few days of churn. The churn reads each element's current
// row; a change in how it reads must leave every version it writes as
// it was.
func TestChurnHistoryDigest(t *testing.T) {
	digest := func(st *graph.Store) string {
		h := sha256.New()
		if err := st.WriteHistory(h); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}

	st, svc, clock := buildServiceGraph(t, smallServiceConfig())
	churn := DefaultServiceChurn()
	churn.Days = 5
	if err := ApplyServiceChurn(st, svc, clock, churn); err != nil {
		t.Fatal(err)
	}
	if got, want := digest(st), "5c5882ffa28b10188622075e8cb7b1d4a3871b987079c49f91d8bfd193ebfd5f"; got != want {
		t.Errorf("service fixture history digest = %s, want %s", got, want)
	}

	st, l, clock := legacyStore(t, smallLegacyConfig(false))
	churn = DefaultLegacyChurn(l)
	churn.Days = 5
	if err := ApplyLegacyChurn(st, l, clock, churn); err != nil {
		t.Fatal(err)
	}
	if got, want := digest(st), "061272835b89ee16b06fb633ca891380d500ec381f2bf62042e3eba67e58fd6f"; got != want {
		t.Errorf("legacy fixture history digest = %s, want %s", got, want)
	}
}
