package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/schema"
)

// Legacy type indicators. The paper's legacy feed tags every edge with one
// of 66 type_indicator values; a handful structure the topology and the
// rest are noise classes (telemetry, management, and miscellaneous links
// that are irrelevant to the service-path and vertical queries).
const (
	TIServiceConn = "svcconn"    // service -> access port (horizontal)
	TIAccessConn  = "accessconn" // access port -> trunk (horizontal)
	TITrunkConn   = "trunkconn"  // trunk -> trunk mesh (horizontal)
	TIAssign      = "assign"     // service -> access port (vertical)
	TIPortEquip   = "portequip"  // access port -> equipment (vertical)
	TIEquipRack   = "equiprack"  // equipment -> rack (vertical)
	TITelemetry   = "telemetry"  // monitor -> rack (bulk, irrelevant)
)

// structuralIndicators participate in the benchmark queries.
var structuralIndicators = []string{
	TIServiceConn, TIAccessConn, TITrunkConn, TIAssign, TIPortEquip, TIEquipRack, TITelemetry,
}

// NumTypeIndicators is the total number of edge type_indicator values,
// matching the paper's 66 subclasses.
const NumTypeIndicators = 66

// TypeIndicators returns all 66 indicator values: the structural ones
// plus misc noise classes.
func TypeIndicators() []string {
	out := append([]string{}, structuralIndicators...)
	for i := len(out); i < NumTypeIndicators; i++ {
		out = append(out, fmt.Sprintf("misc%02d", i))
	}
	return out
}

// EdgeClassOf maps a type indicator to its subclass name in the
// subclassed schema ("svcconn" -> "L_svcconn").
func EdgeClassOf(indicator string) string { return "L_" + indicator }

// Legacy node and edge class names.
const (
	LegacyNode     = "LegacyNode"
	LegacyLink     = "LegacyLink"
	LegacyVertical = "LegacyVertical" // abstract parent of the vertical subclasses
	LegacyConn     = "LegacyConn"     // abstract parent of the horizontal subclasses
)

// LegacySchema builds the legacy topology schema. With subclassed false
// it matches the initial load of §6: one node class and one edge class,
// the class borne by the edge only as the type_indicator field. With
// subclassed true it adds one edge subclass per type_indicator value (66
// classes), the reload whose effect the ablation measures; structural
// horizontal indicators subclass LegacyConn and vertical ones
// LegacyVertical, so queries can traverse them polymorphically.
func LegacySchema(subclassed bool) (*schema.Schema, error) {
	s := schema.New()
	if _, err := s.DefineNode(LegacyNode, "",
		schema.Field{Name: "type_indicator", Type: schema.TypeString},
		schema.Field{Name: "status", Type: schema.TypeString},
	); err != nil {
		return nil, err
	}
	if _, err := s.DefineEdge(LegacyLink, "",
		schema.Field{Name: "type_indicator", Type: schema.TypeString},
	); err != nil {
		return nil, err
	}
	if subclassed {
		if _, err := s.DefineEdge(LegacyConn, LegacyLink); err != nil {
			return nil, err
		}
		if _, err := s.DefineEdge(LegacyVertical, LegacyLink); err != nil {
			return nil, err
		}
		for _, abstract := range []string{LegacyConn, LegacyVertical} {
			if err := s.SetAbstract(abstract); err != nil {
				return nil, err
			}
		}
		for _, ti := range TypeIndicators() {
			parent := LegacyLink
			switch ti {
			case TIServiceConn, TIAccessConn, TITrunkConn:
				parent = LegacyConn
			case TIAssign, TIPortEquip, TIEquipRack:
				parent = LegacyVertical
			}
			if _, err := s.DefineEdge(EdgeClassOf(ti), parent); err != nil {
				return nil, err
			}
		}
	}
	if err := s.Finalize(); err != nil {
		return nil, err
	}
	return s, nil
}

// LegacyConfig sizes the legacy topology. The graph scales linearly with
// Services; the paper's feed had 1.6M nodes and 7.1M edges, which
// corresponds to Services ≈ 1,200,000 here — benchmark defaults use a
// laptop-scale fraction with the same shape (see DESIGN.md).
type LegacyConfig struct {
	Seed     int64
	Services int
	// Subclassed selects the 66-subclass load; the generator stores each
	// edge under its type's subclass instead of LegacyLink.
	Subclassed bool
	// TelemetryPerHeavyRack controls the irrelevant fan-in on heavy racks —
	// the cause of the paper's slow bottom-up tail (2–4s on 16 of 50
	// samples).
	TelemetryPerHeavyRack int
	// NoiseEdges adds miscellaneous edges with random misc type
	// indicators, giving all 66 classes population.
	NoiseEdges int
}

// DefaultLegacyConfig returns a CI-scale configuration. Telemetry and
// noise volumes scale with Services when left zero (see BuildLegacy).
func DefaultLegacyConfig() LegacyConfig {
	return LegacyConfig{Seed: 7, Services: 2500}
}

// Legacy holds the generated topology's handles for query sampling.
type Legacy struct {
	Config   LegacyConfig
	Services []graph.UID
	Access   []graph.UID
	Trunks   []graph.UID
	Equip    []graph.UID
	Racks    []graph.UID
	Monitors []graph.UID
	// HeavyRacks are the racks carrying bulk telemetry fan-in.
	HeavyRacks []graph.UID
	store      *graph.Store
}

// IDOf returns the id field of a generated node.
func (l *Legacy) IDOf(uid graph.UID) int64 {
	return l.store.Elem(uid).Versions[0].Rec[schema.IDSlot].(int64)
}

// BuildLegacy populates st (whose schema must come from LegacySchema with
// the matching subclassed flag) with the legacy topology.
func BuildLegacy(st *graph.Store, cfg LegacyConfig) (*Legacy, error) {
	if cfg.TelemetryPerHeavyRack == 0 {
		cfg.TelemetryPerHeavyRack = cfg.Services // fan-in >> relevant paths
	}
	if cfg.NoiseEdges == 0 {
		cfg.NoiseEdges = 2 * cfg.Services
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	l := &Legacy{Config: cfg, store: st}
	nextID := int64(0)
	id := func() int64 { nextID++; return nextID }

	node := func(ti string) (graph.UID, error) {
		return st.InsertNode(LegacyNode, graph.Fields{
			"id": id(), "name": fmt.Sprintf("%s-%d", ti, nextID), "type_indicator": ti, "status": "up",
		})
	}
	edge := func(ti string, src, dst graph.UID) error {
		class := LegacyLink
		if cfg.Subclassed {
			class = EdgeClassOf(ti)
		}
		_, err := st.InsertEdge(class, src, dst, graph.Fields{"id": id(), "type_indicator": ti})
		return err
	}

	// Tier sizing targets the paper's bottom-up fan-in profile: ~70
	// relevant vertical paths per rack against orders-of-magnitude more
	// irrelevant telemetry fan-in on heavy racks.
	nServices := cfg.Services
	nAccess := max(nServices/3, 2)
	nTrunks := max(nServices/100, 3)
	nEquip := max(nServices/25, 2)
	nRacks := max(nServices/50, 3)
	nMonitors := max(nServices/10, 2)

	build := func(n int, ti string, out *[]graph.UID) error {
		for i := 0; i < n; i++ {
			uid, err := node(ti)
			if err != nil {
				return err
			}
			*out = append(*out, uid)
		}
		return nil
	}
	if err := build(nRacks, "rack", &l.Racks); err != nil {
		return nil, err
	}
	if err := build(nEquip, "equip", &l.Equip); err != nil {
		return nil, err
	}
	if err := build(nTrunks, "trunk", &l.Trunks); err != nil {
		return nil, err
	}
	if err := build(nAccess, "access", &l.Access); err != nil {
		return nil, err
	}
	if err := build(nServices, "service", &l.Services); err != nil {
		return nil, err
	}
	if err := build(nMonitors, "monitor", &l.Monitors); err != nil {
		return nil, err
	}

	// Vertical hierarchy: equipment in racks, access ports on equipment,
	// services assigned to access ports.
	for i, e := range l.Equip {
		if err := edge(TIEquipRack, e, l.Racks[i%nRacks]); err != nil {
			return nil, err
		}
	}
	for i, a := range l.Access {
		if err := edge(TIPortEquip, a, l.Equip[i%nEquip]); err != nil {
			return nil, err
		}
	}
	for i, s := range l.Services {
		a := l.Access[i%nAccess]
		if err := edge(TIAssign, s, a); err != nil {
			return nil, err
		}
		// Horizontal: the same service also *connects* through its port.
		if err := edge(TIServiceConn, s, a); err != nil {
			return nil, err
		}
	}
	// Access ports uplink to one or two trunks; trunks mesh sparsely.
	for i, a := range l.Access {
		if err := edge(TIAccessConn, a, l.Trunks[i%nTrunks]); err != nil {
			return nil, err
		}
		if rng.Intn(2) == 0 {
			if err := edge(TIAccessConn, a, l.Trunks[(i+1)%nTrunks]); err != nil {
				return nil, err
			}
		}
	}
	for i, t := range l.Trunks {
		for k := 1; k <= 4; k++ {
			if err := edge(TITrunkConn, t, l.Trunks[(i+k*7+1)%nTrunks]); err != nil {
				return nil, err
			}
		}
	}

	// A third of the racks are "heavy": they receive bulk telemetry edges
	// from the monitor population — the irrelevant fan-in behind the slow
	// bottom-up samples.
	for i, r := range l.Racks {
		if i%3 != 0 {
			continue
		}
		l.HeavyRacks = append(l.HeavyRacks, r)
		for k := 0; k < cfg.TelemetryPerHeavyRack; k++ {
			if err := edge(TITelemetry, l.Monitors[rng.Intn(nMonitors)], r); err != nil {
				return nil, err
			}
		}
	}

	// Noise edges populate the misc classes. Three quarters of them
	// terminate at trunks and access ports, so the horizontal queries also
	// meet some irrelevant fan-in — enough that subclassing buys the
	// reverse-path query a modest improvement, though (as in the paper)
	// its fanout is mostly relevant, so the improvement stays limited.
	all := [][]graph.UID{l.Services, l.Access, l.Trunks, l.Equip, l.Monitors}
	horizontal := [][]graph.UID{l.Trunks, l.Access}
	indicators := TypeIndicators()
	for k := 0; k < cfg.NoiseEdges; k++ {
		ti := indicators[len(structuralIndicators)+rng.Intn(NumTypeIndicators-len(structuralIndicators))]
		srcPool := all[rng.Intn(len(all))]
		dstPool := all[rng.Intn(len(all))]
		if k%4 != 3 {
			dstPool = horizontal[rng.Intn(len(horizontal))]
		}
		src := srcPool[rng.Intn(len(srcPool))]
		dst := dstPool[rng.Intn(len(dstPool))]
		if src == dst {
			continue
		}
		if err := edge(ti, src, dst); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// VerticalRPE returns the vertical-chain fragment appropriate to the
// load mode: a type_indicator disjunction on the single class, or the
// LegacyVertical abstract class whose per-table indexes prune the scan.
func (cfg LegacyConfig) VerticalRPE() string {
	if cfg.Subclassed {
		return "LegacyVertical()"
	}
	return fmt.Sprintf("LegacyLink(type_indicator IN ('%s', '%s', '%s'))", TIAssign, TIPortEquip, TIEquipRack)
}

// ConnRPE returns the horizontal-chain fragment for the load mode.
func (cfg LegacyConfig) ConnRPE() string {
	if cfg.Subclassed {
		return "LegacyConn()"
	}
	return fmt.Sprintf("LegacyLink(type_indicator IN ('%s', '%s', '%s'))", TIServiceConn, TIAccessConn, TITrunkConn)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
