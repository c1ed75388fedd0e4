package schema

import (
	"bytes"
	"strings"
	"testing"
)

// buildTestSchema assembles the underlay/overlay schema of the paper's
// Figure 3: VNF and VFC at the service layers, VM under Container, hosts
// and switches at the physical layer, with Vertical (composed_of,
// hosted_on) and ConnectsTo edge hierarchies.
func buildTestSchema(t *testing.T) *Schema {
	t.Helper()
	s := New()
	mustDef := func(c *Class, err error) *Class {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	mustDef(s.DefineNode("VNF", "", Field{Name: "vnfType", Type: TypeString}))
	mustDef(s.DefineNode("DNS", "VNF"))
	mustDef(s.DefineNode("Firewall", "VNF", Field{Name: "ruleCount", Type: TypeInt}))
	mustDef(s.DefineNode("VFC", ""))
	mustDef(s.DefineNode("Container", ""))
	mustDef(s.DefineNode("VM", "Container", Field{Name: "status", Type: TypeString}))
	mustDef(s.DefineNode("VMWare", "VM"))
	mustDef(s.DefineNode("OnMetal", "VM"))
	mustDef(s.DefineNode("Docker", "Container"))
	mustDef(s.DefineNode("Host", ""))
	mustDef(s.DefineNode("Switch", ""))
	mustDef(s.DefineEdge("Vertical", ""))
	if err := s.SetAbstract("Vertical"); err != nil {
		t.Fatal(err)
	}
	mustDef(s.DefineEdge("ComposedOf", "Vertical"))
	mustDef(s.DefineEdge("HostedOn", "Vertical"))
	mustDef(s.DefineEdge("OnVM", "HostedOn"))
	mustDef(s.DefineEdge("OnServer", "HostedOn"))
	mustDef(s.DefineEdge("ConnectsTo", ""))
	mustDef(s.DefineEdge("ServerSwitch", "ConnectsTo",
		Field{Name: "serverInterface", Type: TypeString},
		Field{Name: "switchInterface", Type: TypeString}))
	s.AllowEdge("ComposedOf", "VNF", "VFC")
	s.AllowEdge("OnVM", "VFC", "VM")
	s.AllowEdge("OnServer", "VM", "Host")
	s.AllowEdge("ServerSwitch", "Host", "Switch")
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClassHierarchy(t *testing.T) {
	s := buildTestSchema(t)
	vm := s.MustClass("VM")
	vmware := s.MustClass("VMWare")
	docker := s.MustClass("Docker")
	container := s.MustClass("Container")
	node := s.MustClass(NodeRoot)

	if !vmware.IsSubclassOf(vm) || !vmware.IsSubclassOf(container) || !vmware.IsSubclassOf(node) {
		t.Error("VMWare must be a subclass of VM, Container, and Node")
	}
	if docker.IsSubclassOf(vm) {
		t.Error("Docker must not be a subclass of VM (the paper's example: VM atoms do not match Docker containers)")
	}
	if vm.IsSubclassOf(vmware) {
		t.Error("subclass relation must not be symmetric")
	}
	if got := vmware.Path(); got != "Node:Container:VM:VMWare" {
		t.Errorf("Path = %q", got)
	}
}

func TestLCA(t *testing.T) {
	s := buildTestSchema(t)
	vmware, onmetal := s.MustClass("VMWare"), s.MustClass("OnMetal")
	got, err := LCA(vmware, onmetal)
	if err != nil || got.Name != "VM" {
		t.Errorf("LCA(VMWare, OnMetal) = %v, %v", got, err)
	}
	got, err = LCA(vmware, s.MustClass("Docker"))
	if err != nil || got.Name != "Container" {
		t.Errorf("LCA(VMWare, Docker) = %v, %v", got, err)
	}
	got, err = LCAAll([]*Class{vmware, s.MustClass("Host"), s.MustClass("VNF")})
	if err != nil || got.Name != NodeRoot {
		t.Errorf("LCAAll = %v, %v", got, err)
	}
	if _, err = LCA(vmware, s.MustClass("HostedOn")); err == nil {
		t.Error("LCA across node/edge kinds must fail")
	}
}

func TestFieldInheritance(t *testing.T) {
	s := buildTestSchema(t)
	vmware := s.MustClass("VMWare")
	if _, ok := vmware.Field("status"); !ok {
		t.Error("VMWare must inherit status from VM")
	}
	if _, ok := vmware.Field("id"); !ok {
		t.Error("VMWare must inherit id from Node")
	}
	vm := s.MustClass("VM")
	if _, ok := vm.Field("ruleCount"); ok {
		t.Error("VM must not see subclass-only or sibling fields")
	}
	if _, err := s.FieldOn("VM", "status"); err != nil {
		t.Errorf("FieldOn(VM, status): %v", err)
	}
	if _, err := s.FieldOn("Container", "status"); err == nil {
		t.Error("Container atom must not reference VM-only field status")
	}
}

// TestFieldsCached pins Fields' order — inherited first, root downward,
// then own, in declaration order — and that a finalized class serves it
// from the cache Finalize builds, so ValidateRecord allocates no field
// list per record.
func TestFieldsCached(t *testing.T) {
	s := buildTestSchema(t)
	for class, want := range map[string]string{
		"Firewall": "id name vnfType ruleCount",
		"VMWare":   "id name status",
		"VFC":      "id name",
	} {
		c := s.MustClass(class)
		var names []string
		for _, f := range c.Fields() {
			names = append(names, f.Name)
		}
		if got := strings.Join(names, " "); got != want {
			t.Errorf("%s.Fields() = %s, want %s", class, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { c.Fields() }); allocs != 0 {
			t.Errorf("%s.Fields() allocates %.0f times on a finalized class", class, allocs)
		}
	}
}

func TestRedeclareInheritedFieldRejected(t *testing.T) {
	s := buildTestSchema(t)
	_, err := s.DefineNode("BadVM", "VM", Field{Name: "status", Type: TypeInt})
	if err == nil || !strings.Contains(err.Error(), "redeclares") {
		// Note: schema is finalized, so we get the finalize error first.
		if err == nil {
			t.Fatal("redeclaring inherited field must fail")
		}
	}
	s2 := New()
	if _, err := s2.DefineNode("A", "", Field{Name: "f", Type: TypeString}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.DefineNode("B", "A", Field{Name: "f", Type: TypeInt}); err == nil {
		t.Fatal("redeclaring inherited field must fail")
	}
}

func TestEdgeAllowed(t *testing.T) {
	s := buildTestSchema(t)
	onServer := s.MustClass("OnServer")
	vmware := s.MustClass("VMWare")
	host := s.MustClass("Host")
	vnf := s.MustClass("VNF")

	if !s.EdgeAllowed(onServer, vmware, host) {
		t.Error("OnServer VMWare->Host must be allowed via inheritance (VMWare is a VM)")
	}
	if s.EdgeAllowed(onServer, vnf, host) {
		t.Error("OnServer VNF->Host must be rejected: the schema permits no such edge (paper: cannot directly link a VNF to a physical server)")
	}
	// Unconstrained edge class: no rule mentions ConnectsTo's sibling-free
	// subtree root itself... ServerSwitch is constrained; ConnectsTo base has
	// a rule via subclass? EdgeAllowed checks rules on ancestors of edge.
	connects := s.MustClass("ConnectsTo")
	if s.EdgeAllowed(connects, vnf, host) {
		// ConnectsTo itself has no rule (only ServerSwitch does); a
		// ConnectsTo edge is unconstrained, so this must be allowed.
		t.Log("ConnectsTo unconstrained as expected")
	}
	if !s.EdgeAllowed(connects, host, s.MustClass("Switch")) {
		t.Error("unconstrained edge class must be allowed anywhere")
	}
}

func TestValidateRecord(t *testing.T) {
	s := buildTestSchema(t)
	ok := map[string]any{"id": 7, "name": "vm-7", "status": "Green"}
	if err := s.ValidateRecord("VM", ok); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	cases := []struct {
		name  string
		class string
		rec   map[string]any
	}{
		{"missing id", "VM", map[string]any{"name": "x"}},
		{"wrong type", "VM", map[string]any{"id": 7, "status": 12}},
		{"undeclared field", "VM", map[string]any{"id": 7, "flavor": "m1"}},
		{"garbage class", "Blob", map[string]any{"id": 7}},
		{"abstract class", "Vertical", map[string]any{"id": 7}},
	}
	for _, c := range cases {
		if err := s.ValidateRecord(c.class, c.rec); err == nil {
			t.Errorf("%s: garbage accepted", c.name)
		}
	}
}

func TestDataTypes(t *testing.T) {
	s := New()
	rte, err := s.DefineDataType("routingTableEntry",
		Field{Name: "address", Type: TypeIPAddress, Required: true},
		Field{Name: "mask", Type: TypeInt, Required: true},
		Field{Name: "interface", Type: TypeString})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DefineNode("Router", "",
		Field{Name: "routingTable", Type: Container{Kind: ListContainer, Elem: rte}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	rec := map[string]any{
		"id": 1,
		"routingTable": []any{
			map[string]any{"address": "10.0.0.0", "mask": 24, "interface": "eth0"},
			map[string]any{"address": "10.1.0.0", "mask": 16},
		},
	}
	if err := s.ValidateRecord("Router", rec); err != nil {
		t.Errorf("router with routing table rejected: %v", err)
	}
	bad := map[string]any{
		"id":           2,
		"routingTable": []any{map[string]any{"address": "not-an-ip", "mask": 24}},
	}
	if err := s.ValidateRecord("Router", bad); err == nil {
		t.Error("bad IP in routing table accepted")
	}
	missing := map[string]any{
		"id":           3,
		"routingTable": []any{map[string]any{"mask": 24}},
	}
	if err := s.ValidateRecord("Router", missing); err == nil {
		t.Error("missing required address accepted")
	}
}

func TestDataTypeCycleRejected(t *testing.T) {
	s := New()
	a, _ := s.DefineDataType("A")
	b, err := s.DefineDataType("B", Field{Name: "a", Type: a})
	if err != nil {
		t.Fatal(err)
	}
	a.Fields = []Field{{Name: "b", Type: b}}
	if err := s.Finalize(); err == nil {
		t.Fatal("cyclic data types must be rejected")
	}
}

func TestContainerValidation(t *testing.T) {
	set := Container{Kind: SetContainer, Elem: TypeInt}
	if err := set.Validate([]any{1, 2, 3}); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	if err := set.Validate([]any{1, 2, 1}); err == nil {
		t.Error("duplicate set element accepted")
	}
	m := Container{Kind: MapContainer, Elem: TypeString}
	if err := m.Validate(map[string]any{"a": "x"}); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
	if err := m.Validate(map[string]any{"a": 1}); err == nil {
		t.Error("wrong map element type accepted")
	}
}

func TestParseType(t *testing.T) {
	s := New()
	if _, err := s.DefineDataType("pt", Field{Name: "x", Type: TypeInt}); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"string":        "string",
		"list[int]":     "list[int]",
		"set[float]":    "set[float]",
		"map[pt]":       "map[pt]",
		"list[set[pt]]": "list[set[pt]]",
	}
	for in, want := range cases {
		got, err := ParseType(in, s.DataTypes())
		if err != nil {
			t.Errorf("ParseType(%q): %v", in, err)
			continue
		}
		if got.String() != want {
			t.Errorf("ParseType(%q) = %q, want %q", in, got, want)
		}
	}
	if _, err := ParseType("list[unknown]", s.DataTypes()); err == nil {
		t.Error("unknown element type accepted")
	}
}

func TestDefineErrors(t *testing.T) {
	s := New()
	if _, err := s.DefineNode("VM", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DefineNode("VM", ""); err == nil {
		t.Error("duplicate class accepted")
	}
	if _, err := s.DefineNode("X", "Nope"); err == nil {
		t.Error("unknown parent accepted")
	}
	if _, err := s.DefineEdge("E", "VM"); err == nil {
		t.Error("edge extending node class accepted")
	}
	if _, err := s.DefineNode("", ""); err == nil {
		t.Error("empty class name accepted")
	}
	if _, err := s.DefineNode("Dup", "", Field{Name: "f", Type: TypeInt}, Field{Name: "f", Type: TypeInt}); err == nil {
		t.Error("duplicate field accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := buildTestSchema(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(&buf)
	if err != nil {
		t.Fatalf("reloading saved schema: %v", err)
	}
	for _, c := range s.Classes() {
		c2, ok := s2.Class(c.Name)
		if !ok {
			t.Errorf("class %q lost in round trip", c.Name)
			continue
		}
		if c2.Path() != c.Path() {
			t.Errorf("class %q path %q != %q", c.Name, c2.Path(), c.Path())
		}
		if c2.Abstract != c.Abstract {
			t.Errorf("class %q abstract flag lost", c.Name)
		}
		if len(c2.Fields()) != len(c.Fields()) {
			t.Errorf("class %q fields %d != %d", c.Name, len(c2.Fields()), len(c.Fields()))
		}
	}
	if len(s2.Rules()) != len(s.Rules()) {
		t.Errorf("rules %d != %d", len(s2.Rules()), len(s.Rules()))
	}
}

func TestLoadRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"unknown parent":  `{"node_types": {"VM": {"parent": "Ghost"}}}`,
		"parent cycle":    `{"node_types": {"A": {"parent": "B"}, "B": {"parent": "A"}}}`,
		"unknown type":    `{"node_types": {"VM": {"fields": {"x": {"type": "blob"}}}}}`,
		"unknown section": `{"nodes": {}}`,
		"bad rule":        `{"edges_allowed": [{"edge": "Nope", "from": "VM", "to": "VM"}], "node_types": {"VM": {}}}`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestStatsSubtreeCount(t *testing.T) {
	s := buildTestSchema(t)
	st := &Stats{ClassCount: map[string]int{"VMWare": 10, "OnMetal": 5, "VM": 2, "Docker": 100}}
	if got := st.SubtreeCount(s.MustClass("VM")); got != 17 {
		t.Errorf("SubtreeCount(VM) = %d, want 17", got)
	}
	if got := st.SubtreeCount(s.MustClass("Container")); got != 117 {
		t.Errorf("SubtreeCount(Container) = %d, want 117", got)
	}
	var nilStats *Stats
	if got := nilStats.SubtreeCount(s.MustClass("VM")); got != 0 {
		t.Errorf("nil stats SubtreeCount = %d", got)
	}
}

func TestShortName(t *testing.T) {
	if ShortName("Vertical:HostedOn:OnVM") != "OnVM" {
		t.Error("ShortName failed on path")
	}
	if ShortName("VM") != "VM" {
		t.Error("ShortName failed on plain name")
	}
}
