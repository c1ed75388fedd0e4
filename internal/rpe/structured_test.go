package rpe

import (
	"testing"

	"repro/internal/netmodel"
)

// Tests for query access to structured data: dotted predicate paths into
// composite data types and containers (§3.2.1's routing tables), an
// extension the paper's implementation listed as under development.

func routerFields(routes ...map[string]any) map[string]any {
	items := make([]any, len(routes))
	for i, r := range routes {
		items[i] = r
	}
	return map[string]any{"status": "Active", "routingTable": items}
}

func TestStructuredPathPredicates(t *testing.T) {
	vrouter := testSchema.MustClass(netmodel.VirtualRouter)
	fields := routerFields(
		map[string]any{"address": "10.0.0.0", "mask": int64(24), "interface": "ge-0/0/1"},
		map[string]any{"address": "10.1.0.0", "mask": int64(16), "interface": "ge-0/0/2"},
	)

	cases := []struct {
		src  string
		want bool
	}{
		// Existential semantics: any routing-table entry may satisfy.
		{"VirtualRouter(routingTable.address='10.0.0.0')", true},
		{"VirtualRouter(routingTable.address='10.1.0.0')", true},
		{"VirtualRouter(routingTable.address='10.9.9.9')", false},
		{"VirtualRouter(routingTable.mask=24)", true},
		{"VirtualRouter(routingTable.mask<20)", true},
		{"VirtualRouter(routingTable.mask>24)", false},
		{"VirtualRouter(routingTable.interface=~'ge-*')", true},
		{"VirtualRouter(routingTable.address IN ('10.1.0.0', '10.2.0.0'))", true},
		// Combined with plain predicates.
		{"VirtualRouter(status='Active', routingTable.mask=16)", true},
		{"VirtualRouter(status='Down', routingTable.mask=16)", false},
	}
	for _, c := range cases {
		checked, err := CheckString(c.src, testSchema)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		got := checked.Satisfies(checked.Atoms()[0], vrouter, vrouter.NewRecord(fields, nil))
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestStructuredPathTypeChecking(t *testing.T) {
	bad := []struct{ name, src string }{
		{"unknown subfield", "VirtualRouter(routingTable.nexthop='x')"},
		{"descend into primitive", "VirtualRouter(status.x='y')"},
		{"ill-typed leaf value", "VirtualRouter(routingTable.mask='not-an-int')"},
		{"unknown top field", "VirtualRouter(routes.address='10.0.0.0')"},
	}
	for _, c := range bad {
		if _, err := CheckString(c.src, testSchema); err == nil {
			t.Errorf("%s (%s): accepted", c.name, c.src)
		}
	}
}

func TestStructuredPathOnEmptyOrMissing(t *testing.T) {
	c, err := CheckString("VirtualRouter(routingTable.address='10.0.0.0')", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	vrouter := testSchema.MustClass(netmodel.VirtualRouter)
	atom := c.Atoms()[0]
	if c.Satisfies(atom, vrouter, vrouter.NewRecord(map[string]any{"status": "Active"}, nil)) {
		t.Error("missing container satisfied predicate")
	}
	if c.Satisfies(atom, vrouter, vrouter.NewRecord(routerFields(), nil)) {
		t.Error("empty container satisfied predicate")
	}
}

func TestStructuredPathParsePrint(t *testing.T) {
	e := MustParse("VirtualRouter(routingTable.address='10.0.0.0')")
	printed := e.String()
	if printed != "VirtualRouter(routingTable.address='10.0.0.0')" {
		t.Errorf("printed = %q", printed)
	}
	if _, err := Parse(printed); err != nil {
		t.Errorf("reparse: %v", err)
	}
}
