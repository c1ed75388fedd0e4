package rpe

import (
	"fmt"
	"testing"
)

// TestGoalAtoms pins which halves the goal analysis aims and at what:
// only a half every feasible last consumption of which is a node atom
// pinned by a unique field (= or IN), whatever sits at the other end.
func TestGoalAtoms(t *testing.T) {
	for _, tc := range []struct {
		src               string
		forward, backward string // goal atoms, rendered; "" = not aimed
		edges             string // edge atoms the breadth-first search may follow
		anyEdge           bool
	}{
		{"Host(id=1)->[PhysicalLink()]{1,6}->Host(id=2)", "[Host(id=2)]", "[Host(id=1)]", "[PhysicalLink()]", false},
		{"VNF()->[Vertical()]{1,6}->Host(id=2)", "[Host(id=2)]", "", "[Vertical()]", false},
		{"VNF(id=1)->[Vertical()]{1,6}->Host()", "", "[VNF(id=1)]", "[Vertical()]", false},
		{"Host(id IN (1, 2))->[PhysicalLink()]{1,3}->(Host(id=3)|Switch(id=4))", "[Host(id=3) Switch(id=4)]", "[Host(id IN (1, 2))]", "[PhysicalLink()]", false},
		{"Host(id=1)->[PhysicalLink()]{1,3}->(Host(id=3)|Switch())", "", "[Host(id=1)]", "[PhysicalLink()]", false},
		{"Host(id=1)->Switch()->Host(id=2)", "[Host(id=2)]", "[Host(id=1)]", "", true},
		{"VM(id=1)->OnServer()", "", "[VM(id=1)]", "[OnServer()]", false},
		{"Host(name='h')->[PhysicalLink()]{1,2}->Host(status='Active')", "", "", "", true},
	} {
		c := checked(t, tc.src)
		render := func(ids []int) string {
			if ids == nil {
				return ""
			}
			var atoms []string
			for _, id := range ids {
				atoms = append(atoms, c.Atoms()[id].String())
			}
			return fmt.Sprint(atoms)
		}
		if got := render(c.GoalAtoms(false)); got != tc.forward {
			t.Errorf("%s: forward goal %q, want %q", tc.src, got, tc.forward)
		}
		if got := render(c.GoalAtoms(true)); got != tc.backward {
			t.Errorf("%s: backward goal %q, want %q", tc.src, got, tc.backward)
		}
		edges, anyEdge := c.GoalEdges()
		if got := render(edges); got != tc.edges || anyEdge != tc.anyEdge {
			t.Errorf("%s: edges %q any %v, want %q any %v", tc.src, got, anyEdge, tc.edges, tc.anyEdge)
		}
	}
	// Binding other literals keeps the analysis: it is the shape's.
	c := checked(t, "Host(id=1)->[PhysicalLink()]{1,6}->Host(id=2)")
	b, err := c.Bind([]Arg{{Atom: 2, Pred: 0, Item: -1, Value: int64(7)}})
	if err != nil {
		t.Fatal(err)
	}
	if b.goals != c.goals || b.Atoms()[2].String() != "Host(id=7)" {
		t.Errorf("bound %s does not share its template's goal analysis", b.Expr)
	}
}
