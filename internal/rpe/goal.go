package rpe

import "slices"

// Goal analysis: which halves of an anchored search can only finish on a
// node pinned by a unique key.
//
// A forward half-search completes when its state set holds Accept, which
// it can only reach by firing a transition whose target's epsilon
// closure holds Accept: a final transition. When every feasible final
// transition is labeled by a node atom with an equality or IN predicate
// on a unique field, every completion of the half ends on one of the few
// nodes those atoms' unique lookups name — the half's goal — and the
// engine may search toward it instead of in every direction. The
// backward half is the mirror image, ending at Start.
//
// What depends only on the automaton and the classes is computed here,
// once per checked expression, and shared by every Bind of it: the goal
// atoms of each half and the edge atoms a pathway's edges are consumed
// by. The literals, so the goal nodes themselves, are the evaluation's.

// goals is the static goal analysis of a checked expression; nil when
// neither half can be goal-directed.
type goals struct {
	// atoms holds the goal atoms' ids of the forward ([0]) and backward
	// ([1]) half; nil when that half is not goal-directed.
	atoms [2][]int
	// edges lists the edge atoms that can consume a pathway's edge;
	// anyEdge is set when a skip can consume one too.
	edges   []int
	anyEdge bool
}

// analyzeGoals computes c's goal analysis; c's automaton, classes and
// feasibility masks must be built.
func analyzeGoals(c *Checked) *goals {
	var g goals
	n := c.nfa
	for dir := range g.atoms {
		g.atoms[dir] = c.goalAtoms(dir == 1)
	}
	if g.atoms[0] == nil && g.atoms[1] == nil {
		return nil
	}
	for ti, tr := range n.Trans {
		if !c.CanConsume(ti, true) {
			continue
		}
		if tr.Atom == nil {
			g.anyEdge = true
		} else if !slices.Contains(g.edges, tr.Atom.id) {
			g.edges = append(g.edges, tr.Atom.id)
		}
	}
	return &g
}

// goalAtoms returns the ids of the atoms labeling the feasible final
// transitions of the forward (or backward) half, or nil unless each is a
// node atom pinned by a unique field.
func (c *Checked) goalAtoms(backward bool) []int {
	n := c.nfa
	var ids []int
	for ti, tr := range n.Trans {
		final := n.Closure(tr.To).Has(n.Accept)
		if backward {
			final = n.ClosureRev(tr.From).Has(n.Start)
		}
		if !final || c.feas[ti] == 0 {
			continue
		}
		if tr.Atom == nil || !c.classes[tr.Atom.id].IsNode() || !c.pinnedUnique(tr.Atom.id) {
			return nil
		}
		if !slices.Contains(ids, tr.Atom.id) {
			ids = append(ids, tr.Atom.id)
		}
	}
	return ids
}

// pinnedUnique reports whether the atom has an equality or IN predicate
// on a unique field. Binding changes only the literals, so the template's
// predicates answer for every binding.
func (c *Checked) pinnedUnique(id int) bool {
	for _, p := range c.atoms[id].Preds {
		if p.Op != OpEq && p.Op != OpIn {
			continue
		}
		if f, ok := c.classes[id].Field(p.Field); ok && f.Unique {
			return true
		}
	}
	return false
}

// GoalAtoms returns the ids of the node atoms every completion of a
// forward (or backward) half-search consumes last, or nil when that half
// is not goal-directed. Callers read the atoms' predicates through
// Atoms(), which holds the bound literals.
func (c *Checked) GoalAtoms(backward bool) []int {
	if c.goals == nil {
		return nil
	}
	if backward {
		return c.goals.atoms[1]
	}
	return c.goals.atoms[0]
}

// GoalEdges returns the atoms that can consume a pathway's edge, by id,
// and whether a skip can consume one too (then any edge can lie on a
// pathway). Meaningful only for an expression with a goal-directed half.
func (c *Checked) GoalEdges() (ids []int, anyEdge bool) {
	if c.goals == nil {
		return nil, true
	}
	return c.goals.edges, c.goals.anyEdge
}
