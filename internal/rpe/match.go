package rpe

import "repro/internal/schema"

// Element abstracts one pathway element for the reference matcher: its
// concrete class and its record of that class. Backends use their own
// richer representations; this one exists so match semantics can be
// tested (and differentially checked) independently of any store.
type Element struct {
	Class *schema.Class
	Rec   schema.Record
}

// MatchesPathway reports whether the alternating element sequence
// n1,e1,...,nk satisfies the checked RPE under full-pathway semantics:
// the match must cover every element, except that when the expression
// begins or ends with an edge atom the adjacent endpoint node is implicit
// (an edge atom e is shorthand for n,e,n', §3.3).
//
// This is the executable specification for both backends: exhaustive NFA
// simulation with no anchors, indexes, or pruning.
func (c *Checked) MatchesPathway(elems []Element) bool {
	w := (c.nfa.NumStates + 63) / 64
	sets := make(StateSet, 2*w)
	return c.MatchesPathwayIn(elems, sets[:w], sets[w:])
}

// MatchesPathwayIn is MatchesPathway simulating in the caller's two state
// sets, each sized for the automaton, which it overwrites: a caller
// testing many pathways pays for the sets once.
func (c *Checked) MatchesPathwayIn(elems []Element, cur, next StateSet) bool {
	if len(elems) == 0 {
		return false
	}
	n := c.nfa
	// The match region may start at element 0, or at element 1 when the
	// leading node is the implicit endpoint of an initial edge match.
	for start := 0; start <= 1 && start < len(elems); start++ {
		copy(cur, n.Closure(n.Start))
		if c.simulate(elems, start, cur, next) {
			return true
		}
	}
	return false
}

// simulate advances the state set cur, already epsilon-closed, across
// elems[from:], using next as the second buffer; it accepts when the
// Accept state is live having consumed through the final element, or
// through the penultimate element when the last one is a node (implicit
// trailing endpoint of an edge match).
func (c *Checked) simulate(elems []Element, from int, cur, next StateSet) bool {
	n := c.nfa
	for i := from; i < len(elems); i++ {
		el := &elems[i]
		isEdge := el.Class.IsEdge()
		next.Reset()
		any := false
		cur.ForEach(func(s int) {
			for _, ti := range n.from[s] {
				tr := n.Trans[ti]
				if !c.CanConsume(ti, isEdge) {
					continue
				}
				if tr.Atom == nil || c.Satisfies(tr.Atom, el.Class, el.Rec) {
					next.Or(n.Closure(tr.To))
					any = true
				}
			}
		})
		if !any {
			return false
		}
		cur, next = next, cur
		if cur.Has(n.Accept) {
			if i == len(elems)-1 {
				return true
			}
			// Trailing implicit node: region may end one short when the
			// final consumed element is an edge and only the last node
			// remains.
			if i == len(elems)-2 && isEdge {
				return true
			}
		}
	}
	return false
}
