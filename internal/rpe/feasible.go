package rpe

// Kind feasibility analysis.
//
// Pathways strictly alternate nodes and edges, so each consuming
// transition can only ever fire on elements of kinds consistent with some
// alternation-respecting accepting run. Atom transitions are fixed by
// their class kind, but skip transitions (the one-element absorption at
// concatenation bridges) are nominally kind-free — yet most of them are
// statically dead for one kind. For example, in
//
//	[Vertical()]{1,3}->Host(id=5)
//
// the bridge skip before Host can only ever consume a node (a skip of an
// edge would leave the Host atom facing another edge). Knowing that lets
// the execution engine keep class-pruning hints alive across bridges:
// when extending a pathway by an edge, a skip transition that can never
// consume an edge does not block the per-class index probe — the physical
// property the paper's edge-subclassing ablation measures.
//
// The analysis walks the product of the automaton with the kind of the
// last consumed element, (state, last), without materialising it: a
// forward walk from (Start, nothing consumed yet) and a backward walk
// from Accept, both over the NFA's own epsilon and transition indexes,
// mark one byte per product node. A (transition, kind) pair is feasible
// when the forward walk reaches the transition's source with a last kind
// other than the one it consumes and the backward walk reaches its
// target having just consumed that kind. Each walk pushes a product node
// at most once.

// kindMask is a bit set over element kinds.
type kindMask uint8

const (
	kindNode kindMask = 1 << iota
	kindEdge
)

// A product node's id is state*lasts + last, where last is lastNone
// before any element is consumed, else the consumed kind's mask (1 or 2).
const (
	lastNone = 0
	lasts    = 3
)

// Marks of the two walks, bits of one byte per product node.
const (
	reached   uint8 = 1 << iota // forward from the start
	coreached                   // backward from the accept state
)

// transFeasibility computes, for every consuming transition, the kinds of
// elements it can consume in some alternation-consistent accepting run.
// isEdgeAtom reports an atom's kind (true = edge class).
func (n *NFA) transFeasibility(isEdgeAtom func(*Atom) bool) []kindMask {
	// out starts as the kinds each label admits (an atom its class's
	// kind, a skip either) and ends as the feasible subset.
	out := make([]kindMask, len(n.Trans))
	for ti, tr := range n.Trans {
		switch {
		case tr.Atom == nil:
			out[ti] = kindNode | kindEdge
		case isEdgeAtom(tr.Atom):
			out[ti] = kindEdge
		default:
			out[ti] = kindNode
		}
	}
	mark := make([]uint8, n.NumStates*lasts)
	stack := make([]int, 0, n.NumStates*lasts)
	visit := func(id int, bit uint8) {
		if mark[id]&bit == 0 {
			mark[id] |= bit
			stack = append(stack, id)
		}
	}

	// Forward: epsilons keep last; a transition consuming kind k needs
	// last != k (pathways alternate) and moves last to k.
	visit(n.Start*lasts+lastNone, reached)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s, last := id/lasts, id%lasts
		for _, t := range n.eps.of(s) {
			visit(t*lasts+last, reached)
		}
		for _, ti := range n.from[s] {
			for _, k := range [...]kindMask{kindNode, kindEdge} {
				if out[ti]&k != 0 && last != int(k) {
					visit(n.Trans[ti].To*lasts+int(k), reached)
				}
			}
		}
	}

	// Backward: (s, k) having just consumed k is entered by a transition
	// consuming k from any (From, last) with last != k.
	for last := 0; last < lasts; last++ {
		visit(n.Accept*lasts+last, coreached)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s, last := id/lasts, id%lasts
		for _, t := range n.epsRev.of(s) {
			visit(t*lasts+last, coreached)
		}
		if last == lastNone {
			continue // nothing consumed: no transition entered s
		}
		for _, ti := range n.to[s] {
			if out[ti]&kindMask(last) == 0 {
				continue
			}
			for prev := 0; prev < lasts; prev++ {
				if prev != last {
					visit(n.Trans[ti].From*lasts+prev, coreached)
				}
			}
		}
	}

	for ti, tr := range n.Trans {
		var feasible kindMask
		for _, k := range [...]kindMask{kindNode, kindEdge} {
			if out[ti]&k == 0 || mark[tr.To*lasts+int(k)]&coreached == 0 {
				continue
			}
			for prev := 0; prev < lasts; prev++ {
				if prev != int(k) && mark[tr.From*lasts+prev]&reached != 0 {
					feasible |= k
					break
				}
			}
		}
		out[ti] = feasible
	}
	return out
}

// CanConsume reports whether the consuming transition (by index into
// NFA().Trans) can fire on an element of the given kind in some
// alternation-consistent accepting run. Execution engines use it both to
// prune dead skip branches and to keep class-pruning hints precise.
func (c *Checked) CanConsume(transIdx int, elementIsEdge bool) bool {
	mask := kindNode
	if elementIsEdge {
		mask = kindEdge
	}
	return c.feas[transIdx]&mask != 0
}
