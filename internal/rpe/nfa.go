package rpe

import "fmt"

// NFA is the nondeterministic automaton compiled from a normalized RPE.
// Transitions consume one pathway element each. Concatenation contributes
// "bridge" points that allow either direct adjacency or a one-element skip
// of the opposite kind — the paper's four-way concatenation semantics —
// realized as an epsilon edge plus a skip transition (Atom == nil).
//
// Repetitions are unrolled (the paper's ExtendBlock operator performs the
// same loop unrolling in the Gremlin backend), so the automaton is acyclic
// and every RPE's matches are length-limited by construction.
type NFA struct {
	NumStates int
	Start     int
	Accept    int
	Trans     []Trans
	eps       [][]int // eps[s] = states reachable by one epsilon from s

	fromIdx [][]int // fromIdx[s] = indices into Trans with From == s
	toIdx   [][]int // toIdx[s] = indices into Trans with To == s
	epsRev  [][]int

	// closureMask and closureRevMask cache each state's epsilon closure as
	// a bit set, so subset simulation advances with word ORs.
	closureMask    []StateSet
	closureRevMask []StateSet
}

// Trans is one consuming transition. A nil Atom is a skip transition: it
// consumes any single element unconditionally.
type Trans struct {
	From, To int
	Atom     *Atom
}

type nfaBuilder struct {
	n     *NFA
	count int
}

func (b *nfaBuilder) state() int {
	s := b.count
	b.count++
	return s
}

func (b *nfaBuilder) trans(from, to int, a *Atom) {
	b.n.Trans = append(b.n.Trans, Trans{From: from, To: to, Atom: a})
}

func (b *nfaBuilder) epsilon(from, to int) {
	b.n.eps = append(b.n.eps, nil) // placeholder; rebuilt in finish
	b.n.Trans = append(b.n.Trans, Trans{From: from, To: to, Atom: epsMarker})
}

// epsMarker distinguishes epsilon rows in the flat Trans slice during
// construction; finish() separates them out.
var epsMarker = &Atom{Class: "\x00eps"}

// buildNFA compiles a normalized expression.
//
// Zero-min repetition blocks are desugared first (expandEmptyReps):
// the concatenation bridge's one-element skip exists *between two
// matched parts*, so a part that matches empty must not leave a stray
// skip behind — otherwise [A()]{0,1}->[B()]{0,1} would match any single
// element via skip alone. The desugaring rewrites every such sequence
// into explicit alternatives where each optional part is either omitted
// (no bridge at all) or present with min >= 1 (bridge with skip), sharing
// atom occurrences so anchor labeling is unaffected.
//
// An expression that would unroll to more than maxStates states is
// rejected before anything is built.
func buildNFA(e Expr) (*NFA, error) {
	e = expandEmptyReps(e)
	if unrolledStates(e) > maxStates {
		return nil, fmt.Errorf("rpe: expression unrolls to more than %d automaton states; lower its repetition bounds", maxStates)
	}
	b := &nfaBuilder{n: &NFA{}}
	start, accept := b.build(e)
	b.n.Start, b.n.Accept = start, accept
	b.finish()
	return b.n, nil
}

// maxStates bounds the automaton an expression unrolls to. Every state
// caches its epsilon closure as a bit set over all states, so memory
// grows with the square of the state count: {1,77776} alone would ask for
// gigabytes. 4,096 states (4 MB of closure sets) is more than ten times
// the largest automaton any shipped query or test builds.
const maxStates = 4096

// unrolledStates counts the states build makes for e, saturating just
// past maxStates.
func unrolledStates(e Expr) int {
	switch x := e.(type) {
	case *Atom:
		return 2
	case *Sequence:
		n := len(x.Parts) - 1 // one skip state per bridge
		for _, p := range x.Parts {
			n = min(n+unrolledStates(p), maxStates+1)
		}
		return n
	case *Alternation:
		n := 2
		for _, p := range x.Alts {
			n = min(n+unrolledStates(p), maxStates+1)
		}
		return n
	case *Repetition:
		body := unrolledStates(x.Body) + 1 // each copy but the first is bridged
		if x.Max > maxStates/body {
			return maxStates + 1
		}
		return min(1+x.Max*body, maxStates+1)
	}
	return 0
}

// expandEmptyReps rewrites the expression so no subexpression can match
// the empty pathway: {0,m} repetitions become {1,m}, and sequences
// containing originally-optional parts expand into the alternation of all
// include/omit combinations (the all-omitted variant, i.e. the empty
// match, is dropped — an empty match never consumes an element, so it
// contributes no pathways at the top level). Atom occurrences are shared
// with the input, not cloned.
func expandEmptyReps(e Expr) Expr {
	switch x := e.(type) {
	case *Atom:
		return x
	case *Repetition:
		body := expandEmptyReps(x.Body)
		min := x.Min
		if min == 0 {
			min = 1
		}
		return &Repetition{Body: body, Min: min, Max: x.Max}
	case *Alternation:
		alts := make([]Expr, len(x.Alts))
		for i, a := range x.Alts {
			alts[i] = expandEmptyReps(a)
		}
		return &Alternation{Alts: alts}
	case *Sequence:
		expanded := make([]Expr, len(x.Parts))
		optional := make([]bool, len(x.Parts))
		nOpt := 0
		for i, p := range x.Parts {
			expanded[i] = expandEmptyReps(p)
			if p.MinLen() == 0 {
				optional[i] = true
				nOpt++
			}
		}
		if nOpt == 0 {
			return &Sequence{Parts: expanded}
		}
		if nOpt > 12 {
			// Combination blowup guard: such expressions are rejected as
			// unanchored in practice; keep the simple rewrite.
			return &Sequence{Parts: expanded}
		}
		var variants []Expr
		for mask := 0; mask < 1<<nOpt; mask++ {
			var parts []Expr
			bit := 0
			for i, p := range expanded {
				if optional[i] {
					if mask&(1<<bit) != 0 {
						parts = append(parts, p)
					}
					bit++
					continue
				}
				parts = append(parts, p)
			}
			switch len(parts) {
			case 0:
				continue // the empty match contributes no pathways
			case 1:
				variants = append(variants, parts[0])
			default:
				variants = append(variants, &Sequence{Parts: parts})
			}
		}
		if len(variants) == 1 {
			return variants[0]
		}
		return &Alternation{Alts: variants}
	}
	return e
}

func (b *nfaBuilder) build(e Expr) (start, accept int) {
	switch x := e.(type) {
	case *Atom:
		s, t := b.state(), b.state()
		b.trans(s, t, x)
		return s, t
	case *Sequence:
		start, accept = b.build(x.Parts[0])
		for _, p := range x.Parts[1:] {
			ps, pa := b.build(p)
			b.bridge(accept, ps)
			accept = pa
		}
		return start, accept
	case *Alternation:
		s, t := b.state(), b.state()
		for _, p := range x.Alts {
			ps, pa := b.build(p)
			b.epsilon(s, ps)
			b.epsilon(pa, t)
		}
		return s, t
	case *Repetition:
		s, t := b.state(), b.state()
		prevAccept := -1
		for i := 0; i < x.Max; i++ {
			cs, ca := b.build(x.Body)
			if i == 0 {
				b.epsilon(s, cs)
			} else {
				b.bridge(prevAccept, cs)
			}
			if i+1 >= x.Min {
				b.epsilon(ca, t)
			}
			prevAccept = ca
		}
		if x.Min == 0 {
			b.epsilon(s, t)
		}
		return s, t
	}
	panic("rpe: unknown expression type")
}

// bridge joins two concatenated sub-automata: direct adjacency (epsilon)
// or a single skipped element of the opposite kind (skip transition).
func (b *nfaBuilder) bridge(from, to int) {
	b.epsilon(from, to)
	mid := b.state()
	b.epsilon(from, mid)
	b.trans(mid, to, nil) // skip one element
}

// finish separates epsilon rows from consuming rows and builds the
// adjacency indexes used by forward and backward simulation.
func (b *nfaBuilder) finish() {
	n := b.n
	n.NumStates = b.count
	consuming := n.Trans[:0]
	eps := make([][]int, n.NumStates)
	epsRev := make([][]int, n.NumStates)
	for _, t := range n.Trans {
		if t.Atom == epsMarker {
			eps[t.From] = append(eps[t.From], t.To)
			epsRev[t.To] = append(epsRev[t.To], t.From)
			continue
		}
		consuming = append(consuming, t)
	}
	n.Trans = consuming
	n.eps = eps
	n.epsRev = epsRev
	n.fromIdx = make([][]int, n.NumStates)
	n.toIdx = make([][]int, n.NumStates)
	for i, t := range n.Trans {
		n.fromIdx[t.From] = append(n.fromIdx[t.From], i)
		n.toIdx[t.To] = append(n.toIdx[t.To], i)
	}
	n.closureMask = closureMasks(n.NumStates, eps)
	n.closureRevMask = closureMasks(n.NumStates, epsRev)
}

// closureMasks computes the epsilon closure of every state as a bit set.
func closureMasks(numStates int, adj [][]int) []StateSet {
	masks := make([]StateSet, numStates)
	var visit func(s int) StateSet
	visiting := make([]bool, numStates)
	visit = func(s int) StateSet {
		if masks[s] != nil {
			return masks[s]
		}
		out := NewStateSet(numStates)
		out.Add(s)
		if visiting[s] {
			return out // epsilon cycle: partial result, completed by caller
		}
		visiting[s] = true
		for _, t := range adj[s] {
			out.Or(visit(t))
		}
		visiting[s] = false
		masks[s] = out
		return out
	}
	for s := 0; s < numStates; s++ {
		visit(s)
	}
	return masks
}

// Closure returns the cached forward epsilon closure of one state. The
// result must not be modified.
func (n *NFA) Closure(state int) StateSet { return n.closureMask[state] }

// ClosureRev returns the cached backward epsilon closure of one state.
func (n *NFA) ClosureRev(state int) StateSet { return n.closureRevMask[state] }

// EpsClosure expands a state set by forward epsilon reachability.
func (n *NFA) EpsClosure(states map[int]bool) map[int]bool {
	return n.closure(states, n.eps)
}

// EpsClosureRev expands a state set by backward epsilon reachability.
func (n *NFA) EpsClosureRev(states map[int]bool) map[int]bool {
	return n.closure(states, n.epsRev)
}

func (n *NFA) closure(states map[int]bool, adj [][]int) map[int]bool {
	stack := make([]int, 0, len(states))
	for s := range states {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range adj[s] {
			if !states[t] {
				states[t] = true
				stack = append(stack, t)
			}
		}
	}
	return states
}

// OutTrans returns the indices of consuming transitions leaving s.
func (n *NFA) OutTrans(s int) []int { return n.fromIdx[s] }

// InTrans returns the indices of consuming transitions entering s.
func (n *NFA) InTrans(s int) []int { return n.toIdx[s] }

// TransWithAtom returns the indices of all consuming transitions labeled
// with the given atom occurrence id.
func (n *NFA) TransWithAtom(id int) []int {
	var out []int
	for i, t := range n.Trans {
		if t.Atom != nil && t.Atom.id == id {
			out = append(out, i)
		}
	}
	return out
}

// AcceptsWithout reports whether the automaton can reach Accept from Start
// without consuming any transition labeled by an atom in the given id set.
// Skip transitions and epsilons are always allowed. An anchor set is valid
// exactly when this returns false: every match must touch an anchor.
func (n *NFA) AcceptsWithout(anchorIDs map[int]bool) bool {
	visited := make(map[int]bool)
	stack := []int{n.Start}
	visited[n.Start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s == n.Accept {
			return true
		}
		for _, t := range n.eps[s] {
			if !visited[t] {
				visited[t] = true
				stack = append(stack, t)
			}
		}
		for _, ti := range n.fromIdx[s] {
			tr := n.Trans[ti]
			if tr.Atom != nil && anchorIDs[tr.Atom.id] {
				continue
			}
			if !visited[tr.To] {
				visited[tr.To] = true
				stack = append(stack, tr.To)
			}
		}
	}
	return false
}
