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

	// eps and epsRev list the states one epsilon edge away, forward and
	// backward; from and to the indices into Trans leaving and entering
	// each state. All four are built flat (see adjacency). The search
	// reads from and to once per live state per element, so those two
	// are kept as per-state windows of their flat lists: reading a
	// window is one load, where an offset pair is two loads and a slice
	// (in a loop shaped like plan's consume, the offset pairs took about
	// twice as long).
	eps, epsRev adjacency
	from, to    [][]int

	// closure and closureRev cache each state's forward and backward
	// epsilon closure as a bit set, so subset simulation advances with
	// word ORs.
	closure, closureRev closures
}

// adjacency is a per-state index in two flat arrays: state s's entries
// are list[off[s]:off[s+1]].
type adjacency struct{ off, list []int }

func (a adjacency) of(s int) []int { return a.list[a.off[s]:a.off[s+1]:a.off[s+1]] }

// fill indexes entries pairs into a, whose arrays are zeroed and sized
// for them: pair(i) gives entry i's state and value. A counting sort, so
// each state's values keep the order of i.
func (a adjacency) fill(entries int, pair func(i int) (state, value int)) {
	for i := 0; i < entries; i++ {
		s, _ := pair(i)
		a.off[s+1]++
	}
	for s := 1; s < len(a.off); s++ {
		a.off[s] += a.off[s-1]
	}
	// off[s] is s's write cursor until every entry is placed, when it
	// has reached the start of s+1: shift the offsets back into place.
	for i := 0; i < entries; i++ {
		s, v := pair(i)
		a.list[a.off[s]] = v
		a.off[s]++
	}
	copy(a.off[1:], a.off[:len(a.off)-1])
	a.off[0] = 0
}

// closures holds one StateSet of w words per state in one flat array.
type closures struct {
	sets StateSet
	w    int
}

func (c closures) of(s int) StateSet { return c.sets[s*c.w : (s+1)*c.w : (s+1)*c.w] }

// Trans is one consuming transition. A nil Atom is a skip transition: it
// consumes any single element unconditionally.
type Trans struct {
	From, To int
	Atom     *Atom
}

type nfaBuilder struct {
	n     *NFA
	count int
	eps   []edge // epsilon edges, indexed by finish
}

// edge is one epsilon edge during construction.
type edge struct{ from, to int }

func (b *nfaBuilder) state() int {
	s := b.count
	b.count++
	return s
}

func (b *nfaBuilder) trans(from, to int, a *Atom) {
	b.n.Trans = append(b.n.Trans, Trans{From: from, To: to, Atom: a})
}

func (b *nfaBuilder) epsilon(from, to int) {
	b.eps = append(b.eps, edge{from, to})
}

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
	states := unrolledStates(e)
	if states > maxStates {
		return nil, fmt.Errorf("rpe: expression unrolls to more than %d automaton states; lower its repetition bounds", maxStates)
	}
	// By induction over the expression, an automaton of S states has
	// fewer than S transitions and fewer than S epsilon edges.
	b := &nfaBuilder{n: &NFA{Trans: make([]Trans, 0, states)}, eps: make([]edge, 0, states)}
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

// finish builds the adjacency indexes used by forward and backward
// simulation in one []int, the from/to windows in one [][]int, and the
// epsilon closures in one StateSet.
func (b *nfaBuilder) finish() {
	n := b.n
	ns := b.count
	n.NumStates = ns
	slab := make([]int, 4*(ns+1)+2*len(b.eps)+2*len(n.Trans))
	carve := func(entries int) adjacency {
		a := adjacency{off: slab[: ns+1 : ns+1], list: slab[ns+1 : ns+1+entries : ns+1+entries]}
		slab = slab[ns+1+entries:]
		return a
	}
	n.eps, n.epsRev = carve(len(b.eps)), carve(len(b.eps))
	from, to := carve(len(n.Trans)), carve(len(n.Trans))
	eps, trans := b.eps, n.Trans
	n.eps.fill(len(eps), func(i int) (int, int) { return eps[i].from, eps[i].to })
	n.epsRev.fill(len(eps), func(i int) (int, int) { return eps[i].to, eps[i].from })
	from.fill(len(trans), func(i int) (int, int) { return trans[i].From, i })
	to.fill(len(trans), func(i int) (int, int) { return trans[i].To, i })
	windows := make([][]int, 2*ns)
	n.from, n.to = windows[:ns:ns], windows[ns:]
	for s := 0; s < ns; s++ {
		n.from[s], n.to[s] = from.of(s), to.of(s)
	}

	w := (ns + 63) / 64
	sets := make(StateSet, 2*ns*w)
	n.closure = closures{sets: sets[: ns*w : ns*w], w: w}
	n.closureRev = closures{sets: sets[ns*w:], w: w}
	mark := make([]uint8, ns)
	for s := 0; s < ns; s++ {
		closeState(s, n.eps, n.closure, mark)
	}
	clear(mark)
	for s := 0; s < ns; s++ {
		closeState(s, n.epsRev, n.closureRev, mark)
	}
}

// Marks of the closure walk.
const (
	visiting uint8 = 1 + iota
	closed
)

// closeState fills s's set in c, and first those of the states it
// reaches, with its epsilon closure over adj; mark holds one byte per
// state.
func closeState(s int, adj adjacency, c closures, mark []uint8) {
	if mark[s] != 0 {
		return // closed, or on the walk's path: an epsilon cycle leaves the partial set
	}
	mark[s] = visiting
	set := c.of(s)
	set.Add(s)
	for _, t := range adj.of(s) {
		closeState(t, adj, c, mark)
		set.Or(c.of(t))
	}
	mark[s] = closed
}

// Closure returns the cached forward epsilon closure of one state. The
// result must not be modified.
func (n *NFA) Closure(state int) StateSet { return n.closure.of(state) }

// ClosureRev returns the cached backward epsilon closure of one state.
func (n *NFA) ClosureRev(state int) StateSet { return n.closureRev.of(state) }

// OutTrans returns the indices of consuming transitions leaving s.
func (n *NFA) OutTrans(s int) []int { return n.from[s] }

// InTrans returns the indices of consuming transitions entering s.
func (n *NFA) InTrans(s int) []int { return n.to[s] }

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
// without consuming any transition labeled by one of the given atoms.
// Skip transitions and epsilons are always allowed. An anchor set is valid
// exactly when this returns false: every match must touch an anchor.
func (n *NFA) AcceptsWithout(anchors []*Atom) bool {
	visited := NewStateSet(n.NumStates)
	stack := make([]int, 1, n.NumStates)
	stack[0] = n.Start
	visited.Add(n.Start)
	push := func(s int) {
		if !visited.Has(s) {
			visited.Add(s)
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s == n.Accept {
			return true
		}
		for _, t := range n.eps.of(s) {
			push(t)
		}
		for _, ti := range n.from[s] {
			if tr := n.Trans[ti]; tr.Atom == nil || !containsAtom(anchors, tr.Atom) {
				push(tr.To)
			}
		}
	}
	return false
}

func containsAtom(atoms []*Atom, a *Atom) bool {
	for _, x := range atoms {
		if x.id == a.id {
			return true
		}
	}
	return false
}
