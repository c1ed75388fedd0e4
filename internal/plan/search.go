package plan

import (
	"math/bits"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rpe"
)

// Engine executes plans against a backend's Accessor. It implements the
// anchored bidirectional NFA search of §5.1: Select the anchor records,
// Extend forwards from the anchor's post-state and backwards from its
// pre-state, and Union partial results — with cycle prevention via the
// uid-list disjointness predicate of §5.2.
//
// All evaluation entry points are safe for concurrent use on one Engine:
// per-evaluation instrumentation travels in an evalState threaded through
// the search rather than in Engine fields.
type Engine struct {
	acc Accessor
	o   engineObs
}

// engineObs holds the engine's registry metrics, so the per-eval record
// is a handful of atomic adds.
type engineObs struct {
	evals    *obs.Counter
	latency  *obs.Histogram
	anchors  *obs.Counter
	edges    *obs.Counter
	partials *obs.Counter
	paths    *obs.Counter
}

// NewEngine returns an engine over the backend accessor. Every evaluation
// records its latency and operator counters under "engine.<backend>.*" in
// the registry of the accessor's store.
func NewEngine(acc Accessor) *Engine {
	r, prefix := acc.Store().Registry(), "engine."+acc.Name()+"."
	return &Engine{acc: acc, o: engineObs{
		evals:    r.Counter(prefix + "evals"),
		latency:  r.Histogram(prefix + "eval_latency_ms"),
		anchors:  r.Counter(prefix + "anchor_records"),
		edges:    r.Counter(prefix + "edges_scanned"),
		partials: r.Counter(prefix + "partials_explored"),
		paths:    r.Counter(prefix + "paths_emitted"),
	}}
}

// Accessor returns the backend accessor the engine drives.
func (e *Engine) Accessor() Accessor { return e.acc }

// record folds one evaluation into the registry metrics.
func (e *Engine) record(m Metrics, d time.Duration) {
	o := &e.o
	o.evals.Add(1)
	o.latency.Observe(float64(d) / 1e6)
	o.anchors.Add(int64(m.AnchorRecords))
	o.edges.Add(int64(m.EdgesScanned))
	o.partials.Add(int64(m.PartialsExplored))
	o.paths.Add(int64(m.PathsEmitted))
}

// evalState carries one evaluation's instrumentation, governance and
// search scratch: the counters, the optional operator-span trace, the
// query's Governor, the first failure (governance or backend) that aborts
// the search, and the arena the partial pathways live in. A nil trace or
// governor is a no-op at every call site, so the search loops have one
// body. One evaluation owns its evalState from getEvalState to
// putEvalState; the pool hands the arenas, capacity kept, to the next
// one, and nothing the evaluation returns points into them (DESIGN.md,
// "Search core memory model").
type evalState struct {
	m   Metrics
	tr  *traceEval
	gov *Governor
	err error

	// partials is the arena of partial pathways, addressed by index, and
	// sets their NFA state sets: partial i owns words [i*nw, (i+1)*nw).
	// The arena is the DFS stack with the expanded ancestors left in
	// place: pop takes the top pending partial and drops everything above
	// it (subtrees already finished), so the arena holds the frontier,
	// not every partial explored.
	partials []partial
	sets     []uint64
	nw       int
	stack    []int32 // pending partials, as arena indexes in push order
	// halves holds the completed half-pathways of the current anchor
	// element (or seed branch), each written out once, in pathway order;
	// fwd and bwd index it. Emptied when the element's pathways are
	// assembled.
	halves   []graph.UID
	fwd, bwd []half
	// known/sat memoise atom satisfaction for the one element consume is
	// looking at, as bit masks over the atoms' dense ids.
	known, sat []uint64
	elems      []graph.UID // the candidate pathway being assembled
	validity   validityScratch
}

var evalPool = sync.Pool{New: func() any { return new(evalState) }}

// getEvalState takes a pooled evalState and resets every field, keeping
// only the arenas' capacity.
func getEvalState(gov *Governor) *evalState {
	es := evalPool.Get().(*evalState)
	*es = evalState{
		gov:      gov,
		partials: es.partials[:0],
		sets:     es.sets[:0],
		stack:    es.stack[:0],
		halves:   es.halves[:0],
		fwd:      es.fwd[:0],
		bwd:      es.bwd[:0],
		known:    es.known[:0],
		elems:    es.elems[:0],
		validity: es.validity,
	}
	return es
}

// putEvalState returns es to the pool once nothing reads it any more,
// dropping every pointer into the store, the trace and the query so an
// idle pooled state pins none of them.
func putEvalState(es *evalState) {
	clear(es.validity.objs)
	clear(es.validity.elements)
	es.tr, es.gov, es.err = nil, nil, nil
	evalPool.Put(es)
}

// partial is one partial pathway: elem appended to (prepended to, in a
// backward search) the partial at index parent. It records what consume
// learned about elem so the search never resolves it again.
type partial struct {
	elem   graph.UID
	next   graph.UID // an edge's structural successor: Dst forward, Src backward
	parent int32     // -1 at a search root
	depth  int32     // elements in the sequence, root included
	isEdge bool
}

// half locates one completed half-pathway in evalState.halves.
type half struct{ off, end int32 }

// begin sizes the scratch for one plan: state sets of the automaton's
// width and one mask bit per atom.
func (es *evalState) begin(p *Plan) {
	es.nw = (p.Checked.NFA().NumStates + 63) / 64
	aw := (len(p.Checked.Atoms()) + 63) / 64
	masks := grown(es.known[:0], 2*aw)[:2*aw]
	es.known, es.sat = masks[:aw], masks[aw:]
}

// release empties the arena and the completed halves once an anchor
// element's pathways are assembled.
func (es *evalState) release() {
	es.partials, es.sets = es.partials[:0], es.sets[:0]
	es.halves, es.fwd, es.bwd = es.halves[:0], es.fwd[:0], es.bwd[:0]
}

// states returns partial i's state set; valid until the arena next grows.
func (es *evalState) states(i int32) rpe.StateSet {
	return es.sets[int(i)*es.nw : (int(i)+1)*es.nw]
}

// root starts a half-search at obj with the given (shared, read-only)
// closure as its state set and returns the new partial's index.
func (es *evalState) root(obj *graph.Object, states rpe.StateSet, dir Direction) int32 {
	es.sets = append(es.sets, states...)
	return es.push(-1, obj, dir)
}

// push adds the partial whose state set was just written at the tail of
// es.sets (by root or consume).
func (es *evalState) push(parent int32, obj *graph.Object, dir Direction) int32 {
	p := partial{elem: obj.UID, parent: parent, depth: 1, isEdge: obj.IsEdge()}
	if parent >= 0 {
		p.depth = es.partials[parent].depth + 1
	}
	if p.isEdge {
		p.next = obj.Dst
		if dir == Backward {
			p.next = obj.Src
		}
	}
	es.partials = append(es.partials, p)
	return int32(len(es.partials) - 1)
}

// pop takes the top pending partial and drops the finished ones above it.
func (es *evalState) pop() int32 {
	cur := es.stack[len(es.stack)-1]
	es.stack = es.stack[:len(es.stack)-1]
	es.partials, es.sets = es.partials[:cur+1], es.sets[:(int(cur)+1)*es.nw]
	return cur
}

// complete writes partial i's element sequence out in pathway order — a
// forward chain runs tail to anchor and is laid down from the back, a
// backward chain runs head to anchor, which is pathway order — adding the
// implicit endpoint node where the match region ends at an edge. This is
// the only place a sequence is materialised from the arena.
func (es *evalState) complete(i int32, dir Direction) half {
	n := es.partials[i]
	size := int(n.depth)
	if n.isEdge {
		size++
	}
	off := len(es.halves)
	es.halves = grown(es.halves, size)[:off+size]
	seq := es.halves[off:]
	if dir == Forward {
		seq[size-1] = n.next // overwritten unless the tail is an edge
		for at := n.depth - 1; i >= 0; i, at = es.partials[i].parent, at-1 {
			seq[at] = es.partials[i].elem
		}
	} else {
		seq[0] = n.next // likewise for the head
		for at := size - int(n.depth); i >= 0; i, at = es.partials[i].parent, at+1 {
			seq[at] = es.partials[i].elem
		}
	}
	return half{int32(off), int32(off + size)}
}

// grown returns s with room for n more entries, doubling a full slice:
// a mining query completes tens of thousands of halves and pathways,
// where append's 1.25x steps would allocate over four times the final
// size in total.
func grown[T any](s []T, n int) []T {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, len(s)+n)
	}
	return s
}

// checkpoint is the cooperative cancellation check the search loops run
// once per expanded partial (and per anchor element). It reports whether
// the evaluation must stop, latching the governance error into es.err.
func (es *evalState) checkpoint() bool {
	if es.err != nil {
		return true
	}
	if err := es.gov.Check(); err != nil {
		es.err = err
		return true
	}
	return false
}

// fail latches the first failure; later calls keep the original error.
func (es *evalState) fail(err error) {
	if es.err == nil && err != nil {
		es.err = err
	}
}

// EvalOpts configures one evaluation through EvalWith: the query's
// governor, the seed nodes (for seeded plans), and the tracing sink.
type EvalOpts struct {
	// Gov is the query's governor; nil evaluates ungoverned.
	Gov *Governor
	// Seeds supplies the imported anchor nodes of a seeded plan.
	Seeds []graph.UID
	// Traced enables operator-DAG tracing; TraceParent, when non-nil,
	// nests the Eval span under it (and implies Traced).
	Traced      bool
	TraceParent *obs.Span
}

// EvalWith is the evaluation entry point: metered, optionally traced,
// optionally governed. It returns all satisfying pathways with their
// maximal validity ranges. Seeded plans draw their anchors from o.Seeds;
// anchored plans ignore them. Engine panics are converted to a
// *PanicError at this boundary, with the operator span attached when
// tracing. The returned span is nil unless tracing was enabled.
func (e *Engine) EvalWith(view graph.View, p *Plan, o EvalOpts) (*PathwaySet, Metrics, *obs.Span, error) {
	es := getEvalState(o.Gov)
	defer putEvalState(es)
	if o.Traced || o.TraceParent != nil {
		es.tr = newTraceEval(e.acc.Name(), p, o.TraceParent)
	}
	start := time.Now()
	var set *PathwaySet
	var err error
	if p.Seeded {
		set, err = e.evalSeeded(view, p, o.Seeds, es)
	} else {
		set, err = e.eval(view, p, es)
	}
	if set != nil {
		es.m.PathsEmitted = set.Len()
	}
	var root *obs.Span
	if es.tr != nil {
		es.tr.finish(set, es.m)
		root = es.tr.root
	}
	e.record(es.m, time.Since(start))
	return set, es.m, root, err
}

// EvalMetered is EvalWith for an anchored plan with no governor and no
// trace: the pathway set and the operator pipeline's counters.
func (e *Engine) EvalMetered(view graph.View, p *Plan) (*PathwaySet, Metrics, error) {
	set, m, _, err := e.EvalWith(view, p, EvalOpts{})
	return set, m, err
}

// recovered converts an engine panic into a *PanicError, attaching the
// evaluation's operator span when the run was traced. Recovery sits at
// the eval/evalSeeded boundary so EvalWith's callers observe a plain
// error instead of a process-killing panic.
func recovered(es *evalState, err *error) {
	if r := recover(); r != nil {
		pe := &PanicError{Value: r, Stack: debug.Stack()}
		if es.tr != nil {
			es.tr.flush()
			pe.Span = es.tr.root
		}
		*err = pe
	}
}

func (e *Engine) eval(view graph.View, p *Plan, es *evalState) (set *PathwaySet, err error) {
	defer recovered(es, &err)
	out := NewPathwaySet()
	c := p.Checked
	nfa := c.NFA()
	st := e.acc.Store()
	es.begin(p)
	for _, atom := range p.Anchor.Atoms {
		if es.checkpoint() {
			break
		}
		sel := es.tr.selectNode(atom)
		t0 := sel.begin()
		elements, aerr := e.acc.AnchorElements(view, c, atom, es.gov)
		sel.end(t0)
		sel.probed(0, 0, len(elements))
		if aerr != nil {
			es.fail(aerr)
			break
		}
		es.m.AnchorRecords += len(elements)
		transIdxs := nfa.TransWithAtom(atom.ID())
		for _, uid := range elements {
			if es.checkpoint() {
				break
			}
			obj := st.Object(uid)
			if obj == nil || !e.atomSatisfiedInView(view, c, atom, obj) {
				continue
			}
			for _, ti := range transIdxs {
				tr := nfa.Trans[ti]
				e.search(view, p, es.root(obj, nfa.Closure(tr.To), Forward), true, Forward, es)
				e.search(view, p, es.root(obj, nfa.ClosureRev(tr.From), Backward), true, Backward, es)
				union := es.tr.unionNode()
				before := out.Len()
				t0 := union.begin()
				e.combine(view, c, out, es)
				union.end(t0)
				union.rows(len(es.bwd)*len(es.fwd), out.Len()-before)
				es.release()
			}
		}
	}
	if es.err != nil {
		return nil, es.err
	}
	return out, nil
}

// evalSeeded evaluates a plan whose anchor is imported from a join. Seeds
// are node UIDs bound to the pathway's source (Forward) or target
// (Backward) end.
func (e *Engine) evalSeeded(view graph.View, p *Plan, seeds []graph.UID, es *evalState) (set *PathwaySet, err error) {
	defer recovered(es, &err)
	out := NewPathwaySet()
	es.begin(p)
	for _, seed := range seeds {
		if es.checkpoint() {
			break
		}
		obj := e.acc.Store().Object(seed)
		if obj == nil || obj.IsEdge() || !view.Visible(obj) {
			continue
		}
		es.tr.seedSelectNode().rows(1, 1)
		union := es.tr.unionNode()
		before := out.Len()
		t0 := union.begin()
		e.evalSeedOne(view, p, obj, out, es)
		union.end(t0)
		union.rows(0, out.Len()-before)
		es.m.AnchorRecords++
	}
	if es.err != nil {
		return nil, es.err
	}
	return out, nil
}

// evalSeedOne runs both seed branches (§3.4) for one seed node.
func (e *Engine) evalSeedOne(view graph.View, p *Plan, seed *graph.Object, out *PathwaySet, es *evalState) {
	c := p.Checked
	nfa := c.NFA()
	start := nfa.Closure(nfa.Start)
	if p.SeedDir == Backward {
		start = nfa.ClosureRev(nfa.Accept)
	}
	implicit := es.root(seed, start, p.SeedDir)
	// Branch (a): the seed node is consumed by a leading (for a Backward
	// plan, trailing) node atom.
	if e.consume(view, c, implicit, seed, p.SeedDir, es) {
		e.seedBranch(view, p, es.push(-1, seed, p.SeedDir), true, out, es)
	}
	// Branch (b): the seed is the implicit endpoint of a leading edge
	// match; nothing consumed yet.
	e.seedBranch(view, p, implicit, false, out, es)
	es.release()
}

// seedBranch searches from one seed root and admits every completion: a
// seeded search has a single half, which carries the whole match.
func (e *Engine) seedBranch(view graph.View, p *Plan, root int32, consumed bool, out *PathwaySet, es *evalState) {
	e.search(view, p, root, consumed, p.SeedDir, es)
	done := es.fwd
	if p.SeedDir == Backward {
		done = es.bwd
	}
	for _, h := range done {
		e.finish(view, p.Checked, out, es.halves[h.off:h.end], es)
	}
	es.halves, es.fwd, es.bwd = es.halves[:0], es.fwd[:0], es.bwd[:0]
}

// search runs one half-search from root — forwards over the automaton, or
// backwards over the reversed one — and appends every completed
// half-pathway to es.fwd or es.bwd, the trivial one included when the
// root's state set already accepts. consumed is false only for a seed
// standing in as the implicit endpoint of a leading edge match: that root
// is part of the sequence but has consumed nothing, so it cannot complete.
func (e *Engine) search(view graph.View, p *Plan, root int32, consumed bool, dir Direction, es *evalState) {
	c := p.Checked
	final, done := c.NFA().Accept, &es.fwd
	if dir == Backward {
		final, done = c.NFA().Start, &es.bwd
	}
	es.stack = append(es.stack[:0], root)
	for len(es.stack) > 0 {
		if es.checkpoint() {
			break
		}
		cur := es.pop()
		es.m.PartialsExplored++
		n, states := es.partials[cur], es.states(cur)
		if (consumed || cur != root) && states.Has(final) {
			*done = append(*done, es.complete(cur, dir))
		}
		if int(n.depth) >= p.MaxLen+2 {
			continue
		}
		if n.isEdge {
			// Structural successor: the edge's far endpoint node.
			e.step(view, c, cur, n.next, dir, es)
		} else if hint, feasible := e.expandHint(c, states, dir); feasible {
			e.expand(view, c, cur, n.elem, hint, dir, es)
		}
	}
}

// expand performs one Extend operator execution: an adjacency probe at
// node followed by one consume attempt per returned edge. When tracing,
// the probe's wall time and candidate volume accumulate into the Extend
// span of the (hint, dir) operator.
func (e *Engine) expand(view graph.View, c *rpe.Checked, cur int32, node graph.UID, hint *rpe.Atom, dir Direction, es *evalState) {
	n := es.tr.extendNode(hint, dir)
	t0 := n.begin()
	edges, err := e.acc.IncidentEdges(view, node, dir, hint, c, es.gov)
	n.end(t0)
	n.probed(1, len(edges), 0)
	if err != nil {
		es.fail(err)
		return
	}
	es.m.EdgesScanned += len(edges)
	if err := es.gov.AddEdges(len(edges)); err != nil {
		es.fail(err)
		return
	}
	for _, edge := range edges {
		n.candidate(e.step(view, c, cur, edge, dir, es))
	}
}

// step consumes one element in the given direction, pushing the extended
// partial when any transition fires. It reports whether the element was
// consumed.
func (e *Engine) step(view graph.View, c *rpe.Checked, cur int32, elem graph.UID, dir Direction, es *evalState) bool {
	for i := cur; i >= 0; i = es.partials[i].parent {
		if es.partials[i].elem == elem {
			return false // cycle prevention: H.id_ != ANY(uid_list)
		}
	}
	obj := e.acc.Store().Object(elem)
	if !e.consume(view, c, cur, obj, dir, es) {
		es.m.ElementsRejected++
		return false
	}
	es.m.ElementsConsumed++
	es.stack = append(es.stack, es.push(cur, obj, dir))
	return true
}

// consume advances partial cur's state set over one element: skip
// transitions fire whenever the element exists in the view; atom
// transitions additionally require class and predicate satisfaction. The
// successor set, already epsilon-closed, is written at the tail of
// es.sets for the caller to push its partial; when no transition fires
// the tail is rolled back and consume reports false.
func (e *Engine) consume(view graph.View, c *rpe.Checked, cur int32, obj *graph.Object, dir Direction, es *evalState) bool {
	if obj == nil || !view.Visible(obj) {
		return false
	}
	nfa := c.NFA()
	off := len(es.sets)
	es.sets = grown(es.sets, es.nw)[:off+es.nw]
	from, next := es.states(cur), rpe.StateSet(es.sets[off:])
	next.Reset()
	for i := range es.known {
		es.known[i] = 0
	}
	isEdge := obj.IsEdge()
	fired := false
	for wi, w := range from {
		for ; w != 0; w &= w - 1 {
			s := wi*64 + bits.TrailingZeros64(w)
			transIdx := nfa.OutTrans(s)
			if dir == Backward {
				transIdx = nfa.InTrans(s)
			}
			for _, ti := range transIdx {
				if !c.CanConsume(ti, isEdge) {
					continue // statically dead for this element kind
				}
				tr := &nfa.Trans[ti]
				if a := tr.Atom; a != nil {
					aw, bit := a.ID()>>6, uint64(1)<<(uint(a.ID())&63)
					if es.known[aw]&bit == 0 {
						es.known[aw] |= bit
						es.sat[aw] &^= bit
						if e.atomSatisfiedInView(view, c, a, obj) {
							es.sat[aw] |= bit
						}
					}
					if es.sat[aw]&bit == 0 {
						continue
					}
				}
				fired = true
				if dir == Forward {
					next.Or(nfa.Closure(tr.To))
				} else {
					next.Or(nfa.ClosureRev(tr.From))
				}
			}
		}
	}
	if !fired {
		es.sets = es.sets[:off]
	}
	return fired
}

// atomSatisfiedInView reports whether the object satisfies the atom at
// some instant admitted by the view (exact for point views; a candidate
// filter for range views, with exact validity computed at assembly).
func (e *Engine) atomSatisfiedInView(view graph.View, c *rpe.Checked, a *rpe.Atom, obj *graph.Object) bool {
	if !obj.Class.IsSubclassOf(c.ClassOf(a)) {
		return false
	}
	if view.IsPoint() {
		ver := obj.VersionAt(view.At())
		return ver != nil && c.Satisfies(a, obj.Class, ver.Fields)
	}
	for i := range obj.Versions {
		ver := &obj.Versions[i]
		if ver.Period.Overlaps(view.Window()) && c.Satisfies(a, obj.Class, ver.Fields) {
			return true
		}
	}
	return false
}

// expandHint inspects the transitions leaving (or entering) the current
// state set. feasible is false when no live transition can consume an
// edge at all — the partial pathway cannot be extended and the adjacency
// scan is skipped entirely. Otherwise, when every way to consume the next
// edge goes through a single edge atom and no skip transition, that atom
// is returned as a safe pruning hint for the backend's partitioned
// indexes; a nil hint with feasible true means an unpruned scan.
func (e *Engine) expandHint(c *rpe.Checked, cur rpe.StateSet, dir Direction) (hint *rpe.Atom, feasible bool) {
	nfa := c.NFA()
	for wi, w := range cur {
		for ; w != 0; w &= w - 1 {
			s := wi*64 + bits.TrailingZeros64(w)
			transIdx := nfa.OutTrans(s)
			if dir == Backward {
				transIdx = nfa.InTrans(s)
			}
			for _, ti := range transIdx {
				if !c.CanConsume(ti, true) {
					continue // can never consume an edge: irrelevant here
				}
				a := nfa.Trans[ti].Atom
				if a == nil {
					return nil, true // a live skip can consume any edge: no pruning
				}
				if c.ClassOf(a).IsNode() {
					continue // node atoms cannot consume the edge; irrelevant
				}
				if hint != nil && hint != a {
					return nil, true // multiple possible edge atoms: no single hint
				}
				hint, feasible = a, true
			}
		}
	}
	return hint, feasible
}

// combine joins the current anchor element's backward and forward
// halves and finalizes each pathway. Both halves hold the anchor; it is
// taken from the forward one.
func (e *Engine) combine(view graph.View, c *rpe.Checked, out *PathwaySet, es *evalState) {
	for _, b := range es.bwd {
		if es.checkpoint() {
			return
		}
		head := es.halves[b.off : b.end-1]
		es.elems = append(es.elems[:0], head...)
		for _, f := range es.fwd {
			es.elems = append(es.elems[:len(head)], es.halves[f.off:f.end]...)
			e.finish(view, c, out, es.elems, es)
		}
	}
}

// finish admits an assembled candidate when it is a simple pathway not
// yet in the set whose exact validity overlaps the view window. Duplicate
// pathways (found again through another anchor instance or run) are
// skipped before the validity computation — ComputeValidity is
// deterministic per element sequence, so recomputation would be pure
// waste. The candidate still lives in scratch memory; only an admitted
// one is copied, into the set's own backing array.
func (e *Engine) finish(view graph.View, c *rpe.Checked, out *PathwaySet, elems []graph.UID, es *evalState) {
	if hasDuplicates(elems) {
		return
	}
	h := hashElems(elems)
	if _, dup := out.find(h, elems); dup {
		return
	}
	validity := computeValidity(e.acc.Store(), c, elems, &es.validity)
	if validity.IsEmpty() {
		return
	}
	overlaps := false
	for _, iv := range validity {
		if iv.Overlaps(view.Window()) {
			overlaps = true
			break
		}
	}
	if !overlaps {
		return
	}
	out.admit(h, elems, validity)
	if err := es.gov.AddPaths(1); err != nil {
		es.fail(err)
	}
}

// hasDuplicates reports whether a UID occurs twice. Pathways are a handful
// of elements long, so the quadratic scan beats sorting a copy.
func hasDuplicates(uids []graph.UID) bool {
	for i, u := range uids {
		for _, v := range uids[:i] {
			if u == v {
				return true
			}
		}
	}
	return false
}
