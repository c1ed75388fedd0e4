package plan

import (
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rpe"
	"repro/internal/temporal"
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
// the search, the element table every element read goes through, the
// arena the partial pathways live in, and the result under construction.
// A nil trace or governor is a no-op at every call site, so the search
// loops have one body. One evaluation owns its evalState from
// getEvalState to putEvalState; the pool hands the arenas, capacity kept,
// to the next one, and nothing the evaluation returns points into them:
// seal copies the result out (DESIGN.md, "Search core memory model").
// The arenas grow as append grows a slice (slices.Grow): capacity
// survives from evaluation to evaluation, so a state pays for its growth
// once, and a steeper rule would only raise what an idle state keeps.
type evalState struct {
	m   Metrics
	tr  *traceEval
	gov *Governor
	err error

	// tab resolves each element the evaluation touches once and serves
	// the pinned object, and what was learned about it, from then on.
	tab elemTable

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
	// halves holds the completed forward half-pathways of the current
	// anchor element, each written out once, in pathway order, and fwd
	// indexes them; emptied when the element's pathways are assembled. A
	// backward half, or a seeded search's, is written after them only
	// until it is joined or finished, so halves never holds more than
	// the forward halves and one more. bwd counts the backward halves
	// joined with the forward ones.
	halves   []graph.UID
	fwd      []half
	bwd      int
	elems    []graph.UID // the candidate pathway being assembled
	validity validityScratch

	// goal holds the goal of the forward and the backward half-searches
	// (goal.go), and goalQ the breadth-first queue that marks them.
	goal  [2]goalHalf
	goalQ []int32

	// anchors holds a restricted evaluation's anchor elements, and keep,
	// sorted, the elements each of its pathways must hold when anchors
	// has more (EvalOpts.Through); keep is empty otherwise.
	anchors, keep []graph.UID

	// out is the result under construction. Its pathways' elements and
	// validity are windows of outElems and outIvs, appended in pathway
	// order.
	out      PathwaySet
	outElems []graph.UID
	outIvs   temporal.Set
}

// idleStates holds evalStates between evaluations, at most one per
// processor. It is a free list, not a sync.Pool: a pool is emptied by
// every other collection, and the scratch regrown after each would cost
// an allocation per evaluation in proportion to how often the heap is
// collected — a smaller live heap would allocate more per query.
var idleStates struct {
	sync.Mutex
	list []*evalState
}

// getEvalState takes an idle evalState, or a new one, and resets every
// field, keeping only the arenas' capacity.
func getEvalState(gov *Governor) *evalState {
	var es *evalState
	idleStates.Lock()
	if n := len(idleStates.list); n > 0 {
		es, idleStates.list[n-1] = idleStates.list[n-1], nil
		idleStates.list = idleStates.list[:n-1]
	}
	idleStates.Unlock()
	if es == nil {
		es = new(evalState)
	}
	*es = evalState{
		gov:      gov,
		tab:      es.tab,
		partials: es.partials[:0],
		sets:     es.sets[:0],
		stack:    es.stack[:0],
		halves:   es.halves[:0],
		fwd:      es.fwd[:0],
		elems:    es.elems[:0],
		validity: es.validity,
		goalQ:    es.goalQ[:0],
		anchors:  es.anchors[:0],
		keep:     es.keep[:0],
		out:      PathwaySet{paths: es.out.paths[:0], table: es.out.table[:0]},
		outElems: es.outElems[:0],
		outIvs:   es.outIvs[:0],
	}
	return es
}

// putEvalState makes es idle once nothing reads it any more, dropping
// every pointer into the store, the trace and the query so an idle state
// pins none of them. A state beyond one per processor is left to the
// collector.
func putEvalState(es *evalState) {
	es.tab.drop()
	clear(es.validity.objs)
	clear(es.validity.elements)
	clear(es.out.paths) // windows of slab arrays that growth has replaced
	es.tr, es.gov, es.err = nil, nil, nil
	es.goal = [2]goalHalf{}
	idleStates.Lock()
	if len(idleStates.list) < runtime.GOMAXPROCS(0) {
		idleStates.list = append(idleStates.list, es)
	}
	idleStates.Unlock()
}

// partial is one partial pathway: elem appended to (prepended to, in a
// backward search) the partial at index parent. It records what consume
// learned about elem so the search never resolves it again.
type partial struct {
	elem   graph.UID
	next   graph.UID // an edge's structural successor: Dst forward, Src backward
	ent    int32     // elem's element-table entry
	parent int32     // -1 at a search root
	depth  int32     // elements in the sequence, root included
	isEdge bool
}

// half locates one completed half-pathway in evalState.halves.
type half struct{ off, end int32 }

// begin sizes the scratch for one plan over view: state sets of the
// automaton's width and an element table for the plan's atoms.
func (es *evalState) begin(st *graph.Store, view graph.View, p *Plan) {
	es.nw = (p.Checked.NFA().NumStates + 63) / 64
	es.tab.reset(st, view, p.Checked)
}

// elemTable is an evaluation's element table. Each element is resolved
// at first touch — one store read, pinning the object version the rest
// of the evaluation sees — and Select, Extend and the validity
// computation all read it from here, together with what they learned
// about it: visibility in the view, satisfaction of each atom in the
// view, stability for the query, and whether the partial pathway being
// expanded holds it. Entries live in a slab addressed through idx, their
// atom bits in a second one; all three keep their capacity in the pool,
// and drop strips the object pointers.
type elemTable struct {
	st   *graph.Store
	view graph.View
	c    *rpe.Checked
	aw   int // words per atom mask
	idx  uidIndex
	ents []elemEntry
	// bits holds entry i's atom masks at words [2*i*aw, 2*(i+1)*aw): first
	// which atoms are known, then which of those are satisfied in the view.
	bits []uint64
}

// elemEntry is one resolved element; obj is nil when the uid names none.
// isEdge copies the object's kind, so the search's per-candidate checks
// never load the object itself. onPath marks an element of the partial
// pathway search is expanding (markPath). goal holds, per search
// direction, a node's distance in hops to that half's goal plus one, or
// zero where the goal's breadth-first search did not reach (goal.go).
type elemEntry struct {
	obj                 *graph.Elem
	visible, isEdge     bool
	stableKnown, stable bool
	onPath              bool
	goal                [2]uint8
}

// reset readies an emptied table for one evaluation of c over view.
func (t *elemTable) reset(st *graph.Store, view graph.View, c *rpe.Checked) {
	t.st, t.view, t.c = st, view, c
	t.aw = (len(c.Atoms()) + 63) / 64
	t.idx.reset()
}

// drop empties the table, keeping its capacity, and drops every pointer
// into the store and the query.
func (t *elemTable) drop() {
	clear(t.ents)
	t.ents, t.bits = t.ents[:0], t.bits[:0]
	t.st, t.view, t.c = nil, graph.View{}, nil
}

// resolve returns uid's entry, reading the store on first touch only.
func (t *elemTable) resolve(uid graph.UID) int32 {
	if i, ok := t.idx.get(uid); ok {
		return i
	}
	obj := t.st.Elem(uid)
	i := int32(len(t.ents))
	t.ents = append(t.ents, elemEntry{obj: obj, visible: obj != nil && t.view.Visible(obj), isEdge: obj != nil && obj.IsEdge()})
	off := len(t.bits)
	t.bits = slices.Grow(t.bits, 2*t.aw)[:off+2*t.aw]
	clear(t.bits[off:])
	if obj != nil {
		// Only a UID naming an object is indexed, so the index's
		// directory is bounded by the store's UID range, whatever a
		// stray seed names.
		t.idx.set(uid, i)
	}
	return i
}

// satisfies reports whether entry i's object, which must exist,
// satisfies atom a at some instant the view admits, deciding it on the
// first ask.
func (t *elemTable) satisfies(i int32, a *rpe.Atom) bool {
	w := 2*int(i)*t.aw + a.ID()>>6
	known, sat, bit := &t.bits[w], &t.bits[w+t.aw], uint64(1)<<(uint(a.ID())&63)
	if *known&bit == 0 {
		*known |= bit
		if satisfiedInView(t.view, t.c, a, t.ents[i].obj) {
			*sat |= bit
		}
	}
	return *sat&bit != 0
}

// stable reports whether entry i's object, which must exist, is stable
// for the query (stableForQuery), deciding it on the first ask.
func (t *elemTable) stable(i int32) bool {
	e := &t.ents[i]
	if !e.stableKnown {
		e.stableKnown, e.stable = true, stableForQuery(t.c, e.obj)
	}
	return e.stable
}

// release empties the arena and the completed halves once an anchor
// element's pathways are assembled.
func (es *evalState) release() {
	es.partials, es.sets = es.partials[:0], es.sets[:0]
	es.halves, es.fwd, es.bwd = es.halves[:0], es.fwd[:0], 0
}

// states returns partial i's state set; valid until the arena next grows.
func (es *evalState) states(i int32) rpe.StateSet {
	return es.sets[int(i)*es.nw : (int(i)+1)*es.nw]
}

// root starts a half-search at element elem, entry ei of the element
// table, with the given (shared, read-only) closure as its state set and
// returns the new partial's index.
func (es *evalState) root(elem graph.UID, ei int32, states rpe.StateSet, dir Direction) int32 {
	es.sets = append(es.sets, states...)
	return es.push(-1, elem, ei, dir)
}

// push adds the partial of element elem, entry ei, whose state set was
// just written at the tail of es.sets (by root or consume).
func (es *evalState) push(parent int32, elem graph.UID, ei int32, dir Direction) int32 {
	p := partial{elem: elem, ent: ei, parent: parent, depth: 1, isEdge: es.tab.ents[ei].isEdge}
	if parent >= 0 {
		p.depth = es.partials[parent].depth + 1
	}
	if p.isEdge {
		obj := es.tab.ents[ei].obj
		p.next = obj.Dst
		if dir == Backward {
			p.next = obj.Src
		}
	}
	es.partials = append(es.partials, p)
	return int32(len(es.partials) - 1)
}

// pop takes the top pending partial, moves the on-path marks from the
// partial expanded last onto it (markPath), and drops the finished ones
// above it.
func (es *evalState) pop(last int32) int32 {
	cur := es.stack[len(es.stack)-1]
	es.stack = es.stack[:len(es.stack)-1]
	es.markPath(last, es.partials[cur].parent)
	es.tab.ents[es.partials[cur].ent].onPath = true
	es.partials, es.sets = es.partials[:cur+1], es.sets[:(int(cur)+1)*es.nw]
	return cur
}

// markPath clears the on-path marks of partial last's chain down to, not
// including, its ancestor keep (-1 clears the whole chain). The marked
// elements are then exactly those of keep's chain, the partial pathway
// whose child is expanded next, so a cycle test is one load. In DFS
// order the next partial's parent is always on the chain of the one
// expanded before it, and that chain is still in the arena.
func (es *evalState) markPath(last, keep int32) {
	for i := last; i > keep; i = es.partials[i].parent {
		es.tab.ents[es.partials[i].ent].onPath = false
	}
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
	es.halves = slices.Grow(es.halves, size)[:off+size]
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
// governor, the seed nodes (for seeded plans), the elements a restricted
// evaluation runs through, and the tracing sink.
type EvalOpts struct {
	// Gov is the query's governor; nil evaluates ungoverned.
	Gov *Governor
	// Seeds supplies the imported anchor nodes of a seeded plan.
	Seeds []graph.UID
	// Through, when non-nil, restricts an anchored plan's evaluation to
	// the pathways that hold at least one of these elements: every atom
	// of the expression is anchored at the elements that satisfy it, in
	// place of the plan's anchor. A pathway's membership depends on its
	// own elements only, so this is the part of the answer a write to
	// them can change.
	Through []graph.UID
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
	var err error
	if p.Seeded {
		err = e.evalSeeded(view, p, o.Seeds, es)
	} else {
		err = e.eval(view, p, o.Through, es)
	}
	var set *PathwaySet
	if err == nil {
		set = es.seal()
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

// eval runs an anchored plan: Select the anchor atoms' elements, then
// search both ways from each. A non-nil through restricts it
// (EvalOpts.Through): every atom is selected, from through's elements.
func (e *Engine) eval(view graph.View, p *Plan, through []graph.UID, es *evalState) (err error) {
	defer recovered(es, &err)
	c := p.Checked
	nfa := c.NFA()
	es.begin(e.acc.Store(), view, p)
	atoms := p.Anchor.Atoms
	if through != nil {
		atoms = c.Atoms()
		e.throughAnchors(view, c, through, es)
	} else {
		for d := range es.goal {
			es.goal[d].atoms, es.goal[d].radius = p.goal(Direction(d))
		}
	}
	for _, atom := range atoms {
		if es.checkpoint() {
			break
		}
		sel := es.tr.selectNode(atom)
		elements := es.anchors
		var aerr error
		if through == nil {
			t0 := sel.begin()
			elements, aerr = e.acc.AnchorElements(view, c, atom, es.gov)
			sel.end(t0)
		}
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
			ei := es.tab.resolve(uid)
			if !es.tab.ents[ei].visible || !es.tab.satisfies(ei, atom) {
				continue
			}
			if !e.aim(view, c, es) {
				continue
			}
			for _, ti := range transIdxs {
				tr := nfa.Trans[ti]
				before := es.out.Len()
				e.search(view, p, es.root(uid, ei, nfa.Closure(tr.To), Forward), true, Forward, es)
				e.search(view, p, es.root(uid, ei, nfa.ClosureRev(tr.From), Backward), true, Backward, es)
				es.tr.unionNode().rows(es.bwd*len(es.fwd), es.out.Len()-before)
				es.release()
			}
		}
	}
	return es.err
}

// throughAnchors fills es.anchors with the elements a restricted
// evaluation selects from. Every pathway element an atom consumes is one
// of through's, or, where the automaton places elements no atom consumes
// (freeKinds), one of its neighbours is: an element a bridge skips, or
// the implicit endpoint node of a leading or trailing edge atom, sits
// next to an element an atom consumes, since every sub-expression's
// first and last consumption is an atom's. So the visible neighbours of
// through's elements of such a kind join the anchors, and es.keep then
// holds through for finish to admit only pathways that hold one of them.
func (e *Engine) throughAnchors(view graph.View, c *rpe.Checked, through []graph.UID, es *evalState) {
	es.anchors = append(es.anchors, through...)
	freeEdges, freeNodes := freeKinds(c)
	if !freeEdges && !freeNodes {
		return
	}
	for _, uid := range through {
		ei := es.tab.resolve(uid)
		ent := es.tab.ents[ei]
		switch {
		case !ent.visible:
		case ent.isEdge && freeEdges:
			es.anchors = append(es.anchors, ent.obj.Src, ent.obj.Dst)
		case !ent.isEdge && freeNodes:
			for _, dir := range [2]Direction{Forward, Backward} {
				edges, err := e.acc.IncidentEdges(view, uid, dir, nil, c, es.gov)
				if err == nil {
					err = es.gov.AddEdges(len(edges))
				}
				if err != nil {
					es.fail(err)
					return
				}
				es.m.EdgesScanned += len(edges)
				es.anchors = append(es.anchors, edges...)
			}
		}
	}
	if len(es.anchors) > len(through) {
		es.keep = append(es.keep, through...)
		slices.Sort(es.keep)
	}
}

// freeKinds reports whether a pathway matching c can hold an edge, and a
// node, at a position no atom consumes: skipped by a concatenation
// bridge, or — nodes only — the implicit endpoint before a leading or
// after a trailing edge atom.
func freeKinds(c *rpe.Checked) (edges, nodes bool) {
	nfa := c.NFA()
	for ti, tr := range nfa.Trans {
		if tr.Atom == nil {
			edges = edges || c.CanConsume(ti, true)
			nodes = nodes || c.CanConsume(ti, false)
		} else if c.CanConsume(ti, true) &&
			(nfa.ClosureRev(tr.From).Has(nfa.Start) || nfa.Closure(tr.To).Has(nfa.Accept)) {
			nodes = true
		}
	}
	return edges, nodes
}

// holdsAny reports whether elems holds an element of sorted.
func holdsAny(elems, sorted []graph.UID) bool {
	for _, u := range elems {
		if _, ok := slices.BinarySearch(sorted, u); ok {
			return true
		}
	}
	return false
}

// evalSeeded evaluates a plan whose anchor is imported from a join. Seeds
// are node UIDs bound to the pathway's source (Forward) or target
// (Backward) end.
func (e *Engine) evalSeeded(view graph.View, p *Plan, seeds []graph.UID, es *evalState) (err error) {
	defer recovered(es, &err)
	es.begin(e.acc.Store(), view, p)
	for _, seed := range seeds {
		if es.checkpoint() {
			break
		}
		ei := es.tab.resolve(seed)
		if !es.tab.ents[ei].visible || es.tab.ents[ei].isEdge {
			continue
		}
		es.tr.seedSelectNode().rows(1, 1)
		union := es.tr.unionNode()
		before := es.out.Len()
		t0 := union.begin()
		e.evalSeedOne(view, p, seed, ei, es)
		union.end(t0)
		union.rows(0, es.out.Len()-before)
		es.m.AnchorRecords++
	}
	return es.err
}

// evalSeedOne runs both seed branches (§3.4) for one seed node, given
// with its element-table entry.
func (e *Engine) evalSeedOne(view graph.View, p *Plan, seed graph.UID, ei int32, es *evalState) {
	c := p.Checked
	nfa := c.NFA()
	start := nfa.Closure(nfa.Start)
	if p.SeedDir == Backward {
		start = nfa.ClosureRev(nfa.Accept)
	}
	implicit := es.root(seed, ei, start, p.SeedDir)
	// Branch (a): the seed node is consumed by a leading (for a Backward
	// plan, trailing) node atom.
	if e.consume(c, implicit, ei, p.SeedDir, es) {
		e.search(view, p, es.push(-1, seed, ei, p.SeedDir), true, p.SeedDir, es)
	}
	// Branch (b): the seed is the implicit endpoint of a leading edge
	// match; nothing consumed yet.
	e.search(view, p, implicit, false, p.SeedDir, es)
	es.release()
}

// search runs one half-search from root — forwards over the automaton, or
// backwards over the reversed one — and hands every completed
// half-pathway to completed, the trivial one included when the root's
// state set already accepts. consumed is false only for a seed standing
// in as the implicit endpoint of a leading edge match: that root is part
// of the sequence but has consumed nothing, so it cannot complete.
func (e *Engine) search(view graph.View, p *Plan, root int32, consumed bool, dir Direction, es *evalState) {
	c := p.Checked
	final := c.NFA().Accept
	if dir == Backward {
		final = c.NFA().Start
	}
	es.stack = append(es.stack[:0], root)
	last := int32(-1) // the partial expanded last, whose chain is marked
	for len(es.stack) > 0 {
		if es.checkpoint() {
			break
		}
		cur := es.pop(last)
		last = cur
		es.m.PartialsExplored++
		n, states := es.partials[cur], es.states(cur)
		if (consumed || cur != root) && states.Has(final) {
			e.completed(view, p, es.complete(cur, dir), dir, es)
		}
		if int(n.depth) >= p.MaxLen+2 {
			continue
		}
		if n.isEdge {
			// Structural successor: the edge's far endpoint node.
			e.step(c, cur, n.next, dir, es)
		} else if hint, feasible := e.expandHint(c, states, dir); feasible {
			e.expand(view, c, cur, n.elem, hint, dir, es.reach(n, dir, p.MaxLen), es)
		}
	}
	es.markPath(last, -1)
}

// expand performs one Extend operator execution: an adjacency probe at
// node followed by one consume attempt per returned edge. An edge whose
// far node lies more than reach hops from a goal-directed half's goal is
// rejected unconsumed (reach -1: no such check). When tracing, the
// probe's wall time and candidate volume accumulate into the Extend span
// of the (hint, dir) operator.
func (e *Engine) expand(view graph.View, c *rpe.Checked, cur int32, node graph.UID, hint *rpe.Atom, dir Direction, reach int, es *evalState) {
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
		if reach >= 0 && es.beyond(edge, dir, reach) {
			es.m.ElementsRejected++
			n.candidate(false)
			continue
		}
		n.candidate(e.step(c, cur, edge, dir, es))
	}
}

// step consumes one element in the given direction, pushing the extended
// partial when any transition fires. It reports whether the element was
// consumed.
func (e *Engine) step(c *rpe.Checked, cur int32, elem graph.UID, dir Direction, es *evalState) bool {
	ei := es.tab.resolve(elem)
	if es.tab.ents[ei].onPath {
		return false // cycle prevention: H.id_ != ANY(uid_list)
	}
	if !e.consume(c, cur, ei, dir, es) {
		es.m.ElementsRejected++
		return false
	}
	es.m.ElementsConsumed++
	es.stack = append(es.stack, es.push(cur, elem, ei, dir))
	return true
}

// consume advances partial cur's state set over one element, given as
// its element-table entry: skip transitions fire whenever the element
// exists in the view; atom transitions additionally require class and
// predicate satisfaction. The successor set, already epsilon-closed, is
// written at the tail of es.sets for the caller to push its partial; when
// no transition fires the tail is rolled back and consume reports false.
func (e *Engine) consume(c *rpe.Checked, cur int32, ei int32, dir Direction, es *evalState) bool {
	if !es.tab.ents[ei].visible {
		return false
	}
	nfa := c.NFA()
	off := len(es.sets)
	es.sets = slices.Grow(es.sets, es.nw)[:off+es.nw]
	from, next := es.states(cur), rpe.StateSet(es.sets[off:])
	next.Reset()
	isEdge := es.tab.ents[ei].isEdge
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
				if tr.Atom != nil && !es.tab.satisfies(ei, tr.Atom) {
					continue
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

// satisfiedInView reports whether the object satisfies the atom at some
// instant admitted by the view (exact for point views; a candidate filter
// for range views, with exact validity computed at assembly).
func satisfiedInView(view graph.View, c *rpe.Checked, a *rpe.Atom, obj *graph.Elem) bool {
	if !obj.Class.IsSubclassOf(c.ClassOf(a)) {
		return false
	}
	if view.IsPoint() {
		ver := obj.VersionAt(view.At())
		return ver != nil && c.Satisfies(a, obj.Class, ver.Rec)
	}
	for i := range obj.Versions {
		if obj.Period(i).Overlaps(view.Window()) && c.Satisfies(a, obj.Class, obj.Versions[i].Rec) {
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

// completed takes a half-pathway complete just wrote at the tail of
// es.halves. An anchored search keeps a forward half for the backward
// ones, which run after all of them, and joins each backward half with
// them as it completes; a seeded search has a single half, which carries
// the whole match and is finished at once. The backward search runs
// depth-first, so the pathways come out backward-major in the order a
// join of every backward half with every forward one would give.
func (e *Engine) completed(view graph.View, p *Plan, h half, dir Direction, es *evalState) {
	switch {
	case p.Seeded:
		e.finish(view, es.halves[h.off:h.end], es)
	case dir == Forward:
		es.fwd = append(es.fwd, h)
		return
	default:
		e.join(view, h, es)
	}
	es.halves = es.halves[:h.off]
}

// join combines backward half b with every forward half of the current
// anchor element and finalizes each pathway: the Union operator. Both
// halves hold the anchor; it is taken from the forward one.
func (e *Engine) join(view graph.View, b half, es *evalState) {
	union := es.tr.unionNode()
	t0 := union.begin()
	head := es.halves[b.off : b.end-1]
	es.elems = append(es.elems[:0], head...)
	for _, f := range es.fwd {
		es.elems = append(es.elems[:len(head)], es.halves[f.off:f.end]...)
		e.finish(view, es.elems, es)
	}
	union.end(t0)
	es.bwd++
}

// finish admits an assembled candidate when it is a simple pathway not
// yet in the set whose exact validity overlaps the view window. Duplicate
// pathways (found again through another anchor instance or run) are
// skipped before the validity computation — ComputeValidity is
// deterministic per element sequence, so recomputation would be pure
// waste. The candidate comes out of an accepting run of the search, which
// computeValidity may rely on.
func (e *Engine) finish(view graph.View, elems []graph.UID, es *evalState) {
	if hasDuplicates(elems) || len(es.keep) > 0 && !holdsAny(elems, es.keep) {
		return
	}
	i, slot := es.out.find(hashElems(elems), elems)
	if i >= 0 {
		return
	}
	validity := computeValidity(&es.tab, elems, &es.validity, true)
	if !validity.Overlaps(view.Window()) {
		return
	}
	es.admit(slot, elems, validity)
	if err := es.gov.AddPaths(1); err != nil {
		es.fail(err)
	}
}

// admit inserts a candidate find reported absent at slot. elems and
// validity are scratch: they are appended to the result's slabs.
func (es *evalState) admit(slot int, elems []graph.UID, validity temporal.Set) {
	e, v := len(es.outElems), len(es.outIvs)
	es.outElems = append(es.outElems, elems...)
	es.outIvs = append(es.outIvs, validity...)
	es.out.insert(slot, Pathway{Elems: es.outElems[e:], Validity: es.outIvs[v:]})
}

// seal returns the evaluation's result at exact size: the pathways, their
// elements and their validity copied out of the scratch into one array
// each, so nothing the caller keeps points into the pool.
func (es *evalState) seal() *PathwaySet {
	set := &PathwaySet{}
	if len(es.out.paths) == 0 {
		return set
	}
	set.paths = make([]Pathway, len(es.out.paths))
	elems := make([]graph.UID, len(es.outElems))
	copy(elems, es.outElems)
	ivs := make(temporal.Set, len(es.outIvs))
	copy(ivs, es.outIvs)
	for i, p := range es.out.paths {
		n, v := len(p.Elems), len(p.Validity)
		set.paths[i] = Pathway{Elems: elems[:n:n], Validity: ivs[:v:v]}
		elems, ivs = elems[n:], ivs[v:]
	}
	return set
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
