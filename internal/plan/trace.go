package plan

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rpe"
)

// traceEval accumulates one traced evaluation's operator-DAG spans. Each
// logical operator of the plan — the Select for every anchor atom, the
// Extend for every (edge atom, direction) pair the search expands
// through, and the Union that assembles pathways from half-searches —
// owns one span whose duration and counters are the totals across all of
// the operator's executions during the search.
//
// The hot search loops do not touch the spans directly: an evaluation is
// single-goroutine, so each operator's statistics accumulate in a plain
// opNode (field adds, no locks, no counter-name hashing) and flush into
// the span exactly once when the evaluation finishes. This keeps traced
// evaluation close to metered cost — the per-probe price is a slice
// index and a few integer adds, with clock reads sampled (see opNode),
// measured end to end as obs.telemetry_cost_us in BENCHMARK.json.
type traceEval struct {
	root    *obs.Span
	backend string
	sfx     string    // " [backend]", the suffix of every operator detail
	labels  []string  // cached atom renderings, indexed by atom ID
	selects []*opNode // indexed by atom ID
	extends []*opNode // indexed by (atom ID+1)*2 + direction; slot 0/1 = unpruned
	union   *opNode
	seedSel *opNode
	goals   [2]*opNode // indexed by direction
	flushed bool
}

// opNode is one operator's lock-free statistics accumulator, paired with
// the span it flushes into.
//
// Operator wall time is sampled, not measured exhaustively: a clock pair
// per probe was the single largest traced-evaluation cost (a search can
// issue hundreds of adjacency probes, and two clock reads per probe add
// microseconds per query), so begin/end time one probe in opSample and
// flush scales the sampled total by calls/timed. Counters (probes,
// edges, rows) stay exact — only durations are estimates.
type opNode struct {
	span     *obs.Span
	calls    int64 // timed-section entries (begin/end pairs)
	timed    int64 // entries that actually carried a clock pair
	sdur     time.Duration
	probes   int64
	edges    int64
	rejected int64
	rowsIn   int64
	rowsOut  int64
}

// opSample is the duration sampling interval; a power of two so the
// begin fast path is a mask test. The first call is always timed.
// Sized for this class of VM, where a clock read costs ~70ns: at 16,
// a 200-probe search pays ~25 reads (~2µs) instead of ~400 (~27µs).
const opSample = 16

// begin enters a timed section: every opSample-th entry returns a real
// start time, the rest return the zero Time (end ignores those). Like
// every opNode method the search calls, it is a no-op on the nil node an
// untraced evaluation gets, so the search loops have one body.
func (n *opNode) begin() time.Time {
	if n == nil {
		return time.Time{}
	}
	c := n.calls
	n.calls++
	if c&(opSample-1) == 0 {
		n.timed++
		return time.Now()
	}
	return time.Time{}
}

// end leaves a timed section opened by begin.
func (n *opNode) end(t0 time.Time) {
	if !t0.IsZero() {
		n.sdur += time.Since(t0)
	}
}

// probed records one backend probe: a Select returning out anchor
// records, or an Extend fed one partial pathway (in = 1) whose adjacency
// probe returned edges candidates.
func (n *opNode) probed(in, edges, out int) {
	if n != nil {
		n.probes++
		n.rowsIn += int64(in)
		n.edges += int64(edges)
		n.rowsOut += int64(out)
	}
}

// candidate records the fate of one Extend candidate: pushed as a new
// partial, or pruned by cycle prevention / rejected by the NFA.
func (n *opNode) candidate(consumed bool) {
	switch {
	case n == nil:
	case consumed:
		n.rowsOut++
	default:
		n.rejected++
	}
}

// rows records rows through an operator that probes no backend: a Union
// execution over in candidate half-pairs admitting out new pathways, or
// an imported seed passing the seeded Select.
func (n *opNode) rows(in, out int) {
	if n != nil {
		n.rowsIn += int64(in)
		n.rowsOut += int64(out)
	}
}

// newTraceEval starts an Eval span (under parent when non-nil). Operator
// labels come from the Checked expression's rendering cache
// (rpe.Checked.Rendered) — the compiled expression outlives the per-run
// Plan, so the recursive renderings are built once per statement, not
// once per traced evaluation. Load-bearing for the telemetry-on cost
// BENCHMARK.json reports as obs.telemetry_cost_us.
func newTraceEval(backend string, p *Plan, parent *obs.Span) *traceEval {
	expr, atoms := p.Checked.Rendered()
	sfx := " [" + backend + "]"
	var root *obs.Span
	if parent != nil {
		root = parent.StartChild("Eval", expr+sfx)
	} else {
		root = obs.NewSpan("Eval", expr+sfx)
	}
	return &traceEval{
		root:    root,
		backend: backend,
		sfx:     sfx,
		labels:  atoms,
		selects: make([]*opNode, len(atoms)),
		extends: make([]*opNode, (len(atoms)+1)*2),
	}
}

// selectNode returns the accumulator of the Select operator for one
// anchor atom.
func (t *traceEval) selectNode(a *rpe.Atom) *opNode {
	if t == nil {
		return nil
	}
	id := a.ID()
	n := t.selects[id]
	if n == nil {
		sp := t.root.Child("Select", t.labels[id]+t.sfx)
		sp.Add("atom_id", int64(id))
		n = &opNode{span: sp}
		t.selects[id] = n
	}
	return n
}

// seedSelectNode is the Select-equivalent accumulator of a seeded plan:
// rows out are the imported seed nodes admitted by the view.
func (t *traceEval) seedSelectNode() *opNode {
	if t == nil {
		return nil
	}
	if t.seedSel == nil {
		t.seedSel = &opNode{span: t.root.Child("Select", "imported seeds [join]")}
	}
	return t.seedSel
}

// extendNode returns the accumulator of the Extend operator for one
// (pruning hint, direction) pair. A nil hint is the unpruned
// scan-every-edge case the §6 ablation measures.
func (t *traceEval) extendNode(hint *rpe.Atom, dir Direction) *opNode {
	if t == nil {
		return nil
	}
	slot := int(dir) // unpruned slots
	if hint != nil {
		slot = (hint.ID()+1)*2 + int(dir)
	}
	n := t.extends[slot]
	if n == nil {
		detail := "(unpruned) " + dir.String() + t.sfx
		if hint != nil {
			detail = t.labels[hint.ID()] + " " + dir.String() + t.sfx
		}
		sp := t.root.Child("Extend", detail)
		if hint != nil {
			sp.Add("atom_id", int64(hint.ID()))
		}
		n = &opNode{span: sp}
		t.extends[slot] = n
	}
	return n
}

// unionNode returns the accumulator of the Union operator joining
// backward and forward half-pathways around anchors (and assembling
// seeded results).
func (t *traceEval) unionNode() *opNode {
	if t == nil {
		return nil
	}
	if t.union == nil {
		t.union = &opNode{span: t.root.Child("Union", "")}
	}
	return t.union
}

// goalNode returns the accumulator of the Goal operator of the dir
// half-search: the breadth-first search that marks its goal's distances.
// Rows in are the goal nodes, rows out the nodes within the radius.
func (t *traceEval) goalNode(dir Direction, g *goalHalf) *opNode {
	if t == nil {
		return nil
	}
	if t.goals[dir] == nil {
		t.goals[dir] = &opNode{span: t.root.Child("Goal", goalLabel(t.labels, dir, g.atoms, g.radius)+t.sfx)}
	}
	return t.goals[dir]
}

// goalLabel renders a half's goal: its direction, its goal atoms and its
// radius.
func goalLabel(labels []string, dir Direction, atoms []int, radius int) string {
	var sb strings.Builder
	sb.WriteString(dir.String())
	sb.WriteString(" toward ")
	for i, id := range atoms {
		if i > 0 {
			sb.WriteString(" | ")
		}
		sb.WriteString(labels[id])
	}
	fmt.Fprintf(&sb, " within %d hops", radius)
	return sb.String()
}

// flush writes every operator accumulator into its span. Idempotent, so
// panic recovery can flush before attaching the tree to the error and
// the normal finish path stays a no-op afterwards.
func (t *traceEval) flush() {
	if t == nil || t.flushed {
		return
	}
	t.flushed = true
	for _, n := range t.selects {
		n.flush(false) // nil slots (never-probed atoms) no-op
	}
	for _, n := range t.extends {
		// Extend spans always carry edges_scanned (0 is the interesting
		// ablation signal for a probe that found nothing).
		n.flush(true)
	}
	t.union.flush(false)
	t.seedSel.flush(false)
	for _, n := range t.goals {
		n.flush(true)
	}
}

func (n *opNode) flush(withEdges bool) {
	if n == nil {
		return
	}
	if n.timed > 0 {
		// Scale the sampled durations back up to the full call count.
		n.span.AddDuration(n.sdur * time.Duration(n.calls) / time.Duration(n.timed))
	}
	n.span.AddRows(n.rowsIn, n.rowsOut)
	if n.probes > 0 {
		n.span.Add("probes", n.probes)
	}
	if withEdges {
		n.span.Add("edges_scanned", n.edges)
	}
	if n.rejected > 0 {
		n.span.Add("rejected", n.rejected)
	}
}

// finish flushes the operator accumulators and closes the Eval span,
// stamping result totals on the root so the tree is self-describing.
func (t *traceEval) finish(set *PathwaySet, m Metrics) {
	t.flush()
	if set != nil {
		t.root.AddRows(0, int64(set.Len()))
	}
	t.root.Add("anchors", int64(m.AnchorRecords))
	t.root.Add("edges_scanned", int64(m.EdgesScanned))
	t.root.Add("partials", int64(m.PartialsExplored))
	t.root.Add("paths", int64(m.PathsEmitted))
	t.root.Finish()
}

// opStats aggregates the measured statistics attributed to one atom (or
// one operator kind) across a traced evaluation's span tree.
type opStats struct {
	dur      time.Duration
	probes   int64
	edges    int64
	rowsIn   int64
	rowsOut  int64
	rejected int64
	seen     bool
}

func (o *opStats) fold(s *obs.Span) {
	o.seen = true
	o.dur += s.Duration()
	in, out := s.Rows()
	o.rowsIn += in
	o.rowsOut += out
	o.probes += s.Counter("probes")
	o.edges += s.Counter("edges_scanned")
	o.rejected += s.Counter("rejected")
}

func (o *opStats) add(other opStats) {
	if !other.seen {
		return
	}
	o.seen = true
	o.dur += other.dur
	o.probes += other.probes
	o.edges += other.edges
	o.rowsIn += other.rowsIn
	o.rowsOut += other.rowsOut
	o.rejected += other.rejected
}

// annotation renders the aggregate as the bracketed suffix of a plan line.
func (o opStats) annotation() string {
	if !o.seen {
		return ""
	}
	parts := []string{"time=" + obs.FormatDuration(o.dur)}
	if o.probes > 0 {
		parts = append(parts, fmt.Sprintf("probes=%d", o.probes))
	}
	if o.rowsIn > 0 {
		parts = append(parts, fmt.Sprintf("rows_in=%d", o.rowsIn))
	}
	parts = append(parts, fmt.Sprintf("rows_out=%d", o.rowsOut))
	parts = append(parts, fmt.Sprintf("edges_scanned=%d", o.edges))
	if o.rejected > 0 {
		parts = append(parts, fmt.Sprintf("rejected=%d", o.rejected))
	}
	return "  [" + strings.Join(parts, " ") + "]"
}

// traceStats is the per-atom view of a traced evaluation, extracted from
// a span (sub)tree produced by a traced EvalWith. The tree may be a single
// Eval span or any ancestor (a per-variable or per-query span): all
// descendant operator spans are folded in.
type traceStats struct {
	selects  map[int]*opStats
	extends  map[int]*opStats
	unpruned opStats
	union    opStats
	goal     opStats
	evalDur  time.Duration
	evals    int64
	paths    int64
}

func collectTraceStats(root *obs.Span) *traceStats {
	ts := &traceStats{
		selects: make(map[int]*opStats),
		extends: make(map[int]*opStats),
	}
	root.Walk(func(s *obs.Span) {
		id, hasAtom := s.CounterOK("atom_id")
		switch s.Name() {
		case "Eval":
			ts.evals++
			ts.evalDur += s.Duration()
			_, out := s.Rows()
			ts.paths += out
		case "Select":
			if hasAtom {
				st := ts.selects[int(id)]
				if st == nil {
					st = &opStats{}
					ts.selects[int(id)] = st
				}
				st.fold(s)
			}
		case "Extend":
			if hasAtom {
				st := ts.extends[int(id)]
				if st == nil {
					st = &opStats{}
					ts.extends[int(id)] = st
				}
				st.fold(s)
			} else {
				ts.unpruned.fold(s)
			}
		case "Union":
			ts.union.fold(s)
		case "Goal":
			ts.goal.fold(s)
		}
	})
	return ts
}

// subtreeStats aggregates the stats of every atom under an expression —
// the annotation of ExtendBlock, Union, and Sequence lines.
func (ts *traceStats) subtreeStats(e rpe.Expr) opStats {
	var agg opStats
	var walk func(e rpe.Expr)
	walk = func(e rpe.Expr) {
		switch x := e.(type) {
		case *rpe.Atom:
			if st := ts.selects[x.ID()]; st != nil {
				agg.add(*st)
			}
			if st := ts.extends[x.ID()]; st != nil {
				agg.add(*st)
			}
		case *rpe.Sequence:
			for _, part := range x.Parts {
				walk(part)
			}
		case *rpe.Alternation:
			for _, alt := range x.Alts {
				walk(alt)
			}
		case *rpe.Repetition:
			walk(x.Body)
		}
	}
	walk(e)
	return agg
}

// ExplainAnalyze renders the plan's operator DAG annotated with the
// measured per-operator statistics of a traced evaluation — wall time,
// rows in/out, backend probe counts, and EdgesScanned — in the style of
// EXPLAIN ANALYZE. root is a span returned by a traced EvalWith (or any
// ancestor span containing one or more such evaluations, whose stats
// aggregate).
func (p *Plan) ExplainAnalyze(root *obs.Span) string {
	ts := collectTraceStats(root)
	var sb strings.Builder
	fmt.Fprintf(&sb, "RPE: %s\n", p.Checked.Expr)
	if p.Seeded {
		fmt.Fprintf(&sb, "Select: imported anchor (join seed at %s end)\n", seedEnd(p.SeedDir))
	} else {
		fmt.Fprintf(&sb, "Select: %s\n", p.Anchor)
	}
	fmt.Fprintf(&sb, "MaxLen: %d elements\n", p.MaxLen)
	p.explainGoals(&sb)
	anchors := p.anchorIDs()
	sb.WriteString(explainOps(p.Checked.Expr, anchors, func(e rpe.Expr) string {
		switch x := e.(type) {
		case *rpe.Atom:
			var agg opStats
			if anchors[x.ID()] {
				if st := ts.selects[x.ID()]; st != nil {
					agg.add(*st)
				}
			}
			if st := ts.extends[x.ID()]; st != nil {
				agg.add(*st)
			}
			return agg.annotation()
		default:
			return ts.subtreeStats(e).annotation()
		}
	}))
	if ts.unpruned.seen {
		sb.WriteString("  Extend (unpruned, all edge classes)" + ts.unpruned.annotation() + "\n")
	}
	if ts.union.seen {
		sb.WriteString("  Union (assemble pathways)" + ts.union.annotation() + "\n")
	}
	if ts.goal.seen {
		sb.WriteString("  Goal (distances to the pinned end)" + ts.goal.annotation() + "\n")
	}
	fmt.Fprintf(&sb, "Eval: time=%s evals=%d paths=%d\n",
		obs.FormatDuration(ts.evalDur), ts.evals, ts.paths)
	return sb.String()
}
