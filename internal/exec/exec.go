package exec

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rpe"
	"repro/internal/schema"
	"repro/internal/temporal"
)

// SeedCostThreshold is the anchor cost above which a variable prefers an
// anchor imported from a join over its own (§3.3: "in join queries, an
// anchor can be imported from a joined path"; "small depends on available
// system resources").
const SeedCostThreshold = 512

// Executor runs analyzed queries on its Default engine, or a variable on
// the engine RunOptions.Routes names for it (data-integration mode). It
// holds no per-query state and is never mutated: everything that varies
// per execution arrives in RunOptions, so one Executor serves concurrent
// queries.
type Executor struct {
	Default *plan.Engine
}

// New returns an executor over a single engine.
func New(e *plan.Engine) *Executor { return &Executor{Default: e} }

// RunOptions is what varies per execution.
type RunOptions struct {
	// Limits bounds this query's resources; the zero value is unlimited.
	Limits Limits
	// Parent, when non-nil, enables operator-DAG tracing: it receives the
	// query's "Query" span as a child, and every variable evaluation's
	// Eval span nests under a per-variable group span inside it.
	Parent *obs.Span
	// Through, when non-nil, restricts the evaluation of a query with one
	// range variable and no subquery to the pathways that hold one of
	// these elements (plan.EvalOpts.Through): each row is one of them.
	Through []graph.UID
	// Kept counts pathways the caller keeps from an earlier run beside
	// this one's. They are charged against Limits.MaxPaths first, so a
	// restricted run fails where the whole answer would.
	Kept int
	// Routes directs range variables, by name, to other engines: their
	// pathways are joined with the Default engine's in the executor, node
	// identity crossing stores through the schema-unique id field.
	Routes map[string]*plan.Engine
}

// runCtx carries one query execution's instrumentation and governance:
// the metrics totals accumulated across every variable evaluation
// (subqueries included), the per-variable plans chosen by the optimizer,
// the query's governor, and — when tracing — the query span under which
// per-variable Eval spans nest.
type runCtx struct {
	metrics plan.Metrics
	plans   map[string]*plan.Plan
	span    *obs.Span // non-nil enables operator-DAG tracing
	through []graph.UID
	// Per-variable grouping spans: almost every query has one range
	// variable, so the first gets two plain fields and the map is only
	// allocated for the second onward.
	var0name string
	var0span *obs.Span
	vars     map[string]*obs.Span
	gov      *plan.Governor
	engine   *plan.Engine
	routes   map[string]*plan.Engine
}

// engineFor returns the engine that evaluates range variable varName.
func (rc *runCtx) engineFor(varName string) *plan.Engine {
	if e, ok := rc.routes[varName]; ok {
		return e
	}
	return rc.engine
}

// varSpan returns the grouping span of one range variable's evaluations.
func (rc *runCtx) varSpan(name string) *obs.Span {
	if rc.span == nil {
		return nil
	}
	if rc.var0span != nil && rc.var0name == name {
		return rc.var0span
	}
	if sp := rc.vars[name]; sp != nil {
		return sp
	}
	sp := rc.span.Child("Var", name)
	if rc.var0span == nil {
		rc.var0name, rc.var0span = name, sp
		return sp
	}
	if rc.vars == nil {
		rc.vars = make(map[string]*obs.Span, 2)
	}
	rc.vars[name] = sp
	return sp
}

// Run executes the analyzed query under ctx and o.Limits: it aborts
// cooperatively with ErrCanceled/ErrDeadlineExceeded when ctx is canceled
// or its deadline (or Limits.MaxDuration, whichever is earlier) passes,
// and with ErrLimitExceeded when a resource bound is crossed. The result
// carries the evaluation metrics totaled across all variables, each
// variable's executed plan, and the span tree when traced. Run is also
// the query's panic boundary: a panic in the executor's own join
// machinery (engine panics are already converted one layer down)
// surfaces as a *plan.PanicError instead of unwinding the caller.
func (x *Executor) Run(ctx context.Context, a *query.Analyzed, o RunOptions) (res *Result, err error) {
	rc := &runCtx{plans: map[string]*plan.Plan{}, gov: plan.NewGovernor(ctx, o.Limits), through: o.Through,
		engine: x.Default, routes: o.Routes}
	if o.Parent != nil {
		rc.span = o.Parent.StartChild("Query", "")
	}
	defer rc.span.Finish()
	defer func() {
		if r := recover(); r != nil {
			err = &plan.PanicError{Value: r, Stack: debug.Stack(), Span: rc.span}
		}
	}()
	if err := rc.gov.AddPaths(o.Kept); err != nil {
		return nil, err
	}
	return x.run(a, rc)
}

func (x *Executor) run(a *query.Analyzed, rc *runCtx) (*Result, error) {
	lv, err := x.newLevel(a, nil, rc)
	if err != nil {
		return nil, err
	}
	t, err := x.join(lv, rc)
	if err != nil {
		return nil, err
	}
	n := t.len()
	res := &Result{Metrics: rc.metrics, Plans: rc.plans, Trace: rc.span}
	if rc.span != nil {
		rc.span.AddRows(0, int64(n))
	}
	if a.Query.Agg != query.AggNone {
		res.Agg = aggregate(a.Query, t)
		return res, nil
	}
	for _, term := range a.Query.Projs {
		res.Columns = append(res.Columns, term.String())
	}
	// Pathway-set aggregation: count(P) counts distinct pathways bound to
	// the variable across the result rows and collapses to a single row.
	// The set dedups on the elements alone: validity plays no part.
	if len(a.Query.Projs) > 0 && a.Query.Projs[0].Fn == query.FnCount {
		counts := &table{vals: make([]any, len(a.Query.Projs)), ncols: len(a.Query.Projs)}
		for j, term := range a.Query.Projs {
			var distinct plan.PathwaySet
			for i := 0; i < n; i++ {
				if p, ok := t.slots.lookup(term.Var, t.row(i)); ok {
					distinct.Add(plan.Pathway{Elems: p.Elems})
				}
			}
			counts.vals[j] = int64(distinct.Len())
		}
		res.Rows = []Row{{t: counts}}
		return res, nil
	}
	if n == 0 {
		return res, nil
	}
	t.ncols = len(a.Query.Projs)
	t.vals = make([]any, n*t.ncols)
	res.Rows = make([]Row, n)
	for i := range res.Rows {
		res.Rows[i] = Row{t: t, i: i}
		vals := res.Rows[i].Values()
		for j, term := range a.Query.Projs {
			v, err := x.termValue(a, term, t.slots, t.row(i))
			if err != nil {
				return nil, err
			}
			vals[j] = v
		}
	}
	return res, nil
}

// slots names the binding slots of one query level. Slot i of every
// tuple binds names[i], found in views[i]; a tuple holds only the slots
// bound so far, in evaluation order. A correlated subquery's slots
// extend the outer tuple's, so lookup, which scans from the end, finds a
// subquery variable before an outer one of the same name.
type slots struct {
	names  []string
	views  []graph.View
	perVar bool // variables carry their own time bindings
}

// slot returns the index of name among bind's slots, or -1 when unbound.
func (sl *slots) slot(name string, bind []plan.Pathway) int {
	for i := len(bind) - 1; i >= 0; i-- {
		if sl.names[i] == name {
			return i
		}
	}
	return -1
}

// lookup returns the pathway bound to name in bind.
func (sl *slots) lookup(name string, bind []plan.Pathway) (plan.Pathway, bool) {
	if i := sl.slot(name, bind); i >= 0 {
		return bind[i], true
	}
	return plan.Pathway{}, false
}

// level is one query level compiled for one run: its binding slots, its
// variables' evaluation order, its join predicates, the window its rows
// must coexist in under query-level time, and its NOT EXISTS subqueries'
// own levels, compiled on first use. A subquery level lives as long as
// the run, so a subquery that runs once per outer tuple is compiled, and
// evaluates each of its unseeded variables, once.
type level struct {
	a      *query.Analyzed
	sl     *slots
	order  []evalStep
	base   int // how many of the outer level's slots lead this level's
	joins  []*query.JoinPred
	window temporal.Interval
	subs   []*level // by index into a.Subqueries; nil until first used
	// buf is a subquery level's tuple under test: the outer tuple and
	// then its own variables.
	buf []plan.Pathway
}

// newLevel compiles query level a; outer holds the slots of the
// enclosing level of a correlated subquery and is nil at the top level.
func (x *Executor) newLevel(a *query.Analyzed, outer *slots, rc *runCtx) (*level, error) {
	q := a.Query
	order, err := x.evalOrder(a, rc)
	if err != nil {
		return nil, err
	}
	lv := &level{a: a, sl: &slots{perVar: hasPerVarTimes(q)}, order: order, subs: make([]*level, len(a.Subqueries))}
	if outer != nil {
		lv.base = len(outer.names)
		lv.sl.names = append(lv.sl.names, outer.names...)
		lv.sl.views = append(lv.sl.views, outer.views...)
		lv.buf = make([]plan.Pathway, 0, lv.base+len(order))
	}
	for _, step := range order {
		rv, _ := q.Var(step.name)
		lv.sl.names = append(lv.sl.names, step.name)
		lv.sl.views = append(lv.sl.views, x.viewFor(step.name, q, rv.At, rc))
	}
	for _, p := range q.Preds {
		if jp, ok := p.(*query.JoinPred); ok {
			lv.joins = append(lv.joins, jp)
		}
	}
	if !lv.sl.perVar {
		lv.window = x.windowFor(q, rc)
	}
	return lv, nil
}

// sub returns the level of lv's j-th NOT EXISTS subquery.
func (x *Executor) sub(lv *level, j int, rc *runCtx) (*level, error) {
	if lv.subs[j] == nil {
		s, err := x.newLevel(lv.a.Subqueries[j], lv.sl, rc)
		if err != nil {
			return nil, err
		}
		lv.subs[j] = s
	}
	return lv.subs[j], nil
}

// stepPaths returns the pathways of lv's k-th variable for the tuple of
// bind. An unseeded variable does not depend on the tuple: it is
// evaluated once, and every tuple joins against that one set.
func (x *Executor) stepPaths(lv *level, k int, bind []plan.Pathway, rc *runCtx) ([]plan.Pathway, error) {
	step := &lv.order[k]
	if step.evaluated {
		return step.paths, nil
	}
	paths, err := x.evalVar(lv.a, *step, lv.sl.views[lv.base+k], lv.sl, bind, rc)
	if err == nil && !step.seeded {
		step.paths, step.evaluated = paths, true
	}
	return paths, err
}

// join builds the top level's row table. Variables are evaluated in
// order, the table growing one slot a row at each step, and a join
// predicate applies as soon as both its sides are bound (pushing
// selections into the nested-loops join). The first variable's pathways
// are the table's own slab: the one empty tuple extends to each of them
// in place. A later step writes a new slab, row by row, the tuple's slots
// and then the pathway just bound; a row the joins reject gives its
// space back to the next. The finished rows must then coexist, under
// query-level time, and satisfy every NOT EXISTS.
func (x *Executor) join(lv *level, rc *runCtx) (*table, error) {
	t := &table{slots: lv.sl}
	n := 1 // one empty tuple
	for k := range lv.order {
		w := t.width
		var next []plan.Pathway
		for i := 0; i < n; i++ {
			// Checkpoint between tuple evaluations: a canceled query stops
			// growing the join instead of finishing the nested loop.
			if err := rc.gov.Check(); err != nil {
				return nil, err
			}
			tup := t.bind[i*w : (i+1)*w : (i+1)*w]
			paths, err := x.stepPaths(lv, k, tup, rc)
			if err != nil {
				return nil, err
			}
			if w == 0 {
				next = paths[:0]
			} else if next == nil && len(paths) > 0 {
				// Room for the first tuple's rows, or for one row a tuple
				// when that is more; a step that binds more grows it.
				next = make([]plan.Pathway, 0, max(len(paths), n)*(w+1))
			}
			for _, p := range paths {
				at := len(next)
				next = append(append(next, tup...), p)
				if !x.joinsSatisfied(lv.a, lv.joins, lv.sl, next[at:]) {
					next = next[:at]
				}
			}
		}
		t.bind, t.width = next, w+1
		n = t.len()
	}
	// Temporal row semantics: with query-level time, all pathways in a row
	// must coexist and the row reports the maximal coexistence ranges.
	if !lv.sl.perVar && t.width > 1 {
		t.co = make([]temporal.Set, n)
	}
	kept := 0
	for i := 0; i < n; i++ {
		co, ok, err := x.admits(lv, t.row(i), rc)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		copy(t.row(kept), t.row(i))
		if t.co != nil {
			t.co[kept] = co
		}
		kept++
	}
	t.bind = t.bind[:kept*t.width]
	if t.co != nil {
		t.co = t.co[:kept]
	}
	return t, nil
}

// admits reports whether a tuple of lv with every variable bound is a
// row: under query-level time its pathways coexist, returned as co,
// within the selection window, and no NOT EXISTS subquery finds a tuple
// extending it.
func (x *Executor) admits(lv *level, bind []plan.Pathway, rc *runCtx) (co temporal.Set, ok bool, err error) {
	if !lv.sl.perVar {
		co = coexistence(lv.a.Query, lv.sl, bind)
		if co.IsEmpty() || !co.Overlaps(lv.window) {
			return nil, false, nil
		}
	}
	for j := range lv.subs {
		sub, err := x.sub(lv, j, rc)
		if err != nil {
			return nil, false, err
		}
		found, err := x.exists(sub, append(sub.buf[:0], bind...), 0, rc)
		if err != nil || found {
			return nil, false, err
		}
	}
	return co, true, nil
}

// exists reports whether subquery level lv has a row extending bind, the
// outer tuple with lv's first k variables bound: it searches depth
// first, and stops at the first tuple that passes the joins and admits.
func (x *Executor) exists(lv *level, bind []plan.Pathway, k int, rc *runCtx) (bool, error) {
	if k == len(lv.order) {
		_, ok, err := x.admits(lv, bind, rc)
		return ok, err
	}
	if err := rc.gov.Check(); err != nil {
		return false, err
	}
	paths, err := x.stepPaths(lv, k, bind, rc)
	if err != nil {
		return false, err
	}
	for _, p := range paths {
		next := append(bind, p)
		if !x.joinsSatisfied(lv.a, lv.joins, lv.sl, next) {
			continue
		}
		if found, err := x.exists(lv, next, k+1, rc); err != nil || found {
			return found, err
		}
	}
	return false, nil
}

// evalStep is one variable evaluation with its chosen strategy.
type evalStep struct {
	name   string
	plan   *plan.Plan
	seeded bool
	// seedFrom names the join term supplying seeds: the already-bound
	// variable and which end of it, plus which end of this variable the
	// seeds bind to.
	seedDir    plan.Direction
	seedVar    string
	seedVarFn  query.PathFn
	anchorCost float64
	// paths holds an unseeded step's pathways once evaluated is set.
	paths     []plan.Pathway
	evaluated bool
}

// evalOrder plans the variable evaluation order: anchored variables by
// ascending anchor cost, then variables whose anchors are imported from
// joins against already-ordered variables.
func (x *Executor) evalOrder(a *query.Analyzed, rc *runCtx) ([]evalStep, error) {
	q := a.Query
	var anchored []evalStep
	pending := map[string]bool{}
	for _, rv := range q.Vars {
		checked := a.Checked[rv.Name]
		st := rc.engineFor(rv.Name).Accessor().Store()
		p, err := plan.Build(checked, st.Stats())
		if err != nil {
			pending[rv.Name] = true
			continue
		}
		anchored = append(anchored, evalStep{name: rv.Name, plan: p, anchorCost: p.Anchor.Cost})
	}
	sort.SliceStable(anchored, func(i, j int) bool { return anchored[i].anchorCost < anchored[j].anchorCost })

	ordered := make([]evalStep, 0, len(q.Vars))
	placed := map[string]bool{}
	place := func(s evalStep) {
		ordered = append(ordered, s)
		placed[s.name] = true
	}

	// Costly-anchored variables become seeded when a join links them to a
	// cheaper variable placed earlier.
	for _, s := range anchored {
		if s.anchorCost > SeedCostThreshold {
			if seed, ok := x.findSeed(a, s.name, placed); ok {
				seed.plan = plan.BuildSeeded(a.Checked[s.name], seed.seedDir)
				place(seed)
				continue
			}
		}
		place(s)
	}
	// Unanchored variables require an imported anchor.
	for progress := true; progress && len(pending) > 0; {
		progress = false
		for _, name := range schema.SortedNames(pending) {
			seed, ok := x.findSeed(a, name, placed)
			if !ok {
				continue
			}
			seed.plan = plan.BuildSeeded(a.Checked[name], seed.seedDir)
			place(seed)
			delete(pending, name)
			progress = true
		}
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("exec: variable(s) %v have no anchor and no join to import one from (§3.3)",
			schema.SortedNames(pending))
	}
	return ordered, nil
}

// findSeed looks for a join predicate equating source/target of name with
// source/target of an already-placed (or outer) variable.
func (x *Executor) findSeed(a *query.Analyzed, name string, placed map[string]bool) (evalStep, bool) {
	available := func(v string) bool {
		return placed[v] || a.IsOuterRef(v)
	}
	for _, p := range a.Query.Preds {
		jp, ok := p.(*query.JoinPred)
		if !ok || jp.Negated || jp.Left.Field != "" || jp.Right.Field != "" {
			continue
		}
		for _, ori := range []struct{ mine, other query.Term }{
			{jp.Left, jp.Right}, {jp.Right, jp.Left},
		} {
			if ori.mine.Var != name || ori.mine.Fn == query.FnLen || ori.other.Fn == query.FnLen {
				continue
			}
			if ori.other.Var == name || !available(ori.other.Var) {
				continue
			}
			dir := plan.Forward
			if ori.mine.Fn == query.FnTarget {
				dir = plan.Backward
			}
			return evalStep{name: name, seeded: true, seedDir: dir,
				seedVar: ori.other.Var, seedVarFn: ori.other.Fn}, true
		}
	}
	return evalStep{}, false
}

// evalVar evaluates one variable for the current tuple on its engine —
// the default one, or the store the variable is routed to — with the
// query's governor and trace threaded through, folding the evaluation's
// metrics into the run context. An engine error fails the query with that
// error.
func (x *Executor) evalVar(a *query.Analyzed, step evalStep, view graph.View, sl *slots, bind []plan.Pathway, rc *runCtx) ([]plan.Pathway, error) {
	rc.plans[step.name] = step.plan
	eng := rc.engineFor(step.name)
	opts := plan.EvalOpts{Gov: rc.gov, Through: rc.through, TraceParent: rc.varSpan(step.name)}
	if step.seeded {
		seeds, err := x.seedsFor(step, sl, bind, eng, rc)
		if err != nil {
			return nil, err
		}
		opts.Seeds = seeds
	}
	set, m, _, err := eng.EvalWith(view, step.plan, opts)
	rc.metrics.Merge(m)
	if err != nil {
		return nil, err
	}
	return applyViewFilter(a, step.name, view, set.Paths()), nil
}

// seedsFor resolves the seed nodes of a seeded step for evaluation on
// eng: the joined variable's endpoint in the tuple of bind, translated
// into eng's store when the stores differ (identity crosses via the
// unique id field).
func (x *Executor) seedsFor(step evalStep, sl *slots, bind []plan.Pathway, eng *plan.Engine, rc *runCtx) ([]graph.UID, error) {
	seedPath, ok := sl.lookup(step.seedVar, bind)
	if !ok {
		return nil, fmt.Errorf("exec: internal: seed variable %q not bound", step.seedVar)
	}
	seedNode := seedPath.Source()
	if step.seedVarFn == query.FnTarget {
		seedNode = seedPath.Target()
	}
	from := rc.engineFor(step.seedVar).Accessor().Store()
	return translateSeed(from, eng.Accessor().Store(), seedNode)
}

// applyViewFilter restricts a variable's pathways to its named view (when
// the variable also carries an explicit MATCHES): the pathway must
// satisfy both RPEs simultaneously, so its validity intersects with the
// view's and must still overlap the selection window. The validity is
// computed in the view's store — the store the pathways were found in.
func applyViewFilter(a *query.Analyzed, varName string, view graph.View, paths []plan.Pathway) []plan.Pathway {
	vc, ok := a.ViewChecked[varName]
	if !ok {
		return paths
	}
	st := view.Store()
	out := paths[:0]
	for _, p := range paths {
		vv := plan.ComputeValidity(st, vc, p.Elems)
		joint := p.Validity.Intersect(vv)
		if joint.IsEmpty() {
			continue
		}
		overlaps := false
		for _, iv := range joint {
			if iv.Overlaps(view.Window()) {
				overlaps = true
				break
			}
		}
		if !overlaps {
			continue
		}
		p.Validity = joint
		out = append(out, p)
	}
	return out
}

// translateSeed maps a node UID from the seed variable's store into the
// target store. Same store: identity. Different stores: via the
// schema-unique id field.
func translateSeed(from, to *graph.Store, seed graph.UID) ([]graph.UID, error) {
	if from == to {
		return []graph.UID{seed}, nil
	}
	obj := from.Elem(seed)
	if obj == nil || len(obj.Versions) == 0 {
		return nil, nil
	}
	id := obj.Versions[len(obj.Versions)-1].Rec[schema.IDSlot]
	if id == nil {
		return nil, nil
	}
	uid, found := to.LookupUnique(schema.NodeRoot, "id", id)
	if !found {
		return nil, nil
	}
	return []graph.UID{uid}, nil
}

// joinsSatisfied applies all join predicates whose variables are bound in
// the tuple of bind (just-bound variable included).
func (x *Executor) joinsSatisfied(a *query.Analyzed, joins []*query.JoinPred, sl *slots, bind []plan.Pathway) bool {
	for _, jp := range joins {
		if sl.slot(jp.Left.Var, bind) < 0 || sl.slot(jp.Right.Var, bind) < 0 {
			continue
		}
		lv, lerr := x.joinValue(a, jp.Left, sl, bind)
		rv, rerr := x.joinValue(a, jp.Right, sl, bind)
		if lerr != nil || rerr != nil {
			return false
		}
		if rpe.Equal(lv, rv) == jp.Negated {
			return false
		}
	}
	return true
}

// joinValue computes a join term's comparable value: the endpoint node's
// unique id (store-independent identity), a field value, or the length.
func (x *Executor) joinValue(a *query.Analyzed, t query.Term, sl *slots, bind []plan.Pathway) (any, error) {
	i := sl.slot(t.Var, bind)
	if i < 0 {
		return nil, fmt.Errorf("exec: unbound variable %q", t.Var)
	}
	p := bind[i]
	if t.Fn == query.FnLen {
		return int64(p.Hops()), nil
	}
	node := p.Source()
	if t.Fn == query.FnTarget {
		node = p.Target()
	}
	view := sl.views[i]
	st := view.Store()
	obj := st.Elem(node)
	if obj == nil {
		return nil, fmt.Errorf("exec: dangling node %d", node)
	}
	rec := view.RecordAt(obj)
	if rec == nil && len(obj.Versions) > 0 {
		rec = obj.Versions[len(obj.Versions)-1].Rec
	}
	slot, ok := schema.IDSlot, true
	if t.Field != "" {
		slot, ok = obj.Class.Slot(t.Field)
	}
	if rec == nil || !ok {
		return nil, nil
	}
	return rec[slot], nil
}

// termValue computes a projection value for a finished row's tuple: a
// pathway projection is a pointer to its slot in bind, not a copy.
func (x *Executor) termValue(a *query.Analyzed, t query.Term, sl *slots, bind []plan.Pathway) (any, error) {
	if t.Fn == query.FnNone {
		if i := sl.slot(t.Var, bind); i >= 0 {
			return &bind[i], nil
		}
		return nil, fmt.Errorf("exec: unbound variable %q", t.Var)
	}
	return x.joinValue(a, t, sl, bind)
}

// viewFor resolves the temporal view of a variable on its routed store.
func (x *Executor) viewFor(varName string, q *query.Query, varAt *query.TimeSpec, rc *runCtx) graph.View {
	st := rc.engineFor(varName).Accessor().Store()
	ts := varAt
	if ts == nil {
		ts = q.At
	}
	if ts == nil {
		if q.Agg != query.AggNone {
			// Aggregates scan the full history by default.
			return graph.WindowView(st, allHistory)
		}
		return graph.CurrentView(st)
	}
	if ts.IsRange {
		return graph.WindowView(st, ts.Window)
	}
	return graph.PointViewAt(st, ts.Window.Start)
}

// allHistory is the default window of an aggregate: every transaction
// time there is.
var allHistory = temporal.Between(math.MinInt64, temporal.Forever)

// windowFor is the query-level selection window used for coexistence.
func (x *Executor) windowFor(q *query.Query, rc *runCtx) temporal.Interval {
	if q.At == nil {
		if q.Agg != query.AggNone {
			return allHistory
		}
		// Implicit current snapshot: the coexistence check happens against
		// "now" — with routed variables on stores with independent clocks,
		// the latest of the participating nows.
		now := rc.engine.Accessor().Store().Clock().Now()
		for _, eng := range rc.routes {
			now = max(now, eng.Accessor().Store().Clock().Now())
		}
		return temporal.Between(now, temporal.Add(now, time.Nanosecond))
	}
	return q.At.Window
}

// coexistence intersects all bound pathway validities of a tuple.
func coexistence(q *query.Query, sl *slots, bind []plan.Pathway) temporal.Set {
	var co temporal.Set
	first := true
	for _, rv := range q.Vars {
		p, ok := sl.lookup(rv.Name, bind)
		if !ok {
			continue
		}
		if first {
			co = p.Validity
			first = false
			continue
		}
		co = co.Intersect(p.Validity)
	}
	return co
}

// aggregate computes First/Last/When-Exists over the row times: with
// per-variable time, each bound pathway's own validity.
func aggregate(q *query.Query, t *table) *AggValue {
	var all temporal.Set
	for i := 0; i < t.len(); i++ {
		if t.slots.perVar {
			for _, p := range t.row(i) {
				all = append(all, p.Validity...)
			}
			continue
		}
		all = append(all, t.coexist(i)...)
	}
	all = all.Normalize()
	out := &AggValue{}
	if q.At != nil && q.At.IsRange {
		all = all.ClipTo(q.At.Window)
		out.at = q.At
	}
	if out.Exists = !all.IsEmpty(); !out.Exists {
		return out
	}
	switch q.Agg {
	case query.AggFirstTime:
		first, _ := all.First()
		out.Time = out.Bound(first)
	case query.AggLastTime:
		last, _ := all.Last()
		out.Time = out.Bound(last)
		out.Current = temporal.Nanos(out.Time) == temporal.Forever
	case query.AggWhenExists:
		out.Set = all
	}
	return out
}

func hasPerVarTimes(q *query.Query) bool {
	for _, rv := range q.Vars {
		if rv.At != nil {
			return true
		}
	}
	return false
}
