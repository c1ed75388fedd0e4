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

// Executor runs analyzed queries. Default serves every variable unless
// Routes maps a variable name to another engine (data-integration mode).
// It holds no per-query state: everything that varies per execution
// arrives in RunOptions, so one Executor serves concurrent queries.
type Executor struct {
	Default *plan.Engine
	Routes  map[string]*plan.Engine
}

// New returns an executor over a single engine.
func New(e *plan.Engine) *Executor { return &Executor{Default: e} }

// Route directs a range variable to a specific engine, joining its paths
// with paths from other stores in the executor.
func (x *Executor) Route(varName string, e *plan.Engine) {
	if x.Routes == nil {
		x.Routes = make(map[string]*plan.Engine)
	}
	x.Routes[varName] = e
}

func (x *Executor) engineFor(varName string) *plan.Engine {
	if e, ok := x.Routes[varName]; ok {
		return e
	}
	return x.Default
}

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
	rc := &runCtx{plans: map[string]*plan.Plan{}, gov: plan.NewGovernor(ctx, o.Limits), through: o.Through}
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
	sl, rows, err := x.rows(a, nil, Row{}, rc)
	if err != nil {
		return nil, err
	}
	res := &Result{Metrics: rc.metrics, Plans: rc.plans, Trace: rc.span}
	if rc.span != nil {
		rc.span.AddRows(0, int64(len(rows)))
	}
	if a.Query.Agg != query.AggNone {
		res.Agg = aggregate(a.Query, rows, sl.perVar)
		return res, nil
	}
	for _, t := range a.Query.Projs {
		res.Columns = append(res.Columns, t.String())
	}
	// Pathway-set aggregation: count(P) counts distinct pathways bound to
	// the variable across the result rows and collapses to a single row.
	// The set dedups on the elements alone: validity plays no part.
	if len(a.Query.Projs) > 0 && a.Query.Projs[0].Fn == query.FnCount {
		var out Row
		for _, t := range a.Query.Projs {
			var distinct plan.PathwaySet
			for _, row := range rows {
				if p, ok := sl.lookup(t.Var, row.bind); ok {
					distinct.Add(plan.Pathway{Elems: p.Elems})
				}
			}
			out.Values = append(out.Values, int64(distinct.Len()))
		}
		res.Rows = append(res.Rows, out)
		return res, nil
	}
	if len(rows) == 0 {
		return res, nil
	}
	// One slab backs every row's Values.
	n := len(a.Query.Projs)
	vals := make([]any, len(rows)*n)
	for i := range rows {
		row := &rows[i]
		row.Values = vals[i*n : (i+1)*n : (i+1)*n]
		for j, t := range a.Query.Projs {
			v, err := x.termValue(a, t, sl, row.bind)
			if err != nil {
				return nil, err
			}
			row.Values[j] = v
		}
	}
	res.Rows = rows
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

// rows materializes the joined tuples of a query, as rows without Values,
// and the slots they bind. outer and outerRow supply the bindings of a
// correlated subquery's enclosing tuple; outer is nil at the top level.
func (x *Executor) rows(a *query.Analyzed, outer *slots, outerRow Row, rc *runCtx) (*slots, []Row, error) {
	q := a.Query
	order, err := x.evalOrder(a)
	if err != nil {
		return nil, nil, err
	}
	base := len(outerRow.bind)
	sl := &slots{perVar: hasPerVarTimes(q)}
	if outer != nil {
		sl.names = append(sl.names, outer.names[:base]...)
		sl.views = append(sl.views, outer.views[:base]...)
	}
	for _, step := range order {
		rv, _ := q.Var(step.name)
		sl.names = append(sl.names, step.name)
		sl.views = append(sl.views, x.viewFor(step.name, q, rv.At))
	}

	joins, subNE := splitPreds(a)

	// Evaluate variables in order, growing the tuple set and applying join
	// predicates as soon as both sides are bound (pushing selections into
	// the nested-loops join).
	tuples := []Row{outerRow}
	for k, step := range order {
		width := base + k + 1
		view := sl.views[width-1]
		var next []Row
		for _, tup := range tuples {
			// Checkpoint between tuple evaluations: a canceled query stops
			// growing the join instead of finishing the nested loop.
			if err := rc.gov.Check(); err != nil {
				return nil, nil, err
			}
			paths, err := x.evalVar(a, step, view, sl, tup.bind, rc)
			if err != nil {
				return nil, nil, err
			}
			if next == nil && len(paths) > 0 {
				// Exact for the first (often only) tuple; later ones append.
				next = make([]Row, 0, len(paths))
			}
			// A tuple with no slots yet binds each pathway in place, as a
			// window of the evaluation's own set. Otherwise one slab holds
			// every new tuple's slots: the parent's, then the pathway just
			// bound. A tuple the joins reject gives its slots back to the
			// next one.
			var slab []plan.Pathway
			if width > 1 {
				slab = make([]plan.Pathway, 0, len(paths)*width)
			}
			for i := range paths {
				at := len(slab)
				nt := Row{bind: paths[i : i+1 : i+1], slots: sl}
				if width > 1 {
					slab = append(append(slab, tup.bind...), paths[i])
					nt.bind = slab[at:len(slab):len(slab)]
				}
				if !x.joinsSatisfied(a, joins, sl, nt.bind) {
					slab = slab[:at]
					continue
				}
				next = append(next, nt)
			}
		}
		tuples = next
	}

	// Temporal row semantics: with query-level time, all pathways in a row
	// must coexist and the row reports the maximal coexistence ranges.
	if !sl.perVar {
		window := x.windowFor(q)
		kept := tuples[:0] // filtered in place
		for _, tup := range tuples {
			co := coexistence(q, sl, tup.bind)
			if co.IsEmpty() {
				continue
			}
			if !co.Overlaps(window) {
				continue
			}
			tup.Coexist = co
			kept = append(kept, tup)
		}
		tuples = kept
	}

	// NOT EXISTS subqueries.
	for _, sub := range subNE {
		tuples, err = x.applyNotExists(sub, sl, tuples, rc)
		if err != nil {
			return nil, nil, err
		}
	}
	return sl, tuples, nil
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
}

// evalOrder plans the variable evaluation order: anchored variables by
// ascending anchor cost, then variables whose anchors are imported from
// joins against already-ordered variables.
func (x *Executor) evalOrder(a *query.Analyzed) ([]evalStep, error) {
	q := a.Query
	var anchored []evalStep
	pending := map[string]bool{}
	for _, rv := range q.Vars {
		checked := a.Checked[rv.Name]
		st := x.engineFor(rv.Name).Accessor().Store()
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
	eng := x.engineFor(step.name)
	opts := plan.EvalOpts{Gov: rc.gov, Through: rc.through, TraceParent: rc.varSpan(step.name)}
	if step.seeded {
		seeds, err := x.seedsFor(step, sl, bind, eng)
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
func (x *Executor) seedsFor(step evalStep, sl *slots, bind []plan.Pathway, eng *plan.Engine) ([]graph.UID, error) {
	seedPath, ok := sl.lookup(step.seedVar, bind)
	if !ok {
		return nil, fmt.Errorf("exec: internal: seed variable %q not bound", step.seedVar)
	}
	seedNode := seedPath.Source()
	if step.seedVarFn == query.FnTarget {
		seedNode = seedPath.Target()
	}
	from := x.engineFor(step.seedVar).Accessor().Store()
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

// applyNotExists filters tuples through one NOT EXISTS subquery.
func (x *Executor) applyNotExists(sub *query.Analyzed, sl *slots, tuples []Row, rc *runCtx) ([]Row, error) {
	var kept []Row
	for _, tup := range tuples {
		_, subRows, err := x.rows(sub, sl, tup, rc)
		if err != nil {
			return nil, err
		}
		if len(subRows) == 0 {
			kept = append(kept, tup)
		}
	}
	return kept, nil
}

// viewFor resolves the temporal view of a variable on its routed store.
func (x *Executor) viewFor(varName string, q *query.Query, varAt *query.TimeSpec) graph.View {
	st := x.engineFor(varName).Accessor().Store()
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
func (x *Executor) windowFor(q *query.Query) temporal.Interval {
	if q.At == nil {
		if q.Agg != query.AggNone {
			return allHistory
		}
		// Implicit current snapshot: the coexistence check happens against
		// "now" — with routed variables on stores with independent clocks,
		// the latest of the participating nows.
		now := x.Default.Accessor().Store().Clock().Now()
		for _, eng := range x.Routes {
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
func aggregate(q *query.Query, rows []Row, perVar bool) *AggValue {
	var all temporal.Set
	for _, tup := range rows {
		if perVar {
			for _, p := range tup.bind {
				all = append(all, p.Validity...)
			}
			continue
		}
		all = append(all, tup.Coexist...)
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

func splitPreds(a *query.Analyzed) ([]*query.JoinPred, []*query.Analyzed) {
	var joins []*query.JoinPred
	subs := a.Subqueries
	for _, p := range a.Query.Preds {
		if jp, ok := p.(*query.JoinPred); ok {
			joins = append(joins, jp)
		}
	}
	return joins, subs
}
