package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rpe"
	"repro/internal/stats"
)

// Prepared is a statement ready to execute many times: its analysis,
// bound from the statement table's template of its shape (see
// DB.Prepare), and its fingerprint. A Prepared is immutable and safe for
// concurrent Run calls: every execution builds its own governor and
// physical plans, so prepared statements can be shared across server
// request handlers and standing queries.
//
// A Prepared is bound to the DB (schema, views, backend) it was prepared
// on; executing it after the store's contents changed is fine — the
// anchor choice is re-costed per execution from live statistics.
type Prepared struct {
	db    *DB
	src   string
	a     *query.Analyzed
	shape *shape
	// cached reports that Prepare found the shape compiled.
	cached bool
}

// Text returns the statement's original query text.
func (p *Prepared) Text() string { return p.src }

// Cached reports whether the statement was bound to a template already
// in the statement table rather than compiled.
func (p *Prepared) Cached() bool { return p.cached }

// Digest returns the statement's shape digest (query.Fingerprint) — the
// key under which its executions aggregate in the statistics store.
func (p *Prepared) Digest() string { return p.shape.digest }

// NormalizedText returns the parameter-masked statement the digest is
// computed from.
func (p *Prepared) NormalizedText() string { return p.shape.norm }

// Explain returns the statement's textual plan: per-variable anchors and
// operator DAGs (§5.1's Select/Extend/Union form), costed on the live
// statistics.
func (p *Prepared) Explain() string {
	var sb strings.Builder
	for _, rv := range p.a.Query.Vars {
		fmt.Fprintf(&sb, "-- variable %s --\n", rv.Name)
		pl, err := p.VarPlan(rv.Name)
		if err != nil {
			fmt.Fprintf(&sb, "anchor: imported from join (%v)\n", err)
		}
		sb.WriteString(pl.Explain())
	}
	return sb.String()
}

// Query returns the statement's syntax tree, literals bound. It is
// shared by every execution: read it, do not modify it.
func (p *Prepared) Query() *query.Query { return p.a.Query }

// VarPlan returns the plan of range variable name as Explain shows it:
// built on the live statistics, or — when the variable has no anchor of
// its own, err saying why — seeded forward, its anchor to be imported
// from a join.
func (p *Prepared) VarPlan(name string) (pl *plan.Plan, err error) {
	checked := p.a.Checked[name]
	if pl, err = plan.Build(checked, p.db.store.Stats()); err != nil {
		pl = plan.BuildSeeded(checked, plan.Forward)
	}
	return pl, err
}

// Footprint returns the sorted set of class names whose mutations can
// change this statement's result: the union of every atom's subclass
// subtree across the query's pathway expressions, view constraints, and
// NOT EXISTS subqueries, and every class of a kind those expressions'
// pathways hold where no atom consumes it (plan.ClassFootprint). The
// watch subsystem uses it to skip re-running
// standing queries for mutations that provably cannot affect them.
func (p *Prepared) Footprint() []string {
	var cs []*rpe.Checked
	var walk func(a *query.Analyzed)
	walk = func(a *query.Analyzed) {
		if a == nil {
			return
		}
		for _, c := range a.Checked {
			cs = append(cs, c)
		}
		for _, c := range a.ViewChecked {
			cs = append(cs, c)
		}
		for _, sub := range a.Subqueries {
			walk(sub)
		}
	}
	walk(p.a)
	return plan.ClassFootprint(p.db.Schema(), cs...)
}

// Exec is Run with no options: the statement under ctx and the DB's
// limits, untraced.
func (p *Prepared) Exec(ctx context.Context) (*exec.Result, error) {
	return p.Run(ctx, exec.RunOptions{})
}

// Patchable reports whether each row of the statement's answer is one
// pathway's, in or out by that pathway's own elements now: one range
// variable over PATHS, no time binding, no aggregate, no join predicate
// and no subquery. A write then changes only the rows of the pathways
// through the elements it touched, which Run with o.Through finds.
func (p *Prepared) Patchable() bool {
	q := p.a.Query
	if len(q.Vars) != 1 || q.At != nil || q.Vars[0].At != nil || q.Agg != query.AggNone ||
		len(p.a.ViewChecked) > 0 || len(p.a.Subqueries) > 0 {
		return false
	}
	for _, t := range q.Projs {
		if t.Fn == query.FnCount {
			return false
		}
	}
	for _, pr := range q.Preds {
		if _, ok := pr.(*query.MatchPred); !ok {
			return false
		}
	}
	return true
}

// ExplainTrace renders a traced result of this statement in the style of
// EXPLAIN ANALYZE: each variable's executed plan annotated with the
// measured per-operator statistics of res.Trace — wall time, rows in/out,
// backend probes, EdgesScanned — then the query's totals.
func (p *Prepared) ExplainTrace(res *exec.Result) string {
	var sb strings.Builder
	for _, rv := range p.a.Query.Vars {
		pl := res.Plans[rv.Name]
		if pl == nil {
			continue
		}
		fmt.Fprintf(&sb, "-- variable %s [%s] --\n", rv.Name, p.db.backend)
		sb.WriteString(pl.ExplainAnalyze(varSpan(res.Trace, rv.Name)))
	}
	fmt.Fprintf(&sb, "Query: time=%s rows=%d %s\n",
		obs.FormatDuration(res.Trace.Duration()), len(res.Rows), res.Metrics)
	return sb.String()
}

// Run is the one body every query executes: the statement under ctx
// and o on the DB's executor, o.Limits folded into the DB's limits (per
// field, the smaller nonzero bound wins), then the finished query
// recorded into the registry's db.* metrics and the per-statement
// statistics store under the digest computed at Prepare. Aborted
// queries (err != nil) count into db.queries_aborted and under their
// outcome in the statistics.
//
// A non-nil o.Parent receives the execution's "Query" span tree as a
// child (the server passes its request's Execute phase span here), and
// ExplainTrace renders it. o.Routes evaluates the named variables on
// other DBs' engines (DB.Engine), joined here. A non-nil o.Through —
// empty means restricted to nothing — restricts a Patchable statement to
// the pathways holding one of those elements, each row one such
// pathway's (Row.Binding); the o.Kept pathways the caller keeps from
// earlier runs are charged against MaxPaths first, so the run fails with
// the limit a full run would cross.
func (p *Prepared) Run(ctx context.Context, o exec.RunOptions) (*exec.Result, error) {
	if o.Through != nil && !p.Patchable() {
		return nil, fmt.Errorf("core: %q cannot be restricted to the pathways through given elements", p.shape.norm)
	}
	db := p.db
	o.Limits = db.limits.Tighten(o.Limits)
	start := time.Now()
	res, err := db.executor.Run(ctx, p.a, o)
	dur := time.Since(start)
	if res != nil {
		res.Digest = p.shape.digest
	}
	db.o.queries.Add(1)
	if err != nil {
		db.o.aborted.Add(1)
	}
	db.o.latency.Observe(float64(dur) / 1e6)
	if res != nil {
		db.o.edgesScanned.Observe(float64(res.Metrics.EdgesScanned))
	}
	if db.stmtStats != nil {
		ob := stats.Observation{Duration: dur, Outcome: exec.Outcome(err)}
		if res != nil {
			ob.Edges = int64(res.Metrics.EdgesScanned)
			ob.Rows = int64(len(res.Rows))
		}
		db.stmtStats.Observe(p.shape.digest, p.shape.norm, ob)
	}
	return res, err
}
